"""Every repository document a Python file names exists.

A docstring that sends the reader to a document missing from the tree
tells them nothing, so each upper-case Markdown name (the ``DOCUMENT``
pattern) in a ``.py`` file under ``src/``, ``tests/``, ``benchmarks/`` or
``examples/`` must be a file at the repository root.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCUMENT = re.compile(r"\b[A-Z][A-Z0-9_]*\.md\b")


def test_every_named_document_exists():
    missing = {}
    for top in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for name in DOCUMENT.findall(path.read_text(encoding="utf-8")):
                if not (ROOT / name).is_file():
                    missing.setdefault(name, []).append(str(path.relative_to(ROOT)))
    assert missing == {}
