#!/usr/bin/env python3
"""Did a change move any pinned result?  Compare two source trees.

    python ci/identity_ab.py BASE_DIR HEAD_DIR

Each directory is a copy of this repository: for example the merge base,
unpacked with ``git archive <merge-base> | tar -x -C BASE_DIR``, and the
working tree.  For each tree, a fresh interpreter imports that tree's own
``src`` and ``tests/test_goldens.py`` / ``tests/test_evaluator_goldens.py``
and computes the identity hash of every pinned run (``RUNS``) and the
output hash of every evaluator case (``CASES``).  This happens twice: at
the default BLAS/OpenMP thread count and at one thread.  Every key whose
hash differs between the two trees is printed.

The script exits with 1 when, at either thread count, the changed keys
differ from the keys whose pinned hash ``HEAD_DIR`` changes in
``tests/goldens/*.json``: an intended re-pin passes, a result that moves
unpinned (or a pin that moves without its result) fails.  The pinned
goldens themselves are checked only on the platform that wrote them; this
comparison holds on any machine, because both trees run in one
environment.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

#: Golden file -> the table that holds its hashes.
GOLDEN_FILES = {"identity.json": "runs", "evaluators.json": "cases"}

#: Label -> environment of one pass.  BLAS reads its thread count when
#: numpy loads it, so each pass runs in fresh interpreters.
THREADS = {
    "default threads": {},
    "1 BLAS thread": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
}


def child_hashes(tree: str) -> dict:
    """The hashes of every pinned run and evaluator case of ``tree``.

    Runs in the child interpreter, whose path holds the tree's ``src`` and
    ``tests`` directories only.
    """
    import repro

    src = Path(tree, "src").resolve()
    if Path(repro.__file__).resolve().parents[1] != src:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {src}")
    import test_evaluator_goldens as evaluators
    import test_goldens as goldens

    # Trees from before the acceptance-sampling-off goldens key a run by
    # its problem, method and seed alone.
    key_fields = len(inspect.signature(goldens.run_key).parameters)
    hashes = {}
    for run in goldens.RUNS:
        problem, method, seed, overrides = run
        key = f"identity.json:{goldens.run_key(*run[:key_fields])}"
        hashes[key] = goldens.pinned_run(problem, method, seed, overrides)["sha256"]
    amps = {name: build() for name, build in evaluators.CIRCUITS.items()}
    for circuit, shape, rows in evaluators.CASES:
        key = f"evaluators.json:{evaluators.case_key(circuit, shape, rows)}"
        hashes[key] = evaluators.output_hash(amps[circuit], shape, rows)
    return hashes


def tree_hashes(tree: Path, threads: dict) -> dict:
    """:func:`child_hashes` of ``tree``, computed in a fresh interpreter."""
    env = dict(os.environ, **threads)
    env["PYTHONPATH"] = os.pathsep.join([str(tree / "src"), str(tree / "tests")])
    child = subprocess.run(
        [sys.executable, __file__, "--child", str(tree)],
        env=env,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if child.returncode != 0:
        raise SystemExit(f"error: hashing {tree} failed:\n{child.stderr}")
    return json.loads(child.stdout)


def pinned_hashes(tree: Path) -> dict:
    """The hashes ``tree`` pins in ``tests/goldens/*.json``, keyed as above."""
    hashes = {}
    for name, table in GOLDEN_FILES.items():
        path = tree / "tests" / "goldens" / name
        for key, entry in json.loads(path.read_text())[table].items():
            hashes[f"{name}:{key}"] = entry if isinstance(entry, str) else entry["sha256"]
    return hashes


def changed(base: dict, head: dict) -> list[str]:
    """Keys whose hash differs, or that only one side has."""
    return sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))


def _print_keys(title: str, keys: list[str]) -> None:
    print(f"{title}: {len(keys)}")
    for key in keys:
        print(f"  {key}")


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--child":
        json.dump(child_hashes(argv[1]), sys.stdout)
        return 0
    if len(argv) != 2:
        print("usage:", __doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    base, head = (Path(arg).resolve() for arg in argv)
    repinned = changed(pinned_hashes(base), pinned_hashes(head))
    _print_keys("pins changed in tests/goldens/", repinned)
    failed = False
    for label, threads in THREADS.items():
        base_hashes = tree_hashes(base, threads)
        head_hashes = tree_hashes(head, threads)
        moved = changed(base_hashes, head_hashes)
        keys = len(base_hashes.keys() | head_hashes.keys())
        _print_keys(f"{label}: changed of {keys} keys", moved)
        unpinned = sorted(set(moved) - set(repinned))
        stale = sorted(set(repinned) - set(moved))
        if unpinned:
            failed = True
            print(f"error: {label}: results changed without a re-pin: {unpinned}")
        if stale:
            failed = True
            print(f"error: {label}: pins changed but their results did not: {stale}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
