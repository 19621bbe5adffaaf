"""Resumable JSONL result store for seed sweeps.

One file per sweep.  The first line is a header carrying the
:meth:`~repro.sweep.spec.SweepSpec.sweep_hash` (and the full spec, for
humans and tooling); every following line is one completed run::

    {"kind": "sweep-header", "version": 1, "sweep_hash": "...", "spec": {...}}
    {"kind": "run", "key": "sphere|MOHECO|0", "record": {...}}

Records append incrementally (flushed per line), so a sweep killed after
``k`` runs leaves ``k`` valid lines behind; reopening the same spec with
``resume=True`` replays those and executes only the missing runs.  The
header hash covers exactly the result-determining fields of the spec —
resuming under a different worker count or cache is fine, resuming a
*different experiment* into the same file is refused loudly.

A torn final line (the process died mid-write) is detected on reopen,
dropped with a warning, and the file is compacted to the surviving valid
lines before appending resumes — so the fragment can neither corrupt the
next record nor haunt future resumes; the run it described simply
re-executes.
"""

from __future__ import annotations

import json
import os
import warnings

from repro.sweep.records import RunRecord
from repro.sweep.spec import SweepRun, SweepSpec

__all__ = ["ResultStore", "StoreMismatchError"]

_HEADER_KIND = "sweep-header"
_RUN_KIND = "run"
_VERSION = 1


class StoreMismatchError(RuntimeError):
    """The store on disk belongs to a different sweep spec."""


class ResultStore:
    """Append-only JSONL store of one sweep's :class:`RunRecord` lines.

    Use :meth:`open` (create-or-resume against a spec) rather than the
    constructor.  The store keeps the file handle open in append mode for
    the executor's incremental writes; it is a context manager.
    """

    def __init__(self, path, sweep_hash: str, spec_dict: dict | None = None) -> None:
        self.path = os.fspath(path)
        self.sweep_hash = sweep_hash
        self.spec_dict = spec_dict
        #: Completed runs by store key, in file order.
        self.completed: dict[str, RunRecord] = {}
        self._handle = None

    # -- lifecycle ---------------------------------------------------------
    @classmethod
    def open(
        cls, path, spec: SweepSpec, resume: bool = False
    ) -> "ResultStore":
        """Create the store for ``spec``, or reopen it to resume.

        A fresh path writes the header and starts empty.  An existing path
        requires ``resume=True`` (protecting finished stores from silent
        clobbering) and a matching sweep hash; its run lines are loaded
        into :attr:`completed`.
        """
        path = os.fspath(path)
        sweep_hash = spec.sweep_hash()
        store = cls(path, sweep_hash, spec.to_dict())
        if os.path.exists(path) and os.path.getsize(path) > 0:
            if not resume:
                raise FileExistsError(
                    f"result store {path!r} already exists; pass resume=True "
                    "(CLI: --resume) to continue it, or choose a fresh path"
                )
            store._load_existing(repair=True)
        else:
            store._write_header()
        store._handle = open(path, "a", encoding="utf-8")
        return store

    def close(self) -> None:
        """Close the append handle; reading stays possible via :meth:`load`."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    @property
    def writable(self) -> bool:
        """Whether :meth:`append` will accept records (open handle)."""
        return self._handle is not None

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- writing -----------------------------------------------------------
    def _write_header(self) -> None:
        header = {
            "kind": _HEADER_KIND,
            "version": _VERSION,
            "sweep_hash": self.sweep_hash,
            "spec": self.spec_dict,
        }
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, run: SweepRun, record: RunRecord) -> None:
        """Persist one completed run (flushed immediately)."""
        if self._handle is None:
            raise RuntimeError("store is closed; reopen it with ResultStore.open")
        line = {
            "kind": _RUN_KIND,
            "key": run.key,
            "record": record.to_dict(),
        }
        self._handle.write(json.dumps(line) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.completed[run.key] = record

    # -- reading -----------------------------------------------------------
    def _load_existing(self, repair: bool = False) -> None:
        with open(self.path, encoding="utf-8") as handle:
            raw = handle.read()
        lines = raw.splitlines()
        if not lines:
            raise StoreMismatchError(f"store {self.path!r} has no header line")
        header = self._parse_line(lines[0], line_no=1)
        if header is None or header.get("kind") != _HEADER_KIND:
            raise StoreMismatchError(
                f"store {self.path!r} does not start with a sweep header — "
                "not a sweep result store?"
            )
        if header.get("sweep_hash") != self.sweep_hash:
            raise StoreMismatchError(
                f"store {self.path!r} belongs to sweep "
                f"{header.get('sweep_hash')!r}, not {self.sweep_hash!r}; "
                "the grid/seeds/scale differ — use a fresh store path"
            )
        kept = [lines[0]]
        for line_no, text in enumerate(lines[1:], start=2):
            if not text.strip():
                continue
            entry = self._parse_line(text, line_no=line_no)
            if entry is None:
                continue  # torn tail line: that run re-executes
            kept.append(text)
            if entry.get("kind") != _RUN_KIND:
                continue  # unknown kinds are preserved, not interpreted
            self.completed[entry["key"]] = RunRecord.from_dict(entry["record"])
        if repair and (len(kept) != len(lines) or not raw.endswith("\n")):
            # Compact away torn/blank lines before appends resume: writing
            # after an unterminated fragment would concatenate the next
            # record onto it and corrupt both.  Only the resume/write path
            # repairs — read-only inspection (:meth:`load`) must never
            # touch a file another process may still be appending to.
            self._rewrite(kept)

    def _rewrite(self, lines: list[str]) -> None:
        tmp_path = f"{self.path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.path)

    def _parse_line(self, text: str, line_no: int) -> dict | None:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            warnings.warn(
                f"{self.path}:{line_no}: dropping torn JSONL line "
                "(interrupted write?); the run will re-execute",
                RuntimeWarning,
                stacklevel=3,
            )
            return None

    @classmethod
    def load(cls, path) -> "ResultStore":
        """Read a store without a spec (inspection/aggregation tooling).

        Strictly read-only: no hash validation (the header's own hash is
        trusted), no torn-line repair (another process may be mid-append),
        and the returned store is not :attr:`writable`.
        """
        path = os.fspath(path)
        with open(path, encoding="utf-8") as handle:
            first = handle.readline()
        header = json.loads(first)
        if header.get("kind") != _HEADER_KIND:
            raise StoreMismatchError(f"{path!r} is not a sweep result store")
        store = cls(path, header.get("sweep_hash", ""), header.get("spec"))
        store._load_existing()
        return store

    def __len__(self) -> int:
        return len(self.completed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultStore(path={self.path!r}, sweep_hash={self.sweep_hash!r}, "
            f"completed={len(self.completed)})"
        )
