"""Per-run records and per-method aggregation of a seed sweep.

The paper's evaluation protocol is replicated runs — "10 runs with
independent random numbers have been performed for all experiments" —
aggregated into best / worst / average / variance tables.  A
:class:`RunRecord` is one such run scored against its high-N reference MC;
a :class:`MethodSummary` is all runs of one method on one problem.

Both types are JSON-round-trippable: records are what the resumable
:class:`~repro.sweep.store.ResultStore` persists line by line, and what
process-pool sweep workers ship back to the parent.  The optimizer output
travels as the plain :meth:`~repro.core.moheco.MOHECOResult.to_dict`
payload, never as the live object — a paper-scale sweep would otherwise
retain every run's full history/ledger graph in memory, and live results
don't pickle cheaply across worker boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.moheco import result_identity

__all__ = ["RunRecord", "MethodSummary"]


@dataclass
class RunRecord:
    """One optimization run, scored against the reference MC."""

    method: str
    run_index: int
    reported_yield: float
    reference_yield: float
    n_simulations: int
    generations: int
    reason: str
    wall_seconds: float
    #: The run's :meth:`MOHECOResult.to_dict` payload (plain JSON data, not
    #: the live object — see the module docstring), or ``None`` when the
    #: producer dropped it.
    result: dict | None = field(repr=False, default=None)
    #: Problem label of the sweep cell this run belongs to ("" for records
    #: built outside a sweep grid).
    problem: str = ""

    @property
    def deviation(self) -> float:
        """|reported - reference| — the quantity of Tables 1 and 3."""
        return abs(self.reported_yield - self.reference_yield)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation (one ResultStore line's payload)."""
        return {
            "method": self.method,
            "problem": self.problem,
            "run_index": int(self.run_index),
            "reported_yield": float(self.reported_yield),
            "reference_yield": float(self.reference_yield),
            "n_simulations": int(self.n_simulations),
            "generations": int(self.generations),
            "reason": str(self.reason),
            "wall_seconds": float(self.wall_seconds),
            "result": self.result,
        }

    def identity_dict(self) -> dict:
        """:meth:`to_dict` minus the wall-clock fields.

        This is the record's *result identity* — what must be byte-equal
        between a serial and a sharded execution of the same run (timing
        legitimately differs).  The result payload goes through
        :func:`~repro.core.moheco.result_identity`, the same rule as
        :meth:`MOHECOResult.identity_dict`.
        """
        data = self.to_dict()
        data.pop("wall_seconds")
        if isinstance(data.get("result"), dict):
            data["result"] = result_identity(data["result"])
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        """Inverse of :meth:`to_dict`."""
        return cls(
            method=str(data["method"]),
            run_index=int(data["run_index"]),
            reported_yield=float(data["reported_yield"]),
            reference_yield=float(data["reference_yield"]),
            n_simulations=int(data["n_simulations"]),
            generations=int(data["generations"]),
            reason=str(data["reason"]),
            wall_seconds=float(data["wall_seconds"]),
            result=data.get("result"),
            problem=str(data.get("problem", "")),
        )


@dataclass
class MethodSummary:
    """All runs of one method."""

    method: str
    records: list[RunRecord]
    #: Problem label when the summary comes from a sweep grid cell.
    problem: str = ""

    def deviations(self) -> np.ndarray:
        """Per-run deviations."""
        return np.array([r.deviation for r in self.records])

    def simulations(self) -> np.ndarray:
        """Per-run total simulation counts."""
        return np.array([r.n_simulations for r in self.records], dtype=float)
