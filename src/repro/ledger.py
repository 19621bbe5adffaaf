"""Simulation budget accounting.

The paper's efficiency claims (Tables 2 and 4) are stated in *number of
circuit simulations*: each Monte-Carlo sample that is actually evaluated by
the circuit simulator counts as one simulation.  This module provides the
single source of truth for that count.

Design notes
------------
* The ledger is an explicit object passed to the components that consume
  budget (yield estimators, feasibility checks, local search).  There is no
  global mutable state; experiments create one ledger per run.
* Acceptance sampling *skips* simulations by classifying easy samples with a
  cheap surrogate.  Skipped samples are recorded separately
  (``screened_out``) and never counted as simulations, mirroring how the
  paper credits AS with reducing the simulation count.
* The surrogate screen of a screened method (:mod:`repro.compose`)
  prunes whole *candidates* before any of their samples are drawn.
  Pruned candidates charge zero simulations; the count of pruned
  candidates is recorded under the ``pruned`` column so efficiency
  reports can show what the screener saved.  The column is deterministic
  — prune decisions are part of the result identity — so it participates
  in cross-backend equality checks.
* Categories let experiments break the total down (stage-1 OCBA sims,
  stage-2 max-N sims, feasibility checks, local search, reference MC).  The
  *reference* category is excluded from :attr:`total` because the paper's
  tables exclude the 50 000-sample verification runs.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimulationLedger", "LedgerSnapshot"]

#: Category used for high-N verification MC runs; excluded from ``total``.
REFERENCE_CATEGORY = "reference"


@dataclass
class LedgerSnapshot:
    """Immutable view of a ledger at a point in time."""

    total: int
    by_category: dict[str, int]
    screened_out: int
    pruned: int = 0

    def delta(self, earlier: "LedgerSnapshot") -> int:
        """Simulations charged between ``earlier`` and this snapshot."""
        return self.total - earlier.total


class SimulationLedger:
    """Counts circuit simulations, broken down by category.

    Example
    -------
    >>> ledger = SimulationLedger()
    >>> ledger.charge(500, category="stage2")
    >>> ledger.total
    500
    """

    def __init__(self) -> None:
        self._by_category: dict[str, int] = {}
        self._screened_out: int = 0
        self._pruned: int = 0

    # -- charging ---------------------------------------------------------
    def charge(self, n: int, category: str = "mc") -> None:
        """Record ``n`` circuit simulations under ``category``."""
        if n < 0:
            raise ValueError(f"cannot charge a negative simulation count: {n}")
        if n == 0:
            return
        self._by_category[category] = self._by_category.get(category, 0) + int(n)

    def record_screened(self, n: int) -> None:
        """Record ``n`` samples classified without a full simulation."""
        if n < 0:
            raise ValueError(f"cannot record a negative screened count: {n}")
        self._screened_out += int(n)

    def record_pruned(self, n: int) -> None:
        """Record ``n`` candidates a surrogate screener pruned unsimulated.

        Pruned candidates never charge: no feasibility check, no MC
        samples.  The column only documents how much work the screener
        declined on the method's behalf.
        """
        if n < 0:
            raise ValueError(f"cannot record a negative pruned count: {n}")
        self._pruned += int(n)

    # -- reading ----------------------------------------------------------
    @property
    def total(self) -> int:
        """Total charged simulations, excluding the reference category."""
        return sum(
            count
            for category, count in self._by_category.items()
            if category != REFERENCE_CATEGORY
        )

    @property
    def grand_total(self) -> int:
        """Total including reference-MC verification simulations."""
        return sum(self._by_category.values())

    @property
    def screened_out(self) -> int:
        """Samples acceptance sampling resolved without simulation."""
        return self._screened_out

    @property
    def pruned(self) -> int:
        """Candidates a surrogate screener pruned before simulation."""
        return self._pruned

    def by_category(self) -> dict[str, int]:
        """A copy of the per-category breakdown."""
        return dict(self._by_category)

    def count(self, category: str) -> int:
        """Simulations charged under one category."""
        return self._by_category.get(category, 0)

    def snapshot(self) -> LedgerSnapshot:
        """Capture the current state (cheap, immutable)."""
        return LedgerSnapshot(
            total=self.total,
            by_category=self.by_category(),
            screened_out=self._screened_out,
            pruned=self._pruned,
        )

    def reset(self) -> None:
        """Zero all counters (used between experiment repetitions)."""
        self._by_category.clear()
        self._screened_out = 0
        self._pruned = 0

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation."""
        return {
            "by_category": self.by_category(),
            "screened_out": self._screened_out,
            "pruned": self._pruned,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationLedger":
        """Rebuild a ledger from :meth:`to_dict` output (other keys are
        ignored)."""
        ledger = cls()
        for category, count in data.get("by_category", {}).items():
            ledger.charge(int(count), category=category)
        ledger.record_screened(int(data.get("screened_out", 0)))
        ledger.record_pruned(int(data.get("pruned", 0)))
        return ledger

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v}" for k, v in sorted(self._by_category.items()))
        return (
            f"SimulationLedger(total={self.total}, {parts}, "
            f"screened={self._screened_out}, pruned={self._pruned})"
        )
