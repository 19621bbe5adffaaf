"""Population state: the individual record MOHECO evolves."""

from __future__ import annotations

import numpy as np

from repro.yieldsim.estimator import CandidateYieldState, YieldEstimate

__all__ = ["Individual"]


class Individual:
    """One candidate design with its feasibility and yield bookkeeping.

    Attributes
    ----------
    x:
        Design vector.
    feasible:
        Nominal-point feasibility (the paper's step-3 gate).
    violation:
        Aggregate normalised constraint violation at the nominal point
        (0 when feasible).
    state:
        The candidate's incremental yield estimator; ``None`` for
        infeasible candidates (the paper assigns them yield 0 and never
        spends MC samples on them).
    stage:
        1 while estimated by OCBA, 2 once promoted to the full ``n_max``
        sample count.
    """

    def __init__(
        self,
        x: np.ndarray,
        feasible: bool,
        violation: float,
        state: CandidateYieldState | None = None,
    ) -> None:
        self.x = np.array(x, dtype=float)
        self.feasible = bool(feasible)
        self.violation = float(violation)
        self.state = state
        self.stage = 1

    # -- views -----------------------------------------------------------------
    @property
    def yield_value(self) -> float:
        """Estimated yield (0 for infeasible candidates)."""
        if not self.feasible or self.state is None:
            return 0.0
        return self.state.value

    @property
    def estimate(self) -> YieldEstimate:
        """Current estimate snapshot (n=0 for infeasible candidates)."""
        if self.state is None:
            return YieldEstimate(passes=0, n=0)
        return self.state.estimate

    @property
    def n_samples(self) -> int:
        """Samples incorporated in the candidate's estimate."""
        return 0 if self.state is None else self.state.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Individual(yield={self.yield_value:.4f}, n={self.n_samples}, "
            f"feasible={self.feasible}, violation={self.violation:.3g}, "
            f"stage={self.stage})"
        )
