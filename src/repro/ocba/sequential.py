"""Sequential OCBA over a population of candidate yield estimates.

The paper's stage-1 procedure: every feasible candidate starts with ``n0``
samples; the remaining budget ``T - S * n0`` is released in increments of
``Delta``, each increment allocated by the closed form using the freshest
mean/std estimates.  Candidates whose running estimate exceeds the stage-2
threshold are recorded so the caller can promote them.

``T`` follows the paper: ``sim_ave * N_fea`` — the average budget per
feasible candidate times the number of candidates selected by the
feasibility check.

The loop is *round-oriented*: each iteration computes every candidate's
gain, clamps the round to the remaining budget, and submits the whole
round to :meth:`SerialEngine.refine_round
<repro.engine.serial.SerialEngine.refine_round>` as one fused refinement,
executed as stacked vectorized dispatches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engine.serial import SerialEngine
from repro.ocba.allocation import clamp_gains, ocba_allocation
from repro.yieldsim.estimator import CandidateYieldState

__all__ = ["OCBAReport", "ocba_sequential"]


@dataclass
class OCBAReport:
    """What the sequential loop did (consumed by Fig. 3 and tests)."""

    #: Final per-candidate sample counts (simulated + screened).
    counts: np.ndarray
    #: Final per-candidate yield estimates.
    estimates: np.ndarray
    #: Number of allocation rounds executed.
    rounds: int
    #: The budget the loop was asked to spend (None when not applicable).
    budget: int | None = None
    #: Total samples incorporated across candidates.
    total_samples: int = field(init=False)

    def __post_init__(self) -> None:
        self.total_samples = int(np.sum(self.counts))


def ocba_sequential(
    states: list[CandidateYieldState],
    total_budget: int,
    n0: int = 15,
    delta: int = 50,
) -> OCBAReport:
    """Distribute ``total_budget`` samples across candidate estimates.

    Parameters
    ----------
    states:
        Candidate yield states (refined in place).
    total_budget:
        Total sample budget T for this population (paper: sim_ave * N_fea).
    n0:
        Initial samples per candidate.
    delta:
        Budget increment per allocation round (>= 1).

    Returns
    -------
    OCBAReport
        Final counts and estimates.

    Notes
    -----
    Counts are *samples incorporated in estimates*; with acceptance sampling
    the charged simulations can be fewer (the ledger tracks those).  If a
    candidate already has more samples than its allocation asks for (e.g. a
    surviving parent), it simply receives nothing new — budget is never
    clawed back, matching sequential OCBA practice.

    The total never exceeds ``total_budget``: a round whose gains overshoot
    the remaining budget is clamped proportionally (the pilot phase is the
    one exception — every candidate is owed ``n0`` regardless, and
    pre-refined states keep what they have).
    """
    if delta < 1:
        raise ValueError(f"delta must be >= 1, got {delta}")
    if not states:
        return OCBAReport(
            counts=np.zeros(0, dtype=int),
            estimates=np.zeros(0),
            rounds=0,
            budget=int(total_budget) if total_budget >= 0 else None,
        )
    if total_budget < 0:
        raise ValueError(f"total budget must be non-negative, got {total_budget}")
    engine = SerialEngine()
    problem = states[0].problem

    def counts() -> np.ndarray:
        return np.array([state.n for state in states], dtype=int)

    # Phase 0: everyone gets the pilot n0, as one fused round.
    engine.refine_round(problem, states, np.maximum(n0 - counts(), 0))
    pilot_spent = int(np.sum(counts()))

    rounds = 0
    spent = pilot_spent
    while spent < total_budget:
        budget_now = min(spent + delta, total_budget)
        means = np.array([state.value for state in states])
        stds = np.array([state.std for state in states])
        targets = ocba_allocation(means, stds, budget_now, minimum=0)
        gains = np.maximum(targets - counts(), 0)
        if np.sum(gains) == 0:
            # The allocation wants to rebalance below current counts
            # everywhere; push the increment onto the observed best so the
            # loop always progresses.
            best = int(np.argmax(means))
            gains[best] = budget_now - spent
        # Candidates sitting above their target contribute no negative
        # gain, so the positive gains can sum past the remaining budget;
        # clamp the fused round so the loop never overspends.
        remaining = total_budget - spent
        if np.sum(gains) > remaining:
            gains = clamp_gains(gains, remaining)
        engine.refine_round(problem, states, gains)
        spent = int(np.sum(counts()))
        rounds += 1

    report = OCBAReport(
        counts=counts(),
        estimates=np.array([state.value for state in states]),
        rounds=rounds,
        budget=int(total_budget),
    )
    if pilot_spent <= total_budget:
        assert report.total_samples <= total_budget, (
            f"OCBA overspent its budget: {report.total_samples} samples "
            f"against T = {total_budget}"
        )
    return report
