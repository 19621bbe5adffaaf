"""Multi-fidelity stage 1: successive-halving ladders inside the DE loop.

With ``MOHECOConfig.allocation == "ladder"``, :class:`~repro.core.moheco.MOHECO`
replaces the flat stage-1 OCBA pass with a :class:`LadderAllocation`: every
feasible trial enters the bracket's cheap wide rung of a
:class:`~repro.mf.ladder.FidelityLadder`, each rung dispatches as **one
fused refinement round** through the ordinary engine (unchanged), OCBA
allocates *within* a rung
(:func:`~repro.ocba.allocation.rung_allocation`), and the top ``1/eta``
by pooled yield estimate climb to the next fidelity.  Every rung draws
unbiased samples of the same Bernoulli yield, so a candidate's pooled
pass ratio over all its rungs (``CandidateYieldState.value``, the
maximum-likelihood estimate) ranks it, as it is also its selection
fitness and reported yield.  Survivors of the final rung sit at full
stage-2 fidelity (``n_max``), so the surrounding loop — stage-2
promotion, memetic local search, stopping rules — runs exactly as in the
paper's method.  Any MOHECO-family method, screened ones included,
climbs the ladder under ``allocation="ladder"``.

Every ladder decision (bracket, rung fidelities, gains, counts,
promotions) is recorded on ``MOHECOResult.fidelity_trace``, which is part
of the result *identity*: it must be bit-identical across engines and
sweep worker counts.  That holds by construction —
the schedule is arithmetic over candidate estimates, and estimates are
already engine-invariant (sample generation stays in-parent, per
candidate, on private RNG streams).
"""

from __future__ import annotations

import numpy as np

from repro.mf.ladder import FidelityLadder
from repro.ocba.allocation import rung_allocation

__all__ = ["LadderAllocation", "ladder_allocation"]


def ladder_allocation(config, mf_params: dict | None = None):
    """The run's :class:`LadderAllocation`, or ``None`` without a ladder.

    ``mf_params`` only configure a ladder, so a config whose
    ``allocation`` is not ``"ladder"`` rejects them with ``ValueError``
    instead of running as if they were not there.
    """
    if config.allocation == "ladder":
        return LadderAllocation(config, mf_params)
    if mf_params is not None:
        raise ValueError(
            "mf_params configure the fidelity ladder and need "
            f"allocation='ladder', got allocation={config.allocation!r}"
        )
    return None


class LadderAllocation:
    """Ladder-scheduled stage-1 yield estimation of one run.

    ``mf_params`` are the ladder knobs ``{"eta", "r_min", "brackets"}``
    (see :meth:`FidelityLadder.from_params`; ``R`` is pinned to the
    config's ``n_max``).  Every :meth:`climb` appends one entry to
    :attr:`trace`, the run's ``fidelity_trace``.
    """

    def __init__(self, config, mf_params: dict | None = None) -> None:
        self.ladder = FidelityLadder.from_params(config.n_max, config.n0, mf_params)
        self.trace: list[dict] = []

    def climb(self, feasible: list, refine_round) -> int:
        """Climb one bracket with a generation's feasible candidates.

        ``refine_round(states, gains, category=...)`` runs one fused
        engine round; returns the number of rungs climbed.  ``members``
        holds indices into ``feasible`` — stable identifiers for the
        trace.  Rung 0 is the flat pilot (everyone raised to the opening
        fidelity); later rungs spend ``m_k * r_k - already_spent``
        OCBA-weighted.  Each rung is exactly one fused engine round, after
        which the top ``1/eta`` by pooled estimate (``state.value``, ties
        to the lower index) climb to the next rung.
        """
        ladder = self.ladder
        generation = len(self.trace)
        s = ladder.bracket_for(generation)
        fidelities = ladder.rung_fidelities(s) if feasible else []
        members = list(range(len(feasible)))
        rung_trace = []

        for k, fidelity in enumerate(fidelities):
            states = [feasible[i].state for i in members]
            counts = np.array([state.n for state in states], dtype=int)
            if k == 0:
                gains = np.maximum(fidelity - counts, 0)
            else:
                # The rung budget raises the *average* member to the rung
                # fidelity; OCBA decides who gets how much of the delta.
                gains = rung_allocation(
                    np.array([state.value for state in states]),
                    np.array([state.std for state in states]),
                    counts,
                    fidelity * len(members),
                )
            if np.any(gains):
                refine_round(states, [int(g) for g in gains], category="stage1")
            if k < len(fidelities) - 1:
                keep = ladder.survivors(len(members))
                ranked = sorted(members, key=lambda i: (-feasible[i].state.value, i))
                promoted = sorted(ranked[:keep])
            else:
                promoted = list(members)
            rung_trace.append(
                {
                    "fidelity": int(fidelity),
                    "members": [int(i) for i in members],
                    "gains": [int(g) for g in gains],
                    "counts": [int(state.n) for state in states],
                    "promoted": [int(i) for i in promoted],
                }
            )
            members = promoted

        self.trace.append(
            {"generation": int(generation), "bracket": int(s), "rungs": rung_trace}
        )
        return len(fidelities)
