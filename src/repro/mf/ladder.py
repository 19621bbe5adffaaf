"""Hyperband-style fidelity ladders over the Monte-Carlo sample count.

The paper treats the stage-2 sample count ``n_max`` as the single
evaluation fidelity: every surviving candidate pays full-price
Monte-Carlo from its first pilot.  A :class:`FidelityLadder` turns that
one fidelity into a geometric rung schedule ``r, r*eta, ..., R`` with the
standard successive-halving bracket arithmetic (MBHB/Hyperband)::

    s_max = floor(log_eta(R / r_min))
    bracket s has rungs k = 0..s with fidelity r_{s,k} = ceil(R * eta^(k-s))
    rung k evaluates m_k members; rung k+1 keeps max(1, floor(m_k / eta))

Bracket ``s_max`` is the most aggressive (widest, cheapest first rung);
bracket ``0`` is the degenerate single-rung ladder that evaluates
everyone at ``R`` outright.  With ``brackets > 1`` the driver cycles
through the ``brackets`` most aggressive brackets generation by
generation — Hyperband's hedge against a cheap fidelity that ranks
candidates badly.

The schedule is pure arithmetic over ``(R, r_min, eta, brackets)``: no
RNG, no measurement, no engine state.  Every ladder decision is therefore
bit-identical across execution backends and worker counts — the property
``MOHECOResult.fidelity_trace`` asserts in CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.registry import check_count

__all__ = ["FidelityLadder", "MF_PARAM_KEYS"]

#: Keys understood inside ``mf_params`` (RunSpec overrides / CLI --set).
MF_PARAM_KEYS = ("eta", "r_min", "brackets")


@dataclass(frozen=True)
class FidelityLadder:
    """The rung schedule of one multi-fidelity run.

    Parameters
    ----------
    R:
        Full fidelity — the stage-2 sample count the final rung reaches
        (``MOHECOConfig.n_max``; the paper's ``reference_n`` role).
    r_min:
        Cheapest fidelity the most aggressive bracket may start at
        (default: the OCBA pilot ``n0``).  The actual first rung is
        ``ceil(R * eta^-s_max) >= r_min``.
    eta:
        Geometric spacing and promotion rate: each rung multiplies the
        fidelity by ``eta`` and keeps ``1/eta`` of its members.
    brackets:
        How many of the most aggressive brackets the driver cycles
        through (clamped to the ``s_max + 1`` brackets that exist).
    """

    R: int
    r_min: int
    eta: int = 3
    brackets: int = 1
    #: Deepest bracket index: floor(log_eta(R / r_min)).
    s_max: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "R", check_count("R", self.R, 1))
        object.__setattr__(self, "r_min", check_count("r_min", self.r_min, 1))
        object.__setattr__(self, "eta", check_count("eta", self.eta, 2))
        object.__setattr__(self, "brackets", check_count("brackets", self.brackets, 1))
        if self.r_min > self.R:
            raise ValueError(
                f"r_min ({self.r_min}) must be <= the full fidelity R "
                f"({self.R}); the cheapest rung must at least cover the "
                "pilot samples"
            )
        # floor(log_eta(R/r_min)) without float-log edge cases: largest s
        # with r_min * eta^s <= R.
        s, reach = 0, self.r_min * self.eta
        while reach <= self.R:
            s += 1
            reach *= self.eta
        object.__setattr__(self, "s_max", s)
        object.__setattr__(self, "brackets", min(self.brackets, s + 1))

    @classmethod
    def from_params(
        cls, R: int, r_min_default: int, mf_params: dict | None
    ) -> "FidelityLadder":
        """Build a ladder from an ``mf_params`` override dict.

        ``R`` is the config's ``n_max`` (never overridable here — the
        fidelity ceiling *is* the stage-2 accuracy), ``r_min`` defaults to
        the OCBA pilot ``n0``.  Unknown keys raise ``ValueError`` listing
        the valid ones, same contract as config-field overrides.
        """
        if mf_params is not None and not isinstance(mf_params, dict):
            raise ValueError(
                f"mf_params must be a dict of ladder knobs, got {mf_params!r}"
            )
        params = dict(mf_params or {})
        unknown = set(params) - set(MF_PARAM_KEYS)
        if unknown:
            raise ValueError(
                f"unknown mf_params key(s) {sorted(unknown)}; valid keys: "
                f"{', '.join(MF_PARAM_KEYS)}"
            )
        return cls(
            R=R,
            r_min=params.get("r_min", r_min_default),
            eta=params.get("eta", 3),
            brackets=params.get("brackets", 1),
        )

    # -- bracket arithmetic ------------------------------------------------
    def bracket_for(self, generation: int) -> int:
        """Bracket index used at ``generation`` (cycles the most
        aggressive ``brackets`` brackets: s_max, s_max-1, ...)."""
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        return self.s_max - (generation % self.brackets)

    def rung_fidelities(self, s: int) -> list[int]:
        """Per-rung sample counts of bracket ``s``: ``ceil(R * eta^(k-s))``
        for ``k = 0..s``, ending exactly at ``R``."""
        if not 0 <= s <= self.s_max:
            raise ValueError(f"bracket must be in [0, {self.s_max}], got {s}")
        return [math.ceil(self.R * self.eta ** (k - s)) for k in range(s + 1)]

    def survivors(self, members: int) -> int:
        """Members promoted past a rung: ``max(1, floor(members / eta))``."""
        if members < 1:
            raise ValueError(f"members must be >= 1, got {members}")
        return max(1, members // self.eta)

