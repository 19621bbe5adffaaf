"""MOHECO configuration.

Defaults follow the paper's experimental section: "The population size is
50, the crossover rate is 0.8 and the DE step size is 0.8. The optimization
stops when the reported yield reaches 100%, or when the yield does not
increase for 20 subsequent generations. Parameter n0 is set to 15 and
sim_ave is set to 35 in all the experiments."
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields

from repro.registry import check_real

__all__ = ["ALLOCATIONS", "MOHECOConfig"]

#: The stage-1 budget policies :attr:`MOHECOConfig.allocation` accepts.
ALLOCATIONS = ("ocba", "fixed", "ladder")


@dataclass(frozen=True)
class MOHECOConfig:
    """All knobs of the MOHECO engine (and of its ablated baselines)."""

    # -- evolutionary engine ------------------------------------------------
    pop_size: int = 50
    de_f: float = 0.8
    de_cr: float = 0.8

    # -- two-stage yield estimation ----------------------------------------------
    #: Stage-1 budget policy, one of :data:`ALLOCATIONS`: ``"ocba"`` is the
    #: paper's ordinal optimization; ``"fixed"`` reproduces the fixed-budget
    #: baselines (every feasible candidate receives ``n_max``); ``"ladder"``
    #: climbs a Hyperband-style fidelity ladder (:mod:`repro.mf`), tuned by
    #: the run's ``mf_params``.
    allocation: str = "ocba"
    #: Initial samples per candidate in the OCBA loop (paper: 15).
    n0: int = 15
    #: Average per-candidate budget; stage-1 generation budget is
    #: ``sim_ave * N_feasible`` (paper: 35).
    sim_ave: int = 35
    #: OCBA budget increment per allocation round.
    delta: int = 50
    #: Stage-2 / final per-candidate sample count (paper's "appropriate"
    #: accuracy choice for both examples: 500).
    n_max: int = 500
    #: Estimated yield above which a candidate enters stage 2 (paper: 97 %).
    stage2_threshold: float = 0.97

    # -- sampling ------------------------------------------------------------------
    #: Sampler name resolved through :data:`repro.sampling.SAMPLERS`
    #: ("pmc", "lhs" or "sobol" ship built in; paper uses LHS everywhere).
    sampler: str = "lhs"
    #: Acceptance sampling on/off (paper uses AS everywhere).
    use_acceptance_sampling: bool = True
    as_safety: float = 3.0
    as_min_train: int = 30

    # -- memetic local search ----------------------------------------------------------
    use_memetic: bool = True
    #: Non-improving generations before NM triggers (paper: 5).
    ls_patience: int = 5
    #: NM iterations per trigger (paper: "about 10").
    ls_max_iterations: int = 10
    #: Hard cap on NM objective evaluations per trigger (each evaluation
    #: costs ``n_max`` simulations), the initial simplex's d+1 points
    #: included.  The default allows the initial simplex plus roughly the
    #: paper's "about 10 iterations".
    ls_max_evaluations: int = 24
    #: Hard cap on local-search triggers per run (keeps the memetic cost
    #: bounded on problems whose best yield saturates below 100 %).
    ls_max_triggers: int = 2
    #: Initial simplex size as a fraction of each variable's range.
    ls_initial_step: float = 0.02

    # -- stopping ----------------------------------------------------------------------
    #: Non-improving generations before giving up (paper: 20).  While the
    #: population is still infeasible the engine waits three times longer:
    #: the paper's rule speaks about yield, which does not exist yet.
    stop_patience: int = 20
    max_generations: int = 200
    #: Objective gain that counts as an improvement.
    yield_tolerance: float = 1e-9

    def __post_init__(self) -> None:
        # Types first, by annotation: an ``int`` field takes the rule of
        # ``repro.registry.check_count`` (a bool is not a count), a
        # ``float`` field that of ``check_real``; the range checks follow.
        for field in fields(self):
            name, value = field.name, getattr(self, field.name)
            if field.type == "bool" and not isinstance(value, bool):
                raise ValueError(f"{name} must be a bool, got {value!r}")
            if field.type == "int" and (
                isinstance(value, bool) or not isinstance(value, numbers.Integral)
            ):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if field.type == "float":
                check_real(name, value)
        if self.allocation not in ALLOCATIONS:
            raise ValueError(
                f"allocation must be one of {', '.join(ALLOCATIONS)}, "
                f"got {self.allocation!r}"
            )
        if self.pop_size < 4:
            raise ValueError(f"pop_size must be >= 4 for DE, got {self.pop_size}")
        if not 0.0 < self.de_f <= 2.0:
            raise ValueError(f"de_f must be in (0, 2], got {self.de_f}")
        if not 0.0 <= self.de_cr <= 1.0:
            raise ValueError(f"de_cr must be in [0, 1], got {self.de_cr}")
        if self.n0 < 1:
            raise ValueError(f"n0 must be >= 1, got {self.n0}")
        if self.sim_ave < self.n0:
            raise ValueError(
                f"sim_ave ({self.sim_ave}) must be >= n0 ({self.n0}); the "
                "stage-1 budget must at least cover the pilot samples"
            )
        if self.delta < 1:
            raise ValueError(
                f"delta must be >= 1, got {self.delta}; an OCBA round that "
                "adds no budget never reaches the stage-1 total"
            )
        if self.n_max < self.sim_ave:
            raise ValueError(
                f"n_max ({self.n_max}) must be >= sim_ave ({self.sim_ave})"
            )
        if not self.as_safety > 0.0:
            raise ValueError(f"as_safety must be > 0, got {self.as_safety}")
        if self.as_min_train < 2:
            raise ValueError(
                f"as_min_train must be >= 2, got {self.as_min_train}; the "
                "screener's residual floor takes a ddof=1 standard deviation"
            )
        if not 0.0 < self.stage2_threshold <= 1.0:
            raise ValueError(
                f"stage2_threshold must be in (0, 1], got {self.stage2_threshold}"
            )
        if self.ls_max_evaluations < 1:
            raise ValueError(
                f"ls_max_evaluations must be >= 1, got {self.ls_max_evaluations}"
            )
        if not self.ls_initial_step > 0.0:
            raise ValueError(
                f"ls_initial_step must be > 0, got {self.ls_initial_step}; a "
                "zero step puts every simplex vertex on the start point"
            )
        if self.ls_patience < 1:
            raise ValueError(f"ls_patience must be >= 1, got {self.ls_patience}")
        if self.max_generations < 1:
            raise ValueError(
                f"max_generations must be >= 1, got {self.max_generations}; "
                "the initial population alone is not a run"
            )
