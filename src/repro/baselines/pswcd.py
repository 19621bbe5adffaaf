"""Performance-specific worst-case distance (PSWCD) method (section 3.4).

PSWCD methods [Schenkel 2001] linearise each specification around the
nominal process point and size the circuit by maximising the *worst-case
distances*: the distance (in standardised process space) from nominal to the
nearest point where spec ``j`` fails.  For a linearised margin
``m_j(z) ~ m_j(0) + w_j . z`` with ``z`` standard-normal, the worst-case
distance is ``beta_j = m_j(0) / ||w_j||`` and the per-spec yield is
``Phi(beta_j)``.

The over-design the paper criticises is structural: combining the separate
per-spec worst cases assumes they can occur *simultaneously*, so the
combined yield is estimated pessimistically — here via the Bonferroni
(union) bound ``Y_wc = 1 - sum_j (1 - Phi(beta_j))`` — and designs are
rejected that MC would accept.  ``repro.experiments.pswcd_study`` quantifies
this gap against reference MC.

Gradients are estimated by ridge regression on simulated samples
(spec-wise linearisation), matching the spirit of feasibility-guided PSWCD
without requiring adjoint sensitivities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from repro.ledger import SimulationLedger
from repro.optim.de import DifferentialEvolution
from repro.rng import ensure_rng, spawn

__all__ = ["WorstCaseAnalysis", "pswcd_analysis", "PSWCDOptimizer"]


@dataclass
class WorstCaseAnalysis:
    """Worst-case distances of one design point."""

    #: Per-spec worst-case distances (sigmas to the failure surface).
    betas: np.ndarray
    #: Per-spec yields Phi(beta_j).
    spec_yields: np.ndarray
    #: Pessimistic combined yield (union bound over per-spec worst cases).
    yield_bound: float
    #: Spec names, aligned with ``betas``.
    spec_names: list[str]

    @property
    def worst_beta(self) -> float:
        """The binding worst-case distance (PSWCD's sizing objective)."""
        return float(np.min(self.betas))


def pswcd_analysis(
    problem,
    x: np.ndarray,
    n_train: int = 200,
    rng: np.random.Generator | int | None = None,
    ledger: SimulationLedger | None = None,
    ridge: float = 1e-3,
) -> WorstCaseAnalysis:
    """Spec-wise linearised worst-case analysis of design ``x``.

    Simulates ``n_train`` process samples (charged to category ``pswcd``),
    fits one linear model per spec margin in *standardised* process
    coordinates, and converts intercept/gradient-norm into worst-case
    distances.
    """
    rng = ensure_rng(rng)
    variation = problem.variation
    samples = variation.sample(n_train, rng)
    X = np.broadcast_to(np.asarray(x, dtype=float), (n_train, problem.design_dimension))
    performance = problem.evaluate_pairs(X, samples, ledger, category="pswcd")
    margins = problem.specs.margins(performance)

    # Standardise process coordinates so distances are in sigma units.
    means = variation.full_group.means()
    stds = np.maximum(variation.full_group.stds(), 1e-12)
    z = (samples - means) / stds

    n, d = z.shape
    design = np.hstack([np.ones((n, 1)), z])
    penalty = np.sqrt(ridge) * np.eye(d + 1)
    penalty[0, 0] = 0.0
    a_aug = np.vstack([design, penalty])
    b_aug = np.vstack([margins, np.zeros((d + 1, margins.shape[1]))])
    weights, *_ = np.linalg.lstsq(a_aug, b_aug, rcond=None)

    intercepts = weights[0]
    gradients = weights[1:]
    norms = np.maximum(np.linalg.norm(gradients, axis=0), 1e-12)
    betas = intercepts / norms
    spec_yields = ndtr(betas)
    yield_bound = max(0.0, 1.0 - float(np.sum(1.0 - spec_yields)))
    return WorstCaseAnalysis(
        betas=betas,
        spec_yields=spec_yields,
        yield_bound=yield_bound,
        spec_names=list(problem.specs.metric_names),
    )


class PSWCDOptimizer:
    """Sizes a circuit by maximising the minimum worst-case distance.

    The classic PSWCD objective: push the nominal design as many sigmas away
    from every spec's failure surface as possible.  Feasibility at nominal
    is enforced with Deb-style graded objectives (infeasible designs score
    ``-1 - violation``).
    """

    def __init__(
        self,
        problem,
        n_train: int = 200,
        rng: np.random.Generator | int | None = None,
        ledger: SimulationLedger | None = None,
    ) -> None:
        self.problem = problem
        self.n_train = int(n_train)
        self.rng = ensure_rng(rng)
        self.ledger = ledger if ledger is not None else SimulationLedger()
        #: DE result of the last :meth:`run` (generation count, trajectory).
        self.de_result = None

    def objective(self, x: np.ndarray) -> float:
        """min-beta objective with feasibility grading."""
        feasible, violation = self.problem.nominal_feasibility(x, self.ledger)
        if not feasible:
            return -1.0 - violation
        analysis = pswcd_analysis(
            self.problem, x, self.n_train, spawn(self.rng), self.ledger
        )
        return analysis.worst_beta

    def run(
        self,
        pop_size: int = 30,
        max_generations: int = 40,
        patience: int = 10,
    ):
        """Optimize; returns ``(best_x, best_min_beta, analysis)``."""
        de = DifferentialEvolution(self.problem.space)
        result = de.optimize(
            self.objective,
            pop_size=pop_size,
            max_generations=max_generations,
            rng=self.rng,
            patience=patience,
        )
        self.de_result = result
        analysis = pswcd_analysis(
            self.problem, result.x, self.n_train, spawn(self.rng), self.ledger
        )
        return result.x, result.objective, analysis
