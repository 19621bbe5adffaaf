"""Closed-form synthetic yield problems.

These problems mimic the *interface* of the circuit problems while having an
analytically known yield, which makes them ideal for

* testing yield estimators and OCBA allocation against ground truth,
* fast algorithm-level benchmarks and ablations (no circuit maths), and
* Hypothesis property tests (cheap evaluation).

Model: each performance metric ``j`` is ``g_j(x) + sigma_j * xi_j`` with its
own dedicated standard-normal process variable, so metrics are statistically
independent and the true yield factorises::

    Y(x) = prod_j Phi(margin_j(x) / sigma_j)

where ``margin_j`` is the signed spec slack of the noise-free metric.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import ndtr

from repro.problems.base import YieldProblem
from repro.registry import check_count, check_real
from repro.process.parameters import ParameterGroup, StatisticalParameter
from repro.process.variation import IntraDieSpec, ProcessVariationModel
from repro.circuit.topologies.base import DesignSpace
from repro.specs import Spec, SpecSet

__all__ = [
    "SyntheticEvaluator",
    "make_sphere_problem",
    "make_quadratic_problem",
]


class SyntheticEvaluator:
    """Evaluator with one Gaussian noise channel per metric.

    Parameters
    ----------
    g_funcs:
        One noise-free function per metric; each maps a design matrix
        ``(N, d)`` to the metric's column ``(N,)``.
    sigmas:
        Noise standard deviation per metric.
    space:
        Design space.
    metric_labels:
        Metric (column) names.
    """

    def __init__(
        self,
        g_funcs: list[Callable[[np.ndarray], np.ndarray]],
        sigmas: list[float],
        space: DesignSpace,
        metric_labels: list[str],
    ) -> None:
        if not (len(g_funcs) == len(sigmas) == len(metric_labels)):
            raise ValueError("g_funcs, sigmas and metric_labels must align")
        self._g_funcs = list(g_funcs)
        self._sigmas = np.asarray(sigmas, dtype=float)
        self._space = space
        self._labels = list(metric_labels)
        group = ParameterGroup(
            [StatisticalParameter.normal(f"xi_{label}") for label in metric_labels]
        )
        self.variation = ProcessVariationModel(group, [], IntraDieSpec(()))

    # -- evaluator protocol ----------------------------------------------------
    def design_space(self) -> DesignSpace:
        return self._space

    def metric_names(self) -> list[str]:
        return list(self._labels)

    def evaluate_pairs(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Row-aligned evaluation ``(N, n_metrics)`` in one array op per metric.

        Design row ``i`` is evaluated at its own sample row ``i``; this is
        what lets an execution engine resolve one OCBA round's samples for
        every candidate in a single array op.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        out = np.empty((X.shape[0], len(self._g_funcs)))
        for j, g in enumerate(self._g_funcs):
            out[:, j] = g(X) + self._sigmas[j] * samples[:, j]
        return out

    # -- ground truth ---------------------------------------------------------------
    def noise_free(self, x: np.ndarray) -> np.ndarray:
        """The vector g(x) (no process noise)."""
        x = np.asarray(x, dtype=float)[None, :]
        return np.array([g(x)[0] for g in self._g_funcs])

    def analytic_yield(self, x: np.ndarray, specs: SpecSet) -> float:
        """Exact yield of design ``x`` under ``specs``."""
        g = self.noise_free(x)
        total = 1.0
        for j, spec in enumerate(specs):
            if spec.kind == ">=":
                z = (g[j] - spec.bound) / self._sigmas[j]
            else:
                z = (spec.bound - g[j]) / self._sigmas[j]
            total *= float(ndtr(z))
        return total


class _CenteredQuadratic:
    """``offset - scale * ||x - c||^2`` per design row, as a picklable callable.

    A plain object rather than a local closure, so a synthetic problem can
    be pickled into another process like any other problem object.
    """

    def __init__(self, center: np.ndarray, scale: float, offset: float) -> None:
        self.center = np.asarray(center, dtype=float)
        self.scale = float(scale)
        self.offset = float(offset)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return self.offset - self.scale * np.sum((X - self.center) ** 2, axis=1)


class _MeanCost:
    """``mean(x)`` per design row, picklable (see :class:`_CenteredQuadratic`)."""

    def __call__(self, X: np.ndarray) -> np.ndarray:
        return np.mean(X, axis=1)


def _check_params(**params) -> None:
    """The synthetic factories' value checks, also their ``validate_params``.

    ``dimension`` is an integer >= 1 and every other parameter a finite
    real number, except that ``cost_bound`` may be ``None`` (its default).
    """
    for name, value in params.items():
        if name == "dimension":
            check_count(name, value, 1)
        elif not (name == "cost_bound" and value is None):
            check_real(name, value)


def make_sphere_problem(
    dimension: int = 4, sigma: float = 0.15, center: float = 0.6
) -> YieldProblem:
    """Single-spec problem: margin = 1 - 4 ||x - c||^2 must be >= 0.

    The optimum ``x = c`` has yield ``Phi(1/sigma)`` (about 1 for the default
    sigma); yield decays smoothly away from the centre.
    """
    _check_params(dimension=dimension, sigma=sigma, center=center)
    space = DesignSpace(
        [f"x{i}" for i in range(dimension)],
        np.zeros(dimension),
        np.ones(dimension),
    )
    margin = _CenteredQuadratic(np.full(dimension, center), scale=4.0, offset=1.0)

    evaluator = SyntheticEvaluator([margin], [sigma], space, ["margin"])
    specs = SpecSet([Spec("margin", ">=", 0.0)])
    return YieldProblem(evaluator, specs, name=f"sphere_d{dimension}")


def make_quadratic_problem(
    dimension: int = 5,
    sigma_perf: float = 0.2,
    sigma_cost: float = 0.05,
    cost_bound: float | None = None,
) -> YieldProblem:
    """Two-spec problem with an active resource constraint.

    * ``perf = 2 - 3 ||x - c||^2`` must be >= 1 (performance floor), and
    * ``cost = mean(x)`` must be <= ``cost_bound`` (resource ceiling).

    The default bound passes through the performance optimum's neighbourhood
    so the best-yield design sits near the constraint surface — mimicking
    the paper's binding power spec.
    """
    _check_params(
        dimension=dimension,
        sigma_perf=sigma_perf,
        sigma_cost=sigma_cost,
        cost_bound=cost_bound,
    )
    space = DesignSpace(
        [f"x{i}" for i in range(dimension)],
        np.zeros(dimension),
        np.ones(dimension),
    )
    if cost_bound is None:
        cost_bound = 0.68

    perf = _CenteredQuadratic(np.full(dimension, 0.7), scale=3.0, offset=2.0)
    cost = _MeanCost()

    evaluator = SyntheticEvaluator(
        [perf, cost],
        [sigma_perf, sigma_cost],
        space,
        ["perf", "cost"],
    )
    specs = SpecSet(
        [Spec("perf", ">=", 1.0), Spec("cost", "<=", float(cost_bound))]
    )
    return YieldProblem(evaluator, specs, name=f"quadratic_d{dimension}")


make_sphere_problem.validate_params = _check_params
make_quadratic_problem.validate_params = _check_params
