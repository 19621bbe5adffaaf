"""Yield problems: wiring, ledger accounting, synthetic ground truth."""

import warnings

import numpy as np
import pytest

from repro.ledger import SimulationLedger
from repro.problems import (
    YieldProblem,
    make_folded_cascode_problem,
    make_quadratic_problem,
    make_sphere_problem,
    make_telescopic_problem,
)
from repro.specs import Spec, SpecSet


class TestPaperProblems:
    def test_example1_definition(self):
        problem = make_folded_cascode_problem()
        assert problem.process_dimension == 80
        bounds = {s.name: (s.kind, s.bound) for s in problem.specs}
        assert bounds["a0_db"] == (">=", 70.0)
        assert bounds["gbw_hz"] == (">=", 40e6)
        assert bounds["pm_deg"] == (">=", 60.0)
        assert bounds["os_v"] == (">=", 4.6)
        assert bounds["power_w"] == ("<=", 1.07e-3)

    def test_example2_definition(self):
        problem = make_telescopic_problem()
        assert problem.process_dimension == 123
        bounds = {s.name: (s.kind, s.bound) for s in problem.specs}
        assert bounds["gbw_hz"] == (">=", 300e6)
        assert bounds["os_v"] == (">=", 1.8)
        assert bounds["area_m2"] == ("<=", 180e-12)
        assert bounds["offset_v"] == ("<=", 0.05e-3)

    def test_mismatched_specs_rejected(self):
        problem = make_sphere_problem()
        wrong = SpecSet([Spec("not_a_metric", ">=", 0.0)])
        with pytest.raises(ValueError):
            type(problem)(problem.evaluator, wrong)

    def test_evaluator_without_evaluate_pairs_rejected(self):
        """A one-design ``evaluate(x, samples)`` is not the protocol."""
        inner = make_sphere_problem().evaluator

        class OneDesignEvaluator:
            variation = inner.variation

            def design_space(self):
                return inner.design_space()

            def metric_names(self):
                return inner.metric_names()

            def evaluate(self, x, samples):
                X = np.broadcast_to(x, (len(samples), len(x)))
                return inner.evaluate_pairs(X, samples)

        with pytest.raises(TypeError, match="evaluate_pairs"):
            YieldProblem(OneDesignEvaluator(), make_sphere_problem().specs)


class TestSimulationAccounting:
    def test_simulate_charges_per_sample(self):
        problem = make_sphere_problem()
        ledger = SimulationLedger()
        samples = problem.variation.sample(37, np.random.default_rng(0))
        problem.evaluate_pairs(np.full((37, 4), 0.6), samples, ledger, category="mc")
        assert ledger.total == 37
        assert ledger.count("mc") == 37

    def test_nominal_feasibility_charges_one(self):
        problem = make_sphere_problem()
        ledger = SimulationLedger()
        problem.nominal_feasibility(np.full(4, 0.6), ledger)
        assert ledger.total == 1
        assert ledger.count("feasibility") == 1

    def test_simulate_without_ledger_is_fine(self):
        problem = make_sphere_problem()
        samples = problem.variation.sample(3, np.random.default_rng(0))
        out = problem.evaluate_pairs(np.full((3, 4), 0.6), samples)
        assert out.shape == (3, 1)


class TestSyntheticGroundTruth:
    def test_sphere_center_is_feasible_high_yield(self):
        problem = make_sphere_problem(sigma=0.15)
        x = np.full(4, 0.6)
        feasible, violation = problem.nominal_feasibility(x)
        assert feasible and violation == 0.0
        assert problem.evaluator.analytic_yield(x, problem.specs) > 0.99

    @pytest.mark.parametrize(
        "factory, params",
        [
            (make_sphere_problem, {"sigma": -0.15}),
            (make_quadratic_problem, {"sigma_perf": -0.2}),
            (make_quadratic_problem, {"sigma_cost": -0.05}),
        ],
        ids=["sphere-sigma", "quadratic-sigma_perf", "quadratic-sigma_cost"],
    )
    def test_negative_noise_scale_rejected(self, factory, params):
        # A negative scale mirrors every analytic yield: sigma = -0.15 put
        # the sphere's optimum at ~1e-11 where 0.15 puts it at ~1.  The
        # rule is StatisticalParameter's: non-negative, so 0 still builds.
        (name,) = params
        with pytest.raises(ValueError, match=f"{name} must be non-negative"):
            factory(**params)
        factory(**{name: 0.0})

    @pytest.mark.parametrize(
        "factory, params, x",
        [
            (make_sphere_problem, {"sigma": 0.0}, np.full(4, 0.6)),
            (make_sphere_problem, {"sigma": 0.0}, np.full(4, 0.9)),
            (make_quadratic_problem, {"sigma_cost": 0.0}, np.full(5, 0.68)),
            (make_quadratic_problem, {"sigma_perf": 0.0}, np.full(5, 0.2)),
            (make_quadratic_problem, {"sigma_perf": 0.0, "sigma_cost": 0.0},
             np.full(5, 0.68)),
            (make_quadratic_problem, {"sigma_perf": 0.0, "sigma_cost": 0.0},
             np.full(5, 0.7)),
        ],
        ids=["sphere-optimum", "sphere-outside", "quadratic-cost-on-bound",
             "quadratic-perf-fails", "quadratic-noise-free-passes",
             "quadratic-noise-free-fails"],
    )
    def test_zero_noise_scale_is_a_step(self, factory, params, x):
        # A zero scale used to divide the margin by zero: nan with a
        # RuntimeWarning when the margin is exactly zero, a warning at
        # the sphere's optimum.  The factor is now the pass indicator of
        # the noise-free value, which every sampled value equals.
        problem = factory(**params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            analytic = problem.evaluator.analytic_yield(x, problem.specs)
        assert np.isfinite(analytic)
        samples = problem.variation.sample(2_000, np.random.default_rng(5))
        X = np.broadcast_to(x, (len(samples), x.size))
        passed = problem.specs.passes(problem.evaluate_pairs(X, samples))
        if len(params) == len(problem.specs):  # every metric noise-free
            assert analytic == float(np.mean(passed)) in (0.0, 1.0)
        else:
            assert analytic == pytest.approx(float(np.mean(passed)), abs=0.03)

    def test_sphere_corner_is_infeasible(self):
        problem = make_sphere_problem()
        feasible, violation = problem.nominal_feasibility(np.zeros(4))
        assert not feasible and violation > 0

    def test_analytic_yield_matches_monte_carlo(self):
        problem = make_quadratic_problem()
        rng = np.random.default_rng(3)
        for x in (np.full(5, 0.62), np.full(5, 0.55), np.full(5, 0.68)):
            analytic = problem.evaluator.analytic_yield(x, problem.specs)
            samples = problem.variation.sample(40_000, rng)
            X = np.broadcast_to(x, (40_000, x.size))
            passed = problem.specs.passes(problem.evaluate_pairs(X, samples))
            mc = float(np.mean(passed))
            assert mc == pytest.approx(analytic, abs=0.01)

    def test_quadratic_cost_constraint_active(self):
        problem = make_quadratic_problem()
        # The unconstrained performance optimum (x = 0.7) violates the cost
        # spec, so the yield optimum must sit elsewhere.
        center_yield = problem.evaluator.analytic_yield(
            np.full(5, 0.7), problem.specs
        )
        shifted_yield = problem.evaluator.analytic_yield(
            np.full(5, 0.64), problem.specs
        )
        assert shifted_yield > center_yield

    def test_indicator_shape_and_dtype(self):
        problem = make_sphere_problem()
        samples = problem.variation.sample(11, np.random.default_rng(0))
        performance = problem.evaluate_pairs(np.full((11, 4), 0.6), samples)
        out = problem.specs.passes(performance)
        assert out.shape == (11,)
        assert out.dtype == bool

    def test_repr(self):
        assert "sphere" in repr(make_sphere_problem())
