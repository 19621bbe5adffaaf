"""End-to-end integration tests across module boundaries.

These exercise the circuit problems (not just synthetics) with small
budgets, plus the experiment studies, so every layer of the stack is
covered: technology -> topology -> problem -> sampling/AS -> OCBA ->
DE/NM -> MOHECO -> experiment harness.
"""

import numpy as np
import pytest

from repro.api import optimize
from repro.core import MOHECO, MOHECOConfig
from repro.ledger import SimulationLedger
from repro.problems import (
    make_folded_cascode_problem,
    make_sphere_problem,
    make_telescopic_problem,
)
from repro.yieldsim import reference_yield


@pytest.fixture(scope="module")
def fc_problem():
    return make_folded_cascode_problem()


@pytest.fixture(scope="module")
def ts_problem():
    return make_telescopic_problem()


@pytest.mark.slow
class TestCircuitProblemSmoke:
    """Short MOHECO runs on the real circuit problems."""

    def test_folded_cascode_progress(self, fc_problem):
        ledger = SimulationLedger()
        result = optimize(
            fc_problem, "moheco", rng=5, ledger=ledger,
            pop_size=20, max_generations=25, stop_patience=25,
        )
        # Within 25 generations the engine must at least be reducing
        # violation; feasibility is usually found but not guaranteed here.
        history = result.history
        assert history[-1].best_violation <= history[0].best_violation
        assert result.n_simulations == ledger.total
        assert result.n_simulations > 0

    def test_telescopic_progress(self, ts_problem):
        result = optimize(
            ts_problem, "moheco", rng=7, pop_size=20, max_generations=25,
            stop_patience=25,
        )
        history = result.history
        assert history[-1].best_violation <= history[0].best_violation

    def test_estimates_charged_by_category(self, fc_problem):
        ledger = SimulationLedger()
        optimize(fc_problem, "moheco", rng=9, ledger=ledger,
                 pop_size=16, max_generations=15)
        categories = ledger.by_category()
        assert categories.get("feasibility", 0) >= 16  # initial population


class TestReportedYieldAccuracy:
    """The Table-1 protocol on the synthetic problem: reported yield of the
    returned design must track a large reference MC within MC error."""

    def test_deviation_small(self):
        problem = make_sphere_problem(sigma=0.2)
        result = optimize(problem, "moheco", rng=11, pop_size=10, max_generations=25)
        reference = reference_yield(
            problem, result.best_x, n=20_000, rng=np.random.default_rng(0)
        )
        assert abs(result.best_yield - reference.value) < 0.05


class TestMethodEquivalences:
    def test_oo_only_is_moheco_without_memetic(self):
        problem = make_sphere_problem(sigma=0.2)
        a = optimize(problem, "oo_only", rng=13, pop_size=8, max_generations=10)
        config = MOHECOConfig(use_memetic=False, pop_size=8, max_generations=10)
        b = MOHECO(problem, config, rng=13).run()
        np.testing.assert_array_equal(a.best_x, b.best_x)
        assert a.n_simulations == b.n_simulations

    def test_acceptance_sampling_reduces_cost_not_accuracy(self):
        problem = make_sphere_problem(sigma=0.2)
        with_as = optimize(problem, "moheco", rng=15, pop_size=8,
                           max_generations=12, use_acceptance_sampling=True)
        without = optimize(problem, "moheco", rng=15, pop_size=8,
                           max_generations=12, use_acceptance_sampling=False)
        assert with_as.ledger.screened_out > 0
        assert without.ledger.screened_out == 0
        # Both runs land on high-yield designs.
        for result in (with_as, without):
            truth = problem.evaluator.analytic_yield(result.best_x, problem.specs)
            assert truth > 0.85


class TestSamplerChoice:
    @pytest.mark.parametrize("sampler", ["pmc", "lhs", "sobol"])
    def test_all_samplers_work_in_the_loop(self, sampler):
        problem = make_sphere_problem(sigma=0.25)
        result = optimize(problem, "moheco", rng=17, pop_size=8,
                          max_generations=8, sampler=sampler)
        assert result.best_yield >= 0.0
