"""The MOHECO engine on synthetic problems (fast ground-truth checks)."""

import numpy as np
import pytest

import repro.core.moheco
from repro.api import optimize
from repro.core import MOHECO, MOHECOConfig
from repro.ledger import SimulationLedger
from repro.problems import make_quadratic_problem, make_sphere_problem


@pytest.fixture(scope="module")
def sphere():
    return make_sphere_problem(sigma=0.2)


SMALL = dict(pop_size=12, max_generations=30)

#: A sphere run (d = 4) whose one local search fires within 8 generations.
LOCAL_SEARCH_RUN = dict(rng=2, pop_size=8, max_generations=8, ls_patience=1,
                        n_max=100, sim_ave=20, n0=10, ls_max_triggers=1)


class TestBasicRun:
    def test_finds_high_yield_design(self, sphere):
        result = optimize(sphere, "moheco", rng=0, **SMALL)
        truth = sphere.evaluator.analytic_yield(result.best_x, sphere.specs)
        assert truth > 0.9
        assert result.best_yield > 0.9

    def test_result_fields(self, sphere):
        result = optimize(sphere, "moheco", rng=1, **SMALL)
        assert result.best_x.shape == (sphere.design_dimension,)
        assert result.generations >= 1
        assert result.n_simulations == result.ledger.total
        assert result.reason in ("yield_100", "stalled", "max_generations")
        assert len(result.history) == result.generations + 1  # + generation 0

    def test_reproducible_with_same_seed(self, sphere):
        a = optimize(sphere, "moheco", rng=7, **SMALL)
        b = optimize(sphere, "moheco", rng=7, **SMALL)
        np.testing.assert_array_equal(a.best_x, b.best_x)
        assert a.n_simulations == b.n_simulations

    def test_different_seeds_explore_differently(self, sphere):
        a = optimize(sphere, "moheco", rng=1, **SMALL)
        b = optimize(sphere, "moheco", rng=2, **SMALL)
        assert not np.array_equal(a.best_x, b.best_x)

    def test_final_estimate_has_stage2_accuracy(self, sphere):
        result = optimize(sphere, "moheco", rng=3, **SMALL)
        assert result.best_estimate.n >= MOHECOConfig().n_max


class TestBudgetAccounting:
    def test_ledger_categories_populated(self, sphere):
        ledger = SimulationLedger()
        optimize(sphere, "moheco", rng=4, ledger=ledger, **SMALL)
        categories = ledger.by_category()
        assert categories.get("feasibility", 0) > 0
        assert categories.get("stage1", 0) > 0

    def test_ocba_cheaper_than_fixed_budget(self, sphere):
        """The core efficiency claim, on the synthetic problem."""
        fixed = optimize(sphere, "fixed_budget", n_fixed=500, rng=5, **SMALL)
        ocba = optimize(sphere, "oo_only", n_max=500, rng=5, **SMALL)
        assert ocba.n_simulations < 0.5 * fixed.n_simulations

    def test_fixed_budget_spends_n_per_feasible(self):
        problem = make_sphere_problem(sigma=0.2)
        result = optimize(problem, "fixed_budget", n_fixed=200, rng=6,
                          pop_size=8, max_generations=5,
                          use_acceptance_sampling=False)
        # Every feasible candidate costs exactly 200 samples.
        for record in result.history:
            if record.ocba_counts.size:
                assert np.all(record.ocba_counts == 200)

    def test_local_search_gates_through_evaluate_pairs(self, monkeypatch):
        """Every charged simulation is an evaluator row, local search included:
        its candidates pass the batched gate, never the one-design check."""
        problem = make_sphere_problem(sigma=0.3)
        evaluate_pairs = problem.evaluator.evaluate_pairs
        rows = []

        def counting(X, samples):
            rows.append(len(X))
            return evaluate_pairs(X, samples)

        def one_design_gate(self, x, ledger=None):
            raise AssertionError("local search used nominal_feasibility")

        monkeypatch.setattr(problem.evaluator, "evaluate_pairs", counting)
        monkeypatch.setattr(type(problem), "nominal_feasibility", one_design_gate)
        result = optimize(problem, "moheco", rng=2, pop_size=8, max_generations=8,
                          ls_patience=1, n_max=100, sim_ave=20, n0=10)
        assert result.ledger.by_category()["local_search"] > 0
        assert sum(rows) == result.ledger.total

    def test_local_search_batches_the_initial_simplex(self, monkeypatch):
        """The d+1 starting vertices pass one gate call, and every feasible
        one is refined in one fused round."""
        problem = make_sphere_problem(sigma=0.3)
        searching, gates, rounds = [], [], []
        search = repro.core.moheco.nelder_mead_maximize
        gate = type(problem).nominal_feasibility_batch
        refine = MOHECO._refine_round

        def traced_search(*args, **kwargs):
            searching.append(True)
            try:
                return search(*args, **kwargs)
            finally:
                searching.pop()

        def traced_gate(self, X, ledger=None):
            feasible, violations = gate(self, X, ledger)
            if searching:
                gates.append((len(X), int(np.sum(feasible))))
            return feasible, violations

        def traced_refine(self, states, gains, category=None):
            if searching:
                rounds.append(len(states))
            return refine(self, states, gains, category)

        monkeypatch.setattr(repro.core.moheco, "nelder_mead_maximize", traced_search)
        monkeypatch.setattr(type(problem), "nominal_feasibility_batch", traced_gate)
        monkeypatch.setattr(MOHECO, "_refine_round", traced_refine)
        optimize(problem, "moheco", **LOCAL_SEARCH_RUN)
        rows, feasible = gates[0]
        assert rows == problem.design_dimension + 1 == 5
        assert rounds[0] == feasible > 0

    def test_local_search_cap_counts_the_initial_simplex(self):
        """A cap below the d+1 starting vertices bounds the charge too."""
        problem = make_sphere_problem(sigma=0.3)
        result = optimize(problem, "moheco", ls_max_evaluations=2, **LOCAL_SEARCH_RUN)
        assert 0 < result.ledger.by_category()["local_search"] <= 2 * 100


class TestStopping:
    def test_stalls_on_flat_problem(self, sphere):
        result = optimize(sphere, "moheco", rng=8, pop_size=8,
                          max_generations=100, stop_patience=5)
        assert result.reason in ("stalled", "yield_100")
        assert result.generations < 100

    def test_max_generations_cap(self, sphere):
        result = optimize(sphere, "moheco", rng=9, pop_size=8,
                          max_generations=2, stop_patience=50)
        assert result.generations == 2


class TestStages:
    def test_stage2_promotion_on_good_candidates(self, sphere):
        result = optimize(sphere, "moheco", rng=10, **SMALL)
        assert any(record.stage2_count > 0 for record in result.history)

    def test_no_ocba_in_fixed_mode(self, sphere, monkeypatch):
        def no_ocba(*args, **kwargs):
            raise AssertionError("allocation='fixed' must not run OCBA")

        monkeypatch.setattr(repro.core.moheco, "ocba_sequential", no_ocba)
        config = MOHECOConfig(
            allocation="fixed", use_memetic=False, n_max=100,
            pop_size=8, max_generations=3,
        )
        engine = MOHECO(sphere, config, rng=11)
        result = engine.run()
        # All estimated candidates carry exactly n_fixed samples.
        for record in result.history:
            if record.ocba_counts.size:
                assert np.all(record.ocba_counts == 100)


class TestHistory:
    def test_records_monotone_simulations(self, sphere):
        result = optimize(sphere, "moheco", rng=12, **SMALL)
        sims = result.history.simulations_series()
        assert np.all(np.diff(sims) >= 0)

    def test_training_data_accumulates(self, sphere):
        result = optimize(sphere, "moheco", rng=13, **SMALL)
        n_early = result.history.training_data(2)[1].size
        n_late = result.history.training_data(result.generations)[1].size
        assert n_late >= n_early

    def test_generation_data_lookup(self, sphere):
        result = optimize(sphere, "moheco", rng=14, **SMALL)
        x, y = result.history.generation_data(1)
        assert x.shape[0] == y.shape[0]
        missing_x, missing_y = result.history.generation_data(10_000)
        assert missing_x.size == 0 and missing_y.size == 0


class TestConstraintHandling:
    def test_infeasible_population_improves_violation(self):
        """Start far from feasibility: violations must decrease."""
        problem = make_quadratic_problem(cost_bound=0.55)
        result = optimize(problem, "moheco", rng=15, pop_size=10,
                          max_generations=25)
        violations = [r.best_violation for r in result.history]
        assert violations[-1] <= violations[0]

    def test_memetic_trigger_recorded(self, sphere):
        result = optimize(sphere, "moheco", rng=16, pop_size=10,
                          max_generations=40, ls_patience=2)
        fired = [r.local_search_fired for r in result.history]
        # On a stalling synthetic problem the LS should fire at least once.
        assert any(fired) or result.reason == "yield_100"
