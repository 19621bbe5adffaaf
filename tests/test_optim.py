"""Optimizers: Deb rules, DE operators, Nelder-Mead, memetic trigger."""

import numpy as np
import pytest

from repro.circuit.topologies.base import DesignSpace
from repro.optim import (
    DifferentialEvolution,
    FitnessView,
    MemeticTrigger,
    deb_better,
    nelder_mead_maximize,
)


def _fv(feasible, violation, objective):
    return FitnessView(feasible=feasible, violation=violation, objective=objective)


class TestDebRules:
    def test_feasible_beats_infeasible(self):
        assert deb_better(_fv(True, 0.0, 0.1), _fv(False, 0.01, 0.99))
        assert not deb_better(_fv(False, 0.01, 0.99), _fv(True, 0.0, 0.1))

    def test_feasible_compare_objective(self):
        assert deb_better(_fv(True, 0.0, 0.9), _fv(True, 0.0, 0.8))
        assert not deb_better(_fv(True, 0.0, 0.8), _fv(True, 0.0, 0.9))
        assert not deb_better(_fv(True, 0.0, 0.8), _fv(True, 0.0, 0.8))  # tie

    def test_infeasible_compare_violation(self):
        assert deb_better(_fv(False, 0.1, 0.0), _fv(False, 0.5, 0.0))
        assert not deb_better(_fv(False, 0.5, 0.0), _fv(False, 0.1, 0.0))

    def test_tolerance_guards_noise(self):
        assert not deb_better(_fv(True, 0.0, 0.901), _fv(True, 0.0, 0.9),
                              tolerance=0.01)
        assert deb_better(_fv(True, 0.0, 0.92), _fv(True, 0.0, 0.9),
                          tolerance=0.01)


@pytest.fixture
def space():
    return DesignSpace(["a", "b", "c"], np.zeros(3), np.ones(3))


class TestDesignSpace:
    def test_clip(self, space):
        np.testing.assert_array_equal(
            space.clip(np.array([-1.0, 0.5, 2.0])), [0.0, 0.5, 1.0]
        )

    def test_contains(self, space):
        assert space.contains(np.array([0.1, 0.5, 1.0]))
        assert not space.contains(np.array([0.1, 0.5, 1.1]))

    def test_sample_inside(self, space):
        xs = space.sample(100, np.random.default_rng(0))
        assert np.all(xs >= 0.0) and np.all(xs <= 1.0)

    def test_as_dict(self, space):
        d = space.as_dict(np.array([0.1, 0.2, 0.3]))
        assert d == {"a": 0.1, "b": 0.2, "c": 0.3}
        with pytest.raises(ValueError):
            space.as_dict(np.zeros(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            DesignSpace(["a"], [0.0], [0.0])
        with pytest.raises(ValueError):
            DesignSpace(["a", "b"], [0.0], [1.0])


class TestDEOperators:
    def test_init_population_shape_and_bounds(self, space):
        de = DifferentialEvolution(space)
        pop = de.init_population(12, np.random.default_rng(0))
        assert pop.shape == (12, 3)
        assert np.all((pop >= 0.0) & (pop <= 1.0))

    def test_minimum_population(self, space):
        de = DifferentialEvolution(space)
        with pytest.raises(ValueError):
            de.init_population(3, np.random.default_rng(0))

    def test_parameter_validation(self, space):
        with pytest.raises(ValueError):
            DifferentialEvolution(space, f=0.0)
        with pytest.raises(ValueError):
            DifferentialEvolution(space, cr=1.5)

    def test_propose_within_bounds(self, space):
        de = DifferentialEvolution(space)
        rng = np.random.default_rng(1)
        pop = de.init_population(10, rng)
        for _ in range(20):
            trials = de.propose(pop, 0, rng)
            assert trials.shape == pop.shape
            assert np.all((trials >= 0.0) & (trials <= 1.0))

    def test_crossover_keeps_at_least_one_donor_gene(self, space):
        de = DifferentialEvolution(space, cr=0.0)
        rng = np.random.default_rng(2)
        pop = de.init_population(8, rng)
        donors = pop[::-1].copy()
        trials = de.crossover(pop, donors, rng)
        differs = np.sum(trials != pop, axis=1)
        assert np.all(differs >= 1)

    def test_best_variant_uses_best_as_base(self, space):
        de = DifferentialEvolution(space, f=1e-9, cr=1.0)
        rng = np.random.default_rng(3)
        pop = de.init_population(8, rng)
        donors = de.mutate(pop, best_index=2, rng=rng)
        # With F ~ 0 every donor collapses onto the best member.
        np.testing.assert_allclose(donors, np.tile(pop[2], (8, 1)), atol=1e-6)


class TestDEOptimize:
    def test_maximizes_concave_function(self, space):
        de = DifferentialEvolution(space)
        target = np.array([0.3, 0.7, 0.5])

        def objective(x):
            return -float(np.sum((x - target) ** 2))

        result = de.optimize(objective, pop_size=20, max_generations=60,
                             rng=np.random.default_rng(4))
        np.testing.assert_allclose(result.x, target, atol=0.05)
        assert result.evaluations > 20

    def test_patience_stops_early(self, space):
        de = DifferentialEvolution(space)
        result = de.optimize(lambda x: 1.0, pop_size=10, max_generations=100,
                             rng=np.random.default_rng(5), patience=5)
        assert result.generations <= 10


class TestNelderMead:
    def test_maximizes_quadratic(self, space):
        target = np.array([0.4, 0.6, 0.5])

        def objective(X):
            return -np.sum((X - target) ** 2, axis=1)

        result = nelder_mead_maximize(
            objective, np.array([0.5, 0.5, 0.5]), space,
            max_iterations=60, initial_step=0.1,
            max_evaluations=400,
        )
        np.testing.assert_allclose(result.x, target, atol=0.05)

    def test_respects_bounds(self, space):
        # Optimum outside the box: NM must stop at the boundary.
        def objective(X):
            return np.sum(X, axis=1)

        result = nelder_mead_maximize(
            objective, np.full(3, 0.9), space, max_iterations=40,
            max_evaluations=300,
        )
        assert np.all(result.x <= 1.0)
        assert result.objective <= 3.0 + 1e-9

    def test_evaluation_cap_honoured(self, space):
        rows = []

        def objective(X):
            rows.append(len(X))
            return np.zeros(len(X))

        result = nelder_mead_maximize(
            objective, np.full(3, 0.5), space, max_iterations=100,
            max_evaluations=10,
        )
        assert sum(rows) <= 10  # the cap counts every evaluated point
        assert result.evaluations == sum(rows)

    def test_improves_from_start(self, space):
        def objective(X):
            return -np.sum((X - 0.5) ** 2, axis=1)

        start = np.full(3, 0.8)
        result = nelder_mead_maximize(objective, start, space,
                                      max_iterations=25, max_evaluations=200)
        assert result.objective > objective(start[None, :])[0]

    def test_initial_simplex_is_one_batch_in_vertex_order(self, space):
        calls = []

        def objective(X):
            calls.append(np.array(X))
            return -np.sum((X - 0.5) ** 2, axis=1)

        x0 = np.array([0.5, 0.99, 0.2])
        nelder_mead_maximize(objective, x0, space, max_iterations=3,
                             initial_step=0.05)
        # x0, then one step per axis; the step on axis 1 would leave the
        # box, so it points down instead.
        expected = np.array([
            [0.5, 0.99, 0.2],
            [0.55, 0.99, 0.2],
            [0.5, 0.94, 0.2],
            [0.5, 0.99, 0.25],
        ])
        assert calls[0].shape == (4, 3)
        np.testing.assert_allclose(calls[0], expected, rtol=0, atol=1e-12)
        assert all(len(X) in (1, 3) for X in calls[1:])

    def test_cap_below_the_simplex_evaluates_only_the_cap(self, space):
        rows = []

        def objective(X):
            rows.append(len(X))
            return X[:, 0]

        result = nelder_mead_maximize(
            objective, np.full(3, 0.5), space, initial_step=0.1,
            max_evaluations=2,
        )
        assert rows == [2]
        assert result.evaluations == 2 and result.iterations == 0
        # The best of x0 and the first axis step.
        np.testing.assert_allclose(result.x, [0.6, 0.5, 0.5])
        assert result.objective == pytest.approx(0.6)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_is_refused(self, space, cap):
        def objective(X):
            raise AssertionError("objective called under an empty budget")

        with pytest.raises(ValueError, match="max_evaluations"):
            nelder_mead_maximize(objective, np.full(3, 0.5), space,
                                 max_evaluations=cap)


class TestMemeticTrigger:
    def test_fires_after_patience_stalls(self):
        trigger = MemeticTrigger(patience=3)
        assert not trigger.observe(0.5)   # first observation sets baseline
        assert not trigger.observe(0.5)   # stall 1
        assert not trigger.observe(0.5)   # stall 2
        assert trigger.observe(0.5)       # stall 3 -> fire

    def test_improvement_resets(self):
        trigger = MemeticTrigger(patience=2)
        trigger.observe(0.5)
        trigger.observe(0.5)
        assert not trigger.observe(0.6)   # improvement resets the counter
        trigger.observe(0.6)
        assert trigger.observe(0.6)

    def test_tolerance_ignores_noise(self):
        trigger = MemeticTrigger(patience=2, tolerance=0.05)
        trigger.observe(0.5)
        trigger.observe(0.52)  # within tolerance: still a stall
        assert trigger.observe(0.53)

    def test_refires_after_reset(self):
        trigger = MemeticTrigger(patience=2)
        trigger.observe(0.5)
        trigger.observe(0.5)
        assert trigger.observe(0.5)
        trigger.observe(0.5)
        assert trigger.observe(0.5)  # counter restarted after the trigger

    def test_external_improvement_note(self):
        trigger = MemeticTrigger(patience=2)
        trigger.observe(0.5)
        trigger.note_external_improvement(0.9)
        trigger.observe(0.8)  # below the LS result: a stall
        assert trigger.observe(0.8)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemeticTrigger(patience=0)
