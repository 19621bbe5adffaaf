"""Optimizers: Deb rules, DE operators, Nelder-Mead, memetic trigger."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.circuit.topologies.base import DesignSpace
from repro.core.moheco import MOHECO, select_one_to_one
from repro.optim import (
    DifferentialEvolution,
    MemeticTrigger,
    deb_key,
    nelder_mead_maximize,
)


def _member(feasible, violation, yield_value):
    return SimpleNamespace(
        feasible=feasible, violation=violation, yield_value=yield_value
    )


def _deb_better(a, b):
    """Deb's three rules as a pairwise comparator: the key's reference."""
    if a.feasible and not b.feasible:
        return True
    if not a.feasible and b.feasible:
        return False
    if a.feasible:
        return a.yield_value > b.yield_value
    return a.violation < b.violation


def _better(a, b):
    return deb_key(a) > deb_key(b)


def _random_members(rng, count):
    """Members with many ties, infinite and NaN violations."""
    violations = [0.0, 0.25, 0.5, 3.0, float("inf"), float("nan")]
    yields = [0.0, 0.5, 0.9, 1.0]
    return [
        _member(True, 0.0, float(rng.choice(yields)))
        if rng.random() < 0.5
        else _member(False, float(rng.choice(violations)), 0.0)
        for _ in range(count)
    ]


class TestDebRules:
    def test_feasible_beats_infeasible(self):
        assert _better(_member(True, 0.0, 0.1), _member(False, 0.01, 0.99))
        assert not _better(_member(False, 0.01, 0.99), _member(True, 0.0, 0.1))

    def test_feasible_compare_objective(self):
        assert _better(_member(True, 0.0, 0.9), _member(True, 0.0, 0.8))
        assert not _better(_member(True, 0.0, 0.8), _member(True, 0.0, 0.9))
        assert not _better(_member(True, 0.0, 0.8), _member(True, 0.0, 0.8))  # tie

    def test_infeasible_compare_violation(self):
        assert _better(_member(False, 0.1, 0.0), _member(False, 0.5, 0.0))
        assert not _better(_member(False, 0.5, 0.0), _member(False, 0.1, 0.0))

    def test_key_matches_the_rules_with_ties_inf_and_nan(self):
        members = _random_members(np.random.default_rng(0), 80)
        for a in members:
            for b in members:
                assert _better(a, b) == _deb_better(a, b), (a, b)

    def test_selection_matches_the_rules_with_ties_inf_and_nan(self):
        """Best member and one-to-one selection, against comparator loops."""
        rng = np.random.default_rng(1)
        for _ in range(300):
            population = _random_members(rng, 8)
            trials = _random_members(rng, 8)
            best = 0
            for i in range(1, len(population)):
                if _deb_better(population[i], population[best]):
                    best = i
            assert MOHECO._best_index(population) == best
            expected = [
                parent if _deb_better(parent, trial) else trial
                for parent, trial in zip(population, trials)
            ]
            select_one_to_one(population, trials)
            assert all(a is b for a, b in zip(population, expected))


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

    @pytest.mark.parametrize("n", [4, 5, 7, 20, 50, 51, 100])
    def test_mutate_matches_the_list_draw_bit_for_bit(self, space, n):
        """Index draws give the donors and the stream of the list-based draw."""
        de = DifferentialEvolution(space)
        pop = de.init_population(n, np.random.default_rng(n))

        def list_mutate(best_index, rng):
            donors = np.empty_like(pop)
            for i in range(n):
                candidates = [j for j in range(n) if j != i]
                r1, r2, _ = rng.choice(candidates, size=3, replace=False)
                donors[i] = pop[best_index] + de.f * (pop[r1] - pop[r2])
            return donors

        for seed in range(400):
            fast, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            donors = de.mutate(pop, seed % n, fast)
            expected = list_mutate(seed % n, reference)
            assert donors.tobytes() == expected.tobytes()
            assert fast.integers(2**62) == reference.integers(2**62)


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
