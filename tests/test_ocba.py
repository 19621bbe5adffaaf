"""OCBA: closed-form allocation, sequential loop, selection quality."""

import numpy as np
import pytest

from repro.ledger import SimulationLedger
from repro.ocba import (
    approximate_pcs,
    equal_allocation,
    ocba_allocation,
    ocba_sequential,
)
from repro.problems import make_sphere_problem
from repro.sampling import LatinHypercubeSampler
from repro.yieldsim import CandidateYieldState


class TestClosedForm:
    def test_sums_to_total(self):
        means = np.array([0.9, 0.7, 0.5, 0.3])
        stds = np.array([0.3, 0.45, 0.5, 0.45])
        for total in (100, 777, 5000):
            alloc = ocba_allocation(means, stds, total)
            assert alloc.sum() == total
            assert np.all(alloc >= 0)

    def test_close_competitors_get_more_than_clear_losers(self):
        means = np.array([0.90, 0.88, 0.40])
        stds = np.array([0.30, 0.32, 0.49])
        alloc = ocba_allocation(means, stds, 1000)
        # The runner-up is hard to separate from the best; the clear loser
        # is cheap to rank.
        assert alloc[1] > alloc[2]

    def test_best_design_gets_substantial_share(self):
        means = np.array([0.95, 0.70, 0.65, 0.60])
        stds = np.array([0.2, 0.46, 0.48, 0.49])
        alloc = ocba_allocation(means, stds, 1000)
        assert alloc[0] > 1000 // (2 * len(means))

    def test_equation_ratios_respected(self):
        """For i, j != b the allocation follows (sigma_i/d_i)^2 ratios."""
        means = np.array([0.9, 0.6, 0.3])
        stds = np.array([0.3, 0.4, 0.4])
        alloc = ocba_allocation(means, stds, 100_000)
        d1, d2 = 0.3, 0.6
        expected_ratio = (stds[1] / d1) ** 2 / ((stds[2] / d2) ** 2)
        assert alloc[1] / alloc[2] == pytest.approx(expected_ratio, rel=0.02)

    def test_single_design_takes_all(self):
        alloc = ocba_allocation(np.array([0.5]), np.array([0.5]), 321)
        assert alloc.tolist() == [321]

    def test_ties_do_not_crash(self):
        alloc = ocba_allocation(np.array([0.5, 0.5, 0.5]), np.array([0.5, 0.5, 0.5]), 300)
        assert alloc.sum() == 300

    def test_zero_stds_do_not_crash(self):
        alloc = ocba_allocation(np.array([1.0, 0.0]), np.array([0.0, 0.0]), 100)
        assert alloc.sum() == 100

    def test_minimum_respected(self):
        means = np.array([0.9, 0.5, 0.1])
        stds = np.array([0.3, 0.5, 0.3])
        alloc = ocba_allocation(means, stds, 300, minimum=20)
        assert np.all(alloc >= 19)  # integer rounding may nibble one

    def test_validation(self):
        with pytest.raises(ValueError):
            ocba_allocation(np.array([]), np.array([]), 10)
        with pytest.raises(ValueError):
            ocba_allocation(np.array([0.5]), np.array([0.5, 0.1]), 10)
        with pytest.raises(ValueError):
            ocba_allocation(np.array([0.5, 0.4]), np.array([0.1, 0.1]), 10, minimum=50)


class TestSequential:
    def _states(self, yields, seed=0):
        from scipy.stats import norm

        sigma = 0.25
        problem = make_sphere_problem(sigma=sigma)
        sampler = LatinHypercubeSampler(problem.variation)
        ledger = SimulationLedger()
        states = []
        # Invert the sphere's analytic yield to place each design exactly at
        # its target: margin = 1 - 16 delta^2 = sigma * z_target (d = 4).
        for i, target in enumerate(yields):
            margin = sigma * norm.ppf(target)
            delta = np.sqrt(max(1.0 - margin, 0.0) / 16.0)
            x = np.full(4, 0.6 + delta)
            assert problem.evaluator.analytic_yield(x, problem.specs) == (
                pytest.approx(target, abs=0.02)
            )
            states.append(
                CandidateYieldState(
                    problem, x, sampler,
                    np.random.default_rng(seed * 100 + i), ledger, "stage1",
                )
            )
        return states, ledger

    def test_budget_exhausted_exactly_or_above_pilot(self):
        states, _ = self._states([0.9, 0.7, 0.5, 0.2])
        report = ocba_sequential(states, total_budget=600, n0=15, delta=50)
        assert report.total_samples >= 600
        assert report.total_samples <= 600 + 50  # one increment overshoot max

    def test_everyone_gets_pilot(self):
        states, _ = self._states([0.9, 0.2, 0.2, 0.2, 0.2])
        report = ocba_sequential(states, total_budget=300, n0=15, delta=30)
        assert np.all(report.counts >= 15)

    def test_good_candidates_get_more_samples(self):
        states, _ = self._states([0.95, 0.9, 0.3, 0.25, 0.2], seed=3)
        report = ocba_sequential(states, total_budget=1500, n0=15, delta=50)
        top_two = np.sort(report.counts[np.argsort(report.estimates)[-2:]])
        bottom = report.counts[np.argsort(report.estimates)[0]]
        assert np.sum(top_two) > 2.5 * bottom

    def test_empty_population(self):
        report = ocba_sequential([], total_budget=100)
        assert report.total_samples == 0
        assert report.rounds == 0

    @pytest.mark.parametrize("delta", [0, -5])
    def test_delta_below_one_rejected(self, delta):
        for states in ([], self._states([0.5])[0]):
            with pytest.raises(ValueError, match="delta"):
                ocba_sequential(states, total_budget=100, delta=delta)

    def test_negative_budget_rejected(self):
        states, _ = self._states([0.5])
        with pytest.raises(ValueError):
            ocba_sequential(states, total_budget=-1)

    def test_report_consistency(self):
        states, _ = self._states([0.8, 0.5, 0.3])
        report = ocba_sequential(states, total_budget=400, n0=15, delta=40)
        np.testing.assert_array_equal(
            report.counts, [s.n for s in states]
        )
        np.testing.assert_allclose(
            report.estimates, [s.value for s in states]
        )


class TestSelectionQuality:
    def test_ocba_apcs_beats_equal_allocation(self):
        means = np.array([0.92, 0.88, 0.70, 0.55, 0.40, 0.30])
        stds = np.sqrt(means * (1 - means))
        total = 600
        pcs_ocba = approximate_pcs(means, stds, ocba_allocation(means, stds, total))
        pcs_equal = approximate_pcs(means, stds, equal_allocation(len(means), total))
        assert pcs_ocba > pcs_equal

    def test_equal_allocation_sums(self):
        alloc = equal_allocation(7, 100)
        assert alloc.sum() == 100
        assert alloc.max() - alloc.min() <= 1
        with pytest.raises(ValueError):
            equal_allocation(0, 100)

    def test_apcs_monotone_in_budget(self):
        means = np.array([0.9, 0.8, 0.6])
        stds = np.sqrt(means * (1 - means))
        small = approximate_pcs(means, stds, equal_allocation(3, 60))
        large = approximate_pcs(means, stds, equal_allocation(3, 6000))
        assert large > small

    def test_apcs_validation(self):
        with pytest.raises(ValueError):
            approximate_pcs(np.array([0.5]), np.array([0.5, 0.2]), np.array([10]))
