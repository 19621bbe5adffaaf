"""Yield estimation: estimates, incremental refinement, reference MC."""

import numpy as np
import pytest

from repro.ledger import SimulationLedger
from repro.problems import make_sphere_problem
from repro.rng import make_rng
from repro.sampling import LatinHypercubeSampler
from repro.sampling.acceptance import LinearMarginScreener
from repro.yieldsim import CandidateYieldState, YieldEstimate, reference_yield


@pytest.fixture
def problem():
    return make_sphere_problem(sigma=0.25)


def _state(problem, x, ledger=None, screener=False, seed=0):
    sampler = LatinHypercubeSampler(problem.variation)
    scr = LinearMarginScreener(problem.specs) if screener else None
    return CandidateYieldState(
        problem, x, sampler, make_rng(seed), ledger, "stage1", scr
    )


class TestYieldEstimate:
    def test_value(self):
        assert YieldEstimate(passes=30, n=100).value == pytest.approx(0.30)
        assert YieldEstimate(passes=0, n=0).value == 0.0

    def test_variance_floored(self):
        assert YieldEstimate(passes=100, n=100).variance >= 1e-4
        assert YieldEstimate(passes=50, n=100).variance == pytest.approx(0.25)

    def test_standard_error_shrinks_with_n(self):
        small = YieldEstimate(passes=5, n=10)
        large = YieldEstimate(passes=500, n=1000)
        assert large.standard_error < small.standard_error

    def test_wilson_interval_contains_estimate(self):
        est = YieldEstimate(passes=80, n=100)
        lo, hi = est.wilson_interval()
        assert lo < est.value < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_wilson_interval_degenerate(self):
        assert YieldEstimate(passes=0, n=0).wilson_interval() == (0.0, 1.0)


class TestCandidateYieldState:
    def test_refine_accumulates(self, problem):
        state = _state(problem, np.full(4, 0.6))
        state.refine(50)
        assert state.n == 50
        state.refine(25)
        assert state.n == 75
        assert state.n_simulated == 75

    def test_refine_to_idempotent(self, problem):
        state = _state(problem, np.full(4, 0.6))
        state.refine_to(100)
        state.refine_to(50)  # already above target
        assert state.n == 100

    def test_negative_refine_rejected(self, problem):
        with pytest.raises(ValueError):
            _state(problem, np.full(4, 0.6)).refine(-1)

    def test_zero_refine_noop(self, problem):
        state = _state(problem, np.full(4, 0.6))
        est = state.refine(0)
        assert est.n == 0

    def test_estimate_converges_to_truth(self, problem):
        x = np.full(4, 0.55)
        truth = problem.evaluator.analytic_yield(x, problem.specs)
        state = _state(problem, x, seed=3)
        state.refine(4000)
        assert state.value == pytest.approx(truth, abs=0.03)

    def test_ledger_charged_per_simulation(self, problem):
        ledger = SimulationLedger()
        state = _state(problem, np.full(4, 0.6), ledger=ledger)
        state.refine(120)
        assert ledger.total == 120
        assert ledger.count("stage1") == 120

    def test_category_override(self, problem):
        ledger = SimulationLedger()
        state = _state(problem, np.full(4, 0.6), ledger=ledger)
        state.refine(10, category="stage2")
        assert ledger.count("stage2") == 10

    def test_screener_reduces_charged_simulations(self, problem):
        ledger = SimulationLedger()
        state = _state(problem, np.full(4, 0.6), ledger=ledger, screener=True, seed=5)
        state.refine(100)   # trains the screener
        state.refine(400)
        assert state.n == 500
        assert state.n_simulated < 500
        assert ledger.screened_out == 500 - state.n_simulated
        assert ledger.total == state.n_simulated

    def test_screener_estimate_still_accurate(self, problem):
        x = np.full(4, 0.55)
        truth = problem.evaluator.analytic_yield(x, problem.specs)
        state = _state(problem, x, screener=True, seed=6)
        state.refine(3000)
        assert state.value == pytest.approx(truth, abs=0.04)


class TestReferenceYield:
    def test_batched_reference_counts_all_samples(self, problem):
        ledger = SimulationLedger()
        est = reference_yield(
            problem, np.full(4, 0.6), n=2500, rng=make_rng(0),
            ledger=ledger, batch_size=1000,
        )
        assert est.n == 2500
        # Reference sims are excluded from the budget total.
        assert ledger.total == 0
        assert ledger.grand_total == 2500

    def test_matches_analytic(self, problem):
        x = np.full(4, 0.55)
        truth = problem.evaluator.analytic_yield(x, problem.specs)
        est = reference_yield(problem, x, n=30_000, rng=make_rng(1))
        assert est.value == pytest.approx(truth, abs=0.01)

    @pytest.mark.parametrize(
        "n, batch_size", [(0, 5_000), (-5, 5_000), (10, 0), (10, -1)]
    )
    def test_sizes_below_one_rejected(self, problem, n, batch_size):
        """Refused before the first draw (a zero batch would never finish)."""

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError("reference_yield drew samples")

        with pytest.raises(ValueError, match="n >= 1 and batch_size >= 1"):
            reference_yield(
                problem, np.full(4, 0.6), n=n, rng=NoDraws(), batch_size=batch_size
            )
