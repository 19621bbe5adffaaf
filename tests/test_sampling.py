"""Samplers: PMC, LHS, Sobol — structure and variance properties."""

import numpy as np
import pytest

from repro.problems import make_sphere_problem
from repro.process.parameters import ParameterGroup, StatisticalParameter
from repro.process.variation import ProcessVariationModel
from repro.sampling import (
    LatinHypercubeSampler,
    PrimitiveMonteCarloSampler,
    SobolSampler,
    make_sampler,
)
from repro.sampling.lhs import latin_hypercube_uniforms


@pytest.fixture(scope="module")
def variation():
    inter = ParameterGroup(
        [StatisticalParameter(f"p{i}", 0.0, 1.0) for i in range(6)]
    )
    return ProcessVariationModel(inter, ["M1"])


ALL_KINDS = ["pmc", "lhs", "sobol"]


class TestFactory:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_make_sampler(self, kind, variation):
        sampler = make_sampler(kind, variation)
        assert sampler.name == kind

    def test_unknown_kind(self, variation):
        with pytest.raises(ValueError):
            make_sampler("halton", variation)


@pytest.mark.parametrize("kind", ALL_KINDS)
class TestCommonContract:
    def test_shape(self, kind, variation):
        sampler = make_sampler(kind, variation)
        out = sampler.draw(17, np.random.default_rng(0))
        assert out.shape == (17, variation.dimension)

    def test_zero_draw(self, kind, variation):
        sampler = make_sampler(kind, variation)
        assert sampler.draw(0, np.random.default_rng(0)).shape[0] == 0

    def test_negative_rejected(self, kind, variation):
        sampler = make_sampler(kind, variation)
        with pytest.raises(ValueError):
            sampler.draw(-1, np.random.default_rng(0))

    def test_reproducible(self, kind, variation):
        sampler = make_sampler(kind, variation)
        a = sampler.draw(8, np.random.default_rng(5))
        b = sampler.draw(8, np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)

    def test_batches_differ(self, kind, variation):
        sampler = make_sampler(kind, variation)
        rng = np.random.default_rng(5)
        a = sampler.draw(8, rng)
        b = sampler.draw(8, rng)
        assert not np.array_equal(a, b)

    def test_marginal_moments(self, kind, variation):
        sampler = make_sampler(kind, variation)
        out = sampler.draw(4000, np.random.default_rng(1))
        assert np.abs(np.mean(out)) < 0.05
        assert np.std(out) == pytest.approx(1.0, rel=0.05)


class TestLHSStructure:
    def test_uniforms_are_stratified(self):
        n, d = 40, 3
        u = latin_hypercube_uniforms(n, d, np.random.default_rng(0))
        for j in range(d):
            strata = np.floor(u[:, j] * n).astype(int)
            # Exactly one point per stratum in every dimension.
            assert sorted(strata) == list(range(n))

    def test_zero_points(self):
        assert latin_hypercube_uniforms(0, 4, np.random.default_rng(0)).shape == (0, 4)

    def test_lhs_reduces_mean_estimator_variance(self, variation):
        """Stein's result, empirically: LHS mean estimates of a monotone
        function have lower variance than PMC at equal n."""
        rng = np.random.default_rng(7)
        lhs = LatinHypercubeSampler(variation)
        pmc = PrimitiveMonteCarloSampler(variation)

        def mean_of_sum(sampler):
            return [
                float(np.mean(np.sum(sampler.draw(50, rng), axis=1)))
                for _ in range(200)
            ]

        var_lhs = np.var(mean_of_sum(lhs))
        var_pmc = np.var(mean_of_sum(pmc))
        assert var_lhs < 0.5 * var_pmc

    def test_lhs_yield_estimates_unbiased(self):
        problem = make_sphere_problem(sigma=0.3)
        x = np.full(4, 0.55)
        truth = problem.evaluator.analytic_yield(x, problem.specs)
        sampler = LatinHypercubeSampler(problem.variation)
        rng = np.random.default_rng(11)
        X = np.broadcast_to(x, (200, x.size))
        estimates = []
        for _ in range(50):
            performance = problem.evaluate_pairs(X, sampler.draw(200, rng))
            estimates.append(float(np.mean(problem.specs.passes(performance))))
        assert np.mean(estimates) == pytest.approx(truth, abs=0.02)


class TestSobolStructure:
    def test_low_discrepancy_beats_pmc_on_mean(self, variation):
        rng = np.random.default_rng(3)
        sobol = SobolSampler(variation)
        pmc = PrimitiveMonteCarloSampler(variation)
        err_sobol = [
            abs(float(np.mean(sobol.draw(128, rng)))) for _ in range(40)
        ]
        err_pmc = [abs(float(np.mean(pmc.draw(128, rng)))) for _ in range(40)]
        assert np.mean(err_sobol) < np.mean(err_pmc)
