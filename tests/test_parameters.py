"""Statistical parameter groups: ordering, sampling, inverse-CDF mapping."""

import numpy as np
import pytest

from repro.process.parameters import ParameterGroup, StatisticalParameter


@pytest.fixture
def group():
    return ParameterGroup(
        [
            StatisticalParameter("a", 1.0, 0.1),
            StatisticalParameter("b", 2.0, 0.5, "a documented parameter"),
            StatisticalParameter("c"),
        ]
    )


class TestStatisticalParameter:
    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            StatisticalParameter("x", 0.0, -1.0)


class TestConstruction:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="'a'"):
            ParameterGroup([StatisticalParameter("a"), StatisticalParameter("a")])

    def test_names_preserve_order(self, group):
        assert group.names == ["a", "b", "c"]
        assert group.index_of("b") == 1
        assert "b" in group and "z" not in group

    def test_getitem(self, group):
        assert group["a"].mu == pytest.approx(1.0)


class TestMoments:
    def test_means_and_stds_column_order(self, group):
        np.testing.assert_array_equal(group.means(), [1.0, 2.0, 0.0])
        np.testing.assert_array_equal(group.stds(), [0.1, 0.5, 1.0])


class TestSampling:
    def test_shape_and_reproducibility(self, group):
        a = group.sample(100, np.random.default_rng(0))
        b = group.sample(100, np.random.default_rng(0))
        assert a.shape == (100, 3)
        np.testing.assert_array_equal(a, b)

    def test_sampling_reproducible(self):
        one = ParameterGroup([StatisticalParameter("x", 1.0, 0.1)])
        a = one.sample(10, np.random.default_rng(3))
        b = one.sample(10, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a[:, 0], np.random.default_rng(3).normal(1.0, 0.1, size=10))

    def test_negative_count_rejected(self, group):
        with pytest.raises(ValueError):
            group.sample(-1, np.random.default_rng(0))

    def test_sample_moments_match(self, group):
        x = group.sample(60_000, np.random.default_rng(0))
        bound = 4 * group.stds() / np.sqrt(60_000)
        assert np.all(np.abs(x.mean(axis=0) - group.means()) < bound)
        np.testing.assert_allclose(x.std(axis=0), group.stds(), rtol=0.05)

    def test_from_uniform_respects_marginals(self, group):
        u = np.full((1, 3), 0.5)
        mid = group.from_uniform(u)[0]
        np.testing.assert_allclose(mid, [1.0, 2.0, 0.0])  # median = mean

    def test_from_uniform_keeps_extreme_u_finite(self, group):
        assert np.isfinite(group.from_uniform(np.array([[0.0] * 3, [1.0] * 3]))).all()

    def test_from_uniform_shape_validation(self, group):
        with pytest.raises(ValueError):
            group.from_uniform(np.zeros((5, 2)))

    def test_describe_mentions_every_parameter(self, group):
        text = group.describe()
        for name in group.names:
            assert name in text
        assert "a documented parameter" in text
