"""Inter-die / intra-die process variation model."""

import numpy as np
import pytest

from repro.process.parameters import ParameterGroup, StatisticalParameter
from repro.process.variation import ProcessVariationModel


@pytest.fixture
def model():
    inter = ParameterGroup(
        [
            StatisticalParameter("TOXR", 1.0, 0.02),
            StatisticalParameter("VTHR", 1.0, 0.03),
        ]
    )
    return ProcessVariationModel(inter, ["M1", "M2", "M3"])


class TestLayout:
    def test_dimension_bookkeeping(self, model):
        assert model.n_inter == 2
        assert model.n_intra == 3 * 4
        assert model.dimension == 14

    def test_paper_variable_counts(self):
        # Example 1: 20 inter + 15 devices x 4 = 80; example 2: 47 + 19*4 = 123.
        inter20 = ParameterGroup(
            [StatisticalParameter(f"p{i}") for i in range(20)]
        )
        m1 = ProcessVariationModel(inter20, [f"M{i}" for i in range(15)])
        assert m1.dimension == 80
        inter47 = ParameterGroup(
            [StatisticalParameter(f"p{i}") for i in range(47)]
        )
        m2 = ProcessVariationModel(inter47, [f"M{i}" for i in range(19)])
        assert m2.dimension == 123

    def test_names_layout(self, model):
        names = model.names
        assert names[:2] == ["TOXR", "VTHR"]
        assert names[2] == "M1.dTOX"
        assert names[5] == "M1.dWD"
        assert names[6] == "M2.dTOX"

    def test_duplicate_devices_rejected(self, model):
        with pytest.raises(ValueError):
            ProcessVariationModel(model.inter, ["M1", "M1"])

    def test_empty_device_list_allowed(self, model):
        m = ProcessVariationModel(model.inter, [])
        assert m.dimension == 2


class TestSampling:
    def test_sample_shape(self, model):
        s = model.sample(10, np.random.default_rng(0))
        assert s.shape == (10, model.dimension)

    def test_mismatch_scores_are_standard_normal(self, model):
        s = model.sample(50_000, np.random.default_rng(1))
        scores = model.mismatch_scores(s, "M2")
        assert scores.shape == (50_000, 4)
        assert np.abs(np.mean(scores)) < 0.02
        assert np.std(scores) == pytest.approx(1.0, rel=0.02)

    def test_nominal_point(self, model):
        nominal = model.nominal()
        assert nominal[0] == pytest.approx(1.0)
        np.testing.assert_array_equal(nominal[2:], np.zeros(12))

    def test_inter_values_mapping(self, model):
        s = model.sample(5, np.random.default_rng(2))
        inter = model.inter_values(s)
        np.testing.assert_array_equal(inter["TOXR"], s[:, 0])
        np.testing.assert_array_equal(inter["VTHR"], s[:, 1])

    def test_mismatch_column(self, model):
        s = model.sample(5, np.random.default_rng(3))
        col = model.mismatch_column(s, "M3", "dVTH0")
        start = model.n_inter + 2 * 4  # M3 block
        np.testing.assert_array_equal(col, s[:, start + 1])

    def test_from_uniform_consistency(self, model):
        u = np.full((1, model.dimension), 0.5)
        mid = model.from_uniform(u)[0]
        # medians: inter means, mismatch zeros
        assert mid[0] == pytest.approx(1.0)
        assert mid[5] == pytest.approx(0.0, abs=1e-12)

    def test_describe(self, model):
        assert "14 variables" in model.describe()
