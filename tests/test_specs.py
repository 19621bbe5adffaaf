"""Specification semantics: margins, pass/fail, violations."""

import warnings

import numpy as np
import pytest

from repro.specs import Spec, SpecSet


@pytest.fixture
def specs():
    return SpecSet(
        [
            Spec("gain", ">=", 70.0, unit="dB"),
            Spec("power", "<=", 1.0e-3, unit="W"),
        ]
    )


class TestSpec:
    def test_lower_bound_margin_sign(self):
        spec = Spec("gain", ">=", 70.0)
        assert spec.margin(75.0) > 0
        assert spec.margin(65.0) < 0
        assert spec.margin(70.0) == pytest.approx(0.0)

    def test_upper_bound_margin_sign(self):
        spec = Spec("power", "<=", 1e-3)
        assert spec.margin(0.5e-3) > 0
        assert spec.margin(2e-3) < 0

    def test_margin_normalised_by_scale(self):
        spec = Spec("gain", ">=", 70.0, scale=10.0)
        assert spec.margin(80.0) == pytest.approx(1.0)

    def test_default_scale_is_abs_bound(self):
        assert Spec("power", "<=", 1e-3).effective_scale == 1e-3
        assert Spec("sat", ">=", 0.0).effective_scale == 1.0

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            Spec("x", "==", 1.0)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            Spec("x", ">=", 1.0, scale=0.0)

    def test_passes_scalar_and_array(self):
        spec = Spec("gain", ">=", 70.0)
        assert spec.passes(71.0) is True
        out = spec.passes(np.array([69.0, 71.0]))
        np.testing.assert_array_equal(out, [False, True])

    def test_str(self):
        assert str(Spec("gain", ">=", 70.0, unit="dB")) == "gain >= 70 dB"

    def test_overflowing_margin_saturates_without_warning(self):
        # A subnormal bound is its own scale: 4.0 / 2.2e-308 overflows.
        tiny = 2.2250738585072014e-308
        lower, upper = Spec("m", ">=", tiny), Spec("m", "<=", tiny)
        specs = SpecSet([lower])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert lower.margin(4.0) == np.inf
            assert lower.margin(-4.0) == -np.inf
            assert upper.margin(4.0) == -np.inf
            np.testing.assert_array_equal(
                lower.margin(np.array([4.0, -4.0])), [np.inf, -np.inf]
            )
            assert lower.passes(4.0) == (lower.margin(4.0) >= 0.0)
            np.testing.assert_array_equal(specs.passes([[4.0], [-4.0]]), [True, False])
            np.testing.assert_array_equal(
                specs.violation([[4.0], [-4.0]]), [0.0, np.inf]
            )


class TestSpecSet:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SpecSet([Spec("a", ">=", 0.0), Spec("a", "<=", 1.0)])

    def test_metric_names_order(self, specs):
        assert specs.metric_names == ["gain", "power"]
        assert specs.index_of("power") == 1
        with pytest.raises(KeyError):
            specs.index_of("missing")

    def test_getitem(self, specs):
        assert specs["gain"].bound == 70.0
        with pytest.raises(KeyError):
            specs["missing"]

    def test_passes_requires_all_specs(self, specs):
        performance = np.array(
            [
                [75.0, 0.5e-3],  # both pass
                [65.0, 0.5e-3],  # gain fails
                [75.0, 2.0e-3],  # power fails
            ]
        )
        np.testing.assert_array_equal(specs.passes(performance), [True, False, False])

    def test_violation_zero_iff_feasible(self, specs):
        performance = np.array([[75.0, 0.5e-3], [65.0, 2.0e-3]])
        violation = specs.violation(performance)
        assert violation[0] == 0.0
        assert violation[1] > 0.0

    def test_violation_additive_over_specs(self, specs):
        one_bad = specs.violation(np.array([[65.0, 0.5e-3]]))[0]
        two_bad = specs.violation(np.array([[65.0, 2.0e-3]]))[0]
        assert two_bad > one_bad

    def test_nan_performance_fails_hard(self, specs):
        performance = np.array([[np.nan, 0.5e-3]])
        assert not specs.passes(performance)[0]
        assert specs.violation(performance)[0] > 100.0

    def test_wrong_column_count_rejected(self, specs):
        with pytest.raises(ValueError):
            specs.passes(np.zeros((3, 5)))

    def test_one_dimensional_input_promoted(self, specs):
        assert specs.passes(np.array([75.0, 0.5e-3])).shape == (1,)

    def test_worst_margin(self, specs):
        performance = np.array([[75.0, 0.9e-3]])
        worst = specs.worst_margin(performance)[0]
        # gain margin 5/70 ~ 0.071 is more critical than power's 0.1.
        assert worst == pytest.approx(5.0 / 70.0, rel=1e-9)

    def test_describe_lists_all(self, specs):
        text = specs.describe()
        assert "gain" in text and "power" in text
