"""Unit-conversion helpers."""

import numpy as np
import pytest

from repro.units import db_to_ratio, deg, rad, ratio_to_db


class TestDbConversions:
    def test_known_values(self):
        assert ratio_to_db(10.0) == pytest.approx(20.0)
        assert ratio_to_db(100.0) == pytest.approx(40.0)
        assert ratio_to_db(1.0) == pytest.approx(0.0)

    def test_roundtrip(self):
        for value in (0.1, 1.0, 3162.0, 1e6):
            assert db_to_ratio(ratio_to_db(value)) == pytest.approx(value, rel=1e-12)

    def test_nonpositive_ratio_maps_to_minus_inf(self):
        assert ratio_to_db(0.0) == -np.inf
        assert ratio_to_db(-5.0) == -np.inf

    def test_array_input_preserves_shape(self):
        values = np.array([1.0, 10.0, 100.0])
        out = ratio_to_db(values)
        assert out.shape == values.shape
        assert out[1] == pytest.approx(20.0)

    def test_scalar_input_returns_python_float(self):
        assert isinstance(ratio_to_db(10.0), float)
        assert isinstance(db_to_ratio(20.0), float)


class TestAngles:
    def test_deg_rad_roundtrip(self):
        assert deg(rad(60.0)) == pytest.approx(60.0)
        assert rad(180.0) == pytest.approx(np.pi)

    def test_array(self):
        out = deg(np.array([0.0, np.pi / 2]))
        np.testing.assert_allclose(out, [0.0, 90.0])
