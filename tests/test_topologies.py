"""Amplifier topology models: structure, physics sanity, variation response."""

import numpy as np
import pytest

from repro.circuit.mosfet import DeviceArrays
from repro.circuit.tech import C035Technology, N90Technology
from repro.circuit.topologies import (
    FoldedCascodeAmplifier,
    TwoStageTelescopicAmplifier,
)


@pytest.fixture(scope="module")
def fc():
    return FoldedCascodeAmplifier(C035Technology())


@pytest.fixture(scope="module")
def ts():
    return TwoStageTelescopicAmplifier(N90Technology())


@pytest.fixture(scope="module")
def fc_design(fc):
    """A reasonable manual folded-cascode sizing."""
    return np.array([
        200e-6, 0.5e-6,   # input pair
        100e-6, 1.0e-6,   # tail
        80e-6, 1.0e-6,    # p sources
        100e-6, 0.5e-6,   # p cascodes
        60e-6, 0.5e-6,    # n cascodes
        40e-6, 1.0e-6,    # n sinks
        180e-6, 35e-6,    # itail, icas
        0.10, 0.10,
    ])


@pytest.fixture(scope="module")
def ts_design(ts):
    """A reasonable manual telescopic two-stage sizing."""
    return np.array([
        20e-6, 0.3e-6,
        10e-6, 0.2e-6,
        16e-6, 0.2e-6,
        20e-6, 0.3e-6,
        16e-6, 0.4e-6,
        60e-6, 0.15e-6,
        30e-6, 0.2e-6,
        150e-6, 700e-6,
        0.35e-12, 300.0,
        0.08, 0.08,
    ])


class TestStructure:
    def test_folded_cascode_has_15_devices(self, fc):
        assert len(fc.device_names()) == 15
        assert fc.variation.dimension == 80  # 20 inter + 15*4

    def test_telescopic_has_19_devices(self, ts):
        assert len(ts.device_names()) == 19
        assert ts.variation.dimension == 123  # 47 inter + 19*4

    def test_design_space_consistent(self, fc, ts):
        for amp in (fc, ts):
            space = amp.design_space()
            assert space.dimension == len(space.names)
            assert np.all(space.upper > space.lower)

    def test_metric_names_match_output_width(self, fc, fc_design):
        nominal = fc.evaluate_nominal(fc_design)
        assert nominal.shape == (len(fc.metric_names()),)


class TestOperatingPoints:
    @pytest.mark.parametrize(
        "amp, design, pairs, waves",
        [("fc", "fc_design", 17, 4), ("ts", "ts_design", 22, 5)],
        ids=["fc-fc_design-17", "ts-ts_design-22"],
    )
    def test_each_operating_point_is_solved_once(
        self, request, monkeypatch, amp, design, pairs, waves
    ):
        """One overdrive solve per distinct (device, current) pair -- a mirror
        reference shared by two outputs is solved once -- in one solver call
        per polarity and dependency wave."""
        amp = request.getfixturevalue(amp)
        x = request.getfixturevalue(design)
        solve = DeviceArrays.vov_for_current
        rows = []  # (device, current) rows each call solved
        n = 16

        def counting(self, ids):
            vov = solve(self, ids)
            rows.append(vov.size // n)
            return vov

        monkeypatch.setattr(DeviceArrays, "vov_for_current", counting)
        samples = amp.variation.sample(n, np.random.default_rng(3))
        amp.evaluate_pairs(np.repeat(x[None, :], n, axis=0), samples)
        assert sum(rows) == pairs
        assert 0 < len(rows) <= waves


class TestFoldedCascodePhysics:
    def test_nominal_metrics_in_physical_ranges(self, fc, fc_design):
        m = dict(zip(fc.metric_names(), fc.evaluate_nominal(fc_design)))
        assert 60 < m["a0_db"] < 130
        assert 1e6 < m["gbw_hz"] < 1e9
        assert 0 < m["pm_deg"] <= 90
        assert 0 < m["os_v"] < 2 * 3.3
        assert 0 < m["power_w"] < 20e-3

    def test_more_tail_current_more_gbw_and_power(self, fc, fc_design):
        base = dict(zip(fc.metric_names(), fc.evaluate_nominal(fc_design)))
        boosted = fc_design.copy()
        boosted[12] *= 1.5  # itail
        more = dict(zip(fc.metric_names(), fc.evaluate_nominal(boosted)))
        assert more["gbw_hz"] > base["gbw_hz"]
        assert more["power_w"] > base["power_w"]

    def test_longer_input_l_increases_gain(self, fc, fc_design):
        base = fc.evaluate_nominal(fc_design)[0]
        longer = fc_design.copy()
        longer[1] *= 2.0  # l1: lambda ~ 1/leff, ro1 up -> gain up
        assert fc.evaluate_nominal(longer)[0] > base

    def test_bias_margin_sets_nominal_satmargin(self, fc, fc_design):
        """At the nominal point the binding margin should be close to the
        designed vmargin (the replica bias tracks exactly)."""
        m = dict(zip(fc.metric_names(), fc.evaluate_nominal(fc_design)))
        assert m["satmargin_v"] == pytest.approx(0.10, abs=0.05)

    def test_deterministic(self, fc, fc_design):
        s = fc.variation.sample(7, np.random.default_rng(0))
        np.testing.assert_array_equal(fc.evaluate(fc_design, s),
                                      fc.evaluate(fc_design, s))

    def test_no_nans_on_random_designs(self, fc):
        rng = np.random.default_rng(5)
        xs = fc.design_space().sample(20, rng)
        s = fc.variation.sample(16, rng)
        for x in xs:
            out = fc.evaluate(x, s)
            assert np.all(np.isfinite(out)), f"non-finite metrics at {x}"

    def test_mismatch_spreads_performance(self, fc, fc_design):
        rng = np.random.default_rng(1)
        s = fc.variation.sample(400, rng)
        out = fc.evaluate(fc_design, s)
        # Gain and power must both show process-induced spread.
        assert np.std(out[:, 0]) > 0.01
        assert np.std(out[:, 4]) > 1e-7


class TestTelescopicPhysics:
    def test_nominal_metrics_in_physical_ranges(self, ts, ts_design):
        m = dict(zip(ts.metric_names(), ts.evaluate_nominal(ts_design)))
        assert 60 < m["a0_db"] < 160
        assert 1e7 < m["gbw_hz"] < 5e9
        assert 0 < m["pm_deg"] <= 120
        assert 0 < m["os_v"] < 2 * 1.2
        assert 0 < m["power_w"] < 50e-3
        assert m["area_m2"] > 0
        assert m["offset_v"] >= 0

    def test_offset_zero_at_nominal(self, ts, ts_design):
        """Perfect matching (nominal point) -> no offset."""
        m = dict(zip(ts.metric_names(), ts.evaluate_nominal(ts_design)))
        assert m["offset_v"] == pytest.approx(0.0, abs=1e-12)

    def test_offset_shrinks_with_input_area(self, ts, ts_design):
        rng = np.random.default_rng(2)
        s = ts.variation.sample(300, rng)
        small = ts.evaluate(ts_design, s)
        bigger = ts_design.copy()
        bigger[0] *= 3.0  # w1
        bigger[1] *= 3.0  # l1
        large = ts.evaluate(bigger, s)
        j = ts.metric_names().index("offset_v")
        assert np.mean(large[:, j]) < np.mean(small[:, j])

    def test_bigger_cc_lowers_gbw_and_raises_area(self, ts, ts_design):
        base = dict(zip(ts.metric_names(), ts.evaluate_nominal(ts_design)))
        big = ts_design.copy()
        big[16] *= 2.0  # cc
        more = dict(zip(ts.metric_names(), ts.evaluate_nominal(big)))
        assert more["gbw_hz"] < base["gbw_hz"]
        assert more["area_m2"] > base["area_m2"]

    def test_rz_tracks_poly_sheet_resistance(self, ts, ts_design):
        """PM must respond to the RSHPOLY inter-die variable."""
        model = ts.variation
        idx = model.inter.index_of("RSHPOLY")
        lo = model.nominal().copy()
        hi = model.nominal().copy()
        lo[idx], hi[idx] = 0.7, 1.3
        pm_j = ts.metric_names().index("pm_deg")
        pm_lo = ts.evaluate(ts_design, lo[None, :])[0, pm_j]
        pm_hi = ts.evaluate(ts_design, hi[None, :])[0, pm_j]
        assert pm_lo != pm_hi

    def test_no_nans_on_random_designs(self, ts):
        rng = np.random.default_rng(6)
        xs = ts.design_space().sample(20, rng)
        s = ts.variation.sample(16, rng)
        for x in xs:
            out = ts.evaluate(x, s)
            assert np.all(np.isfinite(out)), f"non-finite metrics at {x}"
