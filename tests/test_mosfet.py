"""MOSFET model: large-signal card and EKV bias-point helpers."""

import numpy as np
import pytest

from repro.circuit.mosfet import THERMAL_VOLTAGE, MosfetModelCard
from repro.circuit.tech import C035Technology


def _s(value):
    """Scalar from a length-1 (or 0-d) array."""
    return float(np.asarray(value).reshape(-1)[0])


@pytest.fixture(scope="module")
def nmos_card():
    return C035Technology().nmos


@pytest.fixture(scope="module")
def device(nmos_card):
    """A 50/1 um NMOS at nominal parameters (single-sample arrays)."""
    tech = C035Technology()
    return tech.realize_nominal("n", 50e-6, 1e-6)


class TestModelCard:
    def test_validation(self):
        with pytest.raises(ValueError):
            MosfetModelCard(polarity="x", vth0=0.5, u0=0.05, tox=8e-9)
        with pytest.raises(ValueError):
            MosfetModelCard(polarity="n", vth0=0.5, u0=0.05, tox=0.0)
        with pytest.raises(ValueError):
            MosfetModelCard(polarity="n", vth0=0.5, u0=-1.0, tox=8e-9)

    def test_cox_kp(self, nmos_card):
        assert nmos_card.cox == pytest.approx(3.45e-11 / nmos_card.tox)
        assert nmos_card.kp == pytest.approx(nmos_card.u0 * nmos_card.cox)

    def test_with_overrides(self, nmos_card):
        fast = nmos_card.with_overrides(vth0=0.4)
        assert fast.vth0 == 0.4
        assert nmos_card.vth0 != 0.4  # original untouched


class TestLargeSignalModel:
    def test_cutoff_current_negligible(self, nmos_card):
        ids = nmos_card.ids(10e-6, 1e-6, vgs=0.0, vds=1.0)
        assert ids < 1e-9

    def test_saturation_current_increases_with_vgs(self, nmos_card):
        i1 = nmos_card.ids(10e-6, 1e-6, vgs=0.8, vds=2.0)
        i2 = nmos_card.ids(10e-6, 1e-6, vgs=1.0, vds=2.0)
        assert i2 > i1 > 0

    def test_triode_vs_saturation_continuity(self, nmos_card):
        vgs = 1.0
        vov = vgs - nmos_card.vth0
        below = nmos_card.ids(10e-6, 1e-6, vgs=vgs, vds=vov - 1e-6)
        above = nmos_card.ids(10e-6, 1e-6, vgs=vgs, vds=vov + 1e-6)
        assert below == pytest.approx(above, rel=1e-3)

    def test_derivatives_match_finite_differences(self, nmos_card):
        w, l = 20e-6, 1e-6
        vgs, vds, vbs = 1.1, 1.5, -0.3
        ids, gm, gds, gmbs = nmos_card.ids_and_derivatives(w, l, vgs, vds, vbs)
        h = 1e-6
        gm_fd = (nmos_card.ids(w, l, vgs + h, vds, vbs)
                 - nmos_card.ids(w, l, vgs - h, vds, vbs)) / (2 * h)
        gds_fd = (nmos_card.ids(w, l, vgs, vds + h, vbs)
                  - nmos_card.ids(w, l, vgs, vds - h, vbs)) / (2 * h)
        assert gm == pytest.approx(gm_fd, rel=1e-3)
        assert gds == pytest.approx(gds_fd, rel=1e-3)

    def test_body_effect_raises_threshold(self, nmos_card):
        # More reverse body bias -> less current at the same vgs.
        i0 = nmos_card.ids(10e-6, 1e-6, vgs=0.9, vds=2.0, vbs=0.0)
        i1 = nmos_card.ids(10e-6, 1e-6, vgs=0.9, vds=2.0, vbs=-1.0)
        assert i1 < i0


class TestDeviceArraysEKV:
    def test_current_vov_roundtrip_strong_inversion(self, device):
        for ids in (1e-6, 10e-6, 100e-6, 1e-3):
            vov = device.vov_for_current(ids)
            back = device.current_for_vov(vov)
            assert back == pytest.approx(ids, rel=1e-6)

    def test_weak_inversion_vov_negative(self, device):
        # Tiny current on a wide device -> below-threshold operation.
        vov = device.vov_for_current(1e-9)
        assert vov < 0

    def test_gm_matches_finite_difference_of_current(self, device):
        for ids in (1e-6, 50e-6, 500e-6):
            vov = device.vov_for_current(ids)
            h = 1e-5
            gm_fd = (device.current_for_vov(vov + h)
                     - device.current_for_vov(vov - h)) / (2 * h)
            assert _s(device.gm(vov)) == pytest.approx(_s(gm_fd), rel=2e-2)

    def test_gm_respects_weak_inversion_ceiling(self, device):
        ids = 1e-6  # deep weak inversion on a 50 um device
        ceiling = ids / (device.nfactor * THERMAL_VOLTAGE)
        assert _s(device.gm(device.vov_for_current(ids))) <= ceiling * 1.01

    def test_gm_over_id_decreases_with_current(self, device):
        currents = np.array([1e-6, 1e-5, 1e-4, 1e-3])
        gm_over_id = np.array(
            [_s(device.gm(device.vov_for_current(i))) / i for i in currents]
        )
        assert np.all(np.diff(gm_over_id) < 0)

    def test_vdsat_floors_in_weak_inversion(self, device):
        vdsat = _s(device.vdsat(device.vov_for_current(1e-9)))
        assert vdsat == pytest.approx(3.5 * THERMAL_VOLTAGE, rel=0.05)

    def test_vdsat_tracks_overdrive_in_strong_inversion(self, device):
        ids = 2e-3
        vov = device.vov_for_current(ids)
        assert _s(device.vdsat(vov)) == pytest.approx(_s(vov), rel=0.1)

    def test_output_resistance(self, device):
        ids = 1e-4
        assert _s(device.ro(ids)) == pytest.approx(
            1.0 / (_s(device.lam) * ids), rel=1e-9
        )

    def test_body_effect_vth_at(self, device):
        assert _s(device.vth_at(0.0)) == pytest.approx(_s(device.vth))
        assert _s(device.vth_at(1.0)) > _s(device.vth)

    def test_gmbs_fraction_of_gm(self, device):
        ids = 1e-4
        vov = device.vov_for_current(ids)
        ratio = _s(device.gmbs(vov, 0.5)) / _s(device.gm(vov))
        assert 0.05 < ratio < 0.5

    def test_capacitances_positive_and_scale_with_width(self):
        tech = C035Technology()
        small = tech.realize_nominal("n", 10e-6, 1e-6)
        large = tech.realize_nominal("n", 100e-6, 1e-6)
        for attr in ("cgs", "cgd", "cdb"):
            assert _s(getattr(large, attr)()) > _s(getattr(small, attr)()) > 0

    def test_area(self):
        tech = C035Technology()
        dev = tech.realize_nominal("n", 10e-6, 2e-6)
        assert dev.area() == pytest.approx(20e-12)
