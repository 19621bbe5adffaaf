"""Synthetic 90 nm CMOS technology ("N90").

Used by the paper's example 2 (two-stage telescopic-cascode amplifier,
1.2 V supply).  The paper states the statistical model has **47 inter-die
variables** but does not name them; we define a documented 47-variable set:

* 5 global variables::

      DELL, DELW     global drawn-geometry offsets [m]
      XL, XW         mask-level geometry offsets [m]
      RSHPOLY        poly sheet-resistance ratio (used by the compensation
                     nulling resistor of the two-stage amplifier)

* 21 variables per polarity (suffix ``n`` / ``p``), 42 total::

      TOXR    oxide-thickness ratio
      VTH0R   threshold-voltage ratio
      DELUO   relative mobility delta
      THETAR  mobility-degradation ratio
      CLMR    channel-length-modulation ratio
      NPEAK   normalised channel-doping delta (VTH up, mobility down,
              body effect up)
      K1R     body-effect ratio
      LD, WD  inter-die lateral diffusion / width reduction deltas [m]
      CJR, CJSWR        junction capacitance ratios (area / sidewall)
      CGDOR, CGSOR      overlap capacitance ratios
      DELRDIFF          diffusion-resistance delta (lumped into theta)
      VOFF    additive threshold offset [V]
      NFACTOR subthreshold-slope delta (small additive VTH effect)
      ETA0    DIBL delta: increases channel-length modulation at short L
      LVTH    short-channel VTH roll-off delta (scaled by lmin/Leff)
      WVTH    narrow-width VTH delta (scaled by wmin/Weff)
      RDSWR   S/D series-resistance ratio (lumped into theta)
      VSATR   velocity-saturation ratio (lumped into theta)

Compared with C035 the relative sigmas are larger (nanometre technologies
show more variability — the motivation of the paper), mismatch is better per
unit area (thinner oxide) but devices are smaller, and short-channel terms
(ETA0, LVTH, WVTH) appear.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.mosfet import EPS_OX, DeviceArrays, MosfetModelCard
from repro.process.parameters import ParameterGroup, StatisticalParameter
from repro.process.technology import PelgromCoefficients, Technology

__all__ = ["N90Technology"]

_VTH_PER_NPEAK = 0.010
_U0_PER_NPEAK = 0.010
_GAMMA_PER_NPEAK = 0.03
_THETA_PER_RDIFF = 0.4
_LAM_PER_ETA0 = 0.05


class N90Technology(Technology):
    """90 nm CMOS, 1.2 V, 47 inter-die statistical variables."""

    name = "N90"
    vdd = 1.2
    lmin = 0.10e-6
    wmin = 0.15e-6

    # -- nominal cards ------------------------------------------------------
    def build_nmos(self) -> MosfetModelCard:
        return MosfetModelCard(
            polarity="n",
            vth0=0.32,
            u0=0.028,
            tox=2.3e-9,
            ld=12e-9,
            wd=8e-9,
            theta=1.1,
            clm=11e-9,
            gamma=0.35,
            phi=0.85,
            cj=1.1e-3,
            cjsw=1.1e-10,
            cgdo=2.7e-10,
            cgso=2.7e-10,
            ldiff=0.24e-6,
        )

    def build_pmos(self) -> MosfetModelCard:
        return MosfetModelCard(
            polarity="p",
            vth0=0.33,
            u0=0.0095,
            tox=2.3e-9,
            ld=10e-9,
            wd=10e-9,
            theta=0.9,
            clm=15e-9,
            gamma=0.32,
            phi=0.82,
            cj=1.25e-3,
            cjsw=1.2e-10,
            cgdo=2.8e-10,
            cgso=2.8e-10,
            ldiff=0.24e-6,
        )

    # -- statistics ---------------------------------------------------------
    def build_inter_group(self) -> ParameterGroup:
        normal = StatisticalParameter
        parameters = [
            normal("DELL", 0.0, 3e-9, "global drawn-length offset [m]"),
            normal("DELW", 0.0, 4e-9, "global drawn-width offset [m]"),
            normal("XL", 0.0, 2e-9, "mask-level length offset [m]"),
            normal("XW", 0.0, 3e-9, "mask-level width offset [m]"),
            normal("RSHPOLY", 1.0, 0.08, "poly sheet-resistance ratio"),
        ]
        for t in ("n", "p"):
            parameters.extend(
                [
                    normal(f"TOXR{t}", 1.0, 0.020),
                    normal(f"VTH0R{t}", 1.0, 0.035),
                    normal(f"DELUO{t}", 0.0, 0.040),
                    normal(f"THETAR{t}", 1.0, 0.050),
                    normal(f"CLMR{t}", 1.0, 0.080),
                    normal(f"NPEAK{t}", 0.0, 1.0),
                    normal(f"K1R{t}", 1.0, 0.040),
                    normal(f"LD{t}", 0.0, 2e-9),
                    normal(f"WD{t}", 0.0, 3e-9),
                    normal(f"CJR{t}", 1.0, 0.050),
                    normal(f"CJSWR{t}", 1.0, 0.050),
                    normal(f"CGDOR{t}", 1.0, 0.040),
                    normal(f"CGSOR{t}", 1.0, 0.040),
                    normal(f"DELRDIFF{t}", 0.0, 0.080),
                    normal(f"VOFF{t}", 0.0, 0.004, "additive VTH offset [V]"),
                    normal(f"NFACTOR{t}", 0.0, 1.0),
                    normal(f"ETA0{t}", 0.0, 1.0),
                    normal(f"LVTH{t}", 0.0, 0.006, "short-channel VTH delta [V]"),
                    normal(f"WVTH{t}", 0.0, 0.004, "narrow-width VTH delta [V]"),
                    normal(f"RDSWR{t}", 1.0, 0.050),
                    normal(f"VSATR{t}", 1.0, 0.040),
                ]
            )
        group = ParameterGroup(parameters)
        if len(group) != 47:
            raise AssertionError(f"N90 must define 47 inter-die variables, got {len(group)}")
        return group

    def build_pelgrom(self, polarity: str) -> PelgromCoefficients:
        if polarity == "n":
            return PelgromCoefficients(avt=3.5e-9, atox=8e-9, ald=1.2e-15, awd=2e-15)
        return PelgromCoefficients(avt=4.0e-9, atox=8e-9, ald=1.2e-15, awd=2e-15)

    # -- variation application -------------------------------------------------
    def realize(
        self,
        polarity: str,
        w: np.ndarray | float,
        l: np.ndarray | float,
        inter: dict[str, np.ndarray],
        scores: np.ndarray,
    ) -> DeviceArrays:
        card = self.card(polarity)
        scores = np.atleast_2d(np.asarray(scores, dtype=float))
        z_tox, z_vth, z_ld, z_wd = (scores[..., i] for i in range(4))
        t = polarity
        # The (device, sample) arrays are computed in place on seven
        # buffers, the four sigma arrays among them; the comments give the
        # expressions.  Each step keeps its expression's operand pair, so
        # every value is the expression's.
        cox, vth, ld2, wd2 = self._work_buffers(polarity, w, l, inter, z_tox)
        leff, weff, kp = (np.empty(cox.shape) for _ in range(3))

        # leff = max(l + DELL + XL - 2 * (ld + LD + s_ld * z_ld), 0.2 * l)
        ld2 *= z_ld
        ld2 += card.ld + inter[f"LD{t}"]
        ld2 *= 2.0
        np.add(l, inter["DELL"], out=leff)
        leff += inter["XL"]
        leff -= ld2
        np.maximum(leff, np.multiply(0.2, l, out=ld2), out=leff)
        # weff = max(w + DELW + XW - 2 * (wd + WD + s_wd * z_wd), 0.2 * w)
        wd2 *= z_wd
        wd2 += card.wd + inter[f"WD{t}"]
        wd2 *= 2.0
        np.add(w, inter["DELW"], out=weff)
        weff += inter["XW"]
        weff -= wd2
        np.maximum(weff, np.multiply(0.2, w, out=wd2), out=weff)

        cj_scale = self._junction_scale(
            card, weff, inter[f"CJR{t}"], inter[f"CJSWR{t}"], ld2, wd2, kp
        )

        # vth = vth0 * VTH0R + _VTH_PER_NPEAK * NPEAK + VOFF + 0.002 * NFACTOR
        #       + LVTH * (lmin / leff) + WVTH * (wmin / weff) + s_vth * z_vth
        vth *= z_vth
        short, narrow = wd2, kp
        np.divide(self.lmin, leff, out=short)
        short *= inter[f"LVTH{t}"]
        np.add(
            card.vth0 * inter[f"VTH0R{t}"]
            + _VTH_PER_NPEAK * inter[f"NPEAK{t}"]
            + inter[f"VOFF{t}"]
            + 0.002 * inter[f"NFACTOR{t}"],
            short,
            out=short,
        )
        np.divide(self.wmin, weff, out=narrow)
        narrow *= inter[f"WVTH{t}"]
        short += narrow
        np.add(short, vth, out=vth)

        # lam = max(clm * CLMR / leff
        #           * (1 + _LAM_PER_ETA0 * ETA0 * (lmin / leff)), 1e-3)
        lam, dibl = wd2, kp
        np.divide(card.clm * inter[f"CLMR{t}"], leff, out=lam)
        np.divide(self.lmin, leff, out=dibl)
        dibl *= _LAM_PER_ETA0 * inter[f"ETA0{t}"]
        dibl += 1.0
        lam *= dibl
        np.maximum(lam, 1e-3, out=lam)

        # cox = EPS_OX / max(tox * TOXR * (1 + s_tox * z_tox), 3e-10),
        # kp = max(u0, 5e-4) * cox
        cox *= z_tox
        cox += 1.0
        cox *= card.tox * inter[f"TOXR{t}"]
        np.maximum(cox, 3e-10, out=cox)
        np.divide(EPS_OX, cox, out=cox)
        u0 = card.u0 * (1.0 + inter[f"DELUO{t}"]) * (1.0 - _U0_PER_NPEAK * inter[f"NPEAK{t}"])
        np.multiply(np.maximum(u0, 5e-4), cox, out=kp)

        theta = (
            card.theta
            * inter[f"THETAR{t}"]
            * (1.0 + _THETA_PER_RDIFF * inter[f"DELRDIFF{t}"])
            * inter[f"RDSWR{t}"]
            * (2.0 - inter[f"VSATR{t}"])
        )
        gamma = card.gamma * inter[f"K1R{t}"] * (1.0 + _GAMMA_PER_NPEAK * inter[f"NPEAK{t}"])
        cg_scale = 0.5 * (inter[f"CGDOR{t}"] + inter[f"CGSOR{t}"]) / inter[f"TOXR{t}"]

        return DeviceArrays(
            card=card,
            w=w,
            l=l,
            vth=vth,
            kp=kp,
            lam=lam,
            theta=np.maximum(theta, 0.0),
            weff=weff,
            leff=leff,
            cox=cox,
            cj_scale=cj_scale,
            cg_scale=cg_scale,
            gamma=gamma,
            phi=card.phi,
        )

    # -- extras ---------------------------------------------------------------
    def poly_sheet_scale(self, inter: dict[str, np.ndarray]) -> np.ndarray:
        """Poly sheet-resistance ratio (for poly resistors like Rz)."""
        return np.asarray(inter["RSHPOLY"], dtype=float)
