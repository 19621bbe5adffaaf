"""Synthetic 0.35 um CMOS technology ("C035").

Used by the paper's example 1 (fully differential folded-cascode amplifier,
3.3 V supply).  The 20 inter-die statistical variables carry the exact names
the paper lists in section 3.2:

    TOXRn, VTH0Rn, DELUON, DELL, DELW, DELRDIFFN, VTH0Rp, DELUOP,
    DELRDIFFP, CJSWRn, CJSWRp, CJRn, CJRp, NPEAKn, NPEAKp, TOXRp,
    LDn, WDn, LDp, WDp

Physical effect of each variable (applied in :meth:`C035Technology.realize`):

=============  ==================================================================
variable       effect
=============  ==================================================================
TOXR{n,p}      multiplies oxide thickness (hence divides Cox and overlap caps)
VTH0R{n,p}     multiplies the zero-bias threshold magnitude
DELUO{N,P}     relative shift of low-field mobility
DELL, DELW     additive global drawn-geometry offsets [m]
DELRDIFF{N,P}  relative shift of S/D diffusion resistance, lumped into the
               mobility-degradation coefficient theta (series-R gm loss)
CJR / CJSWR    multiply junction area / sidewall capacitance densities
NPEAK{n,p}     normalised channel-doping delta: raises VTH, lowers mobility,
               strengthens the body effect
LD{n,p}        additive inter-die lateral-diffusion delta [m]
WD{n,p}        additive inter-die width-reduction delta [m]
=============  ==================================================================

Intra-die mismatch: per-device (dTOX, dVTH0, dLD, dWD) standard-normal
scores, scaled by Pelgrom coefficients sigma = A / sqrt(W*L).
"""

from __future__ import annotations

import numpy as np

from repro.circuit.mosfet import EPS_OX, DeviceArrays, MosfetModelCard
from repro.process.parameters import ParameterGroup, StatisticalParameter
from repro.process.technology import PelgromCoefficients, Technology

__all__ = ["C035Technology"]

#: Threshold shift per unit of normalised doping delta [V].
_VTH_PER_NPEAK = 0.008
#: Relative mobility loss per unit of normalised doping delta.
_U0_PER_NPEAK = 0.015
#: Relative body-effect increase per unit of normalised doping delta.
_GAMMA_PER_NPEAK = 0.03
#: Fraction of diffusion-resistance variation entering theta.
_THETA_PER_RDIFF = 0.5


class C035Technology(Technology):
    """0.35 um CMOS, 3.3 V, 20 named inter-die statistical variables."""

    name = "C035"
    vdd = 3.3
    lmin = 0.35e-6
    wmin = 0.8e-6

    # -- nominal cards ------------------------------------------------------
    def build_nmos(self) -> MosfetModelCard:
        return MosfetModelCard(
            polarity="n",
            vth0=0.50,
            u0=0.0475,
            tox=7.6e-9,
            ld=30e-9,
            wd=20e-9,
            theta=0.25,
            clm=25e-9,
            gamma=0.58,
            phi=0.84,
            cj=9.3e-4,
            cjsw=2.8e-10,
            cgdo=2.1e-10,
            cgso=2.1e-10,
            ldiff=0.85e-6,
        )

    def build_pmos(self) -> MosfetModelCard:
        return MosfetModelCard(
            polarity="p",
            vth0=0.65,
            u0=0.0148,
            tox=7.6e-9,
            ld=25e-9,
            wd=25e-9,
            theta=0.20,
            clm=35e-9,
            gamma=0.40,
            phi=0.80,
            cj=1.15e-3,
            cjsw=3.2e-10,
            cgdo=2.3e-10,
            cgso=2.3e-10,
            ldiff=0.85e-6,
        )

    # -- statistics ---------------------------------------------------------
    def build_inter_group(self) -> ParameterGroup:
        normal = StatisticalParameter
        return ParameterGroup(
            [
                normal("TOXRn", 1.0, 0.015, "NMOS oxide-thickness ratio"),
                normal("VTH0Rn", 1.0, 0.025, "NMOS threshold ratio"),
                normal("DELUON", 0.0, 0.030, "NMOS relative mobility delta"),
                normal("DELL", 0.0, 8e-9, "global drawn-length offset [m]"),
                normal("DELW", 0.0, 12e-9, "global drawn-width offset [m]"),
                normal("DELRDIFFN", 0.0, 0.06, "NMOS diffusion-resistance delta"),
                normal("VTH0Rp", 1.0, 0.025, "PMOS threshold ratio"),
                normal("DELUOP", 0.0, 0.030, "PMOS relative mobility delta"),
                normal("DELRDIFFP", 0.0, 0.06, "PMOS diffusion-resistance delta"),
                normal("CJSWRn", 1.0, 0.04, "NMOS sidewall junction-cap ratio"),
                normal("CJSWRp", 1.0, 0.04, "PMOS sidewall junction-cap ratio"),
                normal("CJRn", 1.0, 0.04, "NMOS area junction-cap ratio"),
                normal("CJRp", 1.0, 0.04, "PMOS area junction-cap ratio"),
                normal("NPEAKn", 0.0, 1.0, "NMOS normalised doping delta"),
                normal("NPEAKp", 0.0, 1.0, "PMOS normalised doping delta"),
                normal("TOXRp", 1.0, 0.015, "PMOS oxide-thickness ratio"),
                normal("LDn", 0.0, 4e-9, "NMOS inter-die lateral-diffusion delta [m]"),
                normal("WDn", 0.0, 6e-9, "NMOS inter-die width-reduction delta [m]"),
                normal("LDp", 0.0, 4e-9, "PMOS inter-die lateral-diffusion delta [m]"),
                normal("WDp", 0.0, 6e-9, "PMOS inter-die width-reduction delta [m]"),
            ]
        )

    def build_pelgrom(self, polarity: str) -> PelgromCoefficients:
        if polarity == "n":
            return PelgromCoefficients(avt=9e-9, atox=4e-9, ald=2e-15, awd=4e-15)
        return PelgromCoefficients(avt=11e-9, atox=4e-9, ald=2e-15, awd=4e-15)

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

        if polarity == "n":
            toxr = inter["TOXRn"]
            vthr = inter["VTH0Rn"]
            deluo = inter["DELUON"]
            delrdiff = inter["DELRDIFFN"]
            cjr, cjswr = inter["CJRn"], inter["CJSWRn"]
            npeak = inter["NPEAKn"]
            ld_delta, wd_delta = inter["LDn"], inter["WDn"]
        else:
            toxr = inter["TOXRp"]
            vthr = inter["VTH0Rp"]
            deluo = inter["DELUOP"]
            delrdiff = inter["DELRDIFFP"]
            cjr, cjswr = inter["CJRp"], inter["CJSWRp"]
            npeak = inter["NPEAKp"]
            ld_delta, wd_delta = inter["LDp"], inter["WDp"]

        # The (device, sample) arrays are computed in place on seven
        # buffers, the four sigma arrays among them; the comments give the
        # expressions.  Each step keeps its expression's operand pair, so
        # every value is the expression's.
        cox, vth, ld2, wd2 = self._work_buffers(polarity, w, l, inter, z_tox)
        leff, weff, kp = (np.empty(cox.shape) for _ in range(3))

        # cox = EPS_OX / max(tox * TOXR * (1 + s_tox * z_tox), 1e-10)
        cox *= z_tox
        cox += 1.0
        cox *= card.tox * toxr
        np.maximum(cox, 1e-10, out=cox)
        np.divide(EPS_OX, cox, out=cox)

        # vth = vth0 * VTH0R + _VTH_PER_NPEAK * NPEAK + s_vth * z_vth
        vth *= z_vth
        np.add(card.vth0 * vthr + _VTH_PER_NPEAK * npeak, vth, out=vth)

        # leff = max(l + DELL - 2 * (ld + LD + s_ld * z_ld), 0.2 * l)
        ld2 *= z_ld
        ld2 += card.ld + ld_delta
        ld2 *= 2.0
        np.add(l, inter["DELL"], out=leff)
        leff -= ld2
        np.maximum(leff, np.multiply(0.2, l, out=ld2), out=leff)
        # weff = max(w + DELW - 2 * (wd + WD + s_wd * z_wd), 0.2 * w)
        wd2 *= z_wd
        wd2 += card.wd + wd_delta
        wd2 *= 2.0
        np.add(w, inter["DELW"], out=weff)
        weff -= wd2
        np.maximum(weff, np.multiply(0.2, w, out=wd2), out=weff)

        cj_scale = self._junction_scale(card, weff, cjr, cjswr, ld2, wd2, kp)

        # lam = clm / leff;  kp = max(u0, 1e-4) * cox
        lam = np.divide(card.clm, leff, out=wd2)
        u0 = card.u0 * (1.0 + deluo) * (1.0 - _U0_PER_NPEAK * npeak)
        np.multiply(np.maximum(u0, 1e-4), cox, out=kp)
        theta = card.theta * (1.0 + _THETA_PER_RDIFF * delrdiff)
        gamma = card.gamma * (1.0 + _GAMMA_PER_NPEAK * npeak)

        return DeviceArrays(
            card=card,
            w=w,
            l=l,
            vth=vth,
            kp=kp,
            lam=lam,
            theta=theta,
            weff=weff,
            leff=leff,
            cox=cox,
            cj_scale=cj_scale,
            cg_scale=1.0 / toxr,
            gamma=gamma,
            phi=card.phi,
        )
