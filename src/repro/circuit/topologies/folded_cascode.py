"""Fully differential folded-cascode amplifier (paper example 1).

Topology (NMOS input, folded into a PMOS cascode, 15 transistors — matching
the paper's "15 transistors x 4" mismatch accounting)::

    M0          NMOS tail current source (I_tail)
    M1,  M2     NMOS input pair (I_tail/2 each)
    M3,  M4     PMOS folding current sources (I_cas + I_tail/2), CMFB-driven
    M5,  M6     PMOS cascodes (I_cas)
    M7,  M8     NMOS cascodes (I_cas)
    M9,  M10    NMOS bottom current sinks (I_cas), mirrored from MB4
    MB1         NMOS diode, tail-mirror reference (geometry of M0)
    MB2         PMOS replica generating the folding-node bias (geometry of M3)
    MB3         NMOS replica generating the N-cascode bias (geometry of M9)
    MB4         NMOS diode, bottom-mirror reference (geometry of M9)

Biasing model
-------------
Currents are set by mirrors and the (ideal) common-mode feedback:
``I5 = I9`` and ``I3 = I9 + I_tail/2`` per side.  Mirror errors follow from
the exact device equations: the mirror output device sees the reference
diode's gate voltage, so its current error is driven by the VTH/geometry
mismatch between the two devices.

Cascode bias voltages come from replica generators: the folding node is
biased at ``VDD - (vdsat(M3 replica) + vmargin_p)`` and the N-cascode source
node at ``vdsat(M9 replica) + vmargin_n``; the margins are design variables.
The per-side node voltages additionally shift with the cascode devices' own
VGS mismatch relative to a mismatch-averaged replica (large bias devices).

Performance metrics (column order of :meth:`metric_names`)::

    a0_db       low-frequency differential gain
    gbw_hz      unity-gain bandwidth  gm1 / (2 pi C_out)
    pm_deg      phase margin with folding-node and cascode-node poles
    os_v        differential peak-to-peak output swing
    power_w     VDD * (I_tail + 2 I3 + bias overhead)
    satmargin_v minimum saturation margin over all core devices

The paper's specs for this circuit: A0 >= 70 dB, GBW >= 40 MHz, PM >= 60 deg,
OS >= 4.6 V, power <= 1.07 mW, plus all transistors saturated.
"""

from __future__ import annotations

import numpy as np

from repro.circuit.measures import phase_margin_deg
from repro.circuit.topologies.base import (
    AmplifierTopology,
    DesignSpace,
    _mirror_current,
    _parallel,
)
from repro.units import ratio_to_db

__all__ = ["FoldedCascodeAmplifier"]

#: Single-ended load capacitance [F].
LOAD_CAP = 6.0e-12
#: Fixed bias-generator overhead current [A] plus fraction of branch currents.
BIAS_FIXED = 10e-6
BIAS_FRACTION = 0.08

_DESIGN_NAMES = [
    "w1", "l1",          # input pair
    "w0", "l0",          # tail source
    "w3", "l3",          # PMOS folding sources
    "w5", "l5",          # PMOS cascodes
    "w7", "l7",          # NMOS cascodes
    "w9", "l9",          # NMOS bottom sinks
    "itail", "icas",     # branch currents
    "vmargin_p", "vmargin_n",  # cascode bias margins
]

_LOWER = np.array([
    2e-6, 0.35e-6,
    2e-6, 0.50e-6,
    2e-6, 0.50e-6,
    2e-6, 0.35e-6,
    2e-6, 0.35e-6,
    2e-6, 0.50e-6,
    20e-6, 10e-6,
    0.02, 0.02,
])

_UPPER = np.array([
    400e-6, 2.0e-6,
    400e-6, 4.0e-6,
    400e-6, 4.0e-6,
    400e-6, 2.0e-6,
    400e-6, 2.0e-6,
    400e-6, 4.0e-6,
    300e-6, 200e-6,
    0.35, 0.35,
])

_DEVICES = [
    "M0", "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8", "M9", "M10",
    "MB1", "MB2", "MB3", "MB4",
]

_METRICS = ["a0_db", "gbw_hz", "pm_deg", "os_v", "power_w", "satmargin_v"]

#: Per-polarity device stacks, ``(device, geometry)`` in stack order; ``None``
#: is a mismatch-free replica.  Each wave of overdrive solves is a
#: contiguous slice: first the bias references and replicas (design
#: currents only), then the 11 core devices (mirrored currents).
_N_STACK = [
    ("MB1", "0"), ("MB3", "9"), ("MB4", "9"), (None, "7"),
    ("M0", "0"), ("M1", "1"), ("M2", "1"), ("M7", "7"), ("M8", "7"),
    ("M9", "9"), ("M10", "9"),
]
_P_STACK = [
    ("MB2", "3"), (None, "5"),
    ("M3", "3"), ("M4", "3"), ("M5", "5"), ("M6", "5"),
]
_N_BIAS, _N_CORE = slice(0, 4), slice(4, None)
_P_BIAS, _P_CORE = slice(0, 2), slice(2, None)


class FoldedCascodeAmplifier(AmplifierTopology):
    """Vectorised performance model of the folded-cascode amplifier."""

    def device_names(self) -> list[str]:
        return list(_DEVICES)

    def design_space(self) -> DesignSpace:
        return DesignSpace(list(_DESIGN_NAMES), _LOWER, _UPPER)

    def metric_names(self) -> list[str]:
        return list(_METRICS)

    # ------------------------------------------------------------------
    def evaluate_pairs(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Design row ``X[i]`` at sample row ``samples[i]``, ``(N, n_metrics)``.

        The only evaluation body: :meth:`evaluate` is its one-row case.
        """
        d, samples = self._design_columns(_DESIGN_NAMES, X, samples)
        vdd = self.tech.vdd
        vcm_in = 0.5 * vdd
        vout_cm = 0.5 * vdd

        inter = self.variation.inter_values(samples)
        # Core devices (left/right instances carry their own mismatch) and
        # the mismatch-averaged replicas of the cascode bias generators.
        n_dev = self._realize_stack("n", _N_STACK, d, inter, samples)
        p_dev = self._realize_stack("p", _P_STACK, d, inter, samples)
        mb1, mb3, mb4, m7_avg, m0, m1, m2, m7, m8, m9, m10 = n_dev
        mb2, m5_avg, m3, m4, m5, m6 = p_dev

        itail, icas = d["itail"], d["icas"]
        i3_design = icas + 0.5 * itail

        # -- operating points: one overdrive solve per (device, current), one
        # call per polarity and wave; first the references and replicas ------
        vov_b1, vov_b3, vov_b4, vov7_avg = n_dev[_N_BIAS].vov_for_current(
            np.stack([itail, icas, icas, icas])
        )
        vov_b2, vov5_avg = p_dev[_P_BIAS].vov_for_current(np.stack([i3_design, icas]))

        # -- current mirrors (exact device equations) ----------------------
        i0 = _mirror_current(mb1.vth + vov_b1, m0)
        i1 = 0.5 * i0  # balanced split of the tail current
        vgs_b4 = mb4.vth + vov_b4  # shared by both sinks
        i9_l = _mirror_current(vgs_b4, m9)
        i9_r = _mirror_current(vgs_b4, m10)
        i5_l, i5_r = i9_l, i9_r            # series cascode branch
        i3_l, i3_r = i9_l + i1, i9_r + i1  # CMFB closes KCL at the fold node

        # -- then the core devices at their mirrored currents ------------------
        vov0, vov1, vov2, vov7, vov8, vov9, vov10 = n_dev[_N_CORE].vov_for_current(
            np.stack([i0, i1, i1, i5_l, i5_r, i9_l, i9_r])
        )
        vov3, vov4, vov5, vov6 = p_dev[_P_CORE].vov_for_current(
            np.stack([i3_l, i3_r, i5_l, i5_r])
        )
        vgs5_avg = m5_avg.vth + vov5_avg
        vgs7_avg = m7_avg.vth + vov7_avg

        # -- bias voltages --------------------------------------------------
        # Folding-node target from the PMOS replica MB2 + margin.
        va_target = vdd - (mb2.vdsat(vov_b2) + d["vmargin_p"])
        # Per-side fold node shifts with the cascode's VGS mismatch.
        va_l = va_target + ((m5.vth + vov5) - vgs5_avg)
        va_r = va_target + ((m6.vth + vov6) - vgs5_avg)

        # N-cascode source node from the NMOS replica MB3 + margin.
        vb_target = mb3.vdsat(vov_b3) + d["vmargin_n"]
        vb_l = vb_target - ((m7.vth + vov7) - vgs7_avg)
        vb_r = vb_target - ((m8.vth + vov8) - vgs7_avg)

        # Input-pair source node (body effect solved by fixed-point iteration).
        vs1 = vcm_in - (m1.vth + vov1)
        for _ in range(3):
            vs1 = vcm_in - (m1.vth_at(np.maximum(vs1, 0.0)) + vov1)

        # -- saturation margins ----------------------------------------------
        margins = [
            vs1 - m0.vdsat(vov0),                     # tail
            (va_l - vs1) - m1.vdsat(vov1),            # input left
            (va_r - vs1) - m2.vdsat(vov2),            # input right
            (vdd - va_l) - m3.vdsat(vov3),            # fold source L
            (vdd - va_r) - m4.vdsat(vov4),            # fold source R
            (va_l - vout_cm) - m5.vdsat(vov5),        # p-cascode L
            (va_r - vout_cm) - m6.vdsat(vov6),        # p-cascode R
            (vout_cm - vb_l) - m7.vdsat(vov7),        # n-cascode L
            (vout_cm - vb_r) - m8.vdsat(vov8),        # n-cascode R
            vb_l - m9.vdsat(vov9),                    # sink L
            vb_r - m10.vdsat(vov10),                  # sink R
        ]
        satmargin = np.min(np.vstack(margins), axis=0)

        # -- small-signal quantities per side ---------------------------------
        gm1 = m1.gm(vov1)
        gm2 = m2.gm(vov2)

        def side_rout(m_in, m_src, m_pc, m_nc, m_snk, va, vb, i5, i3, i9,
                      vov_pc, vov_nc):
            gm_pc = m_pc.gm(vov_pc)
            gm_pc = gm_pc + m_pc.gmbs(vov_pc, np.maximum(vdd - va, 0.0), gm_pc)
            gm_nc = m_nc.gm(vov_nc)
            gm_nc = gm_nc + m_nc.gmbs(vov_nc, np.maximum(vb, 0.0), gm_nc)
            ro_up = m_pc.ro(i5) * gm_pc * _parallel(m_src.ro(i3), m_in.ro(i1))
            ro_dn = m_nc.ro(i5) * gm_nc * m_snk.ro(i9)
            return _parallel(ro_up, ro_dn), gm_pc, gm_nc

        rout_l, gm5_eff, gm7_eff = side_rout(
            m1, m3, m5, m7, m9, va_l, vb_l, i5_l, i3_l, i9_l, vov5, vov7
        )
        rout_r, gm6_eff, gm8_eff = side_rout(
            m2, m4, m6, m8, m10, va_r, vb_r, i5_r, i3_r, i9_r, vov6, vov8
        )

        a0 = 0.5 * (gm1 * rout_l + gm2 * rout_r)
        a0_db = ratio_to_db(np.maximum(a0, 1e-12))

        # -- poles ---------------------------------------------------------------
        c_out_l = LOAD_CAP + m5.cdb() + m5.cgd() + m7.cdb() + m7.cgd()
        c_out_r = LOAD_CAP + m6.cdb() + m6.cgd() + m8.cdb() + m8.cgd()
        gbw = 0.5 * (gm1 + gm2) / (2.0 * np.pi * 0.5 * (c_out_l + c_out_r))

        c_a_l = m1.cdb() + m1.cgd() + m3.cdb() + m3.cgd() + m5.cgs() + m5.csb()
        c_a_r = m2.cdb() + m2.cgd() + m4.cdb() + m4.cgd() + m6.cgs() + m6.csb()
        c_b_l = m9.cdb() + m9.cgd() + m7.cgs() + m7.csb()
        c_b_r = m10.cdb() + m10.cgd() + m8.cgs() + m8.csb()

        p_fold = np.minimum(
            gm5_eff / (2.0 * np.pi * np.maximum(c_a_l, 1e-18)),
            gm6_eff / (2.0 * np.pi * np.maximum(c_a_r, 1e-18)),
        )
        p_casc = np.minimum(
            gm7_eff / (2.0 * np.pi * np.maximum(c_b_l, 1e-18)),
            gm8_eff / (2.0 * np.pi * np.maximum(c_b_r, 1e-18)),
        )
        pm = phase_margin_deg(gbw, nondominant_poles_hz=(p_fold, p_casc))

        # -- swing ------------------------------------------------------------------
        vout_max = np.minimum(va_l - m5.vdsat(vov5),
                              va_r - m6.vdsat(vov6))
        vout_min = np.maximum(vb_l + m7.vdsat(vov7),
                              vb_r + m8.vdsat(vov8))
        os = 2.0 * (vout_max - vout_min)

        # -- power ---------------------------------------------------------------------
        ibias = BIAS_FIXED + BIAS_FRACTION * (itail + 2.0 * icas)
        power = vdd * (i0 + i3_l + i3_r + ibias)

        out = np.column_stack([a0_db, gbw, pm, os, power, satmargin])
        return out
