"""Fully differential two-stage telescopic-cascode amplifier (example 2).

Stage 1 is an NMOS-input telescopic cascode, stage 2 a PMOS common-source
stage with Miller compensation (series nulling resistor Rz implemented in
poly, so it tracks the ``RSHPOLY`` inter-die variable).  19 transistors,
matching the paper's "19 transistors x 4" mismatch accounting::

    M0          NMOS tail current source
    M1,  M2     NMOS input pair
    M3,  M4     NMOS cascodes
    M5,  M6     PMOS cascodes
    M7,  M8     PMOS current sources (CMFB-driven)
    M9,  M10    stage-2 PMOS common-source devices
    M11, M12    stage-2 NMOS current sinks (mirrored from MB4)
    MB1         tail-mirror reference diode (geometry of M0)
    MB2         N-cascode bias replica (geometry of M3)
    MB3         P-cascode bias replica (geometry of M5)
    MB4         stage-2 sink mirror reference (geometry of M11)
    MB5, MB6    master bias mirrors (N / P diodes distributing the reference)

Stack per side (stage 1): gnd - M0 - vs1 - M1 - X - M3 - Y(out1) - M5 - Z -
M7 - vdd.  Stage-1 output common mode is set by a replica-based CMFB to
``VDD - VGS(M9 replica)`` so the second stage is biased at its design
current; the per-side stage-2 current error then follows from M9/M10
threshold mismatch, and the imbalance between M9's current and the mirrored
M11 sink current contributes systematic offset.

Offset model: the paper's 0.05 mV specification implies an offset-reduced
architecture; we model the reported offset as the raw input-referred
mismatch offset divided by a fixed trim ratio (``OFFSET_TRIM_RATIO``).
The raw offset combines input-pair VTH mismatch, load (M7/M8) VTH mismatch
scaled by gm7/gm1, input-pair beta mismatch, and the stage-2
current-imbalance term referred through the stage-1 gain.

Metrics (column order)::

    a0_db, gbw_hz, pm_deg, os_v, power_w, area_m2, offset_v, satmargin_v

Paper specs: A0 >= 60 dB, GBW >= 300 MHz, PM >= 60 deg, OS >= 1.8 V,
power <= 10 mW, area <= 180 um^2, offset <= 0.05 mV, all devices saturated.
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

__all__ = ["TwoStageTelescopicAmplifier"]

#: Single-ended load capacitance [F].
LOAD_CAP = 1.0e-12
#: Input common-mode voltage [V].
VCM_IN = 0.60
#: MIM capacitor density [F/m^2] (7 fF/um^2) for the area of Cc.
CAP_DENSITY = 7e-3
#: Layout overhead multiplier on active area.
LAYOUT_OVERHEAD = 1.25
#: Offset-trim residue ratio (see module docstring).
OFFSET_TRIM_RATIO = 100.0
#: Bias-generator overhead.
BIAS_FIXED = 20e-6
BIAS_FRACTION = 0.05

_DESIGN_NAMES = [
    "w1", "l1",    # input pair
    "w3", "l3",    # n-cascodes
    "w5", "l5",    # p-cascodes
    "w7", "l7",    # p-sources
    "w0", "l0",    # tail
    "w9", "l9",    # stage-2 PMOS CS
    "w11", "l11",  # stage-2 sinks
    "itail", "i2",  # currents
    "cc", "rz",     # compensation
    "vmargin_n", "vmargin_p",
]

_LOWER = np.array([
    1e-6, 0.10e-6,
    1e-6, 0.10e-6,
    1e-6, 0.10e-6,
    1e-6, 0.10e-6,
    1e-6, 0.15e-6,
    1e-6, 0.10e-6,
    1e-6, 0.10e-6,
    30e-6, 100e-6,
    0.10e-12, 50.0,
    0.02, 0.02,
])

_UPPER = np.array([
    120e-6, 1.0e-6,
    120e-6, 1.0e-6,
    120e-6, 1.0e-6,
    120e-6, 1.0e-6,
    120e-6, 2.0e-6,
    200e-6, 1.0e-6,
    200e-6, 1.0e-6,
    800e-6, 3000e-6,
    1.2e-12, 3000.0,
    0.30, 0.30,
])

_DEVICES = [
    "M0", "M1", "M2", "M3", "M4", "M5", "M6", "M7", "M8",
    "M9", "M10", "M11", "M12",
    "MB1", "MB2", "MB3", "MB4", "MB5", "MB6",
]

_METRICS = [
    "a0_db", "gbw_hz", "pm_deg", "os_v", "power_w", "area_m2",
    "offset_v", "satmargin_v",
]

#: Per-polarity device stacks, ``(device, geometry)`` in stack order; ``None``
#: is a mismatch-free replica.  Each wave of overdrive solves is a
#: contiguous slice: the references and the M9 replica at design currents,
#: then the mirror references MB1/MB4, then the 13 core devices and the
#: M1/M7 replicas.
_N_STACK = [
    ("MB5", "0"), ("MB2", "3"),
    ("MB1", "0"), ("MB4", "11"),
    ("M0", "0"), ("M1", "1"), ("M2", "1"), ("M3", "3"), ("M4", "3"),
    ("M11", "11"), ("M12", "11"), (None, "1"),
]
_P_STACK = [
    ("MB6", "5"), ("MB3", "5"), (None, "9"),
    ("M5", "5"), ("M6", "5"), ("M7", "7"), ("M8", "7"), ("M9", "9"),
    ("M10", "9"), (None, "7"),
]
_N_BIAS, _N_MIRROR, _N_CORE = slice(0, 2), slice(2, 4), slice(4, None)
_P_BIAS, _P_CORE = slice(0, 3), slice(3, None)


class TwoStageTelescopicAmplifier(AmplifierTopology):
    """Vectorised performance model of the two-stage telescopic amplifier."""

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
        vout_cm = 0.5 * vdd

        inter = self.variation.inter_values(samples)
        # Every device and the M1/M7/M9 replicas, one stack per polarity.
        n_dev = self._realize_stack("n", _N_STACK, d, inter, samples)
        p_dev = self._realize_stack("p", _P_STACK, d, inter, samples)
        mb5, mb2, mb1, mb4, m0, m1, m2, m3, m4, m11, m12, m1_avg = n_dev
        mb6, mb3, m9_avg, m5, m6, m7, m8, m9, m10, m7_avg = p_dev

        itail, i2 = d["itail"], d["i2"]
        cc, rz_design = d["cc"], d["rz"]
        rz = rz_design * self.tech.poly_sheet_scale(inter) if hasattr(
            self.tech, "poly_sheet_scale") else rz_design * np.ones(samples.shape[0])
        # The cascode bias replicas MB2/MB3 carry half the tail current.
        i_replica = 0.5 * itail

        # -- operating points: one overdrive solve per (device, current), one
        # call per polarity and wave; first the design-current references ----
        vov_b5, vov_b2 = n_dev[_N_BIAS].vov_for_current(np.stack([itail, i_replica]))
        vov_b6, vov_b3, vov9_avg = p_dev[_P_BIAS].vov_for_current(
            np.stack([i2, i_replica, i2])
        )

        # -- reference distribution and mirrors ------------------------------
        # The master bias chain (MB5/MB6) perturbs the reference currents.
        iref_tail = _mirror_current(mb5.vth + vov_b5, mb1)
        # Stage-1 output common mode from the replica CMFB: biased so that
        # the stage-2 device M9 nominally carries i2.
        vgs9_applied = m9_avg.vth + vov9_avg
        vo1_cm = vdd - vgs9_applied
        # Per-side stage-2 currents from M9/M10 threshold/beta mismatch.
        i9_l = _mirror_current(vgs9_applied, m9)
        i9_r = _mirror_current(vgs9_applied, m10)
        # Stage-2 sinks mirrored from MB4 (reference scaled through MB6).
        iref2 = _mirror_current(mb6.vth + vov_b6, mb4)

        # -- then the mirror references at their perturbed currents -----------
        vov_b1, vov_b4 = n_dev[_N_MIRROR].vov_for_current(np.stack([iref_tail, iref2]))
        i0 = _mirror_current(mb1.vth + vov_b1, m0)
        i1 = 0.5 * i0
        vgs_b4 = mb4.vth + vov_b4  # shared by both sinks
        i11_l = _mirror_current(vgs_b4, m11)
        i11_r = _mirror_current(vgs_b4, m12)

        # -- then the core devices and the M1/M7 replicas ----------------------
        vov_n = n_dev[_N_CORE].vov_for_current(
            np.stack([i0, i1, i1, i1, i1, i11_l, i11_r, i1])
        )
        vov_p = p_dev[_P_CORE].vov_for_current(np.stack([i1, i1, i1, i1, i9_l, i9_r, i1]))
        vov0, vov1, vov2, vov3, vov4, vov11, vov12, vov1_avg = vov_n
        vov5, vov6, vov7, vov8, vov9, vov10, vov7_avg = vov_p

        # -- stage-1 node voltages --------------------------------------------
        vs1 = VCM_IN - (m1.vth + vov1)
        for _ in range(3):
            vs1 = VCM_IN - (m1.vth_at(np.maximum(vs1, 0.0)) + vov1)

        # Node X (input drain / n-cascode source) target + per-side shifts.
        vx_target = (
            m1_avg.vdsat(vov1_avg) + np.maximum(vs1, 0.0) + d["vmargin_n"]
        )
        vg3 = vx_target + (mb2.vth + vov_b2)
        vx_l = vg3 - (m3.vth + vov3)
        vx_r = vg3 - (m4.vth + vov4)

        # Node Z (p-cascode source / p-source drain) target + shifts.
        vz_target = vdd - (m7_avg.vdsat(vov7_avg) + d["vmargin_p"])
        vg5 = vz_target - (mb3.vth + vov_b3)
        vz_l = vg5 + (m5.vth + vov5)
        vz_r = vg5 + (m6.vth + vov6)

        # -- saturation margins -------------------------------------------------
        margins = [
            vs1 - m0.vdsat(vov0),
            (vx_l - vs1) - m1.vdsat(vov1),
            (vx_r - vs1) - m2.vdsat(vov2),
            (vo1_cm - vx_l) - m3.vdsat(vov3),
            (vo1_cm - vx_r) - m4.vdsat(vov4),
            (vz_l - vo1_cm) - m5.vdsat(vov5),
            (vz_r - vo1_cm) - m6.vdsat(vov6),
            (vdd - vz_l) - m7.vdsat(vov7),
            (vdd - vz_r) - m8.vdsat(vov8),
            (vdd - vout_cm) - m9.vdsat(vov9),
            (vdd - vout_cm) - m10.vdsat(vov10),
            vout_cm - m11.vdsat(vov11),
            vout_cm - m12.vdsat(vov12),
        ]
        satmargin = np.min(np.vstack(margins), axis=0)

        # -- stage gains ------------------------------------------------------------
        gm1 = m1.gm(vov1)
        gm2 = m2.gm(vov2)
        gm3, gm4, gm5, gm6 = m3.gm(vov3), m4.gm(vov4), m5.gm(vov5), m6.gm(vov6)
        gm3_eff = gm3 + m3.gmbs(vov3, np.maximum(vx_l, 0.0), gm3)
        gm4_eff = gm4 + m4.gmbs(vov4, np.maximum(vx_r, 0.0), gm4)
        gm5_eff = gm5 + m5.gmbs(vov5, np.maximum(vdd - vz_l, 0.0), gm5)
        gm6_eff = gm6 + m6.gmbs(vov6, np.maximum(vdd - vz_r, 0.0), gm6)

        r1_l = _parallel(gm3_eff * m3.ro(i1) * m1.ro(i1),
                         gm5_eff * m5.ro(i1) * m7.ro(i1))
        r1_r = _parallel(gm4_eff * m4.ro(i1) * m2.ro(i1),
                         gm6_eff * m6.ro(i1) * m8.ro(i1))

        gm9 = m9.gm(vov9)
        gm10 = m10.gm(vov10)
        r2_l = _parallel(m9.ro(i9_l), m11.ro(i11_l))
        r2_r = _parallel(m10.ro(i9_r), m12.ro(i11_r))

        a1_l, a1_r = gm1 * r1_l, gm2 * r1_r
        a2_l, a2_r = gm9 * r2_l, gm10 * r2_r
        a0 = 0.5 * (a1_l * a2_l + a1_r * a2_r)
        a0_db = ratio_to_db(np.maximum(a0, 1e-12))

        # -- frequency response -------------------------------------------------------
        cc_eff = cc + 0.5 * (m9.cgd() + m10.cgd())
        gbw = 0.5 * (gm1 + gm2) / (2.0 * np.pi * cc_eff)

        # Output pole: gm9 / C_L(eff) with Miller-split approximation.
        c_out_l = LOAD_CAP + m9.cdb() + m11.cdb() + m11.cgd()
        c_out_r = LOAD_CAP + m10.cdb() + m12.cdb() + m12.cgd()
        p2 = np.minimum(gm9 / (2.0 * np.pi * np.maximum(c_out_l, 1e-18)),
                        gm10 / (2.0 * np.pi * np.maximum(c_out_r, 1e-18)))

        # Cascode-node pole in stage 1 (node X).
        c_x_l = m1.cdb() + m1.cgd() + m3.cgs() + m3.csb()
        c_x_r = m2.cdb() + m2.cgd() + m4.cgs() + m4.csb()
        p3 = np.minimum(gm3_eff / (2.0 * np.pi * np.maximum(c_x_l, 1e-18)),
                        gm4_eff / (2.0 * np.pi * np.maximum(c_x_r, 1e-18)))

        # Miller zero with nulling resistor: s_z = 1 / (Cc (1/gm9 - Rz)).
        gm9_avg = 0.5 * (gm9 + gm10)
        zdenom = cc_eff * (1.0 / np.maximum(gm9_avg, 1e-12) - rz)
        fz = 1.0 / (2.0 * np.pi * np.maximum(np.abs(zdenom), 1e-30))
        rhp = zdenom > 0.0
        fz_rhp = np.where(rhp, fz, np.inf)
        fz_lhp = np.where(rhp, np.inf, fz)

        pm = phase_margin_deg(
            gbw,
            nondominant_poles_hz=(p2, p3),
            rhp_zeros_hz=(fz_rhp,),
            lhp_zeros_hz=(fz_lhp,),
        )

        # -- swing (stage-2 output, differential peak-to-peak) ------------------------
        vout_max = vdd - np.maximum(m9.vdsat(vov9), m10.vdsat(vov10))
        vout_min = np.maximum(m11.vdsat(vov11), m12.vdsat(vov12))
        os = 2.0 * (vout_max - vout_min)

        # -- power ------------------------------------------------------------------------
        ibias = BIAS_FIXED + BIAS_FRACTION * (itail + 2.0 * i2)
        power = vdd * (i0 + i9_l + i9_r + ibias)

        # -- area ---------------------------------------------------------------------------
        gate_area = sum(
            dev.area() for dev in (m0, m1, m2, m3, m4, m5, m6, m7, m8,
                                   m9, m10, m11, m12, mb1, mb2, mb3, mb4, mb5, mb6)
        )
        cap_area = 2.0 * cc / CAP_DENSITY
        area = LAYOUT_OVERHEAD * (gate_area + cap_area)
        area = area * np.ones(samples.shape[0])

        # -- offset -----------------------------------------------------------------------
        dvth_in = m1.vth - m2.vth
        dvth_load = m7.vth - m8.vth
        dbeta_in = (m1.beta - m2.beta) / np.maximum(0.5 * (m1.beta + m2.beta), 1e-12)
        stage2_imbalance = ((i9_l - i11_l) - (i9_r - i11_r)) / np.maximum(gm9_avg, 1e-12)
        vos_raw = (
            dvth_in
            + (0.5 * (m7.gm(vov7) + m8.gm(vov8))
               / np.maximum(0.5 * (gm1 + gm2), 1e-12))
            * dvth_load
            + 0.5 * vov1 * dbeta_in
            + stage2_imbalance / np.maximum(0.5 * (a1_l + a1_r), 1.0)
        )
        offset = np.abs(vos_raw) / OFFSET_TRIM_RATIO

        return np.column_stack(
            [a0_db, gbw, pm, os, power, area, offset, satmargin]
        )
