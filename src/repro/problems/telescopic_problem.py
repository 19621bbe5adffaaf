"""Paper example 2: two-stage telescopic-cascode amplifier in N90 (90 nm).

Specifications (paper section 3.3)::

    A0     >= 60 dB
    GBW    >= 300 MHz
    PM     >= 60 deg
    OS     >= 1.8 V       (differential peak-to-peak; at VDD = 1.2 V this
                           forces tiny saturation voltages in stage 2)
    power  <= 10 mW
    area   <= 180 um^2
    offset <= 0.05 mV
    all transistors saturated (satmargin >= 0)

The paper stresses that these specs are "very challenging" even without
process variations — the swing/area/offset trio is mutually antagonistic
(swing wants small overdrives = wide devices = area; offset wants large
gate area; area wants everything small).
"""

from __future__ import annotations

from repro.circuit.tech import N90Technology
from repro.circuit.topologies import TwoStageTelescopicAmplifier
from repro.problems.base import YieldProblem, check_technology
from repro.specs import Spec, SpecSet

__all__ = ["make_telescopic_problem", "TELESCOPIC_SPECS"]

TELESCOPIC_SPECS = SpecSet(
    [
        Spec("a0_db", ">=", 60.0, unit="dB"),
        Spec("gbw_hz", ">=", 300e6, unit="Hz"),
        Spec("pm_deg", ">=", 60.0, unit="deg"),
        Spec("os_v", ">=", 1.8, unit="V"),
        Spec("power_w", "<=", 10e-3, unit="W"),
        Spec("area_m2", "<=", 180e-12, unit="m^2"),
        Spec("offset_v", "<=", 0.05e-3, unit="V"),
        Spec("satmargin_v", ">=", 0.0, unit="V", scale=0.1),
    ]
)


def make_telescopic_problem(tech: N90Technology | None = None) -> YieldProblem:
    """Build the example-2 problem (fresh technology unless provided)."""
    check_technology(tech)
    amplifier = TwoStageTelescopicAmplifier(tech or N90Technology())
    return YieldProblem(amplifier, TELESCOPIC_SPECS, name="telescopic_n90")


make_telescopic_problem.validate_params = check_technology
