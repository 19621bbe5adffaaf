"""Paper example 1: folded-cascode amplifier in C035 (0.35 um, 3.3 V).

Specifications (paper section 3.2)::

    A0    >= 70 dB
    GBW   >= 40 MHz
    PM    >= 60 deg
    OS    >= 4.6 V      (differential peak-to-peak)
    power <= 1.07 mW
    all transistors saturated (satmargin >= 0)

The paper chose the 1.07 mW bound deliberately: "1.08 mW is easy to meet,
but 1.06 mW cannot reach 100% yield" — the power spec is the binding one.
"""

from __future__ import annotations

from repro.circuit.tech import C035Technology
from repro.circuit.topologies import FoldedCascodeAmplifier
from repro.problems.base import YieldProblem, check_technology
from repro.specs import Spec, SpecSet

__all__ = ["make_folded_cascode_problem", "FOLDED_CASCODE_SPECS"]

FOLDED_CASCODE_SPECS = SpecSet(
    [
        Spec("a0_db", ">=", 70.0, unit="dB"),
        Spec("gbw_hz", ">=", 40e6, unit="Hz"),
        Spec("pm_deg", ">=", 60.0, unit="deg"),
        Spec("os_v", ">=", 4.6, unit="V"),
        Spec("power_w", "<=", 1.07e-3, unit="W"),
        Spec("satmargin_v", ">=", 0.0, unit="V", scale=0.2),
    ]
)


def make_folded_cascode_problem(tech: C035Technology | None = None) -> YieldProblem:
    """Build the example-1 problem (fresh technology unless provided)."""
    check_technology(tech)
    amplifier = FoldedCascodeAmplifier(tech or C035Technology())
    return YieldProblem(amplifier, FOLDED_CASCODE_SPECS, name="folded_cascode_c035")


make_folded_cascode_problem.validate_params = check_technology
