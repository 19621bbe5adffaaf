"""Netlist-priced problem: two-stage Miller OTA through the MNA/AC path.

Unlike ``folded_cascode``/``telescopic`` — whose performance models are
closed-form NumPy expressions costing microseconds per sample — every
sample here is priced like a real simulator run: a multi-frequency complex
linear solve over the amplifier's MNA system (see
:class:`~repro.circuit.topologies.netlist_ota.NetlistTwoStageOTA`).  Its
rows are the most expensive of the built-in circuits, which makes it the
simulate-bound problem of the benchmarks.

Specifications (chosen so the feasible region is non-trivial but
reachable, mirroring the paper's spec style)::

    A0    >= 65 dB
    GBW   >= 30 MHz
    PM    >= 55 deg
    power <= 2.2 mW
"""

from __future__ import annotations

from repro.circuit.tech import C035Technology
from repro.circuit.topologies import NetlistTwoStageOTA
from repro.problems.base import YieldProblem, check_technology
from repro.specs import Spec, SpecSet

__all__ = ["make_netlist_ota_problem", "NETLIST_OTA_SPECS"]

NETLIST_OTA_SPECS = SpecSet(
    [
        Spec("a0_db", ">=", 65.0, unit="dB"),
        Spec("gbw_hz", ">=", 30e6, unit="Hz"),
        Spec("pm_deg", ">=", 55.0, unit="deg"),
        Spec("power_w", "<=", 2.2e-3, unit="W"),
    ]
)


def make_netlist_ota_problem(tech: C035Technology | None = None) -> YieldProblem:
    """Build the netlist-backed OTA problem (fresh technology unless provided)."""
    check_technology(tech)
    amplifier = NetlistTwoStageOTA(tech or C035Technology())
    return YieldProblem(amplifier, NETLIST_OTA_SPECS, name="netlist_ota_c035")


make_netlist_ota_problem.validate_params = check_technology
