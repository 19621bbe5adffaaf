"""Self-contained analog circuit evaluation substrate.

This package replaces the HSPICE + foundry-PDK stack the paper used:
synthetic 0.35 um and 90 nm technologies stand in for the foundry models,
and analytic topology evaluators, cross-checked against an MNA engine,
stand in for the simulator.  It provides:

* :mod:`repro.circuit.mosfet` — a Level-1-style MOSFET model with
  channel-length modulation and mobility degradation, plus vectorised
  "effective parameter" evaluation under process variations.
* :mod:`repro.circuit.elements` / :mod:`repro.circuit.netlist` — circuit
  elements and netlist container.
* :mod:`repro.circuit.mna` — modified nodal analysis: DC Newton solve and
  stacked small-signal AC assembly.
* :mod:`repro.circuit.ac` — one stacked AC analysis (a single circuit is a
  stack of one): transfer functions, Bode data, pole extraction.
* :mod:`repro.circuit.measures` — gain/GBW/phase-margin measurement helpers.
* :mod:`repro.circuit.topologies` — the paper's two amplifiers as parametric
  generators with fast vectorised performance models.
* :mod:`repro.circuit.tech` — the two synthetic technologies (C035, N90).
"""

from repro.circuit.mosfet import DeviceArrays, MosfetModelCard
from repro.circuit.netlist import Circuit
from repro.circuit.mna import DCSolution, MNAAssembler, solve_dc
from repro.circuit.ac import ACAnalysis, TransferFunction, default_frequency_grid

__all__ = [
    "MosfetModelCard",
    "DeviceArrays",
    "Circuit",
    "MNAAssembler",
    "DCSolution",
    "solve_dc",
    "ACAnalysis",
    "TransferFunction",
    "default_frequency_grid",
]
