"""Parametric amplifier topologies.

Each topology implements the paper's corresponding benchmark circuit as a
*vectorised performance model* batched across designs:
``evaluate_pairs(X, samples)`` evaluates design row ``i`` at process sample
row ``i`` for every row in one NumPy pass, and ``evaluate(x, samples)`` is
its one-design case.  The small-signal netlist builders allow
cross-checking the analytic models against the MNA engine (see
tests/test_crosscheck_mna.py).
"""

from repro.circuit.topologies.base import AmplifierTopology
from repro.circuit.topologies.folded_cascode import FoldedCascodeAmplifier
from repro.circuit.topologies.netlist_ota import NetlistTwoStageOTA
from repro.circuit.topologies.two_stage_telescopic import TwoStageTelescopicAmplifier

__all__ = [
    "AmplifierTopology",
    "FoldedCascodeAmplifier",
    "NetlistTwoStageOTA",
    "TwoStageTelescopicAmplifier",
]
