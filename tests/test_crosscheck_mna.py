"""Cross-checks: analytic small-signal formulas vs the MNA engine.

The fast topology evaluators use textbook expressions (cascode output
resistance, pole frequencies).  These tests rebuild the same sub-circuits
as netlists, solve them with the full MNA engine, and require agreement:
`repro.circuit.mna` is the reference the fast evaluators are held to.
"""

import numpy as np
import pytest

from repro.circuit.ac import ACAnalysis
from repro.circuit.mna import solve_dc
from repro.circuit.netlist import Circuit
from repro.circuit.tech import C035Technology


@pytest.fixture(scope="module")
def tech():
    return C035Technology()


def _output_resistance(circuit, source_name: str) -> float:
    """Small-signal resistance seen by a unit-AC voltage source.

    Clamping the high-impedance node with a voltage source makes the DC
    problem well-posed (an ideal current source would need nA-precision to
    sit on a cascode's flat I-V branch), and the AC branch current of that
    source directly measures the node resistance: r = |v/i| = 1/|i|.
    """
    dc = solve_dc(circuit)
    analysis = ACAnalysis.from_circuit(circuit, [dc.op])
    x = analysis.solve_at(1.0)[0]  # 1 Hz: purely resistive
    source = circuit[source_name]
    branch = analysis._nodemap.n_nodes + source.branch_index
    return float(1.0 / np.abs(x[branch])), dc


class TestCascodeResistanceCrossCheck:
    """Cascode output resistance: MNA vs the analytic composite formula
    ``Rcas = ro2 (1 + (gm2 + gmbs2) ro1) + ro1`` that the topology
    evaluators rely on."""

    VG1 = 0.62   # input gate (vov ~ 0.12 V)
    VG2 = 1.00   # cascode gate

    def _build_cascode(self, tech, vout=2.0):
        c = Circuit("cascode")
        c.add_voltage_source("VDD", "vdd", "0", 3.3)
        c.add_voltage_source("VG1", "g1", "0", self.VG1)
        c.add_voltage_source("VG2", "g2", "0", self.VG2)
        c.add_voltage_source("VOUT", "out", "0", vout, ac=1.0)
        c.add_mosfet("M2", "out", "g2", "mid", "0", tech.nmos, 30e-6, 0.7e-6)
        c.add_mosfet("M1", "mid", "g1", "0", "0", tech.nmos, 30e-6, 0.7e-6)
        return c

    def test_resistance_matches_analytic_formula(self, tech):
        circuit = self._build_cascode(tech)
        r_measured, dc = _output_resistance(circuit, "VOUT")
        op1, op2 = dc.op["M1"], dc.op["M2"]
        assert op1.saturated and op2.saturated

        ro1, ro2 = 1.0 / op1.gds, 1.0 / op2.gds
        r_analytic = ro2 * (1.0 + (op2.gm + op2.gmbs) * ro1) + ro1
        assert r_measured == pytest.approx(r_analytic, rel=0.05)

    def test_cascode_multiplies_output_resistance(self, tech):
        """The resistance boost that gives examples 1/2 their gain."""
        r_cascode, _ = _output_resistance(self._build_cascode(tech), "VOUT")

        cs = Circuit("cs")
        cs.add_voltage_source("VDD", "vdd", "0", 3.3)
        cs.add_voltage_source("VG1", "g1", "0", self.VG1)
        cs.add_voltage_source("VOUT", "out", "0", 2.0, ac=1.0)
        cs.add_mosfet("M1", "out", "g1", "0", "0", tech.nmos, 30e-6, 0.7e-6)
        r_single, dcs = _output_resistance(cs, "VOUT")
        assert dcs.op["M1"].saturated

        # gm*ro of the cascode device is ~100 here; require a big boost.
        assert r_cascode > 20.0 * r_single


class TestPoleCrossCheck:
    """MNA pole extraction vs the analytic gm/C expressions the topology
    evaluators use for non-dominant poles."""

    def test_source_follower_input_pole(self, tech):
        # Diode-connected load node: pole ~ gm / (2 pi C) at the node.
        c = Circuit("diode_pole")
        c.add_voltage_source("VDD", "vdd", "0", 3.3)
        c.add_current_source("IB", "vdd", "d", 100e-6, ac=1.0)
        c.add_mosfet("M1", "d", "d", "0", "0", tech.nmos, 50e-6, 1e-6)
        cap = 2e-12
        c.add_capacitor("CL", "d", "0", cap)
        dc = solve_dc(c)
        op = dc.op["M1"]
        poles = ACAnalysis.from_circuit(c, [dc.op]).poles()
        assert len(poles) >= 1
        # The diode presents 1/(gm+gds); device capacitances add to CL.
        g_node = op.gm + op.gds + op.gmbs
        f_expected = g_node / (2 * np.pi * cap)
        f_measured = float(np.abs(poles[0]))
        # Device parasitics shift the pole; require same order + direction.
        assert f_measured == pytest.approx(f_expected, rel=0.35)
        assert f_measured < f_expected  # parasitics only ever add C

    def test_transfer_corner_equals_extracted_pole(self, tech):
        c = Circuit("rc_check")
        c.add_voltage_source("Vin", "in", "0", 1.0, ac=1.0)
        c.add_resistor("R1", "in", "out", 10e3)
        c.add_capacitor("C1", "out", "0", 1e-12)
        analysis = ACAnalysis.from_circuit(c, [solve_dc(c).op])
        pole = float(np.abs(analysis.poles()[0]))
        tf = analysis.transfer("out", frequencies=np.logspace(5, 9, 200))
        # -3 dB frequency of the transfer function == extracted pole.
        idx = int(np.argmin(np.abs(tf.magnitude[0] - 1 / np.sqrt(2))))
        assert tf.frequencies[idx] == pytest.approx(pole, rel=0.1)


class TestMirrorCrossCheck:
    """The topologies' exact-equation mirror model vs a full MNA solve."""

    def test_mirror_error_from_vth_mismatch(self, tech):
        # MNA: mirror with a deliberately shifted output-device threshold.
        shifted_card = tech.nmos.with_overrides(vth0=tech.nmos.vth0 + 0.01)
        c = Circuit("mirror")
        c.add_voltage_source("VDD", "vdd", "0", 3.3)
        c.add_current_source("IREF", "vdd", "d1", 50e-6)
        c.add_mosfet("M1", "d1", "d1", "0", "0", tech.nmos, 40e-6, 2e-6)
        c.add_mosfet("M2", "d2", "d1", "0", "0", shifted_card, 40e-6, 2e-6)
        c.add_voltage_source("VOUT", "d2", "0", 1.5)  # clamp output node
        sol = solve_dc(c)
        i_out = -sol.branch_current(c["VOUT"])

        # Analytic expectation: dI/I ~ -gm/I * dVth (square law: -2 dVth/vov).
        op2 = sol.op["M2"]
        expected_drop = op2.gm / max(op2.ids, 1e-12) * 0.01
        measured_drop = (50e-6 - i_out) / 50e-6
        assert measured_drop == pytest.approx(expected_drop, rel=0.25)
        assert i_out < 50e-6  # higher vth -> less current, always
