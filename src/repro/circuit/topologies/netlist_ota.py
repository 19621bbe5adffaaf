"""Netlist-backed two-stage Miller OTA (circuit-priced MNA/AC workload).

Unlike the paper's two amplifiers — whose performance models are closed-form
vectorised expressions — this topology evaluates through the **netlist
path**: it builds a small-signal macro netlist (transconductor + output
resistance per stage, Miller compensation, load), stamps each varying
element's unit pattern once per instance with
:class:`~repro.circuit.mna.MNAAssembler`, scales the patterns by every
(design, sample) row's element values, and solves all rows' AC systems in
one :class:`~repro.circuit.ac.ACAnalysis`, at the grid points its three
loop metrics read (:meth:`~repro.circuit.ac.ACAnalysis.loop_metrics`):
up to one past each curve's unity-gain crossing, and the last.  Each
Monte-Carlo sample therefore costs a genuine complex linear solve over most
of a 301-point grid — the role HSPICE plays in the paper — about 9-10 µs
a row for designs as clustered as a converging search's and 16-18 µs for
designs spread over the whole space (2-CPU Xeon VM), several times the
paper circuits' closed-form rows.

Topology (single-ended small-signal equivalent)::

    in ──Vin(ac=1)                      x1 ───CC─── out
    G1: gm1·v(in)  -> x1    (inverting first stage)
    R1 = ro1, C1            x1 to ground
    G2: gm2·v(x1)  -> out   (inverting second stage)
    R2 = ro2, CL            out to ground

Two inverting stages give a non-inverting H(f): phase starts at 0 and the
classic pole-splitting/RHP-zero trade-off of the Miller OTA emerges from
the netlist itself (CC stamps the feedforward path), not from formulas.

Design variables (sizing flavour)::

    i1      first-stage branch current [A]       gm1 = 2 i1 / vov1
    i2      second-stage branch current [A]      gm2 = 2 i2 / vov2
    vov1    input-pair overdrive [V]             ro1 = VA1 / i1
    vov2    output-device overdrive [V]          ro2 = VA2 / i2
    cc      Miller compensation capacitor [F]

Process variation: the four mismatch-carrying "devices" are the stage
transconductors and output resistances (GM1, GM2, RO1, RO2).  Their
``dVTH0`` scores perturb gm via the Pelgrom area law (device area scales
with branch current), inter-die mobility/oxide variables shift both
stages' gm together, and output resistances carry a lumped relative
spread.  Power additionally wobbles with the oxide ratio (bias currents
mirror through it).

Metrics (column order of :meth:`metric_names`)::

    a0_db     low-frequency gain
    gbw_hz    unity-gain frequency from the solved |H(f)|
    pm_deg    phase margin from the solved phase at f_u
    power_w   VDD * (2 i1 + i2 + fixed bias overhead)
"""

from __future__ import annotations

import numpy as np

from repro.circuit.ac import ACAnalysis
from repro.circuit.mna import MNAAssembler
from repro.circuit.netlist import Circuit
from repro.circuit.topologies.base import AmplifierTopology, DesignSpace
from repro.units import ratio_to_db

__all__ = ["NetlistTwoStageOTA"]

#: Load capacitance [F].
LOAD_CAP = 3.0e-12
#: First-stage node parasitic capacitance [F].
STAGE1_CAP = 0.15e-12
#: Early voltages of the two stages [V] (set ro = VA / I).
EARLY_V1 = 18.0
EARLY_V2 = 12.0
#: Fixed bias overhead current [A].
BIAS_FIXED = 40e-6
#: Device gate area per ampere of branch current [m^2/A]; feeds the
#: Pelgrom area law (larger currents need wider devices).
AREA_PER_AMP = 2.0e-7
#: Lumped relative sigma of each stage's output resistance.
RO_REL_SIGMA = 0.06

_DESIGN_NAMES = ["i1", "i2", "vov1", "vov2", "cc"]
_LOWER = np.array([20e-6, 50e-6, 0.08, 0.10, 0.5e-12])
_UPPER = np.array([500e-6, 1500e-6, 0.40, 0.50, 8.0e-12])

_DEVICES = ["GM1", "GM2", "RO1", "RO2"]
_METRICS = ["a0_db", "gbw_hz", "pm_deg", "power_w"]

#: Per-row element values -> the netlist element each one sets; a unit
#: value of each stamps its pattern (for R1/R2, unit conductance).
_ELEMENTS = {"gm1": "G1", "gm2": "G2", "go1": "R1", "go2": "R2", "cc": "CC"}

#: Analysis grid: 1 Hz .. 10 GHz, 30 points/decade.  Coarser than the
#: default Bode grid — metric extraction interpolates — and shared across
#: every evaluation (module-level, read-only).
_GRID = np.logspace(0, 10, 301)
_GRID.setflags(write=False)


class NetlistTwoStageOTA(AmplifierTopology):
    """Two-stage Miller OTA evaluated through the stacked MNA/AC path."""

    def device_names(self) -> list[str]:
        return list(_DEVICES)

    def design_space(self) -> DesignSpace:
        return DesignSpace(list(_DESIGN_NAMES), _LOWER, _UPPER)

    def metric_names(self) -> list[str]:
        return list(_METRICS)

    #: Frequency grid used by :meth:`evaluate` (exposed for tests).
    frequency_grid = _GRID

    def __init__(self, tech) -> None:
        super().__init__(tech)
        self._stamps = self._unit_stamps()

    # -- netlist ---------------------------------------------------------------
    @staticmethod
    def _unit_stamps():
        """Fixed ``(G, C, b)``, node map and unit ``(G, C)`` stamps per element.

        The netlist at unit element values is stamped element by element:
        the source, the fixed capacitors and gmin into the fixed part, each
        element of :data:`_ELEMENTS` into its own pattern.  A row's system
        is then the fixed part plus its element values times the patterns.
        """
        circuit = _netlist(dict.fromkeys(("gm1", "gm2", "ro1", "ro2", "cc"), 1.0))
        assembler = MNAAssembler(circuit)
        nodemap = assembler.nodemap
        n = nodemap.size
        g_fixed, c_fixed = np.zeros((2, n, n))
        g_unit, c_unit = np.zeros((2, len(_ELEMENTS), n, n))
        b = np.zeros(n)
        pattern = {name: e for e, name in enumerate(_ELEMENTS.values())}
        for element in circuit.elements:
            if element.name in pattern:
                e = pattern[element.name]
                element.stamp_ac(g_unit[e], c_unit[e], b, {}, nodemap)
            else:
                element.stamp_ac(g_fixed, c_fixed, b, {}, nodemap)
        assembler.add_gmin(g_fixed)
        return g_fixed, c_fixed, b, nodemap, g_unit, c_unit

    # -- per-sample element values ------------------------------------------------
    def small_signal_values(
        self, X: np.ndarray, samples: np.ndarray
    ) -> dict[str, np.ndarray]:
        """Per-row element values (gm1, gm2, go1, go2, cc) and power [arrays].

        ``X`` is one design vector shared by every sample or an ``(N, d)``
        design matrix aligned row by row with ``samples``.  This is the
        process model: inter-die mobility/oxide variables move both stages
        together, per-device ``dVTH0`` mismatch scores perturb each element
        individually (Pelgrom area law for the transconductors), and power
        follows the oxide ratio.
        """
        d, samples = self._design_columns(_DESIGN_NAMES, X, samples)
        v = _nominal(d)
        variation = self.variation
        inter = variation.inter_values(samples)

        pel_n = self.tech.pelgrom["n"]
        pel_p = self.tech.pelgrom["p"]

        def gm_factor(branch_current, vov, pelgrom, z_vth):
            # delta(gm)/gm ~ -2 dVth/vov for a square-law device; the
            # mismatch sigma follows the area law with area ~ current.
            area = AREA_PER_AMP * branch_current
            sigma_vth = pelgrom.avt / np.sqrt(area)
            return 1.0 - 2.0 * (sigma_vth / vov) * z_vth

        z_gm1 = variation.mismatch_column(samples, "GM1", "dVTH0")
        z_gm2 = variation.mismatch_column(samples, "GM2", "dVTH0")
        z_ro1 = variation.mismatch_column(samples, "RO1", "dVTH0")
        z_ro2 = variation.mismatch_column(samples, "RO2", "dVTH0")
        z_pow = variation.mismatch_column(samples, "GM1", "dTOX")

        mobility_n = (1.0 + inter["DELUON"]) / inter["TOXRn"]
        mobility_p = (1.0 + inter["DELUOP"]) / inter["TOXRp"]

        gm1 = v["gm1"] * mobility_n * gm_factor(d["i1"], d["vov1"], pel_n, z_gm1)
        gm2 = v["gm2"] * mobility_p * gm_factor(d["i2"], d["vov2"], pel_p, z_gm2)
        # Output conductances: lumped relative spread, plus channel-length
        # modulation tracking the mobility shift.
        go1 = (1.0 / v["ro1"]) * (1.0 + RO_REL_SIGMA * z_ro1) * inter["TOXRn"]
        go2 = (1.0 / v["ro2"]) * (1.0 + RO_REL_SIGMA * z_ro2) * inter["TOXRp"]

        i_total = 2.0 * d["i1"] + d["i2"] + BIAS_FIXED
        power = self.tech.vdd * i_total * inter["TOXRn"] * (1.0 + 0.02 * z_pow)
        cc = np.broadcast_to(v["cc"], power.shape)
        return {"gm1": gm1, "gm2": gm2, "go1": go1, "go2": go2, "cc": cc, "power": power}

    def ac_analysis(self, values: dict[str, np.ndarray]) -> ACAnalysis:
        """One stamped AC system per row of :meth:`small_signal_values`."""
        g_fixed, c_fixed, b, nodemap, g_unit, c_unit = self._stamps
        elements = np.column_stack([values[name] for name in _ELEMENTS])
        g = g_fixed + np.einsum("se,eij->sij", elements, g_unit)
        c = c_fixed + np.einsum("se,eij->sij", elements, c_unit)
        return ACAnalysis(g, c, b, nodemap)

    # -- evaluation -------------------------------------------------------------
    def evaluate_pairs(self, X: np.ndarray, samples: np.ndarray) -> np.ndarray:
        """Design row ``X[i]`` at sample row ``samples[i]``, ``(N, n_metrics)``.

        The only evaluation body: :meth:`evaluate` is its one-row case.
        All rows' AC systems are solved in one batched analysis.
        """
        values = self.small_signal_values(X, samples)
        dc, fu, pm = self.ac_analysis(values).loop_metrics("out", frequencies=_GRID)
        a0_db = ratio_to_db(np.maximum(dc, 1e-12))
        gbw = np.nan_to_num(fu, nan=0.0)
        pm = np.nan_to_num(pm, nan=0.0)
        return np.column_stack([a0_db, gbw, pm, values["power"]])


def _nominal(d: dict) -> dict:
    """Nominal element values from named design values (floats or columns)."""
    return {
        "gm1": 2.0 * d["i1"] / d["vov1"],
        "gm2": 2.0 * d["i2"] / d["vov2"],
        "ro1": EARLY_V1 / d["i1"],
        "ro2": EARLY_V2 / d["i2"],
        "cc": d["cc"],
    }


def _netlist(v: dict) -> Circuit:
    """The macro netlist at element values ``v`` (keys of :func:`_nominal`)."""
    c = Circuit("netlist_ota")
    c.add_voltage_source("Vin", "in", "0", 0.0, ac=1.0)
    c.add_vccs("G1", "x1", "0", "in", "0", v["gm1"])
    c.add_resistor("R1", "x1", "0", v["ro1"])
    c.add_capacitor("C1", "x1", "0", STAGE1_CAP)
    c.add_capacitor("CC", "x1", "out", v["cc"])
    c.add_vccs("G2", "out", "0", "x1", "0", v["gm2"])
    c.add_resistor("R2", "out", "0", v["ro2"])
    c.add_capacitor("CL", "out", "0", LOAD_CAP)
    return c
