"""Circuit elements and their MNA stamps.

Every element knows how to stamp itself into

* the **DC Newton** system (``stamp_dc``): a linearised companion model
  around the present solution estimate, and
* the **AC small-signal** system (``stamp_ac``): conductance matrix ``G``,
  capacitance matrix ``C`` and the AC excitation vector, evaluated at a
  previously-solved operating point.

Matrix layout: node voltages first (ground eliminated), then one branch
current per voltage source.  ``NodeMap`` resolves names to indices; ground
maps to ``None`` and its stamps are dropped.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.circuit.mosfet import MosfetModelCard

__all__ = [
    "Element",
    "Resistor",
    "Capacitor",
    "CurrentSource",
    "VoltageSource",
    "VCCS",
    "Mosfet",
    "NodeMap",
]

GROUND_NAMES = ("0", "gnd", "GND", "vss!")


class NodeMap:
    """Maps node names to matrix indices; ground nodes map to ``None``."""

    def __init__(self, nodes: list[str], n_branches: int) -> None:
        self._index: dict[str, int | None] = {}
        i = 0
        for node in nodes:
            if node in GROUND_NAMES:
                self._index[node] = None
            else:
                self._index[node] = i
                i += 1
        self.n_nodes = i
        self.n_branches = n_branches
        self.size = self.n_nodes + n_branches

    def __getitem__(self, node: str) -> int | None:
        return self._index[node]

    def names(self) -> list[str]:
        """Non-ground node names ordered by index."""
        ordered = [None] * self.n_nodes
        for name, idx in self._index.items():
            if idx is not None:
                ordered[idx] = name
        return ordered

    # -- stamp helpers ------------------------------------------------------
    def add(self, matrix: np.ndarray, row: int | None, col: int | None, value) -> None:
        """Add ``value`` at (row, col), dropping ground entries."""
        if row is None or col is None:
            return
        matrix[row, col] += value

    def add_rhs(self, rhs: np.ndarray, row: int | None, value) -> None:
        """Add ``value`` to the RHS at ``row``, dropping ground."""
        if row is None:
            return
        rhs[row] += value

    def voltage(self, x: np.ndarray, node: str) -> float:
        """Node voltage from a solution vector (ground = 0)."""
        idx = self._index[node]
        if idx is None:
            return 0.0
        return float(x[idx])


class Element(ABC):
    """Base class for all circuit elements."""

    #: Number of extra branch-current unknowns this element introduces.
    n_branches = 0

    def __init__(self, name: str, nodes: tuple[str, ...]) -> None:
        self.name = name
        self.nodes = nodes
        #: Assigned by the assembler: index of the first branch unknown.
        self.branch_index: int | None = None

    @abstractmethod
    def stamp_dc(
        self, a: np.ndarray, b: np.ndarray, x: np.ndarray, nodemap: NodeMap
    ) -> None:
        """Stamp the linearised DC companion model around solution ``x``."""

    def stamp_ac(
        self,
        g: np.ndarray,
        c: np.ndarray,
        b_ac: np.ndarray,
        op: "dict[str, dict]",
        nodemap: NodeMap,
    ) -> None:
        """Stamp small-signal conductance/capacitance at operating point.

        Default: linear elements reuse their DC stamp with sources zeroed;
        concrete classes override where that is wrong.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name}, nodes={self.nodes})"


class Resistor(Element):
    """Linear resistor between two nodes."""

    def __init__(self, name: str, n1: str, n2: str, resistance: float) -> None:
        if resistance <= 0:
            raise ValueError(f"resistance must be positive, got {resistance}")
        super().__init__(name, (n1, n2))
        self.resistance = float(resistance)

    def _stamp_conductance(self, matrix: np.ndarray, nodemap: NodeMap) -> None:
        g = 1.0 / self.resistance
        i, j = nodemap[self.nodes[0]], nodemap[self.nodes[1]]
        nodemap.add(matrix, i, i, g)
        nodemap.add(matrix, j, j, g)
        nodemap.add(matrix, i, j, -g)
        nodemap.add(matrix, j, i, -g)

    def stamp_dc(self, a, b, x, nodemap) -> None:
        self._stamp_conductance(a, nodemap)

    def stamp_ac(self, g, c, b_ac, op, nodemap) -> None:
        self._stamp_conductance(g, nodemap)


class Capacitor(Element):
    """Linear capacitor: open at DC, stamps C in AC analysis."""

    def __init__(self, name: str, n1: str, n2: str, capacitance: float) -> None:
        if capacitance < 0:
            raise ValueError(f"capacitance must be non-negative, got {capacitance}")
        super().__init__(name, (n1, n2))
        self.capacitance = float(capacitance)

    def stamp_dc(self, a, b, x, nodemap) -> None:
        pass  # open circuit at DC

    def stamp_ac(self, g, c, b_ac, op, nodemap) -> None:
        i, j = nodemap[self.nodes[0]], nodemap[self.nodes[1]]
        nodemap.add(c, i, i, self.capacitance)
        nodemap.add(c, j, j, self.capacitance)
        nodemap.add(c, i, j, -self.capacitance)
        nodemap.add(c, j, i, -self.capacitance)


class CurrentSource(Element):
    """Independent current source; current flows from ``n_from`` to ``n_to``
    through the source (i.e. it injects current into ``n_to``)."""

    def __init__(
        self, name: str, n_from: str, n_to: str, dc: float, ac: float = 0.0
    ) -> None:
        super().__init__(name, (n_from, n_to))
        self.dc = float(dc)
        self.ac = float(ac)

    def stamp_dc(self, a, b, x, nodemap) -> None:
        i, j = nodemap[self.nodes[0]], nodemap[self.nodes[1]]
        nodemap.add_rhs(b, i, -self.dc)
        nodemap.add_rhs(b, j, self.dc)

    def stamp_ac(self, g, c, b_ac, op, nodemap) -> None:
        i, j = nodemap[self.nodes[0]], nodemap[self.nodes[1]]
        nodemap.add_rhs(b_ac, i, -self.ac)
        nodemap.add_rhs(b_ac, j, self.ac)


class VoltageSource(Element):
    """Independent voltage source with a branch-current unknown."""

    n_branches = 1

    def __init__(
        self, name: str, n_plus: str, n_minus: str, dc: float, ac: float = 0.0
    ) -> None:
        super().__init__(name, (n_plus, n_minus))
        self.dc = float(dc)
        self.ac = float(ac)

    def _stamp_branch(self, matrix: np.ndarray, nodemap: NodeMap) -> int:
        k = nodemap.n_nodes + self.branch_index
        p, m = nodemap[self.nodes[0]], nodemap[self.nodes[1]]
        nodemap.add(matrix, p, k, 1.0)
        nodemap.add(matrix, m, k, -1.0)
        nodemap.add(matrix, k, p, 1.0)
        nodemap.add(matrix, k, m, -1.0)
        return k

    def stamp_dc(self, a, b, x, nodemap) -> None:
        k = self._stamp_branch(a, nodemap)
        b[k] += self.dc

    def stamp_ac(self, g, c, b_ac, op, nodemap) -> None:
        k = self._stamp_branch(g, nodemap)
        b_ac[k] += self.ac


class VCCS(Element):
    """Voltage-controlled current source: i(out_p->out_n) = gm * v(in_p,in_n).

    The current is injected into ``out_p`` and drawn from ``out_n`` when the
    controlling voltage is positive, following the SPICE ``G`` element
    convention (current flows out_p -> out_n inside the source).
    """

    def __init__(
        self, name: str, out_p: str, out_n: str, in_p: str, in_n: str, gm: float
    ) -> None:
        super().__init__(name, (out_p, out_n, in_p, in_n))
        self.gm = float(gm)

    def _stamp(self, matrix: np.ndarray, nodemap: NodeMap) -> None:
        op_, on, ip, in_ = (nodemap[n] for n in self.nodes)
        nodemap.add(matrix, op_, ip, self.gm)
        nodemap.add(matrix, op_, in_, -self.gm)
        nodemap.add(matrix, on, ip, -self.gm)
        nodemap.add(matrix, on, in_, self.gm)

    def stamp_dc(self, a, b, x, nodemap) -> None:
        self._stamp(a, nodemap)

    def stamp_ac(self, g, c, b_ac, op, nodemap) -> None:
        self._stamp(g, nodemap)


@dataclass
class _MosOperatingPoint:
    """Bias-dependent small-signal data of one MOSFET."""

    ids: float
    gm: float
    gds: float
    gmbs: float
    vgs: float
    vds: float
    vbs: float
    vdsat: float

    @property
    def saturated(self) -> bool:
        """True when the device operates in saturation (vds >= vdsat)."""
        return self.vds >= self.vdsat - 1e-9


class Mosfet(Element):
    """A MOSFET instance: (drain, gate, source, bulk) + model card + W/L.

    PMOS devices are evaluated with source-referenced magnitudes; the sign
    factor cancels in the conductance stamps, so NMOS and PMOS stamp
    identically apart from the sign of the companion current.
    """

    def __init__(
        self,
        name: str,
        d: str,
        g: str,
        s: str,
        b: str,
        card: MosfetModelCard,
        w: float,
        l: float,
    ) -> None:
        if w <= 0 or l <= 0:
            raise ValueError(f"W and L must be positive, got W={w}, L={l}")
        super().__init__(name, (d, g, s, b))
        self.card = card
        self.w = float(w)
        self.l = float(l)

    # -- bias evaluation -----------------------------------------------------
    def operating_point(self, x: np.ndarray, nodemap: NodeMap) -> _MosOperatingPoint:
        """Evaluate the device at the node voltages in ``x``."""
        vd = nodemap.voltage(x, self.nodes[0])
        vg = nodemap.voltage(x, self.nodes[1])
        vs = nodemap.voltage(x, self.nodes[2])
        vb = nodemap.voltage(x, self.nodes[3])
        sgn = 1.0 if self.card.polarity == "n" else -1.0
        vgs = sgn * (vg - vs)
        vds = sgn * (vd - vs)
        # Source-referenced bulk voltage; clamp forward bias for the sqrt.
        vbs = min(sgn * (vb - vs), self.card.phi - 1e-3)
        ids, gm, gds, gmbs = self.card.ids_and_derivatives(
            self.w, self.l, vgs, vds, vbs
        )
        # vdsat = the plain overdrive max(vgs - vth, 0) at the body-effect
        # threshold, not the softplus-smoothed one of the current model.
        sqrt_term = np.sqrt(max(self.card.phi - vbs, 1e-6))
        vth = self.card.vth0 + self.card.gamma * (sqrt_term - np.sqrt(self.card.phi))
        vov = max(vgs - vth, 0.0)
        return _MosOperatingPoint(
            ids=float(ids),
            gm=float(gm),
            gds=float(gds),
            gmbs=float(gmbs),
            vgs=float(vgs),
            vds=float(vds),
            vbs=float(vbs),
            vdsat=float(vov),
        )

    # -- stamps ---------------------------------------------------------------
    def stamp_dc(self, a, b, x, nodemap) -> None:
        op = self.operating_point(x, nodemap)
        sgn = 1.0 if self.card.polarity == "n" else -1.0
        d, g, s, bk = (nodemap[n] for n in self.nodes)

        # Conductance stamps (sign factors cancel: d(i_d)/dVg = gm, etc.).
        for row, sign_row in ((d, 1.0), (s, -1.0)):
            nodemap.add(a, row, g, sign_row * op.gm)
            nodemap.add(a, row, d, sign_row * op.gds)
            nodemap.add(a, row, bk, sign_row * op.gmbs)
            nodemap.add(a, row, s, -sign_row * (op.gm + op.gds + op.gmbs))

        # Companion current: the part of i_d not explained by the linear term.
        vd = nodemap.voltage(x, self.nodes[0])
        vg = nodemap.voltage(x, self.nodes[1])
        vs = nodemap.voltage(x, self.nodes[2])
        vb = nodemap.voltage(x, self.nodes[3])
        i_d = sgn * op.ids
        linear = (
            op.gm * vg
            + op.gds * vd
            + op.gmbs * vb
            - (op.gm + op.gds + op.gmbs) * vs
        )
        ieq = i_d - linear
        nodemap.add_rhs(b, d, -ieq)
        nodemap.add_rhs(b, s, ieq)

    def stamp_ac(self, g, c, b_ac, op, nodemap) -> None:
        """Small-signal stamp using the stored operating point ``op``.

        ``op`` maps element names to their operating-point records (built by
        the assembler after the DC solve).
        """
        record: _MosOperatingPoint = op[self.name]
        d, gt, s, bk = (nodemap[n] for n in self.nodes)

        for row, sign_row in ((d, 1.0), (s, -1.0)):
            nodemap.add(g, row, gt, sign_row * record.gm)
            nodemap.add(g, row, d, sign_row * record.gds)
            nodemap.add(g, row, bk, sign_row * record.gmbs)
            nodemap.add(g, row, s, -sign_row * (record.gm + record.gds + record.gmbs))

        # Capacitances from geometry (nominal card values).
        leff = max(self.l - 2.0 * self.card.ld, 1e-9)
        weff = max(self.w - 2.0 * self.card.wd, 1e-9)
        cgs = (2.0 / 3.0) * weff * leff * self.card.cox + self.card.cgso * weff
        cgd = self.card.cgdo * weff
        area = weff * self.card.ldiff
        perimeter = 2.0 * (weff + self.card.ldiff)
        cj = self.card.cj * area + self.card.cjsw * perimeter

        for n1, n2, cap in (
            (gt, s, cgs),
            (gt, d, cgd),
            (d, bk, cj),
            (s, bk, cj),
        ):
            nodemap.add(c, n1, n1, cap)
            nodemap.add(c, n2, n2, cap)
            nodemap.add(c, n1, n2, -cap)
            nodemap.add(c, n2, n1, -cap)
