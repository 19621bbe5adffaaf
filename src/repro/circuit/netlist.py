"""Netlist container.

A :class:`Circuit` is an ordered collection of elements plus convenience
constructors (``add_resistor``, ``add_mosfet`` ...).  It knows nothing about
analysis; the MNA assembler consumes it.
"""

from __future__ import annotations


from repro.circuit.elements import (
    VCCS,
    Capacitor,
    CurrentSource,
    Element,
    GROUND_NAMES,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.circuit.mosfet import MosfetModelCard

__all__ = ["Circuit"]


class Circuit:
    """An analog circuit netlist.

    Element and node names are free-form strings; any of ``"0"``, ``"gnd"``,
    ``"GND"`` denotes ground.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.elements: list[Element] = []
        self._element_names: set[str] = set()

    # -- generic ------------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add a pre-built element; names must be unique."""
        if element.name in self._element_names:
            raise ValueError(f"duplicate element name: {element.name!r}")
        self._element_names.add(element.name)
        self.elements.append(element)
        return element

    def __len__(self) -> int:
        return len(self.elements)

    def __getitem__(self, name: str) -> Element:
        for element in self.elements:
            if element.name == name:
                return element
        raise KeyError(name)

    # -- convenience constructors ---------------------------------------------
    def add_resistor(self, name: str, n1: str, n2: str, resistance: float) -> Resistor:
        """Add a resistor [ohm]."""
        return self.add(Resistor(name, n1, n2, resistance))

    def add_capacitor(self, name: str, n1: str, n2: str, capacitance: float) -> Capacitor:
        """Add a capacitor [F]."""
        return self.add(Capacitor(name, n1, n2, capacitance))

    def add_current_source(
        self, name: str, n_from: str, n_to: str, dc: float, ac: float = 0.0
    ) -> CurrentSource:
        """Add a current source injecting ``dc`` amperes into ``n_to``."""
        return self.add(CurrentSource(name, n_from, n_to, dc, ac))

    def add_voltage_source(
        self, name: str, n_plus: str, n_minus: str, dc: float, ac: float = 0.0
    ) -> VoltageSource:
        """Add a voltage source [V]."""
        return self.add(VoltageSource(name, n_plus, n_minus, dc, ac))

    def add_vccs(
        self, name: str, out_p: str, out_n: str, in_p: str, in_n: str, gm: float
    ) -> VCCS:
        """Add a voltage-controlled current source [S]."""
        return self.add(VCCS(name, out_p, out_n, in_p, in_n, gm))

    def add_mosfet(
        self,
        name: str,
        d: str,
        g: str,
        s: str,
        b: str,
        card: MosfetModelCard,
        w: float,
        l: float,
    ) -> Mosfet:
        """Add a MOSFET instance (drain, gate, source, bulk) with W/L [m]."""
        return self.add(Mosfet(name, d, g, s, b, card, w, l))

    # -- topology queries --------------------------------------------------------
    def node_names(self) -> list[str]:
        """All node names in first-appearance order (including ground)."""
        seen: dict[str, None] = {}
        for element in self.elements:
            for node in element.nodes:
                seen.setdefault(node, None)
        return list(seen)

    def non_ground_nodes(self) -> list[str]:
        """Node names excluding ground aliases."""
        return [n for n in self.node_names() if n not in GROUND_NAMES]

    def mosfets(self) -> list[Mosfet]:
        """All MOSFET instances in the circuit."""
        return [e for e in self.elements if isinstance(e, Mosfet)]

    def total_gate_area(self) -> float:
        """Sum of W*L over all MOSFETs [m^2] (area estimation)."""
        return float(sum(m.w * m.l for m in self.mosfets()))

    def describe(self) -> str:
        """Multi-line netlist listing for debugging."""
        lines = [f"* {self.name}: {len(self.elements)} elements, "
                 f"{len(self.non_ground_nodes())} nodes"]
        lines.extend(repr(element) for element in self.elements)
        return "\n".join(lines)
