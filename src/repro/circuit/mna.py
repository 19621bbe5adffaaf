"""Modified nodal analysis: assembly and DC Newton solution.

The assembler walks a :class:`~repro.circuit.netlist.Circuit`, assigns node
and branch indices, and builds dense matrices (analog blocks are small, so
dense LU via LAPACK is both simpler and faster than sparse here): the
linearised DC system, and the small-signal AC systems stacked one per
operating point, where a single circuit is a stack of one.  Both add their
conductance to ground through :meth:`MNAAssembler.add_gmin`.

DC solution uses damped Newton iteration on the companion-model linearised
system, with a gmin-stepping fallback for stubborn bias points — the same
strategy SPICE uses, scaled down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.circuit.elements import NodeMap, VoltageSource
from repro.circuit.netlist import Circuit

__all__ = ["MNAAssembler", "DCSolution", "solve_dc", "ConvergenceError"]

#: Conductance [S] from every node to ground in the AC systems.
AC_GMIN = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when the DC Newton iteration fails to converge."""


@dataclass
class DCSolution:
    """Result of a DC operating-point solve.

    Attributes
    ----------
    x:
        Solution vector (node voltages then source branch currents).
    nodemap:
        Index mapping used to interpret ``x``.
    op:
        Per-MOSFET operating-point records (name -> record).
    iterations:
        Newton iterations used.
    """

    x: np.ndarray
    nodemap: NodeMap
    op: dict[str, object]
    iterations: int

    def voltage(self, node: str) -> float:
        """Voltage of ``node`` [V]."""
        return self.nodemap.voltage(self.x, node)

    def branch_current(self, source: VoltageSource) -> float:
        """Current through a voltage source [A] (positive into the + node)."""
        if source.branch_index is None:
            raise ValueError(f"source {source.name} has no branch index")
        return float(self.x[self.nodemap.n_nodes + source.branch_index])

    def saturation_report(self) -> dict[str, bool]:
        """Per-MOSFET saturation flags (vds >= vdsat)."""
        return {name: record.saturated for name, record in self.op.items()}


class MNAAssembler:
    """Builds MNA systems for one circuit."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        branch = 0
        for element in circuit.elements:
            if element.n_branches:
                element.branch_index = branch
                branch += element.n_branches
        self.nodemap = NodeMap(circuit.node_names(), branch)

    # -- DC ---------------------------------------------------------------
    def dc_system(self, x: np.ndarray, gmin: float) -> tuple[np.ndarray, np.ndarray]:
        """Linearised DC system ``A x_new = b`` around estimate ``x``."""
        n = self.nodemap.size
        a = np.zeros((n, n))
        b = np.zeros(n)
        for element in self.circuit.elements:
            element.stamp_dc(a, b, x, self.nodemap)
        self.add_gmin(a, gmin)
        return a, b

    def add_gmin(self, a: np.ndarray, gmin: float = AC_GMIN) -> None:
        """Add ``gmin`` from every node to ground to ``a``, in place.

        ``a`` is one ``(size, size)`` matrix or a stack of them.  The
        conductance keeps a matrix non-singular when a node would otherwise
        float (e.g. between two capacitors).
        """
        nodes = np.arange(self.nodemap.n_nodes)
        a[..., nodes, nodes] += gmin

    # -- AC ----------------------------------------------------------------
    def ac_system(self, ops) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked small-signal systems, one per operating point.

        ``ops`` is a sequence of per-MOSFET operating-point mappings from DC
        solves (``[dc.op]`` for one circuit).  Returns ``(G, C, b_ac)`` with
        ``G`` and ``C`` stacked as ``(len(ops), size, size)`` tensors sharing
        one excitation vector, the shape :class:`~repro.circuit.ac.ACAnalysis`
        solves.  The AC excitation must not depend on the operating point
        (it never does: sources stamp fixed ``ac`` values), which is checked
        here.
        """
        ops = list(ops)
        if not ops:
            raise ValueError("ac_system needs at least one operating point")
        n = self.nodemap.size
        g, c = np.zeros((2, len(ops), n, n))
        b_ac = np.zeros((len(ops), n))
        for s, op in enumerate(ops):
            for element in self.circuit.elements:
                element.stamp_ac(g[s], c[s], b_ac[s], op, self.nodemap)
        if not (b_ac == b_ac[0]).all():
            raise ValueError(
                "AC excitation differs between operating points; stacked "
                "systems must share one RHS"
            )
        self.add_gmin(g)
        return g, c, b_ac[0]


def solve_dc(
    circuit: Circuit,
    x0: np.ndarray | None = None,
    max_iterations: int = 200,
    tolerance: float = 1e-9,
    damping: float = 1.0,
) -> DCSolution:
    """Solve the DC operating point of ``circuit``.

    Damped Newton iteration; if plain Newton fails, retries with gmin
    stepping (start with a large conductance to ground everywhere, then relax
    it decade by decade, warm-starting each stage).

    Raises
    ------
    ConvergenceError
        If no stage converges.
    """
    assembler = MNAAssembler(circuit)

    x = _newton(assembler, x0, max_iterations, tolerance, damping, gmin=1e-12)
    if x is None:
        x = _gmin_stepping(assembler, x0, max_iterations, tolerance, damping)
    if x is None:
        raise ConvergenceError(
            f"DC operating point of {circuit.name!r} did not converge"
        )

    op = {
        m.name: m.operating_point(x, assembler.nodemap) for m in circuit.mosfets()
    }
    return DCSolution(x=x, nodemap=assembler.nodemap, op=op, iterations=max_iterations)


def _newton(
    assembler: MNAAssembler,
    x0: np.ndarray | None,
    max_iterations: int,
    tolerance: float,
    damping: float,
    gmin: float,
) -> np.ndarray | None:
    """Voltage-limited Newton loop; returns the solution or None on failure.

    ``damping`` scales the step once the iteration is inside the voltage
    limit; 1.0 is plain Newton, smaller values trade speed for robustness.
    """
    x = np.zeros(assembler.nodemap.size) if x0 is None else np.array(x0, dtype=float)
    max_step = 0.5  # volts per iteration, SPICE-style voltage limiting

    for _ in range(max_iterations):
        a, b = assembler.dc_system(x, gmin)
        try:
            x_new = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(x_new)):
            return None
        step = x_new - x
        nv = assembler.nodemap.n_nodes
        norm = np.max(np.abs(step[:nv])) if nv else 0.0
        if norm > max_step:
            # Scale the whole step so voltages move at most ``max_step``.
            x = x + step * (max_step / norm)
        else:
            x = x + damping * step
            if damping * norm < tolerance:
                return x
    return None


def _gmin_stepping(
    assembler: MNAAssembler,
    x0: np.ndarray | None,
    max_iterations: int,
    tolerance: float,
    damping: float,
) -> np.ndarray | None:
    """Classic gmin continuation: solve easy (leaky) problems first."""
    x = np.zeros(assembler.nodemap.size) if x0 is None else np.array(x0, dtype=float)
    for exponent in range(3, 13):
        gmin = 10.0 ** (-exponent)
        x_next = _newton(assembler, x, max_iterations, tolerance, damping, gmin)
        if x_next is None:
            return None
        x = x_next
    return x
