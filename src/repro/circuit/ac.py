"""AC small-signal analysis: transfer functions, Bode data, poles.

Given a circuit and a DC operating point, the small-signal system is
``(G + j*omega*C) x = b_ac``.  :class:`ACAnalysis` solves it over a frequency
grid and extracts the quantities analog designers measure: low-frequency
gain, unity-gain frequency (GBW), phase margin, pole locations.

The solve is *entrywise*: Gaussian elimination with per-system partial
pivoting runs over the matrix entries, each a broadcast array over
``(n_samples, n_freq)`` systems, instead of one small LAPACK call per
(sample, frequency) system.  An entry keeps its natural shape — a scalar
when it is equal across samples, one value per sample when only ``G``
varies, the full grid only when it carries capacitance — and structural
zeros cost nothing.  :class:`BatchACAnalysis` feeds it per-sample stamped
systems in memory-bounded sample chunks, which is what keeps
netlist-backed Monte-Carlo problems from being loop-bound.

Metric extraction makes one pass over each full-grid quantity it needs.
A :class:`TransferFunction` computes ``|H|`` and the unity-gain crossing
once, at first use, and caches both read-only; the phase margin then reads
the phase only at the two grid points bracketing each curve's crossing,
unwrapping the angle no further than the rightmost of them.  Every value
equals the full-grid formula bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.circuit.mna import DCSolution, MNAAssembler
from repro.circuit.netlist import Circuit

__all__ = [
    "ACAnalysis",
    "BatchACAnalysis",
    "TransferFunction",
    "default_frequency_grid",
]

#: Decade span and resolution of the default analysis grid.
_DEFAULT_GRID_ARGS = (0.0, 11.0, 661)

_DEFAULT_GRID: np.ndarray | None = None

#: Complex-entry budget of one stacked solve: samples are eliminated in
#: chunks of at most ``budget / (n_freq * dim**2)``, so a large Monte-Carlo
#: block cannot balloon memory (250k entries = 4 MiB of complex128), and
#: one ``(chunk, n_freq)`` entry array stays small enough for a core's L2
#: cache (about 50 rows of a 301-point grid at ``dim = 4``).  On a 2-CPU
#: Xeon VM, halving the chunk from about 100 rows halved the page faults
#: of a 480-row netlist-OTA call (smaller temporaries are reused instead of
#: re-mapped) and made it ~15% faster; 2048-row calls did not change.
_SOLVE_ENTRY_BUDGET = 250_000


def default_frequency_grid() -> np.ndarray:
    """The shared default grid: 1 Hz .. 100 GHz, 60 points/decade.

    Built once per process and returned as a read-only view — every
    ``transfer`` call used to allocate its own 661-point ``logspace``,
    which is pure waste on the Monte-Carlo hot path.  Pass an explicit
    ``frequencies`` array to analyse a different band.
    """
    global _DEFAULT_GRID
    if _DEFAULT_GRID is None:
        grid = np.logspace(*_DEFAULT_GRID_ARGS)
        grid.setflags(write=False)
        _DEFAULT_GRID = grid
    return _DEFAULT_GRID


def _as_frequency_grid(frequencies: np.ndarray | None) -> np.ndarray:
    if frequencies is None:
        return default_frequency_grid()
    return np.asarray(frequencies, dtype=float)


def _stacked_response(
    g: np.ndarray,
    c: np.ndarray,
    b: np.ndarray,
    frequencies: np.ndarray,
    out_idx: int | None,
    neg_idx: int | None,
) -> np.ndarray:
    """Solve ``(G + j w C) x = b`` over a frequency grid, batched.

    ``g`` may be a single ``(dim, dim)`` system or a stacked
    ``(n_samples, dim, dim)`` tensor; ``c`` has either of those shapes and
    ``b`` is shared.  Returns the output node (or node-pair) response with
    shape ``(n_freq,)`` respectively ``(n_samples, n_freq)``; a grounded
    output is identically zero.  Samples are eliminated in chunks bounded
    by :data:`_SOLVE_ENTRY_BUDGET`.
    """
    single = g.ndim == 2
    if single:
        g = g[None]
    c = np.broadcast_to(c, g.shape)
    n_samples, dim = g.shape[0], g.shape[-1]
    omega = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
    out = np.zeros((n_samples, len(omega)), dtype=complex)
    wanted = [i for i in (out_idx, neg_idx) if i is not None]
    if wanted and n_samples:
        chunk = max(1, _SOLVE_ENTRY_BUDGET // max(len(omega) * dim * dim, 1))
        for start in range(0, n_samples, chunk):
            stop = start + chunk
            x = _eliminate(g[start:stop], c[start:stop], b, omega, min(wanted))
            x = [0.0 if v is None else v for v in x]
            v = x[out_idx] if out_idx is not None else 0.0
            if neg_idx is not None:
                v = v - x[neg_idx]
            out[start:stop] = v
    return out[0] if single else out


def _system_entries(g: np.ndarray, c: np.ndarray, omega: np.ndarray) -> list[list]:
    """Entries of ``G + j w C`` for ``S`` stacked systems over ``F`` frequencies.

    Each entry is a complex array broadcastable to ``(S, F)``: ``(1, 1)``
    when it is equal across samples and frequencies, ``(S, 1)`` when only
    its conductance varies by sample, ``(1, F)`` or ``(S, F)`` when it
    carries capacitance.  A structural zero (zero in every system) is
    ``None``.

    A capacitive entry is written part by part, as ``g + 0*c`` and
    ``0 + omega*c``, without a complex multiply.  On a grid of finite,
    non-negative frequencies (every analysis grid) that equals
    ``g + (1j * omega) * c`` bit for bit: the complex product is
    ``(0*c - omega*0) + j(0*0 + omega*c)``.
    """
    dim = g.shape[-1]
    g_same = np.all(g == g[:1], axis=0)
    c_same = np.all(c == c[:1], axis=0)
    g_zero = g_same & (g[0] == 0.0)
    c_zero = c_same & (c[0] == 0.0)

    def column(m, same, i, j):
        return m[:1, i, j, None] if same[i, j] else m[:, i, j, None]

    rows = []
    for i in range(dim):
        row = []
        for j in range(dim):
            conductance = None if g_zero[i, j] else column(g, g_same, i, j)
            if c_zero[i, j]:
                entry = None if conductance is None else conductance.astype(complex)
            else:
                capacitance = column(c, c_same, i, j)
                real = 0.0 * capacitance
                if conductance is not None:
                    real = conductance + real
                entry = np.empty(np.broadcast_shapes(real.shape, omega.shape), complex)
                entry.real = real
                np.multiply(omega, capacitance, out=entry.imag)
                entry.imag += 0.0  # the product's 0*0 + omega*c: -0.0 turns +0.0
            row.append(entry)
        rows.append(row)
    return rows


def _cabs1(z: np.ndarray) -> np.ndarray:
    """``|Re z| + |Im z|``, the magnitude LAPACK's partial pivoting compares."""
    return np.abs(z.real) + np.abs(z.imag)


def _where(mask: np.ndarray, a, b):
    """``np.where`` over entries where ``None`` is a structural zero."""
    if a is None and b is None:
        return None
    return np.where(mask, 0.0 if a is None else a, 0.0 if b is None else b)


def _minus(a, b: np.ndarray) -> np.ndarray:
    """``a - b`` where ``a`` may be a structural zero."""
    return -b if a is None else a - b


def _eliminate(
    g: np.ndarray, c: np.ndarray, b: np.ndarray, omega: np.ndarray, lowest: int
) -> list:
    """Solution unknowns ``lowest..dim-1`` of ``S`` stacked systems over a grid.

    Gaussian elimination with partial pivoting chosen per system (the
    largest ``|Re| + |Im|`` in the column, first one on ties), run on the
    broadcast entries of :func:`_system_entries`.  When every system picks
    the same pivot row the rows swap outright, otherwise per system with
    ``np.where``.  Back-substitution stops at unknown ``lowest``; entries
    of the returned list are arrays broadcastable to ``(S, F)``, ``None``
    for an unknown that is identically zero (or was not asked for).

    Raises
    ------
    numpy.linalg.LinAlgError
        If any system meets an exactly zero pivot, as LAPACK's ``zgesv``.
    """
    dim = g.shape[-1]
    a = _system_entries(g, c, omega)
    rhs = [None if v == 0.0 else np.full((1, 1), v, dtype=complex) for v in b]

    for k in range(dim):
        candidates = [i for i in range(k, dim) if a[i][k] is not None]
        if not candidates:
            raise np.linalg.LinAlgError("Singular matrix")
        choice = np.zeros((1, 1), dtype=np.intp)
        if len(candidates) > 1:
            best = _cabs1(a[candidates[0]][k])
            for pos, i in enumerate(candidates[1:], start=1):
                magnitude = _cabs1(a[i][k])
                wins = magnitude > best
                best = np.where(wins, magnitude, best)
                choice = np.where(wins, pos, choice)
        first = int(choice.flat[0])
        if np.all(choice == first):
            p = candidates[first]
            a[k], a[p] = a[p], a[k]
            rhs[k], rhs[p] = rhs[p], rhs[k]
        else:
            old = {i: a[i][k:] + [rhs[i]] for i in {k, *candidates}}
            new_k = old[k]
            for pos, i in enumerate(candidates):
                if i == k:
                    continue
                mask = choice == pos
                new_k = [_where(mask, x, y) for x, y in zip(old[i], new_k)]
                new_i = [_where(mask, x, y) for x, y in zip(old[k], old[i])]
                a[i][k:], rhs[i] = new_i[:-1], new_i[-1]
            a[k][k:], rhs[k] = new_k[:-1], new_k[-1]

        pivot = a[k][k]
        if not np.all(pivot):
            raise np.linalg.LinAlgError("Singular matrix")
        for i in range(k + 1, dim):
            if a[i][k] is None:
                continue
            factor = a[i][k] / pivot
            a[i][k] = None
            for j in range(k + 1, dim):
                if a[k][j] is not None:
                    a[i][j] = _minus(a[i][j], factor * a[k][j])
            if rhs[k] is not None:
                rhs[i] = _minus(rhs[i], factor * rhs[k])

    x = [None] * dim
    for i in range(dim - 1, lowest - 1, -1):
        acc = rhs[i]
        for j in range(dim - 1, i, -1):
            if a[i][j] is not None and x[j] is not None:
                acc = _minus(acc, a[i][j] * x[j])
        x[i] = None if acc is None else acc / a[i][i]
    return x


def _unity_gain_frequency(frequencies: np.ndarray, magnitude: np.ndarray) -> np.ndarray:
    """Vectorized unity-gain crossing by log-log interpolation.

    ``magnitude`` has shape ``(..., n_freq)``; returns ``(...)`` with
    ``nan`` where the magnitude never crosses unity inside the grid.
    """
    above = magnitude >= 1.0
    valid = above[..., 0] & ~above[..., -1]
    # First index at which |H| drops below unity (clipped so the k-1
    # neighbour always exists; invalid rows are masked out below).
    k = np.clip(np.argmax(~above, axis=-1), 1, magnitude.shape[-1] - 1)
    m1 = np.take_along_axis(magnitude, (k - 1)[..., None], axis=-1)[..., 0]
    m2 = np.take_along_axis(magnitude, k[..., None], axis=-1)[..., 0]
    f1, f2 = frequencies[k - 1], frequencies[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        # log-linear interpolation of log|H| vs log f
        t = np.log(m1) / (np.log(m1) - np.log(m2))
        fu = np.exp(np.log(f1) + t * (np.log(f2) - np.log(f1)))
    return np.where(valid, fu, np.nan)


def _unwrapped_phase_deg(response: np.ndarray, idx: np.ndarray) -> tuple:
    """Unwrapped phase [deg] at columns ``idx - 1`` and ``idx`` of each curve.

    ``response`` is ``(..., n)`` and ``idx`` ``(...)`` with entries in
    ``1..n-1``.  The result equals ``np.degrees(np.unwrap(np.angle(response)))``
    gathered at those columns, bit for bit, at less cost.  ``np.unwrap``
    adds a running sum of corrections, so the angle is read only up to
    column ``max(idx)``.  A correction is zero wherever a step is below pi,
    so only curves with a step of pi or more (or NaN) before their own
    column go through ``np.unwrap``, whose ``np.mod`` pass is most of its
    cost; no netlist-OTA curve of the ``ota_tight`` benchmark workload has
    one before its crossing.  Only the gathered values become degrees.
    """
    angle = np.angle(response[..., : idx.max(initial=1) + 1])
    kept = ~(np.abs(np.diff(angle, axis=-1)) < np.pi)  # np.unwrap's rule, NaN kept
    wraps = np.logical_or.accumulate(kept, axis=-1)
    wraps = np.take_along_axis(wraps, (idx - 1)[..., None], axis=-1)[..., 0]
    angle[~wraps, 1:] += 0.0  # zero corrections still turn -0.0 into +0.0
    angle[wraps] = np.unwrap(angle[wraps], axis=-1)
    cols = np.stack([idx - 1, idx], axis=-1)
    phase = np.degrees(np.take_along_axis(angle, cols, axis=-1))
    return phase[..., 0], phase[..., 1]


@dataclass
class TransferFunction:
    """Sampled complex transfer function H(f) on a frequency grid.

    ``response`` is either a single curve of shape ``(n_freq,)`` or a
    batch of curves ``(n_samples, n_freq)`` sharing one grid (the shape
    :meth:`BatchACAnalysis.transfer_batch` returns).  Every metric is
    vectorized over the batch axis: scalar responses keep returning plain
    floats, batched responses return arrays of shape ``(n_samples,)``.

    :attr:`magnitude` and the unity-gain crossing are each computed once,
    at first use, and cached as read-only arrays; :meth:`dc_gain`,
    :meth:`unity_gain_frequency` and :meth:`phase_margin` all read that
    cache (the first two return read-only views of it on a batch), so
    metrics describe the response as it was at first use.  A
    batched :meth:`phase_at` reads the phase only at the two grid points
    bracketing each query (see :func:`_unwrapped_phase_deg`) and equals
    :attr:`phase_deg` interpolated there, bit for bit.
    """

    frequencies: np.ndarray
    response: np.ndarray

    @cached_property
    def magnitude(self) -> np.ndarray:
        """|H(f)| (read-only, computed once)."""
        magnitude = np.abs(self.response)
        magnitude.setflags(write=False)
        return magnitude

    @cached_property
    def _unity_crossing(self) -> np.ndarray:
        crossing = _unity_gain_frequency(self.frequencies, self.magnitude)
        crossing.setflags(write=False)
        return crossing

    @property
    def magnitude_db(self) -> np.ndarray:
        """20*log10 |H(f)|."""
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(np.maximum(self.magnitude, 1e-300))

    @property
    def phase_deg(self) -> np.ndarray:
        """Unwrapped phase in degrees (unwrapped along the frequency axis)."""
        return np.degrees(np.unwrap(np.angle(self.response), axis=-1))

    def _scalarize(self, values: np.ndarray):
        if self.response.ndim == 1:
            return float(values)
        return values

    def dc_gain(self):
        """Gain magnitude at the lowest analysed frequency."""
        return self._scalarize(self.magnitude[..., 0])

    def unity_gain_frequency(self):
        """Frequency where |H| crosses 1, by log-log interpolation [Hz].

        Returns ``nan`` (per curve) if the magnitude never crosses unity
        inside the grid.
        """
        return self._scalarize(self._unity_crossing)

    def phase_at(self, frequency):
        """Phase [deg] at ``frequency`` by log-frequency interpolation.

        On a single curve, a scalar query returns a float and an array of
        queries an array.  On a batch, ``frequency`` broadcasts against the
        batch axis (one query per curve).  Non-positive grid points or
        queries cannot be mapped to log-frequency and raise ``ValueError``
        before any ``np.log``.
        """
        if float(self.frequencies[0]) <= 0.0:
            raise ValueError(
                "phase_at needs a strictly positive frequency grid for "
                f"log interpolation; grid starts at {self.frequencies[0]!r}"
            )
        frequency = np.asarray(frequency, dtype=float)
        if np.any(frequency <= 0.0):
            raise ValueError(
                f"frequency must be positive for log interpolation, got "
                f"{frequency!r}"
            )
        log_f = np.log(self.frequencies)
        if self.response.ndim == 1:
            phase = np.interp(np.log(frequency), log_f, self.phase_deg)
            return float(phase) if frequency.ndim == 0 else phase
        query = np.broadcast_to(frequency, self.response.shape[:-1])
        x = np.clip(np.log(query), log_f[0], log_f[-1])
        idx = np.clip(np.searchsorted(log_f, x), 1, len(log_f) - 1)
        below, above = _unwrapped_phase_deg(self.response, idx)
        x1, x2 = log_f[idx - 1], log_f[idx]
        return below + (x - x1) / (x2 - x1) * (above - below)

    def phase_margin(self):
        """Phase margin [deg] = 180 + phase at the unity-gain frequency.

        ``nan`` when no unity-gain crossing exists in the analysed band.
        """
        fu = self._unity_crossing
        finite = np.isfinite(fu)
        if not np.any(finite):
            return self._scalarize(np.full(fu.shape, np.nan))
        # nan crossings query the grid start, whose bracketing columns every
        # curve reads anyway, and are masked back to nan afterwards.
        safe = np.where(finite, fu, self.frequencies[0])
        pm = 180.0 + np.asarray(self.phase_at(safe))
        return self._scalarize(np.where(finite, pm, np.nan))


class ACAnalysis:
    """Small-signal analysis of a circuit at a DC operating point."""

    def __init__(self, circuit: Circuit, dc: DCSolution) -> None:
        self.circuit = circuit
        self.dc = dc
        assembler = MNAAssembler(circuit)
        self._g, self._c, self._b = assembler.ac_system(dc.op)
        self._nodemap = assembler.nodemap

    # -- frequency response ---------------------------------------------------
    def solve_at(self, frequency: float) -> np.ndarray:
        """Complex solution vector at one frequency [Hz]."""
        omega = 2.0 * np.pi * frequency
        matrix = self._g + 1j * omega * self._c
        return np.linalg.solve(matrix, self._b.astype(complex))

    def transfer(
        self,
        output: str,
        output_neg: str | None = None,
        frequencies: np.ndarray | None = None,
    ) -> TransferFunction:
        """Transfer function from the AC excitation to a node (or node pair).

        One stacked complex solve over the whole grid — no per-frequency
        Python loop.

        Parameters
        ----------
        output:
            Output node name (positive terminal).
        output_neg:
            Optional negative terminal for differential outputs.
        frequencies:
            Frequency grid [Hz]; defaults to the shared
            :func:`default_frequency_grid` (1 Hz .. 100 GHz, 60 pts/decade).
        """
        frequencies = _as_frequency_grid(frequencies)
        out_idx = self._nodemap[output]
        neg_idx = self._nodemap[output_neg] if output_neg is not None else None
        response = _stacked_response(
            self._g, self._c, self._b, frequencies, out_idx, neg_idx
        )
        return TransferFunction(frequencies, response)

    # -- poles -------------------------------------------------------------------
    def poles(self, max_hz: float = 1e14, min_hz: float = 1e-3) -> np.ndarray:
        """Natural frequencies of the network [Hz], sorted by magnitude.

        Solves the generalized eigenproblem ``(G + s C) x = 0`` on the full
        MNA system (including source branch rows, whose zero capacitance
        rows yield infinite eigenvalues that are discarded).  Numerically
        huge eigenvalues beyond ``max_hz`` and gmin-artifact eigenvalues
        below ``min_hz`` are filtered out.
        """
        from scipy.linalg import eigvals

        eigenvalues = eigvals(-self._g, self._c)
        s = eigenvalues[np.isfinite(eigenvalues)]
        f = s / (2.0 * np.pi)
        f = f[(np.abs(f) < max_hz) & (np.abs(f) > min_hz)]
        return f[np.argsort(np.abs(f))]


class BatchACAnalysis:
    """Stacked small-signal analysis: many stamped systems, one dispatch.

    Holds ``n_samples`` variants of one circuit topology — the same node
    map and excitation, per-sample ``G`` (and optionally ``C``) matrices —
    and solves all of them over a frequency grid in one entrywise
    elimination over ``(n_samples, n_freq)`` arrays.  This is the primitive
    netlist-backed Monte-Carlo evaluators build on: stamp unit element
    patterns once, scale them per sample, and never loop in Python.

    Parameters
    ----------
    g:
        Conductance tensor, shape ``(n_samples, dim, dim)`` (a single
        ``(dim, dim)`` matrix is promoted to ``n_samples = 1``).
    c:
        Capacitance matrices: ``(dim, dim)`` shared across samples or a
        per-sample ``(n_samples, dim, dim)`` tensor.
    b:
        Shared AC excitation vector, shape ``(dim,)``.
    nodemap:
        The assembler's node map (resolves output node names).
    """

    def __init__(self, g: np.ndarray, c: np.ndarray, b: np.ndarray, nodemap) -> None:
        g = np.asarray(g, dtype=float)
        if g.ndim == 2:
            g = g[None, :, :]
        if g.ndim != 3 or g.shape[-1] != g.shape[-2]:
            raise ValueError(f"g must stack square matrices, got shape {g.shape}")
        c = np.asarray(c, dtype=float)
        if c.shape not in (g.shape, g.shape[1:]):
            raise ValueError(
                f"c must be {g.shape[1:]} (shared) or {g.shape} (per-sample), "
                f"got {c.shape}"
            )
        b = np.asarray(b, dtype=float)
        if b.shape != g.shape[1:2]:
            raise ValueError(f"b must have shape {g.shape[1:2]}, got {b.shape}")
        self._g = g
        self._c = c
        self._b = b
        self._nodemap = nodemap

    @classmethod
    def from_circuit(cls, circuit: Circuit, ops) -> "BatchACAnalysis":
        """Stamp one AC system per operating point of ``circuit``.

        ``ops`` is a sequence of per-MOSFET operating-point mappings (one
        per sample, as produced by DC solves); see
        :meth:`~repro.circuit.mna.MNAAssembler.ac_system_batch`.
        """
        assembler = MNAAssembler(circuit)
        g, c, b = assembler.ac_system_batch(ops)
        return cls(g, c, b, assembler.nodemap)

    @property
    def n_samples(self) -> int:
        """Number of stacked systems."""
        return self._g.shape[0]

    def solve_at(self, frequency: float) -> np.ndarray:
        """Complex solution vectors at one frequency, shape ``(n_samples, dim)``."""
        omega = 2.0 * np.pi * frequency
        matrices = self._g + 1j * omega * self._c
        return np.linalg.solve(matrices, self._b.astype(complex)[:, None])[..., 0]

    def transfer_batch(
        self,
        output: str,
        output_neg: str | None = None,
        frequencies: np.ndarray | None = None,
    ) -> TransferFunction:
        """All samples' transfer functions in one stacked solve.

        Returns a batched :class:`TransferFunction` with ``response`` of
        shape ``(n_samples, n_freq)`` whose metrics (``dc_gain``,
        ``unity_gain_frequency``, ``phase_margin`` ...) evaluate vectorized
        across the batch.
        """
        frequencies = _as_frequency_grid(frequencies)
        out_idx = self._nodemap[output]
        neg_idx = self._nodemap[output_neg] if output_neg is not None else None
        response = _stacked_response(
            self._g, self._c, self._b, frequencies, out_idx, neg_idx
        )
        return TransferFunction(frequencies, response)
