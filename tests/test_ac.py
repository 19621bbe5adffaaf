"""AC analysis: transfer functions, unity-gain measures, pole extraction."""

import numpy as np
import pytest

from repro.circuit.ac import (
    ACAnalysis,
    TransferFunction,
    _system_entries,
    _unity_gain_frequency,
    _unwrapped_phase_deg,
)
from repro.circuit.mna import solve_dc
from repro.circuit.netlist import Circuit
from repro.circuit.tech import C035Technology


def _rc_lowpass(r=1e3, c=1e-9):
    circuit = Circuit()
    circuit.add_voltage_source("Vin", "in", "0", 0.0, ac=1.0)
    circuit.add_resistor("R1", "in", "out", r)
    circuit.add_capacitor("C1", "out", "0", c)
    return circuit


class TestRCLowPass:
    def test_dc_gain_and_corner(self):
        r, c = 1e3, 1e-9
        circuit = _rc_lowpass(r, c)
        analysis = ACAnalysis(circuit, solve_dc(circuit))
        f3db = 1.0 / (2 * np.pi * r * c)
        tf = analysis.transfer("out", frequencies=np.logspace(2, 9, 200))
        assert tf.dc_gain() == pytest.approx(1.0, rel=1e-3)
        # At the corner frequency the magnitude is 1/sqrt(2).
        idx = np.argmin(np.abs(tf.frequencies - f3db))
        assert tf.magnitude[idx] == pytest.approx(1 / np.sqrt(2), rel=0.05)

    def test_pole_extraction_matches_rc(self):
        r, c = 2e3, 0.5e-9
        circuit = _rc_lowpass(r, c)
        analysis = ACAnalysis(circuit, solve_dc(circuit))
        poles = analysis.poles()
        f_pole = np.abs(poles[0])
        assert f_pole == pytest.approx(1.0 / (2 * np.pi * r * c), rel=1e-3)

    def test_phase_at_corner(self):
        r, c = 1e3, 1e-9
        circuit = _rc_lowpass(r, c)
        analysis = ACAnalysis(circuit, solve_dc(circuit))
        tf = analysis.transfer("out", frequencies=np.logspace(2, 9, 400))
        f3db = 1.0 / (2 * np.pi * r * c)
        assert tf.phase_at(f3db) == pytest.approx(-45.0, abs=2.0)


class TestAmplifierTF:
    """Single-pole VCCS amplifier: A0 = gm*R, unity-gain f = gm/(2 pi C)."""

    def _make(self, gm=1e-3, r=100e3, c=1e-12):
        circuit = Circuit()
        circuit.add_voltage_source("Vin", "in", "0", 0.0, ac=1.0)
        circuit.add_vccs("G1", "0", "out", "in", "0", gm=gm)
        circuit.add_resistor("RL", "out", "0", r)
        circuit.add_capacitor("CL", "out", "0", c)
        return ACAnalysis(circuit, solve_dc(circuit))

    def test_dc_gain(self):
        analysis = self._make()
        tf = analysis.transfer("out", frequencies=np.logspace(0, 11, 400))
        assert tf.dc_gain() == pytest.approx(100.0, rel=1e-3)

    def test_unity_gain_frequency(self):
        gm, c = 1e-3, 1e-12
        analysis = self._make(gm=gm, c=c)
        tf = analysis.transfer("out", frequencies=np.logspace(3, 11, 600))
        assert tf.unity_gain_frequency() == pytest.approx(
            gm / (2 * np.pi * c), rel=0.02
        )

    def test_phase_margin_single_pole_is_90(self):
        analysis = self._make()
        tf = analysis.transfer("out", frequencies=np.logspace(3, 11, 600))
        assert tf.phase_margin() == pytest.approx(90.0, abs=3.0)


class TestTransferFunctionEdges:
    def test_no_unity_crossing_returns_nan(self):
        tf = TransferFunction(
            frequencies=np.logspace(0, 3, 10),
            response=np.full(10, 0.5 + 0j),
        )
        assert np.isnan(tf.unity_gain_frequency())
        assert np.isnan(tf.phase_margin())

    def test_magnitude_db(self):
        tf = TransferFunction(
            frequencies=np.array([1.0, 10.0]),
            response=np.array([10.0 + 0j, 1.0 + 0j]),
        )
        np.testing.assert_allclose(tf.magnitude_db, [20.0, 0.0], atol=1e-9)


class TestMosfetAC:
    def test_common_source_gain_matches_small_signal_formula(self):
        tech = C035Technology()
        rd = 30e3
        circuit = Circuit()
        circuit.add_voltage_source("VDD", "vdd", "0", 3.3)
        circuit.add_voltage_source("VG", "g", "0", 0.9, ac=1.0)
        circuit.add_resistor("RD", "vdd", "d", rd)
        circuit.add_mosfet("M1", "d", "g", "0", "0", tech.nmos, 5e-6, 1e-6)
        dc = solve_dc(circuit)
        op = dc.op["M1"]
        assert op.saturated
        analysis = ACAnalysis(circuit, dc)
        tf = analysis.transfer("d", frequencies=np.logspace(0, 5, 30))
        expected = op.gm / (1.0 / rd + op.gds)
        assert tf.dc_gain() == pytest.approx(expected, rel=0.02)


# -- bit identity of the metric and entry fast paths ---------------------------
#
# Each reference below is a copy of the formula the fast path replaced; the
# comparisons are on the int64 view of the floats, so signed zeros and NaN
# payloads count.


def _assert_bitwise_equal(got, want):
    got, want = (np.ascontiguousarray(v, dtype=float) for v in (got, want))
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def _interp_rows(x, xp, fp):
    """Row-wise ``np.interp`` clamped at the edges: the full-grid gather."""
    x = np.clip(x, xp[0], xp[-1])
    idx = np.clip(np.searchsorted(xp, x), 1, len(xp) - 1)
    x1, x2 = xp[idx - 1], xp[idx]
    y1 = np.take_along_axis(fp, (idx - 1)[..., None], axis=-1)[..., 0]
    y2 = np.take_along_axis(fp, idx[..., None], axis=-1)[..., 0]
    return y1 + (x - x1) / (x2 - x1) * (y2 - y1)


def _reference_phase_at(frequencies, response, frequency):
    phase = np.degrees(np.unwrap(np.angle(response), axis=-1))
    query = np.broadcast_to(np.asarray(frequency, dtype=float), phase.shape[:-1])
    return _interp_rows(np.log(query), np.log(frequencies), phase)


def _reference_phase_margin(frequencies, response):
    fu = _unity_gain_frequency(frequencies, np.abs(response))
    finite = np.isfinite(fu)
    if not np.any(finite):
        return np.full(fu.shape, np.nan)
    safe = np.where(finite, fu, frequencies[-1])
    pm = 180.0 + _reference_phase_at(frequencies, response, safe)
    return np.where(finite, pm, np.nan)


GRID = np.logspace(0, 4, 41)


def _adversarial_responses(seed=0, random_rows=48):
    """Curves on ``GRID`` that hit ``np.unwrap``'s corner cases."""
    n = len(GRID)
    ramp = np.linspace(10.0, 0.1, n)
    alternating = np.where(np.arange(n) % 2, -1.0, 1.0)
    signed_zero = -ramp + 0j
    signed_zero.imag[::2] = -0.0
    special = 1e3 / (1 + 1j * GRID / 10.0) ** 5 + 0j
    special[[5, 17]] = [complex(np.nan, 0.0), complex(np.inf, 0.0)]
    special[23] = complex(-np.inf, np.inf)
    special[29] = complex(0.0, np.nan)
    crossing_at_1 = np.full(n, 0.5 - 0.5j)
    crossing_at_1[0] = 2.0
    crossing_at_last = np.full(n, -3.0 + 1e-3j)
    crossing_at_last[-1] = -0.5 - 1e-3j
    fixed = [
        1e3 / (1 + 1j * GRID / 10.0) ** 5,  # several wraps
        alternating * ramp + 0j,  # steps of exactly +pi and -pi
        signed_zero,  # -x + 0j next to -x - 0j: +pi next to -pi
        special,  # NaN and inf entries
        crossing_at_1,
        crossing_at_last,
    ]
    rng = np.random.default_rng(seed)
    steps = rng.choice([0.3, -0.5, np.pi, -np.pi, 2.0, -3.5, 0.0], (random_rows, n))
    decay = np.cumsum(rng.uniform(0.0, 0.4, (random_rows, n)), axis=-1)
    walk = np.exp(-decay) * 10 ** rng.uniform(-1, 3, (random_rows, 1))
    walk = walk * np.exp(1j * np.cumsum(steps, axis=-1))
    negative = rng.random(walk.shape) < 0.1
    walk[negative] = -rng.uniform(0.5, 5.0, negative.sum()) + 1j * rng.choice(
        [0.0, -0.0], negative.sum()
    )
    odd = rng.random(walk.shape) < 0.03
    walk[odd] = rng.choice(
        [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(-0.0, -0.0)], odd.sum()
    )
    return np.vstack([np.asarray(fixed), walk])


def _wrap_free_responses(seed=4, rows=24):
    """Curves on ``GRID`` whose angle never steps by pi or more, with
    ``-0.0`` angles (positive real, ``-0.0`` imaginary part) past column 0."""
    rng = np.random.default_rng(seed)
    shape = (rows, len(GRID))
    decay = np.cumsum(rng.uniform(0.0, 0.4, shape), axis=-1)
    response = np.exp(-decay) * 10 ** rng.uniform(0, 3, (rows, 1))
    response = response * np.exp(1j * rng.uniform(-1.5, 1.5, shape))
    signed_zero = rng.random(shape) < 0.2
    response[signed_zero] = np.abs(response[signed_zero])
    response.imag[signed_zero] = -0.0
    return response


class TestPhaseReadBitIdentity:
    """Batched ``phase_at``/``phase_margin`` vs the full-grid unwrap."""

    def test_gathered_phase_matches_full_unwrap(self):
        response = np.vstack([_adversarial_responses(), _wrap_free_responses()])
        idx = np.random.default_rng(5).integers(1, len(GRID), len(response))
        idx[:2] = [1, len(GRID) - 1]
        rows = np.arange(len(response))
        with np.errstate(invalid="ignore"):
            angle = np.angle(response)
            small = np.abs(np.diff(angle, axis=-1)) < np.pi
            full = np.degrees(np.unwrap(angle, axis=-1))
            below, above = _unwrapped_phase_deg(response, idx)
        # Curves that wrap before their column and curves that do not, with
        # -0.0 angles that np.unwrap turns into +0.0, share the batch.
        wraps = np.array([not np.all(small[i, : idx[i]]) for i in rows])
        assert 0 < wraps.sum() < len(rows)
        assert np.any((angle[~wraps, 1:] == 0.0) & np.signbit(angle[~wraps, 1:]))
        _assert_bitwise_equal(below, full[rows, idx - 1])
        _assert_bitwise_equal(above, full[rows, idx])

    def test_phase_at_matches_full_unwrap(self):
        response = _adversarial_responses()
        n = len(GRID)
        rng = np.random.default_rng(1)
        log_f = np.log(GRID)
        query = np.exp(rng.uniform(log_f[0] - 1, log_f[-1] + 1, len(response)))
        query[:4] = [GRID[0], np.sqrt(GRID[0] * GRID[1]), GRID[-1], 2 * GRID[-1]]
        query[4 : 4 + n] = GRID
        with np.errstate(invalid="ignore"):
            got = TransferFunction(GRID, response).phase_at(query)
            want = _reference_phase_at(GRID, response, query)
        _assert_bitwise_equal(got, want)

    def test_phase_margin_matches_full_unwrap(self):
        response = _adversarial_responses(seed=2)
        with np.errstate(invalid="ignore"):
            got = TransferFunction(GRID, response).phase_margin()
            want = _reference_phase_margin(GRID, response)
        assert np.isfinite(want).sum() > 10
        _assert_bitwise_equal(got, want)

    def test_crossings_at_first_and_last_column(self):
        response = _adversarial_responses(random_rows=0)[4:6]
        tf = TransferFunction(GRID, response)
        fu = tf.unity_gain_frequency()
        assert GRID[0] < fu[0] < GRID[1] and GRID[-2] < fu[1] < GRID[-1]
        want = _reference_phase_margin(GRID, response)
        _assert_bitwise_equal(tf.phase_margin(), want)

    def test_any_memory_layout(self):
        response = _adversarial_responses(seed=3)
        spaced = np.repeat(response, 2, axis=-1)[:, ::2]  # strided columns
        want = _reference_phase_margin(GRID, response)
        for layout in (np.asfortranarray(response), spaced):
            with np.errstate(invalid="ignore"):
                got = TransferFunction(GRID, layout).phase_margin()
            _assert_bitwise_equal(got, want)

    def test_empty_batch(self):
        tf = TransferFunction(GRID, np.empty((0, len(GRID)), dtype=complex))
        _assert_bitwise_equal(tf.phase_at(10.0), np.empty(0))
        _assert_bitwise_equal(tf.phase_margin(), np.empty(0))


def _reference_entries(g, c, jw):
    """The complex-product form of ``_system_entries`` (``g + jw * c``)."""
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
            entry = None
            if not c_zero[i, j]:
                entry = jw * column(c, c_same, i, j)
            if not g_zero[i, j]:
                conductance = column(g, g_same, i, j)
                if entry is None:
                    entry = conductance.astype(complex)
                else:
                    entry = conductance + entry
            row.append(entry)
        rows.append(row)
    return rows


class TestSystemEntriesBitIdentity:
    # -5e-324 times a sub-Hz omega underflows to a -0.0 product.
    VALUES = [0.0, -0.0, 1.5, -2.25, 3e-12, -1e-15, -5e-324]

    @pytest.mark.parametrize(
        "frequencies",
        [GRID, np.array([0.0, 1.0, 1e9]), np.array([0.01, 0.05, 1e3])],
        ids=["positive", "zero_hz", "sub_hz"],
    )
    @pytest.mark.parametrize("shared_c", [False, True])
    @pytest.mark.parametrize("shared_g", [False, True])
    def test_matches_complex_product(self, frequencies, shared_c, shared_g):
        rng = np.random.default_rng(3)
        omega = 2.0 * np.pi * frequencies
        for _ in range(40):
            g = rng.choice(self.VALUES, size=(4, 3, 3))
            c = rng.choice(self.VALUES, size=(4, 3, 3))
            if shared_g:
                g[:] = g[:1]
            if shared_c:
                c = np.broadcast_to(c[0], g.shape)
            got = _system_entries(g, c, omega)
            want = _reference_entries(g, c, 1j * omega)
            for got_row, want_row in zip(got, want):
                for entry, reference in zip(got_row, want_row):
                    assert (entry is None) == (reference is None)
                    if entry is not None:
                        assert entry.shape == reference.shape
                        np.testing.assert_array_equal(
                            entry.view(np.int64), reference.view(np.int64)
                        )


class TestPhaseAtSingleCurve:
    def test_array_query_on_one_curve(self):
        f = np.logspace(0, 6, 200)
        tf = TransferFunction(f, 100 / (1 + 1j * f / 1e3))
        got = tf.phase_at(np.array([1e2, 1e3]))
        assert got.shape == (2,)
        want = np.interp(np.log([1e2, 1e3]), np.log(f), tf.phase_deg)
        _assert_bitwise_equal(got, want)
        assert got[1] == pytest.approx(-45.0, abs=0.1)
        assert isinstance(tf.phase_at(1e3), float)


class TestCachedMetrics:
    def _batch(self):
        f = np.logspace(0, 8, 161)
        gain = np.array([[100.0], [300.0]])
        return TransferFunction(f, gain / (1 + 1j * f / 1e3))

    def test_cached_arrays_are_read_only(self):
        tf = self._batch()
        expected = (
            tf.dc_gain().copy(),
            tf.unity_gain_frequency().copy(),
            tf.phase_margin(),
        )
        assert tf.magnitude is tf.magnitude
        for array in (tf.magnitude, tf.dc_gain(), tf.unity_gain_frequency()):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        np.testing.assert_array_equal(tf.dc_gain(), expected[0])
        np.testing.assert_array_equal(tf.unity_gain_frequency(), expected[1])
        np.testing.assert_array_equal(tf.phase_margin(), expected[2])
        np.testing.assert_allclose(tf.dc_gain(), [100.0, 300.0], rtol=1e-6)

    def test_metrics_describe_the_response_at_first_use(self):
        tf = self._batch()
        gain = tf.dc_gain().copy()
        tf.response[:] = 0.0
        np.testing.assert_array_equal(tf.dc_gain(), gain)
