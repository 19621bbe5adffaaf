"""Stacked AC path: stacked solves vs per-sample/per-frequency loops.

:class:`~repro.circuit.ac.ACAnalysis` solves a stack of systems over a
whole frequency grid in one entrywise elimination; a single circuit is a
stack of one.  These tests pin that solve to slow explicit loops on real
amplifier netlists and random stacks — same topology, same operating
points, solved one `(dim, dim)` system at a time — and require
tolerance-tight agreement with LAPACK, and bit-identical rows whatever
the stack's size and chunking.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuit import ac
from repro.circuit.ac import ACAnalysis, TransferFunction, default_frequency_grid
from repro.circuit.mna import MNAAssembler, solve_dc
from repro.circuit.netlist import Circuit
from repro.circuit.tech import C035Technology
from repro.circuit.topologies import NetlistTwoStageOTA
from repro.circuit.topologies.base import DesignSpace
from repro.units import ratio_to_db
from test_ac import _assert_bitwise_equal


@pytest.fixture(scope="module")
def tech():
    return C035Technology()


def _loop_response(g, c, b, frequencies, out_idx):
    """The pre-vectorization reference: one LU per frequency point."""
    response = np.empty(len(frequencies), dtype=complex)
    for k, f in enumerate(frequencies):
        matrix = g + 2j * np.pi * f * c
        response[k] = np.linalg.solve(matrix, b.astype(complex))[out_idx]
    return response


def _build_common_source(tech, vg):
    c = Circuit("cs_amp")
    c.add_voltage_source("VDD", "vdd", "0", 3.3)
    c.add_voltage_source("VG", "g", "0", vg, ac=1.0)
    c.add_resistor("RL", "vdd", "out", 20e3)
    c.add_mosfet("M1", "out", "g", "0", "0", tech.nmos, 40e-6, 1e-6)
    c.add_capacitor("CL", "out", "0", 1e-12)
    return c


def _build_cascode_amp(tech, vg):
    c = Circuit("cascode_amp")
    c.add_voltage_source("VDD", "vdd", "0", 3.3)
    c.add_voltage_source("VG", "g", "0", vg, ac=1.0)
    c.add_voltage_source("VCAS", "gc", "0", 1.1)
    c.add_resistor("RL", "vdd", "out", 60e3)
    c.add_mosfet("M2", "out", "gc", "mid", "0", tech.nmos, 40e-6, 0.7e-6)
    c.add_mosfet("M1", "mid", "g", "0", "0", tech.nmos, 40e-6, 0.7e-6)
    c.add_capacitor("CL", "out", "0", 0.5e-12)
    return c


AMPLIFIERS = {
    "common_source": (_build_common_source, (0.60, 0.62, 0.64, 0.66)),
    "cascode": (_build_cascode_amp, (0.60, 0.63, 0.66)),
}


class TestStackedTransferEquivalence:
    """A stack of one (stacked grid solve) vs the frequency loop."""

    @pytest.mark.parametrize("name", sorted(AMPLIFIERS))
    def test_single_system_matches_frequency_loop(self, tech, name):
        build, biases = AMPLIFIERS[name]
        circuit = build(tech, biases[0])
        dc = solve_dc(circuit)
        analysis = ACAnalysis.from_circuit(circuit, [dc.op])
        grid = np.logspace(2, 10, 97)
        tf = analysis.transfer("out", frequencies=grid)

        assembler = MNAAssembler(circuit)
        g, c, b = assembler.ac_system([dc.op])
        reference = _loop_response(g[0], c[0], b, grid, assembler.nodemap["out"])
        np.testing.assert_allclose(tf.response[0], reference, rtol=1e-11, atol=0.0)


class TestBatchACAnalysisEquivalence:
    """A stack of operating points vs each one solved as a stack of one."""

    @pytest.mark.parametrize("name", sorted(AMPLIFIERS))
    def test_batch_matches_per_sample_analyses(self, tech, name):
        build, biases = AMPLIFIERS[name]
        # One operating point per bias: same topology, different stamps —
        # exactly the Monte-Carlo shape (samples share the node map).
        circuits = [build(tech, vg) for vg in biases]
        solutions = [solve_dc(c) for c in circuits]
        grid = np.logspace(2, 10, 73)

        batch = ACAnalysis.from_circuit(circuits[0], [dc.op for dc in solutions])
        assert batch.n_samples == len(biases)
        tf_batch = batch.transfer("out", frequencies=grid)
        assert tf_batch.response.shape == (len(biases), len(grid))

        # Both sides run the one stacked solve and metric read, so every
        # row and every derived metric agrees bit for bit.
        for s, (circuit, dc) in enumerate(zip(circuits, solutions)):
            tf_one = ACAnalysis.from_circuit(circuit, [dc.op]).transfer(
                "out", frequencies=grid
            )
            _assert_bitwise_equal(tf_batch.response[s], tf_one.response[0])
            for metric in ("dc_gain", "unity_gain_frequency", "phase_margin"):
                got = getattr(tf_batch, metric)()[s]
                _assert_bitwise_equal(got, getattr(tf_one, metric)()[0])

    def test_solve_at_matches_loop(self, tech):
        build, biases = AMPLIFIERS["common_source"]
        circuits = [build(tech, vg) for vg in biases]
        solutions = [solve_dc(c) for c in circuits]
        batch = ACAnalysis.from_circuit(circuits[0], [dc.op for dc in solutions])
        stacked = batch.solve_at(1e6)
        for s, (circuit, dc) in enumerate(zip(circuits, solutions)):
            one = ACAnalysis.from_circuit(circuit, [dc.op]).solve_at(1e6)
            np.testing.assert_allclose(stacked[s], one[0], rtol=1e-11, atol=0.0)


#: Agreement of the entrywise elimination with the LAPACK loop, fixed from
#: float64 before measuring (the largest deviation on these stacks is ~1e-15).
ENTRYWISE_RTOL = 1e-12

GRID = np.logspace(2, 11, 46)


def _lapack_loop(g, c, b, frequencies, out_idx, neg_idx=None):
    """Reference: one LAPACK solve per (sample, frequency) system."""
    c = np.broadcast_to(c, g.shape)
    response = np.array([_loop_response(gs, cs, b, frequencies, out_idx) for gs, cs in zip(g, c)])
    if neg_idx is not None:
        response -= np.array(
            [_loop_response(gs, cs, b, frequencies, neg_idx) for gs, cs in zip(g, c)]
        )
    return response


def _permuted_stack(seed, n_samples=6, dim=5):
    """Well-conditioned systems whose partial-pivot rows differ by sample.

    Each sample is a row permutation of ``G`` and ``C`` with a dominant
    diagonal, a moderate superdiagonal and a 1e-17 subdiagonal, so the
    largest entry of a column sits in a different row from one sample to
    the next, and the other rows hold an exact zero or a pivot too small
    to eliminate with.
    """
    rng = np.random.default_rng(seed)

    def dominant():
        return (
            np.diag(rng.uniform(2.0, 3.0, dim))
            + np.diag(rng.uniform(-0.5, 0.5, dim - 1), 1)
            + np.diag(1e-17 * rng.uniform(0.5, 1.0, dim - 1), -1)
        )

    g, c = np.empty((2, n_samples, dim, dim))
    for s in range(n_samples):
        perm = rng.permutation(dim)
        g[s] = dominant()[perm]
        c[s] = 1e-9 * dominant()[perm]
    return g, c, rng.normal(size=dim)


def _stamped_stack(build, values):
    """Per-sample (G, C) of one linear netlist topology, and its node map."""
    assemblers = [MNAAssembler(build(*v)) for v in values]
    g, c, b = zip(*(assembler.ac_system([{}]) for assembler in assemblers))
    return np.concatenate(g), np.concatenate(c), b[0], assemblers[0].nodemap


def _driven_rc(r, c_in, c_out):
    # The source's branch row has a zero diagonal: it must swap.
    c = Circuit("rc_driven")
    c.add_voltage_source("Vin", "in", "0", 0.0, ac=1.0)
    c.add_capacitor("Cin", "in", "0", c_in)
    c.add_resistor("R1", "in", "out", r)
    c.add_capacitor("Cout", "out", "0", c_out)
    c.add_vccs("G1", "out", "0", "in", "0", 1e-4)
    return c


def _bridge(r1, r2, c1, c2):
    c = Circuit("bridge")
    c.add_voltage_source("Vin", "in", "0", 0.0, ac=1.0)
    c.add_resistor("R1", "in", "a", r1)
    c.add_capacitor("C1", "a", "0", c1)
    c.add_capacitor("C2", "in", "b", c2)
    c.add_resistor("R2", "b", "0", r2)
    return c


def _divider(r1, r2, cap):
    # Node m touches no capacitor: its response is flat in frequency.
    c = Circuit("divider")
    c.add_voltage_source("Vin", "in", "0", 0.0, ac=1.0)
    c.add_resistor("R1", "in", "m", r1)
    c.add_resistor("R2", "m", "0", r2)
    c.add_resistor("R3", "in", "o", 1e3)
    c.add_capacitor("C1", "o", "0", cap)
    return c


_DRIVEN_RC = [(1e3, 1e-12, 2e-12), (2e3, 3e-12, 1e-12), (5e2, 1e-13, 5e-12)]

#: case -> (netlist builder, per-sample element values, output, output_neg)
LINEAR_NETLISTS = {
    "capacitive_node_behind_a_source": (_driven_rc, _DRIVEN_RC, "out", None),
    "node_driven_by_a_source": (_driven_rc, _DRIVEN_RC, "in", None),
    "output_neg_pair": (_bridge, [(1e3, 2e3, 1e-9, 2e-9), (3e3, 1e3, 5e-10, 1e-9)], "a", "b"),
    "capacitance_free_unknown": (
        _divider, [(1e3, 3e3, 1e-9), (2e3, 2e3, 2e-9), (4e3, 1e3, 1e-10)], "m", None
    ),
}


class TestEntrywiseElimination:
    """The entrywise elimination vs one LAPACK solve per system."""

    def _batch(self, g, c, b):
        return ACAnalysis(g, c, b, {f"n{i}": i for i in range(g.shape[-1])})

    def test_pivot_rows_differ_between_samples(self):
        g, c, b = _permuted_stack(seed=21)
        pivot_rows = {int(np.argmax(np.abs(gs[:, 0]))) for gs in g}
        assert len(pivot_rows) > 1
        tf = self._batch(g, c, b).transfer("n3", frequencies=GRID)
        np.testing.assert_allclose(
            tf.response, _lapack_loop(g, c, b, GRID, 3), rtol=ENTRYWISE_RTOL, atol=0.0
        )

    def test_pivot_rows_differ_between_frequencies(self):
        topo = NetlistTwoStageOTA(C035Technology())
        X = topo.design_space().sample(5, np.random.default_rng(22))
        samples = topo.variation.sample(5, np.random.default_rng(23))
        analysis = topo.ac_analysis(topo.small_signal_values(X, samples))
        g, c, b, nodemap = analysis._g, analysis._c, analysis._b, analysis._nodemap
        # Column x1 of rows x1 and out: gm2 wins at low frequency, the
        # x1-node capacitance at high frequency.
        x1, out = nodemap["x1"], nodemap["out"]
        w = 2.0 * np.pi * topo.frequency_grid
        own = np.abs(g[:, x1, x1, None]) + w * np.abs(c[:, x1, x1, None])
        other = np.abs(g[:, out, x1, None]) + w * np.abs(c[:, out, x1, None])
        assert np.any(own > other) and np.any(own < other)
        tf = analysis.transfer("out", frequencies=topo.frequency_grid)
        reference = _lapack_loop(g, c, b, topo.frequency_grid, out)
        np.testing.assert_allclose(tf.response, reference, rtol=ENTRYWISE_RTOL, atol=0.0)

    def test_per_sample_and_shared_capacitance(self):
        g, c, b = _permuted_stack(seed=24)
        for cap in (c, c[0]):
            tf = self._batch(g, cap, b).transfer("n1", frequencies=GRID)
            reference = _lapack_loop(g, cap, b, GRID, 1)
            np.testing.assert_allclose(tf.response, reference, rtol=ENTRYWISE_RTOL, atol=0.0)

    @pytest.mark.parametrize("case", sorted(LINEAR_NETLISTS))
    def test_linear_netlists(self, case):
        build, values, output, output_neg = LINEAR_NETLISTS[case]
        g, c, b, nodemap = _stamped_stack(build, values)
        tf = ACAnalysis(g, c, b, nodemap).transfer(output, output_neg, GRID)
        assert tf.response.shape == (len(values), len(GRID))
        neg_idx = None if output_neg is None else nodemap[output_neg]
        reference = _lapack_loop(g, c, b, GRID, nodemap[output], neg_idx)
        np.testing.assert_allclose(tf.response, reference, rtol=ENTRYWISE_RTOL, atol=0.0)

    @pytest.mark.parametrize("singular", ["zero_row_in_one_sample", "unknown_in_no_equation"])
    def test_singular_system_raises_without_warning(self, singular):
        g, c, b = _permuted_stack(seed=25, n_samples=3)
        if singular == "zero_row_in_one_sample":
            g[1, 2] = c[1, 2] = 0.0
        else:
            g[:, :, 4] = c[:, :, 4] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            _lapack_loop(g, c, b, GRID[:1], 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                self._batch(g, c, b).transfer("n0", frequencies=GRID)


def _stack(rng, dim, n_samples, shared_c=False):
    """``G``, ``C`` and ``b`` of systems that share their structural zeros.

    ``G``'s pattern holds a permutation, so every system is structurally
    nonsingular.  Magnitudes spread over two decades with random signs, so
    partial pivoting picks different rows in different samples.  ``C``,
    shared or per sample, crosses ``G`` at 10 kHz.
    """
    g_mask = rng.random((dim, dim)) < rng.uniform(0.2, 1.0)
    g_mask[np.arange(dim), rng.permutation(dim)] = True
    c_mask = rng.random((dim, dim)) < rng.uniform(0.0, 1.0)

    def stamped(mask, samples, scale):
        shape = (samples, dim, dim)
        magnitude = scale * 10.0 ** rng.uniform(-1.0, 1.0, shape)
        return np.where(mask, magnitude * rng.choice([-1.0, 1.0], shape), 0.0)

    g = stamped(g_mask, n_samples, 1.0)
    c = stamped(c_mask, 1 if shared_c else n_samples, 1.0 / (2.0 * np.pi * 1e4))
    b = np.where(rng.random(dim) < 0.6, rng.normal(size=dim), 0.0)
    b[rng.integers(dim)] = 1.0
    return g, c[0] if shared_c else c, b


@st.composite
def _random_stacks(draw):
    """A nonsingular stack (see :func:`_stack`) on a grid that starts at
    0 Hz, with the output node (or node pair) and a smaller chunk."""
    dim = draw(st.integers(2, 5))
    n_samples = draw(st.integers(1, 130))
    n_freq = draw(st.integers(1, 6))
    shared_c = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, c, b = _stack(rng, dim, n_samples, shared_c)
    grid = np.concatenate([[0.0], np.sort(10.0 ** rng.uniform(2.0, 6.0, n_freq - 1))])
    out = draw(st.integers(0, dim - 1))
    neg = draw(st.sampled_from([None, *range(dim)]).filter(lambda i: i != out))
    chunk = draw(st.integers(1, n_samples))
    return g, c, b, grid, out, neg, chunk


class TestStackedSolveProperty:
    """Every row of the one stacked solve, whatever the stack around it."""

    @settings(max_examples=60, deadline=None)
    @given(_random_stacks())
    def test_rows_match_stack_of_one_chunks_and_lapack(self, case):
        g, c, b, grid, out, neg, chunk = case
        c_full = np.broadcast_to(c, g.shape)
        matrices = g[:, None] + 2j * np.pi * grid[:, None, None] * c_full[:, None]
        assume(np.linalg.cond(matrices).max() < 1e4)
        dim = g.shape[-1]
        nodemap = {f"n{i}": i for i in range(dim)}
        output = (f"n{out}", None if neg is None else f"n{neg}")

        def response(g, c, budget=ac._SOLVE_ENTRY_BUDGET):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ac, "_SOLVE_ENTRY_BUDGET", budget)
                return ACAnalysis(g, c, b, nodemap).transfer(*output, grid).response

        stacked = response(g, c)
        _assert_bitwise_equal(response(g, c, chunk * len(grid) * dim * dim), stacked)
        for s in range(len(g)):
            one = response(g[s : s + 1], c if c.ndim == 2 else c[s : s + 1])
            _assert_bitwise_equal(one[0], stacked[s])

        # One LAPACK solve per (sample, frequency) system; the error is
        # relative to each solution's largest component.
        x = np.linalg.solve(matrices, b[:, None])[..., 0]
        want = x[..., out] - (0.0 if neg is None else x[..., neg])
        assert np.all(np.abs(stacked - want) <= 1e-12 * np.abs(x).max(axis=-1))


@st.composite
def _metric_stacks(draw):
    """Stacks whose curves sit anywhere around ``|H| = 1``, on a positive grid.

    Each system of a :func:`_stack` is scaled as a whole by a factor over
    six decades, so that its curve may stay above 1 (never cross), start
    below 1, or cross anywhere, at column 1 and at the last column included.
    Some systems may be all ``nan``; their curves are ``nan`` throughout.
    Also drawn: the rows of a chunk and the margin of the bounded solve.
    """
    dim = draw(st.integers(1, 4))
    n_samples = draw(st.integers(1, 40))
    n_freq = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g, c, b = _stack(rng, dim, n_samples)
    level = 10.0 ** rng.uniform(-3.0, 3.0, (n_samples, 1, 1))
    g, c = level * g, level * c
    g[rng.random(n_samples) < draw(st.sampled_from([0.0, 0.1]))] = np.nan
    grid = np.sort(10.0 ** rng.uniform(2.0, 6.0, n_freq))
    out = draw(st.integers(0, dim - 1))
    neg = draw(st.sampled_from([None, *range(dim)]).filter(lambda i: i != out))
    chunk, margin = draw(st.integers(1, n_samples)), draw(st.integers(0, 4))
    return g, c, b, grid, out, neg, chunk, margin


def _metrics(tf):
    return tf.dc_gain(), tf.unity_gain_frequency(), tf.phase_margin()


class TestLoopMetrics:
    """``loop_metrics`` solves only the grid points the three metrics read,
    and equals the full-grid ``transfer()`` metrics bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(_metric_stacks())
    def test_equal_to_transfer_metrics(self, case):
        g, c, b, grid, out, neg, chunk, margin = case
        finite = ~np.isnan(g).any(axis=(1, 2))
        if finite.any():
            jwc = 2j * np.pi * grid[:, None, None] * c[finite, None]
            matrices = g[finite, None] + jwc
            assume(np.linalg.cond(matrices).max() < 1e4)
        dim = g.shape[-1]
        analysis = ACAnalysis(g, c, b, {f"n{i}": i for i in range(dim)})
        output = (f"n{out}", None if neg is None else f"n{neg}")
        with np.errstate(invalid="ignore", over="ignore"):
            want = _metrics(analysis.transfer(*output, grid))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ac, "_SOLVE_ENTRY_BUDGET", chunk * len(grid) * dim * dim)
                patch.setattr(ac, "_CROSSING_MARGIN", margin)
                got = analysis.loop_metrics(*output, grid)
        for got_metric, want_metric in zip(got, want):
            _assert_bitwise_equal(got_metric, want_metric)

    def test_last_point_of_a_bounded_curve_is_solved(self, monkeypatch):
        # A band-stop response (a high-pass node minus a low-pass node, at
        # 2 V) dips below 1 mid-grid and ends at 2: its metrics read its
        # last point, whose |H| >= 1 leaves it without a unity crossing.
        def band_stop(ca, cb):
            c = Circuit("band_stop")
            c.add_voltage_source("Vin", "in", "0", 0.0, ac=2.0)
            c.add_capacitor("Ca", "in", "a", ca)
            c.add_resistor("Ra", "a", "0", 1e3)
            c.add_resistor("Rb", "in", "b", 1e3)
            c.add_capacitor("Cb", "b", "0", cb)
            return c

        grid = np.logspace(0, 8, 41)
        g, c, b, nodemap = _stamped_stack(band_stop, [(1e-9, 1e-6), (1.1e-9, 1e-6)])
        analysis = ACAnalysis(g, c, b, nodemap)
        monkeypatch.setattr(ac, "_SOLVE_ENTRY_BUDGET", len(grid) * g.shape[-1] ** 2)
        with np.errstate(invalid="ignore"):
            want = _metrics(analysis.transfer("a", "b", grid))
            got = analysis.loop_metrics("a", "b", grid)
        for got_metric, want_metric in zip(got, want):
            _assert_bitwise_equal(got_metric, want_metric)
        full = analysis.transfer("a", "b", grid).magnitude
        assert np.all(full[:, 0] >= 1.0) and np.all(full[:, -1] >= 1.0)
        assert np.all(full.min(axis=-1) < 1.0) and np.all(np.isnan(got[1]))

    def test_system_singular_past_its_crossing(self, monkeypatch):
        # Two systems of one low-pass block (a unity crossing at column 12)
        # beside a block whose pivot is exactly zero at column 20 in the
        # second system: g_w + (w c)^2 with g_w = -(w* c)^2.  The output
        # does not depend on that block, but a solve through column 20
        # meets its zero pivot.
        grid = np.logspace(0, 6, 25)
        w_star = 2.0 * np.pi * grid[20]
        g, c = np.zeros((2, 2, 3, 3))
        g[:, 0, 0], c[:, 0, 0] = 0.1, 1.0 / (2.0 * np.pi * 1e3)
        g[:, 1, 1], c[:, 1, 2], c[:, 2, 1] = 1.0, 1e-8, 1e-8
        g[:, 2, 2] = 1.0, -((w_star * 1e-8) * (w_star * 1e-8))
        nodemap = {"n0": 0, "n1": 1, "n2": 2}
        analysis = ACAnalysis(g, c, np.array([1.0, 0.0, 0.0]), nodemap)
        with pytest.raises(np.linalg.LinAlgError):
            analysis.transfer("n0", frequencies=grid)
        with pytest.raises(np.linalg.LinAlgError):  # one chunk: the whole grid
            analysis.loop_metrics("n0", frequencies=grid)
        # One system a chunk: the second solves only its leading points.
        monkeypatch.setattr(ac, "_SOLVE_ENTRY_BUDGET", len(grid) * 9)
        got = analysis.loop_metrics("n0", frequencies=grid)
        first = ACAnalysis(g[:1], c[:1], analysis._b, nodemap)
        regular = first.transfer("n0", frequencies=grid)
        assert 11 < np.searchsorted(grid, regular.unity_gain_frequency()[0]) < 20
        for got_metric, want_metric in zip(got, _metrics(regular)):
            _assert_bitwise_equal(got_metric, np.repeat(want_metric, 2))


class TestNetlistOTABatchedEvaluation:
    """The netlist-backed topology vs a scalar per-sample rebuild."""

    X = np.array([80e-6, 200e-6, 0.35, 0.15, 2.0e-12])

    def _reference_rows(self, topo, x, samples):
        """Scalar path: rebuild each sample's netlist, solve it alone."""
        values = topo.small_signal_values(x, samples)
        rows = []
        for s in range(len(samples)):
            c = Circuit("ref")
            c.add_voltage_source("Vin", "in", "0", 0.0, ac=1.0)
            c.add_vccs("G1", "x1", "0", "in", "0", values["gm1"][s])
            c.add_resistor("R1", "x1", "0", 1.0 / values["go1"][s])
            c.add_capacitor("C1", "x1", "0", 0.15e-12)
            c.add_capacitor("CC", "x1", "out", float(x[4]))
            c.add_vccs("G2", "out", "0", "x1", "0", values["gm2"][s])
            c.add_resistor("R2", "out", "0", 1.0 / values["go2"][s])
            c.add_capacitor("CL", "out", "0", 3.0e-12)
            analysis = ACAnalysis.from_circuit(c, [solve_dc(c).op])
            tf = analysis.transfer("out", frequencies=topo.frequency_grid)
            rows.append(
                [
                    ratio_to_db(max(tf.dc_gain()[0], 1e-12)),
                    np.nan_to_num(tf.unity_gain_frequency()[0], nan=0.0),
                    np.nan_to_num(tf.phase_margin()[0], nan=0.0),
                    values["power"][s],
                ]
            )
        return np.asarray(rows)

    def test_evaluate_matches_scalar_rebuild(self):
        topo = NetlistTwoStageOTA(C035Technology())
        samples = topo.variation.sample(12, np.random.default_rng(42))
        batched = topo.evaluate(self.X, samples)
        reference = self._reference_rows(topo, self.X, samples)
        assert np.all(np.isfinite(batched))
        np.testing.assert_allclose(batched, reference, rtol=1e-8, atol=1e-12)

    def test_rows_independent_of_block_partition(self):
        # The engine contract: any partition of the sample rows must
        # reproduce the full-batch rows bit-for-bit.
        topo = NetlistTwoStageOTA(C035Technology())
        samples = topo.variation.sample(33, np.random.default_rng(9))
        full = topo.evaluate(self.X, samples)
        parts = np.vstack(
            [
                topo.evaluate(self.X, samples[:10]),
                topo.evaluate(self.X, samples[10:11]),
                topo.evaluate(self.X, samples[11:]),
            ]
        )
        np.testing.assert_array_equal(full, parts)

    def _fused_rows(self, topo, designs=4, per_design=12):
        rng = np.random.default_rng(13)
        X = np.repeat(topo.design_space().sample(designs, rng), per_design, axis=0)
        return X, topo.variation.sample(len(X), rng)

    def test_rows_independent_of_solve_budget(self, monkeypatch):
        topo = NetlistTwoStageOTA(C035Technology())
        X, samples = self._fused_rows(topo)
        outputs = []
        for budget in (10_000_000, 50_000):  # one chunk; chunks of 10 rows
            monkeypatch.setattr(ac, "_SOLVE_ENTRY_BUDGET", budget)
            outputs.append(topo.evaluate_pairs(X, samples))
        one_chunk, chunked = (out.view(np.int64) for out in outputs)
        np.testing.assert_array_equal(one_chunk, chunked)

    def test_bounded_metrics_equal_the_full_grid_ones(self, monkeypatch):
        # Several row chunks of full-space designs and of designs clustered
        # in a +-0.5 % box: the later chunks stop a few points past the
        # crossings seen so far.
        topo = NetlistTwoStageOTA(C035Technology())
        space = topo.design_space()
        rng = np.random.default_rng(17)
        half = 0.005 * (space.upper - space.lower)
        center = space.sample(1, rng)[0]
        box = DesignSpace(
            space.names,
            np.maximum(center - half, space.lower),
            np.minimum(center + half, space.upper),
        )
        X = np.repeat(np.vstack([space.sample(3, rng), box.sample(3, rng)]), 50, axis=0)
        samples = topo.variation.sample(len(X), rng)
        analysis = topo.ac_analysis(topo.small_signal_values(X, samples))
        grid = topo.frequency_grid
        want = _metrics(analysis.transfer("out", frequencies=grid))
        solved, absolute = [0], [0]
        solve, magnitude = ac._solve_into, np.abs

        def counted_solve(out, *args):
            solved[0] += out.size
            return solve(out, *args)

        def counted_abs(x, *args, **kwargs):
            absolute[0] += np.size(x) if np.iscomplexobj(x) else 0
            return magnitude(x, *args, **kwargs)

        monkeypatch.setattr(ac, "_solve_into", counted_solve)
        monkeypatch.setattr(ac.np, "abs", counted_abs)
        got = analysis.loop_metrics("out", frequencies=grid)
        monkeypatch.undo()
        for got_metric, want_metric in zip(got, want):
            _assert_bitwise_equal(got_metric, want_metric)
        assert solved[0] < 0.95 * X.shape[0] * len(grid)
        # The metrics read the |H| that the crossing search took: one pass
        # over each chunk, plus the points solved after it.
        assert absolute[0] < 1.05 * X.shape[0] * len(grid)

    def test_one_call_reads_each_full_grid_metric_once(self, monkeypatch):
        topo = NetlistTwoStageOTA(C035Technology())
        X, samples = self._fused_rows(topo)
        n_freq = len(topo.frequency_grid)
        calls = {"crossing": 0, "full_grid_unwrap": 0, "complex_abs": 0}
        crossing, absolute, unwrap = ac._unity_gain_frequency, np.abs, np.unwrap

        def counted_crossing(*args):
            calls["crossing"] += 1
            return crossing(*args)

        def counted_abs(x, *args, **kwargs):
            calls["complex_abs"] += np.iscomplexobj(x)
            return absolute(x, *args, **kwargs)

        def counted_unwrap(p, *args, **kwargs):
            calls["full_grid_unwrap"] += np.shape(p)[-1] == n_freq
            return unwrap(p, *args, **kwargs)

        monkeypatch.setattr(ac, "_unity_gain_frequency", counted_crossing)
        monkeypatch.setattr(ac.np, "abs", counted_abs)
        monkeypatch.setattr(ac.np, "unwrap", counted_unwrap)
        out = topo.evaluate_pairs(X, samples)
        assert np.all(np.isfinite(out))
        assert calls == {"crossing": 1, "full_grid_unwrap": 0, "complex_abs": 1}


class TestDefaultFrequencyGrid:
    def test_cached_and_read_only(self):
        grid = default_frequency_grid()
        assert grid is default_frequency_grid()  # no per-call allocation
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0] = 2.0

    def test_transfer_defaults_to_shared_grid(self, tech):
        circuit = _build_common_source(tech, 0.62)
        tf = ACAnalysis.from_circuit(circuit, [solve_dc(circuit).op]).transfer("out")
        assert tf.frequencies is default_frequency_grid()


class TestPhaseAtGuard:
    def test_rejects_nonpositive_grid_start(self):
        freqs = np.array([0.0, 1.0, 10.0])
        tf = TransferFunction(freqs, np.ones(3, dtype=complex))
        with pytest.raises(ValueError, match="positive"):
            tf.phase_at(1.0)

    def test_rejects_nonpositive_query(self):
        freqs = np.logspace(0, 3, 10)
        tf = TransferFunction(freqs, np.ones(10, dtype=complex))
        with pytest.raises(ValueError, match="positive"):
            tf.phase_at(0.0)
        with pytest.raises(ValueError, match="positive"):
            tf.phase_at(-5.0)


class TestDesignSpaceContains:
    def test_accepts_row_matrices_like_clip(self):
        space = DesignSpace(["a", "b"], [0.0, 0.0], [1.0, 2.0])
        x = np.array([[0.5, 1.0], [1.5, 1.0], [1.0, 2.0], [0.0, -0.1]])
        inside = space.contains(x)
        np.testing.assert_array_equal(inside, [True, False, True, False])
        # Vector input keeps returning a plain bool.
        assert space.contains(np.array([0.5, 0.5])) is True
        assert space.contains(np.array([2.0, 0.5])) is False

    def test_rejects_wrong_width(self):
        space = DesignSpace(["a", "b"], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="expected shape"):
            space.contains(np.zeros((3, 3)))
