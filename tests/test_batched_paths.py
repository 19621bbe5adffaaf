"""Bit-equality of the batched hot paths with the per-design code they replace.

Each vectorized path must reproduce, element for element
(``np.array_equal``, never a tolerance), what the one-call-per-design or
one-call-per-column code computes on the same host.  These checks hold on
any platform, unlike the pinned identity hashes of ``test_goldens.py``.
"""

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from repro.baselines import pswcd_analysis
from repro.circuit.topologies.base import DesignSpace
from repro.ledger import SimulationLedger
from repro.ocba.ranking import approximate_pcs
from repro.problems import make_problem
from repro.problems.base import SLAB_ROWS, YieldProblem
from repro.problems.synthetic import SyntheticEvaluator
from repro.process.parameters import ParameterGroup, StatisticalParameter, _ndtri
from repro.sampling.acceptance import LinearMarginScreener
from repro.sampling.lhs import latin_hypercube_uniforms
from repro.specs import Spec, SpecSet

PAPER_CIRCUITS = ["folded_cascode", "telescopic"]
#: Every circuit problem: each evaluates through ``evaluate_pairs``.
CIRCUITS = PAPER_CIRCUITS + ["netlist_ota"]


@pytest.fixture(scope="module", params=PAPER_CIRCUITS)
def circuit(request):
    return make_problem(request.param)


@pytest.fixture(scope="module", params=CIRCUITS)
def any_circuit(request):
    return make_problem(request.param)


def _designs(problem, n, seed=0):
    """Random designs plus the box's lower and upper corners."""
    space = problem.space
    designs = space.sample(n, np.random.default_rng(seed))
    return np.vstack([designs, space.lower, space.upper])


def _row_by_row(evaluator, X, samples):
    return np.vstack([evaluator.evaluate(x, s[None, :]) for x, s in zip(X, samples)])


class TestEvaluatePairs:
    def test_random_designs_and_corners(self, any_circuit):
        X = _designs(any_circuit, 40)
        samples = any_circuit.variation.sample(len(X), np.random.default_rng(1))
        pairs = any_circuit.evaluator.evaluate_pairs(X, samples)
        assert np.array_equal(pairs, _row_by_row(any_circuit.evaluator, X, samples))

    def test_single_row(self, any_circuit):
        X = _designs(any_circuit, 1)[:1]
        samples = any_circuit.variation.sample(1, np.random.default_rng(2))
        assert np.array_equal(
            any_circuit.evaluator.evaluate_pairs(X, samples),
            any_circuit.evaluator.evaluate(X[0], samples),
        )

    def test_one_design_broadcasts_over_samples(self, any_circuit):
        """``evaluate`` is the one-row case, equal to the repeated design."""
        x = _designs(any_circuit, 1)[0]
        samples = any_circuit.variation.sample(50, np.random.default_rng(3))
        repeated = any_circuit.evaluator.evaluate_pairs(np.tile(x, (50, 1)), samples)
        assert np.array_equal(any_circuit.evaluator.evaluate(x, samples), repeated)
        row_by_row = _row_by_row(any_circuit.evaluator, [x] * 50, samples)
        assert np.array_equal(row_by_row, repeated)

    def test_more_rows_than_one_slab(self, any_circuit):
        """Fused-round shape through the problem: design blocks over slabs."""
        X = _designs(any_circuit, 3, seed=4)
        n = SLAB_ROWS // 2 + 7  # five blocks -> three slabs, blocks straddle slabs
        samples = any_circuit.variation.sample(n * len(X), np.random.default_rng(5))
        ledger = SimulationLedger()
        pairs = any_circuit.evaluate_pairs(np.repeat(X, n, axis=0), samples, ledger)
        assert ledger.total == n * len(X)
        per_design = np.vstack(
            [
                any_circuit.evaluator.evaluate(x, samples[i * n : (i + 1) * n])
                for i, x in enumerate(X)
            ]
        )
        assert np.array_equal(pairs, per_design)

    def test_misaligned_rows_rejected(self, any_circuit):
        X = _designs(any_circuit, 2)
        samples = any_circuit.variation.sample(3, np.random.default_rng(6))
        with pytest.raises(ValueError, match="align"):
            any_circuit.evaluator.evaluate_pairs(X, samples)


class TestEvaluateBatch:
    # The paper circuits' 6 x 682 pairs span two slabs; the netlist OTA's
    # 6 x 40 pairs fit in one.
    @pytest.mark.parametrize(
        "name,n",
        [(name, SLAB_ROWS // 3) for name in PAPER_CIRCUITS] + [("netlist_ota", 40)],
    )
    def test_matches_per_design_evaluate(self, name, n):
        problem = make_problem(name)
        X = _designs(problem, 4, seed=7)
        samples = problem.variation.sample(n, np.random.default_rng(8))
        ledger = SimulationLedger()
        pairs = (np.repeat(X, n, axis=0), np.tile(samples, (len(X), 1)))
        batch = problem.evaluate_pairs(*pairs, ledger).reshape(len(X), n, -1)
        assert batch.shape == (len(X), len(samples), len(problem.specs))
        assert ledger.total == len(X) * len(samples)
        for x, block in zip(X, batch):
            assert np.array_equal(block, problem.evaluator.evaluate(x, samples))


class TestFeasibilityGate:
    @pytest.mark.parametrize("name", CIRCUITS)
    def test_batch_matches_scalar_checks(self, name):
        problem = make_problem(name)
        X = _designs(problem, 30, seed=9)
        batch_ledger, scalar_ledger = SimulationLedger(), SimulationLedger()
        feasible, violation = problem.nominal_feasibility_batch(X, batch_ledger)
        scalar = [problem.nominal_feasibility(x, scalar_ledger) for x in X]
        assert np.array_equal(feasible, [ok for ok, _ in scalar])
        assert np.array_equal(violation, [v for _, v in scalar])
        assert batch_ledger.to_dict() == scalar_ledger.to_dict()


def _gaussian_group():
    """Columns at inter-die and mismatch scales, one of them ``sigma = 0``."""
    return ParameterGroup(
        [
            StatisticalParameter("n0", 1.0, 0.02),
            StatisticalParameter("n1", -3e-9, 4e-9),
            StatisticalParameter("n2", 0.0, 0.0),
            StatisticalParameter("n3"),
        ]
    )


def _assert_matches_per_column_ppf(group, u):
    """``from_uniform(u)`` is int64-equal to each column's own
    ``mu + sigma * _ndtri(u)`` and leaves ``u`` as it was."""
    before = u.copy()
    out = group.from_uniform(u)
    per_column = np.column_stack(
        [param.mu + param.sigma * _ndtri(before[:, j]) for j, param in enumerate(group)]
    )
    assert np.array_equal(u.view(np.int64), before.view(np.int64))
    assert np.array_equal(out.view(np.int64), per_column.view(np.int64))


class TestSample:
    def test_circuit_variation_matches_per_column_draws(self, circuit):
        """One ``rng.normal(mu_j, sigma_j, size=n)`` per column, in column
        order: the stream every seeded PMC draw and reference yield reads."""
        group = circuit.variation.full_group
        drawn = group.sample(257, np.random.default_rng(14))
        rng = np.random.default_rng(14)
        per_column = np.column_stack(
            [rng.normal(param.mu, param.sigma, size=257) for param in group]
        )
        assert np.array_equal(drawn.view(np.int64), per_column.view(np.int64))


class TestFromUniform:
    def test_gaussian_columns_match_per_column_ppf(self):
        group = _gaussian_group()
        u = np.random.default_rng(10).uniform(size=(300, len(group)))
        u[:3] = [[0.0] * len(group), [1.0] * len(group), [0.5] * len(group)]
        _assert_matches_per_column_ppf(group, u)

    def test_circuit_variation_matches_per_column_ppf(self, circuit):
        group = circuit.variation.full_group
        for rows in (1, 64):
            u = np.random.default_rng(12).uniform(size=(rows, len(group)))
            _assert_matches_per_column_ppf(group, u)

    def test_ndtri_matches_scipy_norm_ppf(self):
        u = np.concatenate(
            [
                np.random.default_rng(13).uniform(size=1000),
                [0.0, 1e-300, 1e-12, 0.5, 1.0 - 1e-12, 1.0 - 1e-16, 1.0],
            ]
        )
        clipped = np.clip(u, 1e-12, 1.0 - 1e-12)
        assert np.array_equal(_ndtri(u), stats.norm.ppf(clipped))


#: Standard-normal arguments at the edges of ``ndtr``: signed zeros,
#: subnormals, the tails out to 40 sigma, the largest finite magnitudes and
#: the infinities.
Z_EDGES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2e-310, -2e-310, 1e-300, -1e-300]
    + [s * z for z in (1e-8, 0.5, 1.0, 8.3, 26.5, 37.5, 38.5, 40.0) for s in (1, -1)]
    + [1e308, -1e308, np.inf, -np.inf]
)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.int64)


class TestNormalCdf:
    """``scipy.special.ndtr`` equals the ``scipy.stats.norm.cdf`` it
    replaced, bit for bit, in each of its three callers."""

    def test_ndtr_matches_norm_cdf(self):
        rng = np.random.default_rng(14)
        z = np.concatenate(
            [Z_EDGES] + [scale * rng.standard_normal(2000) for scale in (0.1, 1, 8, 40)]
        )
        assert np.array_equal(_bits(ndtr(z)), _bits(stats.norm.cdf(z)))

    def test_approximate_pcs(self):
        # One rival at unit scale: the miss probability is Phi(-|z|).
        for z in Z_EDGES:
            pcs = approximate_pcs(
                np.array([abs(z), 0.0]), np.array([1.0, 0.0]), np.array([1, 1])
            )
            expected = max(0.0, 1.0 - float(stats.norm.cdf(-abs(z))))
            assert _bits(pcs) == _bits(expected), z

    def test_synthetic_analytic_yield(self):
        space = DesignSpace(["x0"], np.zeros(1), np.ones(1))
        evaluator = SyntheticEvaluator([lambda X: X[:, 0]], [1.0], space, ["m"])
        specs = SpecSet([Spec("m", ">=", 0.0)])
        for z in Z_EDGES:
            value = evaluator.analytic_yield(np.array([z]), specs)
            assert _bits(value) == _bits(stats.norm.cdf(z)), z

    def test_pswcd_spec_yields(self):
        # Noise-free constant margins put their worst-case distances at or
        # near zero; unit-noise ones put them near each constant.
        constants = [0.0, -0.0, 5e-324] + [float(z) for z in Z_EDGES if 0 < abs(z) <= 40]
        sigmas = [0.0] * 3 + [1.0] * (len(constants) - 3)
        labels = [f"m{j}" for j in range(len(constants))]
        evaluator = SyntheticEvaluator(
            [lambda X, c=c: np.full(len(X), c) for c in constants],
            sigmas,
            DesignSpace(["x0"], np.zeros(1), np.ones(1)),
            labels,
        )
        problem = YieldProblem(
            evaluator, SpecSet([Spec(label, ">=", 0.0) for label in labels])
        )
        analysis = pswcd_analysis(problem, np.array([0.5]), n_train=64, rng=3)
        assert np.ptp(analysis.betas) > 70
        assert np.array_equal(
            _bits(analysis.spec_yields), _bits(stats.norm.cdf(analysis.betas))
        )


def _lhs_column_loop(n, d, rng):
    """The per-column permutation loop ``latin_hypercube_uniforms`` replaced."""
    if n == 0:
        return np.empty((0, d))
    u = (rng.uniform(size=(n, d)) + np.arange(n)[:, None]) / n
    for j in range(d):
        u[:, j] = u[rng.permutation(n), j]
    return u


class TestLatinHypercube:
    @pytest.mark.parametrize("d", [5, 80, 123])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 15, 20, 35, 76, 500])
    def test_matches_column_loop_and_generator_state(self, n, d):
        rng_new = np.random.default_rng(n * 1000 + d)
        rng_old = np.random.default_rng(n * 1000 + d)
        assert np.array_equal(
            latin_hypercube_uniforms(n, d, rng_new), _lhs_column_loop(n, d, rng_old)
        )
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


class _RowWiseScreener(LinearMarginScreener):
    """The row-at-a-time ``update`` that block appends replaced."""

    def update(self, samples, margins):
        samples = np.atleast_2d(np.asarray(samples, dtype=float))
        margins = np.atleast_2d(np.asarray(margins, dtype=float))
        for row_x, row_m in zip(samples, margins):
            self._x.append(row_x)
            self._m.append(row_m)
            self._n_train += 1
        if self.n_train >= self.min_train and self.n_train >= 2 * max(
            self._trained_at, self.min_train // 2
        ):
            self._due_blocks = len(self._x)
            self._trained_at = self.n_train


class _EagerScreener(LinearMarginScreener):
    """Fits inside ``update``, as the screener did before fits waited for
    ``classify``."""

    def update(self, samples, margins):
        super().update(samples, margins)
        if self._due_blocks:
            self._fit(self._due_blocks)
            self._due_blocks = 0


#: Training block sizes: below, at and across ``min_train`` and the doublings.
_BLOCKS = (15, 7, 1, 30, 64, 3, 120)


def _screened_margins(circuit, x, rng, size):
    samples = circuit.variation.sample(size, rng)
    return samples, circuit.specs.margins(circuit.evaluator.evaluate(x, samples))


class TestScreenerUpdate:
    def test_block_update_fits_and_classifies_identically(self, circuit):
        x = _designs(circuit, 1, seed=14)[0]
        rng = np.random.default_rng(15)
        block = LinearMarginScreener(circuit.specs, min_train=30)
        row = _RowWiseScreener(circuit.specs, min_train=30)
        for size in _BLOCKS:
            samples, margins = _screened_margins(circuit, x, rng, size)
            block.update(samples, margins)
            row.update(samples, margins)
            assert block.n_train == row.n_train
            assert block.active == row.active
            probe = circuit.variation.sample(40, rng)
            labels = block.classify(probe).labels
            assert np.array_equal(labels, row.classify(probe).labels)
            if block.active:
                assert np.array_equal(block._weights, row._weights)
                assert np.array_equal(block._resid_std, row._resid_std)

    def test_unclassified_screener_never_fits(self, circuit, monkeypatch):
        fits = []
        fit = LinearMarginScreener._fit

        def counting(self, blocks):
            fits.append(blocks)
            fit(self, blocks)

        monkeypatch.setattr(LinearMarginScreener, "_fit", counting)
        x = _designs(circuit, 1, seed=14)[0]
        rng = np.random.default_rng(16)
        screener = LinearMarginScreener(circuit.specs, min_train=30)
        for size in _BLOCKS:
            screener.update(*_screened_margins(circuit, x, rng, size))
        assert screener.active and fits == []
        screener.classify(circuit.variation.sample(5, rng))
        assert fits == [len(_BLOCKS)]

    def test_lazy_fit_matches_eager_fit(self, circuit):
        x = _designs(circuit, 1, seed=14)[0]
        rng = np.random.default_rng(17)
        lazy = LinearMarginScreener(circuit.specs, min_train=30)
        eager = _EagerScreener(circuit.specs, min_train=30)
        for i, size in enumerate(_BLOCKS):
            samples, margins = _screened_margins(circuit, x, rng, size)
            lazy.update(samples, margins)
            eager.update(samples, margins)
            assert lazy.active == eager.active
            # Fits fall due after blocks 3 and 4 with no classify between,
            # and the second waits over block 5, which is not due.
            if i not in (0, 2, 5, 6):
                continue
            probe = circuit.variation.sample(40, rng)
            labels = lazy.classify(probe).labels
            assert np.array_equal(
                labels.view(np.int64), eager.classify(probe).labels.view(np.int64)
            )
            if lazy.active:
                assert np.array_equal(
                    lazy._weights.view(np.int64), eager._weights.view(np.int64)
                )
                assert np.array_equal(
                    lazy._resid_std.view(np.int64), eager._resid_std.view(np.int64)
                )
