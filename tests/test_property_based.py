"""Property-based tests (Hypothesis) on core invariants."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.circuit.topologies.base import DesignSpace
from repro.ledger import SimulationLedger
from repro.ocba import equal_allocation, ocba_allocation
from repro.optim.constraints import deb_key
from repro.sampling.lhs import latin_hypercube_uniforms
from repro.specs import Spec, SpecSet
from repro.units import db_to_ratio, ratio_to_db
from repro.yieldsim import YieldEstimate

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
positive_floats = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


class TestUnitsProperties:
    @given(positive_floats)
    def test_db_roundtrip(self, ratio):
        assert abs(db_to_ratio(ratio_to_db(ratio)) - ratio) <= 1e-9 * ratio

    @given(positive_floats, positive_floats)
    def test_db_of_product_is_sum(self, a, b):
        assert ratio_to_db(a * b) == np.float64(ratio_to_db(a) + ratio_to_db(b)).round(9) or (
            abs(ratio_to_db(a * b) - (ratio_to_db(a) + ratio_to_db(b))) < 1e-6
        )


class TestSpecProperties:
    @given(finite_floats, finite_floats)
    def test_margin_sign_agrees_with_passes(self, bound, value):
        spec = Spec("m", ">=", bound)
        assert spec.passes(value) == (spec.margin(value) >= 0.0)

    @given(
        arrays(np.float64, (7, 2),
               elements=st.floats(-100, 100, allow_nan=False)),
    )
    def test_violation_nonnegative_and_zero_iff_pass(self, performance):
        specs = SpecSet([Spec("a", ">=", 1.0), Spec("b", "<=", 2.0)])
        violation = specs.violation(performance)
        passes = specs.passes(performance)
        assert np.all(violation >= 0.0)
        np.testing.assert_array_equal(passes, violation == 0.0)


class TestLHSProperties:
    @given(st.integers(min_value=1, max_value=60),
           st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=2**31 - 1))
    def test_stratification_invariant(self, n, d, seed):
        u = latin_hypercube_uniforms(n, d, np.random.default_rng(seed))
        assert u.shape == (n, d)
        assert np.all((u > 0.0) & (u < 1.0))
        for j in range(d):
            strata = np.floor(u[:, j] * n).astype(int)
            assert sorted(strata) == list(range(n))


class TestOCBAProperties:
    @given(
        st.lists(st.floats(0.01, 0.99, allow_nan=False), min_size=2, max_size=12),
        st.integers(min_value=50, max_value=5000),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_allocation_sums_and_nonnegative(self, means, total, seed):
        means = np.array(means)
        rng = np.random.default_rng(seed)
        stds = np.sqrt(means * (1 - means)) + rng.uniform(0, 0.1, len(means))
        alloc = ocba_allocation(means, stds, total)
        assert alloc.sum() == total
        assert np.all(alloc >= 0)

    @given(st.integers(1, 40), st.integers(0, 10_000))
    def test_equal_allocation_invariants(self, n, total):
        alloc = equal_allocation(n, total)
        assert alloc.sum() == total
        assert alloc.max() - alloc.min() <= 1


def _better(a, b):
    return deb_key(a) > deb_key(b)


class TestDebProperties:
    member = st.builds(
        SimpleNamespace,
        feasible=st.booleans(),
        violation=st.floats(0.0, 100.0, allow_nan=False)
        | st.sampled_from([0.0, 1.0, float("inf"), float("nan")]),
        yield_value=st.floats(0.0, 1.0, allow_nan=False) | st.sampled_from([0.0, 1.0]),
    )

    @given(member, member)
    def test_antisymmetry(self, a, b):
        # a and b cannot both be strictly better than each other.
        assert not (_better(a, b) and _better(b, a))

    @given(member)
    def test_irreflexive(self, a):
        assert not _better(a, a)

    @given(member, member, member)
    def test_transitivity(self, a, b, c):
        if _better(a, b) and _better(b, c):
            assert _better(a, c)


class TestYieldEstimateProperties:
    @given(st.integers(0, 1000), st.integers(0, 1000))
    def test_value_in_unit_interval(self, passes, extra):
        n = passes + extra
        est = YieldEstimate(passes=passes, n=n)
        assert 0.0 <= est.value <= 1.0
        lo, hi = est.wilson_interval()
        assert 0.0 <= lo <= hi <= 1.0
        if n > 0:
            assert lo <= est.value <= hi


class TestDesignSpaceProperties:
    @given(
        arrays(np.float64, 5, elements=st.floats(-10, 10, allow_nan=False)),
        st.integers(0, 2**31 - 1),
    )
    def test_clip_idempotent_and_inside(self, x, seed):
        space = DesignSpace([f"v{i}" for i in range(5)],
                            np.full(5, -1.0), np.full(5, 1.0))
        clipped = space.clip(x)
        assert space.contains(clipped)
        np.testing.assert_array_equal(space.clip(clipped), clipped)


class TestLedgerProperties:
    @given(st.lists(st.integers(0, 10_000), max_size=30))
    def test_total_is_sum_of_charges(self, charges):
        ledger = SimulationLedger()
        for i, n in enumerate(charges):
            ledger.charge(n, category=f"c{i % 3}")
        assert ledger.total == sum(charges)
