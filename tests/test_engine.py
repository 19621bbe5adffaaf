"""The execution engine: fused rounds, slab groups, engine equivalence.

The load-bearing guarantee: the fused serial engine and the per-candidate
``state.refine`` loop it is checked against produce *bit-identical* seeded
results, because sample generation stays in per-candidate RNG streams and
only the execution of the simulations moves.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec, optimize
import repro.engine.serial
from repro.engine import EvaluationEngine, SerialEngine, make_engine
from repro.engine.base import evaluate_pending, scatter_round
from repro.core.callbacks import Callback
from repro.core.config import MOHECOConfig
from repro.core.moheco import MOHECO
from repro.ledger import SimulationLedger
from repro.ocba import ocba_sequential
from repro.problems import make_problem, make_quadratic_problem, make_sphere_problem
from repro.problems.base import SLAB_ROWS
from repro.sampling import LinearMarginScreener, make_sampler
from repro.yieldsim import CandidateYieldState

TINY = {"pop_size": 8, "max_generations": 4}


class PerCandidateEngine(EvaluationEngine):
    """The reference the fused engine must match: one refine per candidate."""

    def refine_round(self, problem, states, gains, category=None):
        for state, gain in zip(states, gains):
            if gain > 0:
                state.refine(int(gain), category)


def _states(problem, n=6, seed=0, sampler="lhs", screener=False, ledger=None):
    """Candidate states with per-candidate derived RNG streams."""
    sampler = make_sampler(sampler, problem.variation)
    ledger = ledger if ledger is not None else SimulationLedger()
    rng = np.random.default_rng(seed)
    xs = problem.space.sample(n, rng)
    states = []
    for i, x in enumerate(xs):
        screen = (
            LinearMarginScreener(problem.specs, min_train=20) if screener else None
        )
        states.append(
            CandidateYieldState(
                problem,
                x,
                sampler,
                np.random.default_rng(seed * 1000 + i),
                ledger,
                "stage1",
                screener=screen,
            )
        )
    return states, ledger


def _state_fingerprint(states, ledger):
    return (
        [(s.n, s.n_simulated, s._passes) for s in states],
        ledger.to_dict(),
    )


class TestRegistry:
    """``make_engine``: an instance, ``None`` or ``"serial"``, nothing else."""

    def test_make_engine_default_is_serial(self):
        assert isinstance(make_engine(None), SerialEngine)

    def test_make_engine_accepts_serial_by_name(self):
        assert isinstance(make_engine("serial"), SerialEngine)

    def test_make_engine_passes_instances_through(self):
        engine = PerCandidateEngine()
        assert make_engine(engine) is engine

    def test_unknown_engine_lists_registered(self):
        problem = make_sphere_problem()
        for name in ("process", "auto", "remote", "distributed"):
            with pytest.raises(ValueError, match="'serial'"):
                make_engine(name)
            with pytest.raises(ValueError, match="'serial'"):
                optimize("sphere", seed=1, engine=name, **TINY)
            with pytest.raises(ValueError, match="'serial'"):
                MOHECO(problem, MOHECOConfig(**TINY), rng=1, engine=name)


class TestFusedRounds:
    """A fused round must equal the sum of per-candidate refinements."""

    @pytest.mark.parametrize("screener", [False, True])
    def test_serial_round_equals_per_candidate_refines(self, screener):
        problem = make_quadratic_problem()
        gains = [5, 0, 17, 3, 50, 1]
        reference, ref_ledger = _states(problem, screener=screener)
        for state, gain in zip(reference, gains):
            state.refine(gain)
        fused, fused_ledger = _states(problem, screener=screener)
        SerialEngine().refine_round(problem, fused, gains)
        assert _state_fingerprint(fused, fused_ledger) == _state_fingerprint(
            reference, ref_ledger
        )
        assert [s.value for s in fused] == [s.value for s in reference]

    @given(
        gains=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_fused_equals_sum_of_refinements(self, gains, seed):
        problem = make_sphere_problem()
        reference, ref_ledger = _states(problem, n=len(gains), seed=seed)
        for state, gain in zip(reference, gains):
            state.refine(gain)
        fused, fused_ledger = _states(problem, n=len(gains), seed=seed)
        SerialEngine().refine_round(problem, fused, gains)
        assert _state_fingerprint(fused, fused_ledger) == _state_fingerprint(
            reference, ref_ledger
        )

    def test_round_category_override(self):
        problem = make_sphere_problem()
        states, ledger = _states(problem, n=3)
        SerialEngine().refine_round(problem, states, [4, 4, 4], category="stage2")
        assert ledger.count("stage2") == 12
        assert ledger.count("stage1") == 0

    def test_empty_round_is_a_no_op(self):
        problem = make_sphere_problem()
        states, ledger = _states(problem, n=3)
        for engine in (PerCandidateEngine(), SerialEngine()):
            engine.refine_round(problem, states, [0, 0, 0])
        assert ledger.total == 0
        assert all(state.n == 0 for state in states)


class TestRoundTemplate:
    """``SerialEngine.refine_round`` and the module globals it calls, which
    e2ebench's tracer wraps by name."""

    def test_only_serial_defines_refine_round(self):
        assert "refine_round" in vars(SerialEngine)
        assert vars(repro.engine.serial)["scatter_round"] is scatter_round
        assert vars(repro.engine.serial)["evaluate_pending"] is evaluate_pending

    def test_every_engine_scatters_each_round_once(self, monkeypatch):
        calls = []
        scatter = repro.engine.serial.scatter_round

        def counted(*args, **kwargs):
            calls.append(1)
            return scatter(*args, **kwargs)

        monkeypatch.setattr(repro.engine.serial, "scatter_round", counted)
        problem = make_sphere_problem()
        states, _ = _states(problem, n=3)
        SerialEngine().refine_round(problem, states, [10, 10, 10])
        assert len(calls) == 1
        assert all(state.n == 10 for state in states)


def _stacked(pending):
    return np.concatenate([block.samples for block in pending])


def _whole_round(problem, states, gains):
    """The reference round: draw every block, then one stacked dispatch."""
    pending = [state.prepare(gain) for state, gain in zip(states, gains)]
    pending = [block for block in pending if block is not None]
    scatter_round(problem, pending, evaluate_pending(problem, pending, _stacked(pending)))


def _record_dispatches(monkeypatch) -> list[int]:
    """Rows of every dispatch the serial engine simulates from now on."""
    dispatches = []
    simulate = repro.engine.serial.evaluate_pending

    def recorded(problem, pending, samples):
        dispatches.append(sum(block.n_samples for block in pending))
        assert samples.shape[0] == dispatches[-1]
        return simulate(problem, pending, samples)

    monkeypatch.setattr(repro.engine.serial, "evaluate_pending", recorded)
    return dispatches


class TestStreamedRounds:
    """A round streams in groups of at most ``SLAB_ROWS`` rows, unchanged."""

    #: Per-candidate gains of the big round.  A 40-sample pilot trains every
    #: candidate's screener first, which then resolves 51,245 of these
    #: 55,788 samples; the 4,543 rows left are more than two slabs.
    GAINS = [6000, 4200, 5760, 6000, 240, 6000, 5988, 6000, 3600, 6000, 6000]
    PILOT = [40] * len(GAINS)
    #: The round after the big one classifies with screeners refit on the
    #: big round's rows, most of which later groups of that round
    #: overwrote in the engine's round buffer.
    AFTER = [2000] * len(GAINS)

    def test_round_over_two_slabs_matches_the_whole_round(self, monkeypatch):
        problem = make_sphere_problem(sigma=1.0)
        engine = SerialEngine()
        dispatches = _record_dispatches(monkeypatch)
        states, ledger = _states(problem, n=len(self.GAINS), screener=True)
        reference, ref_ledger = _states(problem, n=len(self.GAINS), screener=True)

        def refine(gains):
            engine.refine_round(problem, states, gains)
            _whole_round(problem, reference, gains)
            assert _state_fingerprint(states, ledger) == _state_fingerprint(
                reference, ref_ledger
            )

        refine(self.PILOT)
        before = (ledger.total, len(dispatches))
        refine(self.GAINS)
        # The big round: screened, over two slabs, streamed in several
        # dispatches of at most one group each.
        assert ledger.total - before[0] > 2 * SLAB_ROWS
        assert ledger.screened_out > 0
        streamed = dispatches[before[1]:]
        assert len(streamed) > 1
        assert max(streamed) <= SLAB_ROWS
        refine(self.AFTER)

    #: Bound on a one-slab round's traced peak, in the slab's sample bytes
    #: (``SLAB_ROWS`` rows of the process dimension).  Stacking a group's
    #: blocks into a second array read 5.47 (telescopic) and 5.91
    #: (folded_cascode); the round buffer reads 4.04 and 4.47.
    ONE_SLAB_PEAK = 5.0

    def test_round_memory_stays_flat(self):
        # Four slabs' worth of rows must not hold four slabs of samples,
        # and one slab must not hold its samples twice.
        block = SLAB_ROWS // 4
        for name in ("telescopic", "folded_cascode"):
            problem = make_problem(name)
            engine = SerialEngine()

            def peak(n_blocks):
                states, _ = _states(problem, n=n_blocks)
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                engine.refine_round(problem, states, [block] * n_blocks)
                return tracemalloc.get_traced_memory()[1] - base

            peak(1)  # lazy set-up is not a round's memory
            tracemalloc.start()
            try:
                one_slab, four_slabs = peak(4), peak(16)
            finally:
                tracemalloc.stop()
            assert four_slabs <= 1.3 * one_slab, (name, one_slab, four_slabs)
            slab_bytes = SLAB_ROWS * problem.process_dimension * 8
            assert one_slab < self.ONE_SLAB_PEAK * slab_bytes, (name, one_slab / slab_bytes)


def _run(engine, problem="sphere", method="moheco", seed=7):
    """One seeded run as JSON; ``engine`` goes to ``optimize(engine=...)``."""
    spec = RunSpec(problem=problem, method=method, seed=seed, overrides=dict(TINY))
    payload = optimize(spec, engine=engine).to_dict()
    # Wall-clock is the one legitimately engine-dependent field.
    payload.pop("elapsed_seconds")
    return json.dumps(payload, sort_keys=True)


class TestCrossBackendEquivalence:
    """Same RunSpec + seed => bit-identical results on every engine."""

    @pytest.mark.parametrize("problem", ["sphere", "quadratic"])
    @pytest.mark.parametrize("method", ["moheco", "oo_only", "fixed_budget"])
    def test_serial_matches_legacy(self, problem, method):
        assert _run("serial", problem=problem, method=method) == _run(
            PerCandidateEngine(), problem=problem, method=method
        )

    def test_engine_argument_overrides_spec(self):
        # A spec carries no engine: the argument's engine runs every round.
        rounds = []

        class CountingEngine(PerCandidateEngine):
            def refine_round(self, problem, states, gains, category=None):
                rounds.append(1)
                super().refine_round(problem, states, gains, category)

        spec = RunSpec(problem="sphere", seed=7, overrides=dict(TINY))
        via_argument = optimize(spec, engine=CountingEngine())
        assert rounds
        assert via_argument.identity_dict() == optimize(spec).identity_dict()


class TestRunSpecEngine:
    def test_old_spec_payloads_still_parse(self):
        spec = RunSpec.from_dict({"problem": "sphere", "seed": 3})
        assert spec.seed == 3
        assert "engine" not in spec.to_dict()

    def test_engine_params_rejected_with_engine_instance(self):
        # A leftover engine_params keyword is an unknown override, refused
        # before the run, never silently dropped.
        with pytest.raises(ValueError, match="engine_params"):
            optimize(
                "sphere",
                seed=1,
                engine=SerialEngine(),
                engine_params={"workers": 2},
                **TINY,
            )


class TestResultTiming:
    def test_elapsed_and_throughput_recorded(self):
        result = optimize("sphere", seed=2, **TINY)
        assert result.elapsed_seconds > 0.0
        assert result.sims_per_second > 0.0
        data = result.to_dict()
        assert data["elapsed_seconds"] == result.elapsed_seconds

    def test_elapsed_survives_serialization(self):
        from repro.core.moheco import MOHECOResult

        result = optimize("sphere", seed=2, **TINY)
        rebuilt = MOHECOResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.elapsed_seconds == result.elapsed_seconds


class TestBudgetClamp:
    """Satellite: OCBA must never spend past its total budget."""

    def test_total_never_exceeds_budget(self):
        problem = make_sphere_problem()
        for budget in (97, 150, 333, 700):
            states, _ = _states(problem, n=5, seed=budget)
            report = ocba_sequential(states, total_budget=budget, n0=15, delta=50)
            assert report.total_samples <= budget
            assert report.total_samples >= min(budget, 5 * 15)
            assert report.budget == budget

    def test_budget_spent_exactly_when_pilot_fits(self):
        problem = make_sphere_problem()
        states, _ = _states(problem, n=4, seed=1)
        report = ocba_sequential(states, total_budget=500, n0=15, delta=50)
        assert report.total_samples == 500

    def test_pilot_overrun_is_tolerated(self):
        # total_budget below S * n0: the pilot is owed regardless; the loop
        # must not assert (and must not run any allocation rounds).
        problem = make_sphere_problem()
        states, _ = _states(problem, n=5, seed=2)
        report = ocba_sequential(states, total_budget=30, n0=15, delta=50)
        assert report.total_samples == 75
        assert report.rounds == 0

    def test_clamped_round_identical_across_backends(self):
        problem = make_sphere_problem()
        fingerprints = []
        for engine in (PerCandidateEngine(), SerialEngine()):
            states, ledger = _states(problem, n=5, seed=9)
            ocba_sequential(states, total_budget=333, n0=15, delta=50, engine=engine)
            fingerprints.append(_state_fingerprint(states, ledger))
        assert fingerprints[0] == fingerprints[1]


class TestPromotionCallbacks:
    """Satellite: the fixed-budget branch must announce its promotions."""

    class Recorder(Callback):
        def __init__(self):
            self.promoted = []

        def on_stage2_promotion(self, engine, individual):
            self.promoted.append(individual)

    def test_fixed_budget_promotions_fire_callbacks(self):
        recorder = self.Recorder()
        result = optimize(
            "sphere",
            method="fixed_budget",
            seed=4,
            callbacks=[recorder],
            pop_size=8,
            max_generations=2,
        )
        assert recorder.promoted, "fixed-budget promotions must be observable"
        # Every feasible candidate the baseline estimated was promoted at
        # the full n_fixed accuracy.
        assert all(ind.stage == 2 for ind in recorder.promoted)
        assert result.best_estimate.n >= 500

    def test_moheco_promotions_still_fire(self):
        recorder = self.Recorder()
        optimize("sphere", seed=3, callbacks=[recorder], **TINY)
        assert recorder.promoted


class TestCustomEngines:
    def test_third_party_engine_plugs_in(self):
        calls = []

        class CountingEngine(EvaluationEngine):
            def refine_round(self, problem, states, gains, category=None):
                calls.append(int(np.sum(gains)))
                PerCandidateEngine().refine_round(problem, states, gains, category)

        result = optimize("sphere", seed=5, engine=CountingEngine(), **TINY)
        assert calls, "the engine must have executed rounds"
        assert result.best_yield > 0.0
