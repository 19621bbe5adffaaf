"""The execution-engine layer: fused rounds, backends, cross-backend equivalence.

The load-bearing guarantee: every backend — the fused serial dispatch, the
sharded process pool, and the per-candidate ``state.refine`` loop they are
checked against — produces *bit-identical* seeded results, because sample
generation stays in per-candidate RNG streams and only the execution of the
simulations moves.
"""

import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import RunSpec, optimize
import repro.engine.process
import repro.engine.serial
from repro.engine import (
    ENGINES,
    AutoEngine,
    EvaluationEngine,
    ProcessPoolEngine,
    SerialEngine,
    make_engine,
)
from repro.engine.base import chunk_pending, evaluate_pending, stack_pending
from repro.core.callbacks import Callback
from repro.ledger import SimulationLedger
from repro.ocba import ocba_sequential
from repro.problems import make_quadratic_problem, make_sphere_problem
from repro.sampling import LinearMarginScreener, make_sampler
from repro.yieldsim import CandidateYieldState
from repro.yieldsim.estimator import PendingRefinement

TINY = {"pop_size": 8, "max_generations": 4}


class PerCandidateEngine(EvaluationEngine):
    """The reference every fused backend must match: one refine per candidate."""

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


class _Shell:
    """A candidate state reduced to the design vector a simulator reads."""

    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)


def _block(x, samples, category="stage1"):
    return PendingRefinement(_Shell(x), np.asarray(samples, dtype=float), category)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert set(ENGINES.names()) == {"serial", "process", "auto"}

    def test_make_engine_default_is_serial(self):
        assert isinstance(make_engine(None), SerialEngine)

    def test_make_engine_by_name_with_params(self):
        engine = make_engine("process", workers=3)
        assert isinstance(engine, ProcessPoolEngine)
        assert engine.workers == 3
        engine.close()

    def test_make_engine_passes_instances_through(self):
        engine = PerCandidateEngine()
        assert make_engine(engine) is engine

    def test_make_engine_rejects_params_for_instances(self):
        with pytest.raises(TypeError, match="resolved by name"):
            make_engine(SerialEngine(), workers=2)

    def test_unknown_engine_lists_registered(self):
        with pytest.raises(ValueError, match="auto.*process.*serial"):
            make_engine("distributed")

    def test_engines_are_context_managers(self):
        with ProcessPoolEngine(workers=1) as engine:
            assert engine.workers == 1

    def test_process_pool_rejects_bad_worker_count(self):
        with pytest.raises(ValueError, match="workers"):
            ProcessPoolEngine(workers=0)


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
    """SerialEngine.refine_round is the one round sequence of every engine."""

    def test_only_serial_defines_refine_round(self):
        assert "refine_round" in vars(SerialEngine)
        for name in ENGINES.names():
            engine_cls = ENGINES.get(name)
            if engine_cls is not SerialEngine:
                assert issubclass(engine_cls, SerialEngine), name
                assert "refine_round" not in vars(engine_cls), name

    def test_every_engine_scatters_each_round_once(self, monkeypatch):
        calls = []
        scatter = repro.engine.serial.scatter_round

        def counted(*args, **kwargs):
            calls.append(1)
            return scatter(*args, **kwargs)

        monkeypatch.setattr(repro.engine.serial, "scatter_round", counted)
        problem = make_sphere_problem()
        auto = AutoEngine(pilot_rows=40)
        engines = {
            "serial": (SerialEngine(), 1),
            "process": (ProcessPoolEngine(workers=2, min_dispatch_rows=1), 1),
            # 30 rows per round: the first round pilots, the second commits,
            # the third runs on the committed delegate.
            "auto": (auto, 3),
        }
        try:
            for name, (engine, rounds) in engines.items():
                states, _ = _states(problem, n=3)
                for round_index in range(rounds):
                    before = len(calls)
                    engine.refine_round(problem, states, [10, 10, 10])
                    assert len(calls) == before + 1, (name, round_index)
                    assert all(state.n == 10 * (round_index + 1) for state in states)
                    if engine is auto:
                        assert (auto.chosen is None) == (round_index == 0)
            # The rounds really left the parent.
            assert engines["process"][0]._pool is not None
        finally:
            for engine, _ in engines.values():
                engine.close()


class TestProcessPool:
    def test_chunking_respects_block_boundaries_and_order(self):
        class Block:
            def __init__(self, n):
                self.n_samples = n

        blocks = [Block(n) for n in (5, 1, 9, 3, 2, 7)]
        # The pool's cut: one ceil(rows / workers)-row chunk per worker.
        chunks = chunk_pending(blocks, -(-27 // 3))
        assert 1 <= len(chunks) <= 3
        flattened = [block for chunk in chunks for block in chunk]
        assert flattened == blocks  # order preserved, nothing lost

    def test_respects_block_boundaries_and_row_target(self):
        blocks = [_block([1.0], np.zeros((rows, 2))) for rows in (5, 5, 5, 20, 3)]
        chunks = chunk_pending(blocks, 10)
        assert [sum(b.n_samples for b in chunk) for chunk in chunks] == [10, 25, 3]
        assert [b for chunk in chunks for b in chunk] == blocks

    def test_single_chunk_when_target_exceeds_round(self):
        blocks = [_block([1.0], np.zeros((2, 2)))] * 3
        assert len(chunk_pending(blocks, 1000)) == 1

    @pytest.mark.parametrize("seed", range(5))
    def test_worker_function_matches_evaluate_pending(self, seed, monkeypatch):
        # Random block structures, pickled as a pool submission would be.
        problem = make_quadratic_problem()
        d, p = problem.space.dimension, problem.variation.dimension
        rng = np.random.default_rng(seed)
        blocks = [
            _block(
                problem.space.clip(rng.normal(size=d)),
                rng.normal(size=(int(rng.integers(1, 9)), p)),
            )
            for _ in range(int(rng.integers(1, 6)))
        ]
        monkeypatch.setattr(repro.engine.process, "_WORKER_PROBLEM", problem)
        shipped = pickle.loads(pickle.dumps(stack_pending(blocks)))
        rows = repro.engine.process._evaluate_chunk(*shipped)
        np.testing.assert_array_equal(
            rows.view(np.int64), evaluate_pending(problem, blocks).view(np.int64)
        )

    def test_chunk_evaluation_matches_local(self):
        # Each chunk is simulated on a live worker; the rows come back in order.
        problem = make_quadratic_problem()
        rng = np.random.default_rng(2)
        blocks = [
            _block(
                problem.space.clip(rng.normal(size=problem.space.dimension)),
                rng.normal(size=(5, problem.variation.dimension)),
            )
            for _ in range(3)
        ]
        with ProcessPoolEngine(workers=2) as engine:
            rows = engine.simulate(problem, blocks)
            assert engine._pool is not None
        np.testing.assert_array_equal(
            rows.view(np.int64), evaluate_pending(problem, blocks).view(np.int64)
        )

    def test_pool_round_matches_serial_round(self):
        problem = make_quadratic_problem()
        gains = [12, 25, 7, 40, 3, 18]
        serial, serial_ledger = _states(problem)
        SerialEngine().refine_round(problem, serial, gains)
        with ProcessPoolEngine(workers=2) as engine:
            pooled, pooled_ledger = _states(problem)
            engine.refine_round(problem, pooled, gains)
        assert _state_fingerprint(pooled, pooled_ledger) == _state_fingerprint(
            serial, serial_ledger
        )

    def test_workers_one_never_spawns_a_pool(self):
        problem = make_sphere_problem()
        engine = ProcessPoolEngine(workers=1)
        states, _ = _states(problem, n=3)
        engine.refine_round(problem, states, [10, 10, 10])
        assert engine._pool is None

    def test_tiny_rounds_stay_in_process(self):
        problem = make_sphere_problem()
        engine = ProcessPoolEngine(workers=2, min_dispatch_rows=1000)
        states, _ = _states(problem, n=3)
        engine.refine_round(problem, states, [10, 10, 10])
        assert engine._pool is None
        engine.close()


def _run(engine, engine_params=None, problem="sphere", method="moheco", seed=7):
    """One seeded run as JSON; ``engine`` is a registry name or an instance."""
    named = isinstance(engine, str)
    spec = RunSpec(
        problem=problem,
        method=method,
        seed=seed,
        overrides=dict(TINY),
        engine=engine if named else None,
        engine_params=engine_params or {},
    )
    result = optimize(spec) if named else optimize(spec, engine=engine)
    payload = result.to_dict()
    # Wall-clock is the one legitimately backend-dependent field.
    payload.pop("elapsed_seconds")
    return json.dumps(payload, sort_keys=True)


class TestCrossBackendEquivalence:
    """Same RunSpec + seed => bit-identical results on every backend."""

    @pytest.mark.parametrize("problem", ["sphere", "quadratic"])
    @pytest.mark.parametrize("method", ["moheco", "oo_only", "fixed_budget"])
    def test_serial_matches_legacy(self, problem, method):
        assert _run("serial", problem=problem, method=method) == _run(
            PerCandidateEngine(), problem=problem, method=method
        )

    def test_process_pool_matches_legacy(self):
        reference = _run(PerCandidateEngine())
        assert _run("process", {"workers": 2}) == reference

    def test_worker_count_does_not_change_results(self):
        assert _run("process", {"workers": 2}) == _run("process", {"workers": 3})

    def test_engine_argument_overrides_spec(self):
        spec = RunSpec(
            problem="sphere", seed=7, overrides=dict(TINY), engine="process"
        )
        via_argument = optimize(spec, engine="serial")
        via_spec = optimize(spec)
        a, b = via_argument.to_dict(), via_spec.to_dict()
        a.pop("elapsed_seconds"), b.pop("elapsed_seconds")
        assert a == b


class TestCLIEngineLine:
    def test_run_prints_the_auto_engine_line(self, capsys):
        from repro.api.cli import main

        code = main(
            [
                "run",
                "--problem", "sphere",
                "--seed", "7",
                "--set", "pop_size=8",
                "--set", "max_generations=4",
                "--engine", "auto",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("engine[auto]: chose serial") for line in lines)


class TestRunSpecEngine:
    def test_engine_round_trips_through_json(self):
        spec = RunSpec(
            problem="sphere", seed=1, engine="process", engine_params={"workers": 4}
        )
        assert RunSpec.from_json(spec.to_json()) == spec

    def test_old_spec_payloads_still_parse(self):
        spec = RunSpec.from_dict({"problem": "sphere", "seed": 3})
        assert spec.engine is None
        assert spec.engine_params == {}

    def test_engine_params_require_engine(self):
        with pytest.raises(ValueError, match="engine_params"):
            RunSpec(problem="sphere", engine_params={"workers": 2})

    def test_with_engine_derivation(self):
        spec = RunSpec(problem="sphere").with_engine("process", workers=2)
        assert spec.engine == "process"
        assert spec.engine_params == {"workers": 2}

    def test_engine_params_rejected_with_engine_instance(self):
        with pytest.raises(TypeError, match="resolved by name"):
            optimize(
                "sphere",
                seed=1,
                engine=SerialEngine(),
                engine_params={"workers": 2},
                **TINY,
            )

    def test_engine_params_without_engine_name_explain_the_fix(self):
        with pytest.raises(TypeError, match="require an engine name"):
            optimize("sphere", seed=1, engine_params={"workers": 2}, **TINY)

    def test_cli_engine_override_drops_stale_engine_params(self, tmp_path):
        """`--engine serial` on a spec carrying process params must not
        forward workers= to SerialEngine."""
        from repro.api.cli import main

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            RunSpec(
                problem="sphere",
                seed=7,
                overrides=dict(TINY),
                engine="process",
                engine_params={"workers": 2},
            ).to_json()
        )
        code = main(
            ["run", "--spec", str(spec_path), "--engine", "serial", "--quiet"]
        )
        assert code == 0


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


class TestEngineOwnership:
    def test_moheco_closes_engines_it_resolved_by_name(self):
        from repro.core.config import MOHECOConfig
        from repro.core.moheco import MOHECO

        problem = make_sphere_problem()
        optimizer = MOHECO(
            problem,
            MOHECOConfig.moheco(**TINY),
            rng=1,
            engine="process",
        )
        optimizer.engine._ensure_pool(problem)  # force the pool alive
        assert optimizer.engine._pool is not None
        optimizer.run()
        assert optimizer.engine._pool is None, "owned pools must not leak"

    def test_moheco_leaves_caller_engines_open(self):
        from repro.core.config import MOHECOConfig
        from repro.core.moheco import MOHECO

        problem = make_sphere_problem()
        with ProcessPoolEngine(workers=2) as engine:
            engine._ensure_pool(problem)
            MOHECO(problem, MOHECOConfig.moheco(**TINY), rng=1, engine=engine).run()
            assert engine._pool is not None, "caller-owned pools stay alive"


class TestCustomEngines:
    def test_third_party_engine_plugs_in(self):
        calls = []

        class CountingEngine(EvaluationEngine):
            name = "counting"

            def refine_round(self, problem, states, gains, category=None):
                calls.append(int(np.sum(gains)))
                PerCandidateEngine().refine_round(problem, states, gains, category)

        result = optimize("sphere", seed=5, engine=CountingEngine(), **TINY)
        assert calls, "the engine must have executed rounds"
        assert result.best_yield > 0.0
