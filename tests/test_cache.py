"""The warm-start evaluation cache: keying, LRU budget, spill, identity.

The load-bearing guarantees:

* **Bit-identity** — with the default ledger-faithful accounting, a cached
  run (cold or warm) produces exactly the result of a cache-off run; only
  wall-clock and the observability counters move.
* **Ledger faithfulness** — replayed rows are still charged to their
  category and additionally recorded under the ledger's ``cached`` column,
  so the paper-accounting totals never change.
"""

import json
import warnings

import numpy as np
import pytest

from repro.api import (
    RunSpec,
    SpecError,
    optimize,
    validate_run_spec,
    validate_sweep_spec,
)
from repro.engine import CACHES, LRUEvaluationCache, SerialEngine, make_cache
from repro.engine.cache import block_key
from repro.ledger import SimulationLedger
from repro.problems import make_quadratic_problem, make_sphere_problem
from repro.sampling import make_sampler
from repro.sweep import MethodSpec, ProblemSpec, SweepSpec, run_sweep
from repro.sweep.records import RunRecord
from repro.yieldsim import CandidateYieldState

TINY = {"pop_size": 8, "max_generations": 4}
#: A configuration whose run triggers the Nelder-Mead local search — the
#: refinement-heavy regime the cache targets.
LS_HEAVY = {
    "pop_size": 10,
    "max_generations": 12,
    "ls_patience": 1,
    "ls_max_triggers": 4,
    "n_max": 150,
    "sim_ave": 20,
    "n0": 10,
    "stop_patience": 30,
}


def _states(problem, n=6, seed=0, ledger=None):
    """Candidate states with per-candidate derived RNG streams."""
    sampler = make_sampler("lhs", problem.variation)
    ledger = ledger if ledger is not None else SimulationLedger()
    rng = np.random.default_rng(seed)
    xs = problem.space.sample(n, rng)
    states = [
        CandidateYieldState(
            problem,
            x,
            sampler,
            np.random.default_rng(seed * 1000 + i),
            ledger,
            "stage1",
        )
        for i, x in enumerate(xs)
    ]
    return states, ledger


def _fingerprint(states, ledger):
    """Result identity of a round: estimates + charges, minus observability.

    The ledger's ``cached`` column says how much was *replayed*, which
    legitimately differs between warm and cold executions of the same
    round — it is excluded here exactly like ``identity_dict`` excludes it.
    """
    charges = ledger.to_dict()
    charges.pop("cached")
    return (
        [(s.n, s.n_simulated, s._passes) for s in states],
        charges,
    )


class TestRegistryAndFactory:
    def test_builtin_caches_registered(self):
        assert set(CACHES.names()) == {"lru"}

    def test_make_cache_none_means_no_cache(self):
        assert make_cache(None) is None

    def test_make_cache_none_rejects_params(self):
        with pytest.raises(TypeError, match="cache name"):
            make_cache(None, max_bytes=1)

    def test_make_cache_by_name_with_params(self):
        cache = make_cache("lru", max_bytes=1234)
        assert isinstance(cache, LRUEvaluationCache)
        assert cache.max_bytes == 1234

    def test_make_cache_passes_instances_through(self):
        cache = LRUEvaluationCache()
        assert make_cache(cache) is cache

    def test_make_cache_rejects_params_for_instances(self):
        with pytest.raises(TypeError, match="resolved by name"):
            make_cache(LRUEvaluationCache(), max_bytes=1)

    def test_unknown_cache_lists_registered(self):
        with pytest.raises(ValueError, match="registered.*lru"):
            make_cache("memcached")

    def test_negative_byte_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            LRUEvaluationCache(max_bytes=-1)


class TestRetiredOptions:
    """Sample keying, free hits and a settable namespace are gone: the
    cache keys whole blocks, always charges replayed rows, and only the
    API driver sets the namespace."""

    @pytest.mark.parametrize(
        "params",
        [{"key": "sample"}, {"count_hits": False}, {"namespace": "x"}],
        ids=["key", "count_hits", "namespace"],
    )
    def test_fail_at_the_door(self, params):
        run = RunSpec(problem="sphere", cache="lru", cache_params=params)
        sweep = SweepSpec(
            methods=("moheco",),
            problems=("sphere",),
            cache="lru",
            cache_params=params,
        )
        for validate, spec in ((validate_run_spec, run), (validate_sweep_spec, sweep)):
            with pytest.raises(SpecError) as excinfo:
                validate(spec)
            assert excinfo.value.field == "cache_params"
        with pytest.raises(TypeError):
            make_cache("lru", **params)


class TestKeying:
    def test_same_content_same_key(self):
        problem = make_sphere_problem()
        x = np.array([0.1, 0.2, 0.3, 0.4])
        samples = np.arange(8.0).reshape(8, 1)
        assert block_key("ns", problem, x, samples) == block_key(
            "ns", problem, x.copy(), samples.copy()
        )

    def test_any_component_changes_the_key(self):
        problem = make_sphere_problem()
        other = make_quadratic_problem()
        x = np.array([0.1, 0.2, 0.3, 0.4])
        samples = np.arange(8.0).reshape(8, 1)
        base = block_key("ns", problem, x, samples)
        assert block_key("other", problem, x, samples) != base
        assert block_key("ns", other, x, samples) != base
        assert block_key("ns", problem, x + 1e-12, samples) != base
        assert block_key("ns", problem, x, samples + 1e-12) != base

    def test_shape_is_part_of_the_key(self):
        problem = make_sphere_problem()
        x = np.array([0.5, 0.5, 0.5, 0.5])
        flat = np.zeros(4).reshape(4, 1)
        assert block_key("", problem, x, flat) != block_key(
            "", problem, x, flat.reshape(2, 2)
        )


class TestLRUMechanics:
    def test_round_trip_and_stats(self):
        cache = LRUEvaluationCache()
        rows = np.arange(6.0).reshape(3, 2)
        assert cache.lookup("k", 3) is None
        cache.store("k", rows)
        hit = cache.lookup("k", 3)
        np.testing.assert_array_equal(hit, rows)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rows == 3
        assert cache.stats.miss_rows == 3
        assert cache.stats.entries == 1
        assert cache.stats.bytes == rows.nbytes

    def test_eviction_under_tiny_byte_budget(self):
        rows = np.zeros((4, 2))  # 64 bytes each
        cache = LRUEvaluationCache(max_bytes=3 * rows.nbytes)
        for i in range(5):
            cache.store(f"k{i}", rows)
        assert cache.stats.evictions == 2
        assert cache.stats.entries == 3
        assert cache.stats.bytes <= cache.max_bytes
        # Oldest entries went first.
        assert cache.lookup("k0", 4) is None
        assert cache.lookup("k1", 4) is None
        assert cache.lookup("k4", 4) is not None

    def test_lookup_refreshes_recency(self):
        rows = np.zeros((2, 2))
        cache = LRUEvaluationCache(max_bytes=2 * rows.nbytes)
        cache.store("a", rows)
        cache.store("b", rows)
        assert cache.lookup("a", 2) is not None  # a becomes most-recent
        cache.store("c", rows)  # evicts b, not a
        assert cache.lookup("a", 2) is not None
        assert cache.lookup("b", 2) is None

    def test_duplicate_put_keeps_one_copy(self):
        cache = LRUEvaluationCache()
        rows = np.zeros((2, 2))
        cache.store("k", rows)
        cache.store("k", rows)
        assert cache.stats.entries == 1
        assert cache.stats.bytes == rows.nbytes


class TestSpillFile:
    def test_round_trip(self, tmp_path):
        spill = tmp_path / "cache.jsonl"
        writer = LRUEvaluationCache(spill_path=spill)
        rows = np.arange(10.0).reshape(5, 2)
        writer.store("k1", rows)
        writer.store("k2", rows + 1)
        writer.close()

        reader = LRUEvaluationCache(spill_path=spill)
        assert reader.stats.spill_loaded == 2
        assert reader.stats.entries == 2
        np.testing.assert_array_equal(reader.lookup("k1", 5), rows)
        np.testing.assert_array_equal(reader.lookup("k2", 5), rows + 1)

    def test_byte_budget_applies_to_loaded_entries(self, tmp_path):
        spill = tmp_path / "cache.jsonl"
        rows = np.zeros((4, 2))
        writer = LRUEvaluationCache(spill_path=spill)
        for i in range(5):
            writer.store(f"k{i}", rows)
        writer.close()

        reader = LRUEvaluationCache(max_bytes=2 * rows.nbytes, spill_path=spill)
        assert reader.stats.entries == 2
        assert reader.stats.bytes <= reader.max_bytes

    def test_torn_line_is_dropped_with_warning(self, tmp_path):
        spill = tmp_path / "cache.jsonl"
        writer = LRUEvaluationCache(spill_path=spill)
        rows = np.arange(4.0).reshape(2, 2)
        writer.store("good", rows)
        writer.close()
        with open(spill, "a", encoding="utf-8") as handle:
            handle.write('{"key": "torn", "shape": [2')  # killed mid-write

        with pytest.warns(RuntimeWarning, match="spill line"):
            reader = LRUEvaluationCache(spill_path=spill)
        assert reader.stats.spill_loaded == 1
        np.testing.assert_array_equal(reader.lookup("good", 2), rows)

    def test_append_after_torn_tail_starts_clean(self, tmp_path):
        spill = tmp_path / "cache.jsonl"
        with open(spill, "w", encoding="utf-8") as handle:
            handle.write('{"key": "torn"')  # no newline, unparseable
        with pytest.warns(RuntimeWarning):
            cache = LRUEvaluationCache(spill_path=spill)
        rows = np.arange(4.0).reshape(2, 2)
        cache.store("fresh", rows)
        cache.close()

        with pytest.warns(RuntimeWarning):
            reader = LRUEvaluationCache(spill_path=spill)
        np.testing.assert_array_equal(reader.lookup("fresh", 2), rows)

    def test_close_is_idempotent(self, tmp_path):
        cache = LRUEvaluationCache(spill_path=tmp_path / "cache.jsonl")
        cache.store("k", np.zeros((1, 1)))
        cache.close()
        cache.close()


class TestEngineEquivalence:
    """The engine, cached or not, produces bit-identical estimates."""

    GAINS = [5, 0, 17, 3, 50, 1]

    def _run(self, problem, cache):
        engine = SerialEngine()
        engine.cache = cache
        states, ledger = _states(problem)
        engine.refine_round(problem, states, self.GAINS)
        return _fingerprint(states, ledger)

    @pytest.mark.parametrize("problem_factory", [make_sphere_problem])
    def test_cold_cache_matches_uncached_across_backends(self, problem_factory):
        problem = problem_factory()
        reference = self._run(problem, None)
        assert self._run(problem, LRUEvaluationCache()) == reference

    def test_warm_cache_matches_uncached_across_backends(self):
        problem = make_sphere_problem()
        reference = self._run(problem, None)
        cache = LRUEvaluationCache()
        self._run(problem, cache)  # populate
        before = cache.stats.to_dict()
        assert self._run(problem, cache) == reference
        delta = cache.stats.delta(before)
        assert delta["misses"] == 0
        assert delta["hits"] == sum(1 for g in self.GAINS if g > 0)


class TestLedgerFaithfulness:
    def test_cached_column_tracks_replayed_rows(self):
        problem = make_sphere_problem()
        cache = LRUEvaluationCache()
        engine = SerialEngine()
        engine.cache = cache

        cold, cold_ledger = _states(problem)
        engine.refine_round(problem, cold, [10] * len(cold))
        assert cold_ledger.cached == 0

        warm, warm_ledger = _states(problem)
        engine.refine_round(problem, warm, [10] * len(warm))
        assert warm_ledger.total == cold_ledger.total
        assert warm_ledger.cached == warm_ledger.total

    def test_ledger_serialization_round_trips_cached(self):
        ledger = SimulationLedger()
        ledger.charge(10, category="stage1")
        ledger.record_cached(7)
        clone = SimulationLedger.from_dict(ledger.to_dict())
        assert clone.cached == 7
        assert clone.total == 10
        assert ledger.snapshot().cached == 7


class TestOptimizeBitIdentity:
    def test_cold_cache_is_bit_identical_to_uncached(self):
        base = RunSpec(problem="sphere", method="moheco", seed=7, overrides=TINY)
        plain = optimize(base)
        cached = optimize(base.with_cache("lru"))
        assert cached.identity_dict() == plain.identity_dict()
        assert cached.n_simulations == plain.n_simulations
        assert cached.ledger.total == plain.ledger.total
        assert cached.cache_stats is not None
        assert cached.cache_stats["hits"] == 0
        assert plain.cache_stats is None

    def test_warm_run_is_bit_identical_and_charges_the_same(self, tmp_path):
        spec = RunSpec(
            problem="quadratic",
            method="moheco",
            seed=11,
            overrides=LS_HEAVY,
        ).with_cache("lru", spill_path=str(tmp_path / "spill.jsonl"))
        cold = optimize(spec)
        warm = optimize(spec)
        assert warm.identity_dict() == cold.identity_dict()
        assert warm.n_simulations == cold.n_simulations
        assert warm.cache_stats["hits"] > 0
        assert warm.cache_stats["misses"] == 0
        assert warm.ledger.cached == warm.cache_stats["hit_rows"]
        # The run is genuinely local-search-heavy: NM fired at least once.
        assert any(g.local_search_fired for g in cold.history)

    @pytest.mark.slow
    def test_netlist_ota_cold_and_warm_runs_match_uncached(self):
        # Circuit-priced rows: a cold cache run, then a warm re-run that
        # replays hits, both land on the uncached identity.
        config = dict(max_generations=3, pop_size=8, n0=20, n_max=120)
        reference = optimize("netlist_ota", seed=3, **config).identity_dict()
        cache = make_cache("lru")
        cold = optimize("netlist_ota", seed=3, cache=cache, **config)
        assert cold.identity_dict() == reference
        warm = optimize("netlist_ota", seed=3, cache=cache, **config)
        assert warm.identity_dict() == reference
        assert warm.cache_stats["hits"] > 0  # the re-run actually replayed

    def test_shared_instance_reports_per_run_deltas(self):
        cache = LRUEvaluationCache()
        kwargs = dict(method="moheco", seed=7, cache=cache, **TINY)
        cold = optimize("sphere", **kwargs)
        warm = optimize("sphere", **kwargs)
        assert cold.cache_stats["hits"] == 0
        assert warm.cache_stats["misses"] == 0
        assert warm.cache_stats["hit_rows"] == cold.cache_stats["miss_rows"]
        assert warm.identity_dict() == cold.identity_dict()

    def test_namespace_separates_problem_params(self, tmp_path):
        spill = str(tmp_path / "spill.jsonl")
        first = optimize(
            "sphere",
            method="moheco",
            seed=7,
            cache="lru",
            cache_params={"spill_path": spill},
            **TINY,
        )
        # Same registry name, different factory params: nothing may replay.
        other = optimize(
            "sphere",
            method="moheco",
            seed=7,
            problem_params={"sigma": 0.3},
            cache="lru",
            cache_params={"spill_path": spill},
            **TINY,
        )
        assert first.cache_stats["hits"] == 0
        assert other.cache_stats["hits"] == 0

    def test_pswcd_accepts_and_ignores_cache(self):
        result = optimize(
            "sphere",
            method="pswcd",
            seed=3,
            cache="lru",
            n_train=30,
            pop_size=8,
            max_generations=3,
        )
        assert result.cache_stats is None

    def test_result_serialization_round_trips_cache_stats(self):
        spec = RunSpec(problem="sphere", method="moheco", seed=7, overrides=TINY)
        result = optimize(spec.with_cache("lru"))
        clone = type(result).from_dict(result.to_dict())
        assert clone.cache_stats == result.cache_stats
        assert "cache_stats" not in result.identity_dict()


class TestRunSpecSurface:
    def test_round_trip(self):
        spec = RunSpec(
            problem="sphere",
            seed=1,
            cache="lru",
            cache_params={"max_bytes": 1024, "spill_path": "c.jsonl"},
        )
        clone = RunSpec.from_dict(json.loads(spec.to_json()))
        assert clone == spec
        assert clone.cache_params == {"max_bytes": 1024, "spill_path": "c.jsonl"}

    def test_with_cache(self):
        spec = RunSpec(problem="sphere").with_cache("lru", max_bytes=64)
        assert spec.cache == "lru"
        assert spec.cache_params == {"max_bytes": 64}
        assert spec.with_cache(None).cache is None

    def test_cache_params_require_cache(self):
        with pytest.raises(ValueError, match="cache_params"):
            RunSpec(problem="sphere", cache_params={"max_bytes": 1})

    def test_cache_must_be_a_name(self):
        with pytest.raises(ValueError, match="registry name"):
            RunSpec(problem="sphere", cache=LRUEvaluationCache())

    def test_optimize_rejects_params_without_cache(self):
        with pytest.raises(TypeError, match="cache name"):
            optimize("sphere", seed=1, cache_params={"max_bytes": 1}, **TINY)


class TestSweepSurface:
    def _spec(self, **kwargs):
        return SweepSpec(
            methods=(MethodSpec("moheco", overrides=TINY),),
            problems=(ProblemSpec("sphere"),),
            runs=2,
            base_seed=42,
            reference_n=500,
            **kwargs,
        )

    def test_cache_forwarded_to_expanded_runs(self):
        spec = self._spec(cache="lru", cache_params={"max_bytes": 2048})
        for run in spec.expand():
            assert run.spec.cache == "lru"
            assert run.spec.cache_params == {"max_bytes": 2048}

    def test_cache_excluded_from_sweep_hash(self):
        assert self._spec().sweep_hash() == self._spec(cache="lru").sweep_hash()

    def test_cache_params_require_cache(self):
        with pytest.raises(ValueError, match="cache_params"):
            self._spec(cache_params={"max_bytes": 1})

    def test_round_trip(self):
        spec = self._spec(cache="lru", cache_params={"spill_path": "c.jsonl"})
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_cached_sweep_records_match_plain_sweep(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarnings tolerated
            plain = run_sweep(self._spec(), workers=1)
            cached = run_sweep(
                self._spec(
                    cache="lru",
                    cache_params={"spill_path": str(tmp_path / "spill.jsonl")},
                ),
                workers=1,
            )
        for a, b in zip(plain.records, cached.records):
            assert a.identity_dict() == b.identity_dict()
            assert b.cache_stats is not None

    def test_record_round_trips_cache_stats(self):
        record = RunRecord(
            method="m",
            run_index=0,
            reported_yield=1.0,
            reference_yield=1.0,
            n_simulations=10,
            generations=1,
            reason="done",
            wall_seconds=0.5,
            result={"cache_stats": {"hits": 3}},
        )
        clone = RunRecord.from_dict(record.to_dict())
        assert clone.cache_stats == {"hits": 3}
        assert "cache_stats" not in record.identity_dict()["result"]
        assert RunRecord.from_dict(clone.identity_dict() | {"wall_seconds": 0.0})
        assert record.identity_dict() == clone.identity_dict()


class TestCLI:
    def _run_args(self, spill):
        args = [
            "run",
            "--problem",
            "sphere",
            "--method",
            "moheco",
            "--seed",
            "7",
            "--cache",
            "lru",
            "--cache-param",
            f"spill_path={spill}",
        ]
        for key, value in TINY.items():
            args += ["--set", f"{key}={value}"]
        return args

    def test_run_twice_reports_hits(self, tmp_path, capsys):
        from repro.api.cli import main

        spill = tmp_path / "spill.jsonl"
        assert main(self._run_args(spill)) == 0
        cold = capsys.readouterr().out
        assert "cache[lru]: hits=0" in cold
        assert main(self._run_args(spill)) == 0
        warm = capsys.readouterr().out
        assert "misses=0" in warm
        hits = int(warm.split("hits=")[1].split()[0])
        assert hits > 0

    def test_cache_param_requires_cache(self, tmp_path):
        from repro.api.cli import main

        with pytest.raises(SystemExit, match="--cache-param"):
            main(["run", "--problem", "sphere", "--cache-param", "max_bytes=1"])

    def test_list_caches(self, capsys):
        from repro.api.cli import main

        assert main(["list", "caches"]) == 0
        out = capsys.readouterr().out
        assert "caches:" in out
        assert "lru" in out
