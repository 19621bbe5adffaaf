"""The unified public API: registries, RunSpec, optimize, callbacks,
batched evaluation, result serialization and the CLI."""

import json

import numpy as np
import pytest

from repro import MOHECOResult, RunSpec, optimize
from repro.api import (
    METHODS,
    PROBLEMS,
    SAMPLERS,
    Callback,
    EarlyStopOnYield,
    list_methods,
    list_problems,
    register_method,
    register_problem,
)
from repro.api.cli import main as cli_main
from repro.ledger import SimulationLedger
from repro.problems import make_sphere_problem
from repro.registry import DuplicateNameError, Registry, UnknownNameError
from repro.sampling import make_sampler

TINY = {"pop_size": 8, "max_generations": 6}


@pytest.fixture(scope="module")
def sphere():
    return make_sphere_problem(sigma=0.2)


class TestRegistry:
    def test_register_and_lookup(self):
        registry = Registry("thing")
        registry.register("alpha", int)
        assert registry.get("alpha") is int
        assert registry.get("ALPHA") is int  # case-insensitive
        assert "alpha" in registry and len(registry) == 1

    def test_decorator_registration(self):
        registry = Registry("thing")

        @registry.register("beta")
        def factory():
            return 42

        assert registry.create("beta") == 42

    def test_duplicate_name_rejected(self):
        registry = Registry("thing")
        registry.register("alpha", int)
        with pytest.raises(DuplicateNameError):
            registry.register("alpha", float)
        registry.register("alpha", float, overwrite=True)
        assert registry.get("alpha") is float

    def test_unknown_name_lists_registered(self):
        registry = Registry("widget")
        registry.register("alpha", int)
        registry.register("beta", float)
        with pytest.raises(UnknownNameError, match="alpha, beta"):
            registry.get("gamma")

    def test_builtin_registries_populated(self):
        assert {"moheco", "oo_only", "fixed_budget", "pswcd"} <= set(list_methods())
        assert {"sphere", "quadratic", "folded_cascode", "telescopic"} <= set(
            list_problems()
        )
        assert {"pmc", "lhs", "sobol"} <= set(SAMPLERS.names())

    def test_make_sampler_error_lists_names_dynamically(self, sphere):
        with pytest.raises(ValueError, match="lhs, pmc, sobol"):
            make_sampler("halton", sphere.variation)
        SAMPLERS.register("halton_stub", object)
        try:
            with pytest.raises(ValueError, match="halton_stub"):
                make_sampler("nope", sphere.variation)
        finally:
            SAMPLERS.unregister("halton_stub")

    def test_method_and_problem_errors_list_names(self):
        with pytest.raises(UnknownNameError, match="moheco"):
            METHODS.get("genetic")
        with pytest.raises(UnknownNameError, match="sphere"):
            PROBLEMS.get("cube")


class TestRunSpec:
    def test_json_round_trip(self):
        spec = RunSpec(
            problem="sphere",
            method="oo_only",
            seed=11,
            problem_params={"dimension": 3, "sigma": 0.25},
            overrides={"pop_size": 10, "n_max": 200},
            tag="unit-test",
        )
        assert RunSpec.from_json(spec.to_json()) == spec
        assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_defaults(self):
        spec = RunSpec(problem="sphere")
        assert spec.method == "moheco" and spec.seed is None
        assert RunSpec.from_dict({"problem": "sphere"}) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown RunSpec keys"):
            RunSpec.from_dict({"problem": "sphere", "n_max": 100})

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            RunSpec(problem="")
        with pytest.raises(ValueError):
            RunSpec(problem="sphere", method=42)

    def test_with_overrides_and_seed(self):
        spec = RunSpec(problem="sphere", overrides={"pop_size": 8})
        derived = spec.with_overrides(n_max=100).with_seed(3)
        assert derived.overrides == {"pop_size": 8, "n_max": 100}
        assert derived.seed == 3
        assert spec.overrides == {"pop_size": 8}  # original untouched

    def test_hashable_for_sets_and_caching(self):
        a = RunSpec(problem="sphere", overrides={"pop_size": 8})
        b = RunSpec(problem="sphere", overrides={"pop_size": 8})
        c = a.with_seed(1)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, c}) == 2

    def test_detached_from_caller_dicts(self):
        params = {"dimension": 3}
        spec = RunSpec(problem="sphere", problem_params=params)
        before = hash(spec)
        params["dimension"] = 4  # caller mutates their dict afterwards
        assert spec.problem_params == {"dimension": 3}
        assert hash(spec) == before


class TestOptimizeDriver:
    def test_problem_name_and_object_agree(self, sphere):
        by_name = optimize("sphere", seed=5, problem_params={"sigma": 0.2}, **TINY)
        by_object = optimize(sphere, seed=5, **TINY)
        assert by_name.best_yield == by_object.best_yield
        assert by_name.n_simulations == by_object.n_simulations

    def test_spec_overrides_merge(self):
        spec = RunSpec(problem="sphere", seed=1, overrides={"pop_size": 8})
        result = optimize(spec, max_generations=3)
        assert result.generations <= 3

    def test_problem_params_with_object_rejected(self, sphere):
        with pytest.raises(TypeError):
            optimize(sphere, problem_params={"sigma": 0.3})

    def test_unknown_method_and_problem(self, sphere):
        with pytest.raises(UnknownNameError):
            optimize(sphere, method="annealing")
        with pytest.raises(UnknownNameError):
            optimize("hypercube")

    def test_non_yield_problem_rejected_before_simulating(self, sphere):
        """An object that only looks like a YieldProblem fails at the door,
        passed directly or returned by a registered factory."""

        class LegacyProblem:
            def __init__(self, inner):
                self._inner = inner
                self.specs = inner.specs
                self.space = inner.space
                self.variation = inner.variation
                self.design_dimension = inner.design_dimension
                self.name = "legacy"

            def simulate(self, x, samples, ledger=None, category="mc"):
                X = np.broadcast_to(x, (len(samples), len(x)))
                return self._inner.evaluate_pairs(X, samples, ledger, category)

            def nominal_feasibility(self, x, ledger=None):
                return self._inner.nominal_feasibility(x, ledger)

        ledger = SimulationLedger()
        with pytest.raises(TypeError, match="YieldProblem"):
            optimize(LegacyProblem(sphere), seed=1, ledger=ledger, **TINY)
        assert ledger.grand_total == 0
        register_problem("legacy_for_test", lambda: LegacyProblem(sphere))
        try:
            with pytest.raises(TypeError, match="YieldProblem"):
                optimize("legacy_for_test", seed=1, ledger=ledger, **TINY)
        finally:
            PROBLEMS.unregister("legacy_for_test")
        assert ledger.grand_total == 0

    def test_custom_method_registration(self, sphere):
        calls = {}

        def fake_runner(problem, *, rng=None, ledger=None, callbacks=None, **kw):
            calls["overrides"] = kw
            return "sentinel"

        register_method("fake_method_for_test", fake_runner)
        try:
            out = optimize(sphere, method="fake_method_for_test", answer=42)
            assert out == "sentinel" and calls["overrides"] == {"answer": 42}
        finally:
            METHODS.unregister("fake_method_for_test")

    def test_custom_problem_registration(self):
        register_problem("sphere_tiny_for_test", lambda: make_sphere_problem(2, 0.3))
        try:
            result = optimize("sphere_tiny_for_test", seed=2, **TINY)
            assert result.best_x.shape == (2,)
        finally:
            PROBLEMS.unregister("sphere_tiny_for_test")

    def test_pswcd_method_runs(self, sphere):
        result = optimize(sphere, method="pswcd", seed=4, n_train=60,
                          pop_size=8, max_generations=5)
        assert 0.0 <= result.best_yield <= 1.0
        assert result.reason == "pswcd"
        assert result.n_simulations > 0

    def test_pswcd_reports_actual_generations(self, sphere):
        result = optimize(sphere, method="pswcd", seed=4, n_train=40,
                          pop_size=8, max_generations=200, patience=2)
        # Patience-based early stop: the reported count is the DE run's,
        # not the configured ceiling.
        assert 0 < result.generations < 200

    def test_seed_argument_overrides_spec_seed(self):
        spec = RunSpec(problem="sphere", seed=1,
                       overrides={"pop_size": 8, "max_generations": 4})
        swept = optimize(spec, seed=9)
        direct = optimize(spec.with_seed(9))
        assert swept.best_yield == direct.best_yield
        assert swept.n_simulations == direct.n_simulations

    def test_conflicting_method_with_spec_rejected(self):
        spec = RunSpec(problem="sphere", method="oo_only")
        with pytest.raises(TypeError, match="conflicting method"):
            optimize(spec, method="fixed_budget")
        # Even the registry default conflicts when stated explicitly.
        with pytest.raises(TypeError, match="conflicting method"):
            optimize(spec, method="moheco")
        # ...but a case variant of the spec's own method is no conflict.
        result = optimize(spec.with_overrides(pop_size=8, max_generations=2),
                          method="OO_ONLY", seed=1)
        assert result.n_simulations > 0

    def test_unknown_config_override_lists_fields(self, sphere):
        with pytest.raises(ValueError, match="valid fields: .*pop_size"):
            optimize(sphere, seed=1, bogus=3)

    def test_fixed_budget_n_max_override_wins_over_alias(self, sphere):
        result = optimize(sphere, method="fixed_budget", seed=1,
                          n_fixed=50, n_max=60, pop_size=8, max_generations=2)
        # Legacy with_overrides semantics: the explicit config field wins.
        assert result.best_estimate.n >= 60


class RecordingCallback(Callback):
    def __init__(self):
        self.events = []

    def on_run_start(self, engine):
        self.events.append(("run_start", None))

    def on_generation_end(self, engine, record):
        self.events.append(("generation_end", record.generation))

    def on_stage2_promotion(self, engine, individual):
        self.events.append(("stage2", individual.yield_value))

    def on_local_search(self, engine, generation, incumbent, improved):
        self.events.append(("local_search", generation))

    def on_stop(self, engine, result):
        self.events.append(("stop", result.reason))


class TestCallbacks:
    def test_invocation_order(self, sphere):
        recorder = RecordingCallback()
        result = optimize(sphere, seed=3, callbacks=[recorder], **TINY)
        kinds = [kind for kind, _ in recorder.events]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "stop"
        generations = [g for kind, g in recorder.events if kind == "generation_end"]
        # One generation_end per recorded generation, in order, starting at 0.
        assert generations == list(range(len(result.history)))
        # The run saw at least one stage-2 promotion (the sphere reaches
        # high yield quickly), and it happened before the final stop event.
        assert "stage2" in kinds
        assert kinds.index("stage2") < kinds.index("stop")

    def test_early_stop_callback(self, sphere):
        result = optimize(sphere, seed=3, callbacks=[EarlyStopOnYield(0.5)],
                          pop_size=8, max_generations=50)
        assert result.reason == "callback_stop"
        assert result.generations < 50

    def test_early_stop_at_generation_zero(self, sphere):
        class StopNow(Callback):
            def on_generation_end(self, engine, record):
                return True

        result = optimize(sphere, seed=3, callbacks=[StopNow()], **TINY)
        assert result.generations == 0
        assert result.reason == "callback_stop"

    def test_no_callbacks_is_default(self, sphere):
        a = optimize(sphere, seed=9, **TINY)
        b = optimize(sphere, seed=9, callbacks=[RecordingCallback()], **TINY)
        assert a.best_yield == b.best_yield
        assert a.n_simulations == b.n_simulations


class TestBatchedEvaluation:
    def test_fused_pairs_match_per_design_calls(self, sphere):
        """All designs' pairs in one call equal one call per design."""
        rng = np.random.default_rng(0)
        X = sphere.space.sample(5, rng)
        samples = sphere.variation.sample(40, rng)
        fused = (np.repeat(X, 40, axis=0), np.tile(samples, (5, 1)))
        batched = sphere.evaluate_pairs(*fused).reshape(5, 40, -1)
        assert batched.shape == (5, 40, len(sphere.specs))
        for i, x in enumerate(X):
            single = sphere.evaluate_pairs(np.broadcast_to(x, (40, x.size)), samples)
            np.testing.assert_allclose(batched[i], single)

    def test_ledger_charged_per_design_sample(self, sphere):
        ledger = SimulationLedger()
        X = sphere.space.sample(3, np.random.default_rng(2))
        samples = sphere.variation.sample(7, np.random.default_rng(3))
        sphere.evaluate_pairs(
            np.repeat(X, 7, axis=0), np.tile(samples, (3, 1)), ledger, category="mc"
        )
        assert ledger.count("mc") == 3 * 7

    def test_nominal_feasibility_batch_matches_scalar(self, sphere):
        X = sphere.space.sample(6, np.random.default_rng(4))
        feasible, violations = sphere.nominal_feasibility_batch(X)
        for i, x in enumerate(X):
            f, v = sphere.nominal_feasibility(x)
            assert feasible[i] == f
            assert violations[i] == pytest.approx(v)


class TestResultSerialization:
    def test_round_trip(self, sphere):
        result = optimize(sphere, seed=6, **TINY)
        data = json.loads(json.dumps(result.to_dict()))  # through real JSON
        rebuilt = MOHECOResult.from_dict(data)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.best_yield == result.best_yield
        assert rebuilt.n_simulations == result.n_simulations
        assert rebuilt.ledger.total == result.ledger.total
        assert len(rebuilt.history) == len(result.history)
        np.testing.assert_array_equal(rebuilt.best_x, result.best_x)

    def test_history_series_survive(self, sphere):
        result = optimize(sphere, seed=8, **TINY)
        rebuilt = MOHECOResult.from_dict(result.to_dict())
        np.testing.assert_array_equal(
            rebuilt.history.best_yield_series(), result.history.best_yield_series()
        )
        np.testing.assert_array_equal(
            rebuilt.history.simulations_series(), result.history.simulations_series()
        )

    def test_payload_with_engine_decision_still_loads(self, sphere):
        # Result files written while MOHECOResult had an ``engine_decision``
        # field carry it as null; the field is gone, the file still loads.
        result = optimize(sphere, seed=6, **TINY)
        data = json.loads(json.dumps(result.to_dict()))
        data["engine_decision"] = None
        rebuilt = MOHECOResult.from_dict(data)
        assert rebuilt.identity_dict() == result.identity_dict()

    def test_payload_with_cache_fields_still_loads(self, sphere):
        # Result files written while runs could replay rows from a
        # warm-start cache carry its per-run stats and the ledger's
        # "cached" column; neither was part of the identity, and loading
        # drops both.
        result = optimize(sphere, seed=6, **TINY)
        data = json.loads(json.dumps(result.to_dict()))
        data["cache_stats"] = {"hits": 2, "misses": 5, "hit_rows": 30}
        data["ledger"]["cached"] = 30
        rebuilt = MOHECOResult.from_dict(data)
        assert rebuilt.identity_dict() == result.identity_dict()
        assert rebuilt.to_dict() == result.to_dict()
        assert "cached" not in rebuilt.to_dict()["ledger"]


class TestCLI:
    def test_run_writes_result_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = cli_main([
            "run", "--problem", "sphere", "--method", "moheco", "--seed", "7",
            "--set", "pop_size=8", "--set", "max_generations=4",
            "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["spec"]["problem"] == "sphere"
        assert payload["spec"]["seed"] == 7
        assert 0.0 <= payload["result"]["best_yield"] <= 1.0
        assert payload["result"]["n_simulations"] > 0
        assert "sphere" in capsys.readouterr().out

    def test_run_from_spec_file(self, tmp_path):
        spec = RunSpec(problem="sphere", seed=5,
                       overrides={"pop_size": 8, "max_generations": 3})
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec.to_json())
        out = tmp_path / "out.json"
        assert cli_main(["run", "--spec", str(spec_file), "--quiet",
                         "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["spec"] == spec.to_dict()

    def test_cli_matches_api(self, tmp_path):
        out = tmp_path / "result.json"
        cli_main([
            "run", "--problem", "sphere", "--seed", "7", "--quiet",
            "--set", "pop_size=8", "--set", "max_generations=4",
            "--out", str(out),
        ])
        api_result = optimize(
            RunSpec(problem="sphere", seed=7,
                    overrides={"pop_size": 8, "max_generations": 4})
        )
        payload = json.loads(out.read_text())
        assert payload["result"]["best_yield"] == api_result.best_yield
        assert payload["result"]["n_simulations"] == api_result.n_simulations

    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        for needle in ("moheco", "sphere", "lhs"):
            assert needle in output

    def test_run_requires_problem_or_spec(self):
        with pytest.raises(SystemExit):
            cli_main(["run"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--problem", "sphere", "--cache", "lru"],
            ["sweep", "--problem", "sphere", "--cache-param", "max_bytes=5"],
            ["serve", "--no-shared-cache"],
            ["list", "caches"],
        ],
        ids=["run-cache", "sweep-cache-param", "serve-no-shared-cache", "list-caches"],
    )
    def test_retired_cache_flags_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2  # argparse's usage error
        assert "cache" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec_text, flags, named",
        [
            ('{"problem": "sphere", "bogus": 1}', [], "RunSpec.bogus"),
            ('{"problem": ', [], "--spec"),
            (None, ["--problem", "sphere", "--set", "pop_size=2"], "RunSpec.overrides"),
            (
                None,
                ["--problem", "sphere", "--problem-param", "dimension=abc"],
                "RunSpec.problem_params",
            ),
            (
                None,
                ["--problem", "sphere", "--problem-param", "sigma=-1"],
                "RunSpec.problem_params: sigma must be non-negative",
            ),
            ('{"problem": "sphere", "engine": "process"}', [], "RunSpec.engine: "),
            (
                '{"problem": "sphere", "cache": null, "cache_params": {}}',
                [],
                "RunSpec.cache: ",
            ),
            (None, ["--problem", "sphere", "--seed", "-1"], "RunSpec.seed: "),
        ],
        ids=[
            "unknown-key",
            "malformed-json",
            "bad-override-value",
            "bad-problem-param-value",
            "negative-sigma",
            "retired-engine",
            "retired-cache-keys",
            "negative-seed",
        ],
    )
    def test_user_errors_exit_with_one_line(self, tmp_path, spec_text, flags, named):
        if spec_text is not None:
            spec_file = tmp_path / "spec.json"
            spec_file.write_text(spec_text)
            flags = ["--spec", str(spec_file), *flags]
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["run", *flags])
        message = str(excinfo.value.code)
        assert message.startswith("error: ") and "\n" not in message
        assert named in message

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--problem", "sphere", "--set", "pop_size=8"],
            ["sweep", "--problem", "sphere", "--method", "moheco", "--runs", "1"],
        ],
        ids=["run", "sweep"],
    )
    def test_unwritable_out_fails_before_the_run(self, tmp_path, monkeypatch, command):
        import repro.api.cli

        def never(*args, **kwargs):
            raise AssertionError("ran before checking --out")

        monkeypatch.setattr(repro.api.cli, "optimize", never)
        monkeypatch.setattr(repro.api.cli, "run_sweep", never)
        out = tmp_path / "missing-dir" / "out.json"
        with pytest.raises(SystemExit) as excinfo:
            cli_main([*command, "--out", str(out)])
        message = str(excinfo.value.code)
        assert message.startswith(f"error: --out {out}: ") and "\n" not in message
        assert "does not exist" in message
        assert not out.parent.exists()

    def test_bad_override_syntax(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "--problem", "sphere", "--set", "pop_size"])
