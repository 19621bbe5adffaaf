"""Sweep orchestration: specs, store, executor, CLI."""

import json
import warnings

import numpy as np
import pytest

from repro.api import METHODS, optimize, register_method
from repro.api.cli import main
from repro.rng import independent_streams, run_streams
from repro.sweep import (
    MethodSpec,
    ProblemSpec,
    ResultStore,
    StoreMismatchError,
    SweepSpec,
    run_sweep,
)
from repro.core.callbacks import Callback, SweepProgressCallback
from repro.core.moheco import MOHECOResult


def tiny_spec(**kwargs) -> SweepSpec:
    """A 2-method x 3-run sphere grid that finishes in a few seconds."""
    defaults = dict(
        methods=(
            MethodSpec("moheco", label="MOHECO", overrides={"pop_size": 8, "n_max": 100}),
            MethodSpec(
                "fixed_budget", label="fixed100", overrides={"pop_size": 8, "n_fixed": 100}
            ),
        ),
        problems=(ProblemSpec("sphere", problem_params={"sigma": 0.2}),),
        runs=3,
        base_seed=42,
        reference_n=1000,
        max_generations=6,
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)




@pytest.fixture(scope="module")
def serial_result():
    return run_sweep(tiny_spec(), workers=1)


class TestRunStreams:
    def test_matches_independent_streams(self):
        streams = list(independent_streams(99, 6))
        for i in range(3):
            optimizer, reference = run_streams(99, i)
            assert (
                optimizer.integers(0, 1000, 5).tolist()
                == streams[2 * i].integers(0, 1000, 5).tolist()
            )
            assert (
                reference.integers(0, 1000, 5).tolist()
                == streams[2 * i + 1].integers(0, 1000, 5).tolist()
            )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            run_streams(1, -1)


class TestSweepSpec:
    def test_json_round_trip(self):
        spec = tiny_spec(cache="lru", tag="t")
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_bare_names_coerce(self):
        spec = SweepSpec.from_dict(
            {"methods": ["moheco"], "problems": ["sphere"], "runs": 2}
        )
        assert spec.methods[0].label == "moheco"
        assert spec.problems[0].problem_params == {}

    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(methods=(), problems=(ProblemSpec("sphere"),))
        with pytest.raises(ValueError):
            SweepSpec(methods=(MethodSpec("moheco"),), problems=())
        with pytest.raises(ValueError):
            tiny_spec(runs=0)
        with pytest.raises(ValueError):
            tiny_spec(cache_params={"max_bytes": 2})  # no cache name
        with pytest.raises(ValueError):
            tiny_spec(
                methods=(MethodSpec("moheco"), MethodSpec("moheco"))
            )  # duplicate labels
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"methods": ["moheco"], "problems": ["sphere"], "bogus": 1})
        # '|' is the store-key separator: cross-axis label combinations
        # like ('a', 'b|c') vs ('a|b', 'c') would collide into one key.
        with pytest.raises(ValueError, match=r"\|"):
            MethodSpec("moheco", label="a|b")
        with pytest.raises(ValueError, match=r"\|"):
            ProblemSpec("sphere", label="a|b")

    def test_hash_covers_results_not_execution(self):
        spec = tiny_spec()
        assert spec.sweep_hash() == tiny_spec(workers=4).sweep_hash()
        assert spec.sweep_hash() == tiny_spec(cache="lru").sweep_hash()
        assert spec.sweep_hash() == tiny_spec(tag="other").sweep_hash()
        assert spec.sweep_hash() != tiny_spec(runs=4).sweep_hash()
        assert spec.sweep_hash() != tiny_spec(base_seed=43).sweep_hash()
        assert spec.sweep_hash() != tiny_spec(reference_n=999).sweep_hash()

    def test_expand_grid(self):
        spec = tiny_spec(
            problems=(
                ProblemSpec("sphere", label="a"),
                ProblemSpec("quadratic", label="b"),
            )
        )
        runs = spec.expand()
        assert len(runs) == spec.total_runs == 2 * 2 * 3
        assert [r.ordinal for r in runs] == list(range(len(runs)))
        assert len({r.key for r in runs}) == len(runs)
        # problem-major, then method, then run index
        assert runs[0].problem_label == "a" and runs[0].method_label == "MOHECO"
        assert runs[3].method_label == "fixed100"
        # sweep-level max_generations merged into the per-run overrides...
        assert runs[0].spec.overrides["max_generations"] == 6
        assert runs[0].spec.seed == spec.base_seed

    def test_method_override_beats_sweep_max_generations(self):
        spec = tiny_spec(
            methods=(
                MethodSpec("moheco", overrides={"max_generations": 99}),
            )
        )
        assert spec.expand()[0].spec.overrides["max_generations"] == 99


class TestResultStore:
    def test_requires_resume_for_existing(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "store.jsonl"
        ResultStore.open(path, spec).close()
        with pytest.raises(FileExistsError):
            ResultStore.open(path, spec)
        ResultStore.open(path, spec, resume=True).close()

    def test_mismatched_spec_rejected(self, tmp_path):
        path = tmp_path / "store.jsonl"
        ResultStore.open(path, tiny_spec()).close()
        with pytest.raises(StoreMismatchError):
            ResultStore.open(path, tiny_spec(runs=5), resume=True)

    def test_non_store_file_rejected(self, tmp_path):
        path = tmp_path / "random.jsonl"
        path.write_text('{"hello": "world"}\n')
        with pytest.raises(StoreMismatchError):
            ResultStore.open(path, tiny_spec(), resume=True)

    def test_torn_line_dropped_and_compacted(self, tmp_path):
        spec = tiny_spec(runs=1, methods=(MethodSpec("moheco", overrides={"pop_size": 8, "n_max": 100}),))
        path = tmp_path / "store.jsonl"
        run_sweep(spec, store=path)
        lines = path.read_text().splitlines()
        # Simulate a kill mid-write: the last record's line is torn and
        # unterminated.
        path.write_text("\n".join(lines[:-1]) + '\n{"kind": "run", "key')
        with pytest.warns(RuntimeWarning, match="torn"):
            resumed = run_sweep(spec, store=path, resume=True)
        assert resumed.executed == 1  # the torn run re-executed
        # The re-executed record landed on its own line (not concatenated
        # onto the fragment) and survives the next resume cleanly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            replayed = run_sweep(spec, store=path, resume=True)
        assert replayed.executed == 0 and replayed.reused == spec.total_runs
        assert replayed.tables() == resumed.tables()


class TestShardedEqualsSerial:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_records_and_tables(self, serial_result, workers):
        sharded = run_sweep(tiny_spec(), workers=workers)
        assert sharded.tables() == serial_result.tables()
        for a, b in zip(serial_result.records, sharded.records):
            assert a.identity_dict() == b.identity_dict()
        for a, b in zip(serial_result.summaries(), sharded.summaries()):
            assert a.method == b.method
            np.testing.assert_array_equal(a.deviations(), b.deviations())
            np.testing.assert_array_equal(a.simulations(), b.simulations())

    def test_spec_workers_is_execution_only(self, serial_result):
        via_spec = run_sweep(tiny_spec(workers=2))
        assert via_spec.workers == 2
        assert via_spec.tables() == serial_result.tables()


class TestResume:
    def test_resume_completes_only_missing_runs(self, tmp_path, serial_result):
        spec = tiny_spec()
        path = tmp_path / "store.jsonl"
        full = run_sweep(spec, workers=1, store=path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + spec.total_runs
        # Simulate a kill after 2 completed runs.
        path.write_text("\n".join(lines[:3]) + "\n")
        resumed = run_sweep(spec, workers=2, store=path, resume=True)
        assert resumed.reused == 2
        assert resumed.executed == spec.total_runs - 2
        assert resumed.tables() == full.tables() == serial_result.tables()
        # The completed store replays entirely.
        replayed = run_sweep(spec, store=path, resume=True)
        assert replayed.executed == 0
        assert replayed.reused == spec.total_runs
        assert replayed.tables() == full.tables()

    def test_caller_supplied_store_must_match_spec(self, tmp_path):
        spec = tiny_spec(runs=1)
        path = tmp_path / "store.jsonl"
        run_sweep(spec, store=path)
        loaded = ResultStore.load(path)
        # Wrong spec: the records would replay under false pretenses.
        with pytest.raises(StoreMismatchError):
            run_sweep(tiny_spec(runs=2), store=loaded, resume=True)
        # Replaying a ready-made store's records is opt-in, like for paths.
        with pytest.raises(ValueError, match="resume=True"):
            run_sweep(spec, store=loaded)
        # Right spec but read-only store with pending runs: fail up front.
        half = ResultStore.load(path)
        half.completed.popitem()
        with pytest.raises(RuntimeError, match="not open for appends"):
            run_sweep(spec, store=half, resume=True)
        # Fully-complete read-only store replays fine (nothing to append).
        replayed = run_sweep(spec, store=ResultStore.load(path), resume=True)
        assert replayed.executed == 0 and replayed.reused == spec.total_runs

    def test_load_is_read_only(self, tmp_path):
        spec = tiny_spec(runs=1, methods=(MethodSpec("moheco", overrides={"pop_size": 8, "n_max": 100}),))
        path = tmp_path / "store.jsonl"
        run_sweep(spec, store=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "run", "key')  # another process mid-append
        before = path.read_text()
        with pytest.warns(RuntimeWarning, match="torn"):
            store = ResultStore.load(path)
        assert not store.writable
        assert path.read_text() == before  # inspection never rewrites

    def test_header_records_spec_and_hash(self, tmp_path):
        spec = tiny_spec(runs=1)
        path = tmp_path / "store.jsonl"
        run_sweep(spec, store=path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "sweep-header"
        assert header["sweep_hash"] == spec.sweep_hash()
        assert SweepSpec.from_dict(header["spec"]).sweep_hash() == spec.sweep_hash()


class TestFailureHandling:
    def test_worker_failure_persists_finished_runs(self, tmp_path):
        # The "boom" method fails inside the worker, at run time: it has no
        # validate_overrides hook, so its override passes the door and only
        # its runner refuses it.  The healthy runs that complete must still
        # land in the store so resume only re-executes what never ran.
        def refuse_overrides(problem, *, rng, ledger, callbacks, **overrides):
            raise TypeError(f"unexpected overrides {sorted(overrides)}")

        register_method("boom_for_test", refuse_overrides)
        spec = tiny_spec(
            methods=(
                MethodSpec("moheco", label="ok", overrides={"pop_size": 8, "n_max": 100}),
                MethodSpec("boom_for_test", label="boom", overrides={"bogus_override": 1}),
            ),
            runs=2,
        )
        path = tmp_path / "store.jsonl"
        try:
            with pytest.raises(Exception, match="bogus_override"):
                run_sweep(spec, workers=2, store=path)
        finally:
            METHODS.unregister("boom_for_test")
        survivors = ResultStore.load(path)
        assert 0 < len(survivors) <= 2
        assert all(r.method == "ok" for r in survivors.completed.values())

    def test_unknown_names_fail_before_creating_the_store(self, tmp_path):
        # A typo'd registry name, or a second method's bad override, must
        # not leave a header-only or partial store behind that blocks the
        # corrected rerun.
        path = tmp_path / "store.jsonl"
        bad_override = (
            MethodSpec("moheco", label="ok", overrides={"pop_size": 8}),
            MethodSpec("moheco", label="tiny", overrides={"pop_size": 2}),
        )
        for bad, match in (
            (tiny_spec(problems=(ProblemSpec("no-such-problem"),)), "no-such-problem"),
            (tiny_spec(methods=bad_override), r"methods\[1\]\.overrides"),
        ):
            with pytest.raises(ValueError, match=match):
                run_sweep(bad, store=path)
            assert not path.exists()
        good = run_sweep(tiny_spec(runs=1), store=path)  # no FileExistsError
        assert good.executed == 2


class TestRunRecordPayload:
    def test_result_is_plain_dict(self, serial_result):
        for record in serial_result.records:
            assert isinstance(record.result, dict)
            rebuilt = MOHECOResult.from_dict(record.result)
            assert rebuilt.n_simulations == record.n_simulations
            assert rebuilt.best_yield == record.reported_yield

    def test_round_trip(self, serial_result):
        from repro.sweep import RunRecord

        record = serial_result.records[0]
        assert RunRecord.from_dict(record.to_dict()) == record

    def test_record_and_result_share_one_identity_rule(self):
        from repro.sweep import RunRecord

        # lru fills every observational field the rule drops.
        result = optimize(
            "sphere", seed=7, cache="lru", pop_size=8, n_max=100,
            max_generations=4,
        )
        assert result.cache_stats is not None
        record = RunRecord(
            method="moheco", run_index=0, reported_yield=result.best_yield,
            reference_yield=1.0, n_simulations=result.n_simulations,
            generations=result.generations, reason=result.reason,
            wall_seconds=1.0, result=result.to_dict(),
        )
        assert record.identity_dict()["result"] == result.identity_dict()


class TestCallbacks:
    def test_sweep_hooks_fire(self):
        events = []

        class Recorder(Callback):
            def on_sweep_start(self, sweep, total, pending):
                events.append(("start", total, pending))

            def on_sweep_run_end(self, sweep, run, record, done, total):
                events.append(("run", run.key, done, total))

            def on_sweep_end(self, sweep, result):
                events.append(("end", result.executed))

        spec = tiny_spec(runs=1)
        run_sweep(spec, callbacks=[Recorder()])
        assert events[0] == ("start", 2, 2)
        assert events[-1] == ("end", 2)
        assert [e[2] for e in events[1:-1]] == [1, 2]

    def test_progress_callback_prints(self):
        lines = []
        spec = tiny_spec(runs=1, methods=(MethodSpec("moheco", overrides={"pop_size": 8, "n_max": 100}),))
        run_sweep(spec, callbacks=[SweepProgressCallback(print_fn=lines.append)])
        assert any("sweep:" in line for line in lines)
        assert any("sweep done" in line for line in lines)


class TestSweepCLI:
    ARGS = [
        "sweep",
        "--problem", "sphere",
        "--method", "moheco",
        "--method", "fixed_budget",
        "--runs", "2",
        "--base-seed", "42",
        "--reference-n", "1000",
        "--max-generations", "6",
        "--set", "pop_size=8",
        "--workers", "2",
    ]

    def test_end_to_end_with_store(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        assert main([*self.ARGS, "--out", str(store), "--progress"]) == 0
        out = capsys.readouterr().out
        assert "Deviation of the yield results" in out
        assert "Total number of simulations" in out
        assert "4 run(s) executed" in out
        lines = store.read_text().splitlines()
        assert len(lines) == 1 + 4
        # resume executes nothing new
        assert main([*self.ARGS, "--out", str(store), "--resume"]) == 0
        assert "0 run(s) executed, 4 resumed" in capsys.readouterr().out

    def test_spec_file_input(self, tmp_path, capsys):
        spec = tiny_spec(runs=1)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(spec.to_json())
        assert main(["sweep", "--spec", str(spec_path), "--no-tables"]) == 0
        assert "2 run(s) executed" in capsys.readouterr().out

    def test_grid_flags_override_spec_file(self, tmp_path, capsys):
        spec = tiny_spec(runs=1)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(spec.to_json())
        assert (
            main(
                ["sweep", "--spec", str(spec_path), "--method", "moheco",
                 "--set", "pop_size=8", "--set", "n_max=100"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "1 run(s) executed" in out  # one method instead of the file's two
        assert "fixed100" not in out

    def test_requires_grid(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--problem", "sphere"])  # no --method

    @pytest.mark.parametrize(
        "bad_flags",
        [
            ["--runs", "0"],
            ["--method", "moheco"],  # duplicates the base --method moheco
        ],
    )
    def test_spec_validation_errors_are_clean(self, bad_flags):
        # Grid mistakes surface as the CLI's `error: ...` form, not a
        # traceback (SystemExit with a message, like `run`).
        with pytest.raises(SystemExit, match="error:"):
            main([*self.ARGS, *bad_flags, "--no-tables", "--quiet"])

    def test_existing_store_without_resume_fails_cleanly(self, tmp_path):
        store = tmp_path / "store.jsonl"
        assert main([*self.ARGS, "--out", str(store), "--no-tables", "--quiet"]) == 0
        with pytest.raises(SystemExit, match="error:"):
            main([*self.ARGS, "--out", str(store)])

    def test_negative_base_seed_fails_before_creating_the_store(self, tmp_path):
        store = tmp_path / "store.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main([*self.ARGS, "--base-seed", "-5", "--out", str(store)])
        message = str(excinfo.value.code)
        assert message.startswith("error: SweepSpec.base_seed: ")
        assert "\n" not in message
        assert not store.exists()
        # The corrected rerun is not blocked by a leftover store.
        assert main([*self.ARGS, "--out", str(store), "--no-tables", "--quiet"]) == 0
