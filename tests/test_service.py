"""Optimization service: spec errors, job manager, HTTP round-trips, CLI."""

import json
import threading

import pytest

from repro.api import optimize
from repro.api.cli import main
from repro.api.errors import SpecError, validate_run_spec, validate_sweep_spec
from repro.api.spec import RunSpec
from repro.core.callbacks import Callback, wants_run_progress
from repro.core.moheco import MOHECOResult
from repro.service import (
    TERMINAL_STATES,
    JobManager,
    ServiceClient,
    ServiceError,
    serve,
)
from repro.sweep import SweepSpec, run_sweep

TINY_RUN = {
    "problem": "sphere",
    "method": "moheco",
    "seed": 11,
    "overrides": {"max_generations": 4, "pop_size": 10},
}

# Slow enough (~1 s/generation) that cancellation lands mid-run.
SLOW_RUN = {
    "problem": "folded_cascode",
    "seed": 5,
    "overrides": {"max_generations": 400, "pop_size": 80},
}

TINY_SWEEP = {
    "methods": [
        {"method": "moheco", "overrides": {"pop_size": 8, "n_max": 100}},
        {"method": "fixed_budget", "overrides": {"pop_size": 8, "n_fixed": 100}},
    ],
    "problems": ["sphere"],
    "runs": 2,
    "base_seed": 7,
    "max_generations": 4,
}

#: Payloads whose errors used to escape SpecError (bare TypeError or
#: ValueError) or pass silently (a misspelled key inside a grid entry),
#: with the field the structured error must name.
MALFORMED_SPECS = [
    (
        "sweep",
        dict(TINY_SWEEP, methods=[{"method": "moheco", "overrides": 5}]),
        "methods[0].overrides",
    ),
    ("sweep", dict(TINY_SWEEP, runs=0), "runs"),
    ("sweep", dict(TINY_SWEEP, reference_n=0), "reference_n"),
    (
        "sweep",
        dict(
            TINY_SWEEP,
            methods=[
                {
                    "method": "fixed_budget",
                    "label": "300 simulations (AS+LHS)",
                    "overides": {"n_fixed": 300},
                }
            ],
        ),
        "methods[0].overides",
    ),
    (
        "sweep",
        dict(TINY_SWEEP, problems=[{"problem": "sphere", "params": {}}]),
        "problems[0].params",
    ),
    (
        "sweep",
        dict(TINY_SWEEP, problems=[{"problem": "sphere", "label": 3}]),
        "problems[0].label",
    ),
    ("sweep", dict(TINY_SWEEP, methods=["moheco", "moheco"]), "methods"),
    ("sweep", dict(TINY_SWEEP, engine_params={"workers": 2}), "engine_params"),
    ("run", dict(TINY_RUN, engine_params={"workers": 2}), "engine_params"),
    ("run", dict(TINY_RUN, method=7), "method"),
]


class TestSpecError:
    def test_unknown_run_key_is_structured(self):
        with pytest.raises(SpecError) as excinfo:
            RunSpec.from_dict({"problem": "sphere", "pop_size": 8})
        error = excinfo.value
        assert error.spec == "RunSpec"
        assert error.field == "pop_size"
        assert "unknown RunSpec keys" in error.reason
        body = error.to_dict()
        assert body["error"] == "invalid_spec"
        assert body["field"] == "pop_size"

    def test_wrong_type_names_the_field(self):
        with pytest.raises(SpecError) as excinfo:
            RunSpec.from_dict({"problem": "sphere", "seed": "seven"})
        assert excinfo.value.field == "seed"
        with pytest.raises(SpecError) as excinfo:
            RunSpec.from_dict({"problem": "sphere", "overrides": [1, 2]})
        assert excinfo.value.field == "overrides"

    def test_bool_seed_rejected(self):
        with pytest.raises(SpecError) as excinfo:
            RunSpec.from_dict({"problem": "sphere", "seed": True})
        assert excinfo.value.field == "seed"

    def test_non_dict_payload(self):
        with pytest.raises(SpecError):
            RunSpec.from_dict(["problem", "sphere"])
        with pytest.raises(SpecError):
            SweepSpec.from_dict("methods: [moheco]")

    def test_unregistered_names_resolve_at_validation(self):
        spec = RunSpec.from_dict(dict(TINY_RUN, problem="not_a_problem"))
        with pytest.raises(SpecError) as excinfo:
            validate_run_spec(spec)
        assert excinfo.value.field == "problem"
        assert "not_a_problem" in excinfo.value.reason

    def test_engine_and_cache_params_bound_at_validation(self):
        spec = RunSpec(problem="sphere", engine="process", engine_params={"workerz": 2})
        with pytest.raises(SpecError) as excinfo:
            validate_run_spec(spec)
        assert excinfo.value.field == "engine_params"
        assert "workerz" in excinfo.value.reason
        assert "workers" in excinfo.value.reason.split("accepts")[1]
        spec = RunSpec(problem="sphere", cache="lru", cache_params={"max_byts": 5})
        with pytest.raises(SpecError) as excinfo:
            validate_run_spec(spec)
        assert excinfo.value.field == "cache_params"
        assert "max_bytes" in excinfo.value.reason

    def test_params_are_bound_not_constructed(self, tmp_path):
        # A cache spill file must not be opened by validating the spec.
        spill = tmp_path / "never.jsonl"
        validate_run_spec(
            RunSpec(
                problem="sphere",
                engine="process",
                engine_params={"workers": 2},
                cache="lru",
                cache_params={"spill_path": str(spill)},
            )
        )
        assert not spill.exists()

    def test_sweep_engine_and_cache_params_bound_at_validation(self):
        spec = SweepSpec.from_dict(
            dict(TINY_SWEEP, engine="auto", engine_params={"transfer": "shm"})
        )
        with pytest.raises(SpecError) as excinfo:
            validate_sweep_spec(spec)
        assert excinfo.value.field == "engine_params"
        assert excinfo.value.spec == "SweepSpec"
        spec = SweepSpec.from_dict(
            dict(TINY_SWEEP, cache="lru", cache_params={"keys": "sample"})
        )
        with pytest.raises(SpecError) as excinfo:
            validate_sweep_spec(spec)
        assert excinfo.value.field == "cache_params"

    def test_sweep_method_index_in_field(self):
        spec = SweepSpec.from_dict(
            dict(TINY_SWEEP, methods=["moheco", "not_a_method"])
        )
        with pytest.raises(SpecError) as excinfo:
            validate_sweep_spec(spec)
        assert excinfo.value.field == "methods[1].method"

    def test_sweep_unknown_key(self):
        with pytest.raises(SpecError) as excinfo:
            SweepSpec.from_dict(dict(TINY_SWEEP, seeds=[1, 2]))
        assert "unknown SweepSpec keys" in excinfo.value.reason

    def test_method_entry_requires_method_key(self):
        with pytest.raises(SpecError) as excinfo:
            SweepSpec.from_dict(dict(TINY_SWEEP, methods=[{"label": "x"}]))
        assert excinfo.value.field == "methods[0].method"
        assert "missing its 'method'" in excinfo.value.reason

    @pytest.mark.parametrize(
        "kind, payload, field",
        MALFORMED_SPECS,
        ids=[f"{kind}:{field}" for kind, _, field in MALFORMED_SPECS],
    )
    def test_malformed_payload_names_the_field(self, kind, payload, field):
        parse = RunSpec.from_dict if kind == "run" else SweepSpec.from_dict
        with pytest.raises(SpecError) as excinfo:
            parse(payload)
        assert excinfo.value.field == field


class TestSweepProgressBridge:
    """Satellite: per-generation progress streams out of sweep workers."""

    class _Collector(Callback):
        def __init__(self):
            self.records = []
            self.runs_seen = set()

        def on_sweep_run_progress(self, sweep, run, record):
            self.records.append(record)
            self.runs_seen.add(run.key)

    def _spec(self):
        return SweepSpec.from_dict(TINY_SWEEP)

    def test_wants_run_progress_detection(self):
        assert not wants_run_progress(Callback())
        assert wants_run_progress(self._Collector())

    @pytest.mark.parametrize("workers", [1, 2])
    def test_generation_records_stream(self, workers, tmp_path):
        collector = self._Collector()
        result = run_sweep(
            self._spec(),
            workers=workers,
            callbacks=[collector],
            store=str(tmp_path / "s.jsonl"),
        )
        assert len(result.records) == 4
        assert collector.records, "no generation progress crossed the pool"
        assert collector.runs_seen == {r.key for r in self._spec().expand()}
        sample = collector.records[0]
        assert "generation" in sample and "simulations_total" in sample

    def test_cancel_before_start_executes_nothing(self, tmp_path):
        cancel = threading.Event()
        cancel.set()
        result = run_sweep(
            self._spec(), workers=1, cancel=cancel, store=str(tmp_path / "s.jsonl")
        )
        assert result.cancelled
        assert result.executed == 0
        assert result.records == []

    def test_cancelled_pool_sweep_persists_no_partial_runs(self, tmp_path):
        """Anything reaching the store must be a complete, resumable record."""
        store = tmp_path / "s.jsonl"
        cancel = threading.Event()

        class Tripwire(Callback):
            def on_sweep_run_end(self, sweep, run, record, done, total):
                cancel.set()

        result = run_sweep(
            self._spec(), workers=2, cancel=cancel, callbacks=[Tripwire()],
            store=str(store),
        )
        assert result.cancelled
        persisted = [
            json.loads(line)
            for line in store.read_text().splitlines()
            if line.strip()
        ][1:]  # skip the header
        assert len(persisted) == len(result.records)
        for row in persisted:
            assert row["record"]["reason"] != "callback_stop"


class TestJobManager:
    def test_run_job_round_trip_and_identity(self, tmp_path):
        with JobManager(workers=1, data_dir=str(tmp_path)) as manager:
            job = manager.submit_run(TINY_RUN)
            events = list(manager.follow_events(job.id))
            assert job.state == "succeeded"
            kinds = {event["kind"] for event in events}
            assert {"state", "generation"} <= kinds
            service_result = MOHECOResult.from_dict(job.result["result"])
        direct = optimize(RunSpec.from_dict(TINY_RUN))
        assert service_result.identity_dict() == direct.identity_dict()

    def test_shared_cache_injected_and_warm(self, tmp_path):
        with JobManager(workers=1, data_dir=str(tmp_path)) as manager:
            first = manager.submit_run(TINY_RUN)
            second = manager.submit_run(TINY_RUN)
            for job in (first, second):
                list(manager.follow_events(job.id))
                assert job.state == "succeeded"
            # The job's identity spec stays as submitted...
            assert first.spec["cache"] is None
            # ...but execution used the shared spill: the second job warm-starts.
            stats = second.result["result"]["cache_stats"]
            assert stats["hits"] > 0
            assert (
                first.result["result"]["best_yield"]
                == second.result["result"]["best_yield"]
            )

    def test_cancel_while_queued_never_runs(self, tmp_path):
        # One worker pinned on a slow job -> the second job sits queued.
        with JobManager(workers=1, data_dir=str(tmp_path)) as manager:
            blocker = manager.submit_run(SLOW_RUN)
            queued = manager.submit_run(TINY_RUN)
            manager.cancel(queued.id)
            assert queued.state == "cancelled"
            assert queued.started is None
            manager.cancel(blocker.id)

    def test_sweep_job_emits_run_events(self, tmp_path):
        with JobManager(workers=1, data_dir=str(tmp_path)) as manager:
            job = manager.submit_sweep(TINY_SWEEP)
            events = list(manager.follow_events(job.id))
            assert job.state == "succeeded"
            kinds = [event["kind"] for event in events]
            assert kinds.count("sweep_run") == 4
            assert "sweep_start" in kinds and "generation" in kinds
            assert len(job.result["records"]) == 4

    def test_invalid_spec_rejected_at_submission(self, tmp_path):
        with JobManager(workers=1, data_dir=str(tmp_path)) as manager:
            with pytest.raises(SpecError):
                manager.submit_run({"problem": "no_such_problem"})
            with pytest.raises(SpecError):
                manager.submit_sweep(dict(TINY_SWEEP, seeds=[1]))
            assert manager.list_jobs() == []

    def test_failed_job_carries_error(self, tmp_path):
        # Bad factory params pass name validation but blow up when the
        # queued job resolves the problem at execution time.
        bad = dict(TINY_RUN, problem_params={"no_such_param": 1})
        with JobManager(workers=1, data_dir=str(tmp_path)) as manager:
            job = manager.submit_run(bad)
            list(manager.follow_events(job.id))
            assert job.state == "failed"
            assert job.error["type"] == "TypeError"

    def test_bad_overrides_rejected_at_submission(self, tmp_path):
        # Since the validate_overrides hook, a stage-1 budget that cannot
        # cover the pilot fails at the door instead of inside the queue.
        bad = dict(TINY_RUN, overrides={"n0": 100})  # sim_ave < n0
        with JobManager(workers=1, data_dir=str(tmp_path)) as manager:
            with pytest.raises(SpecError, match="cover the pilot"):
                manager.submit_run(bad)
            assert manager.list_jobs() == []


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    data_dir = tmp_path_factory.mktemp("service-data")
    server = serve("127.0.0.1", 0, workers=2, data_dir=str(data_dir))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServiceClient(server.url, timeout=60)
    yield client
    server.close()
    thread.join(timeout=5)


class TestServiceHTTP:
    def test_health(self, service):
        assert service.health()["ok"] is True

    def test_run_round_trip_bit_identical_to_direct(self, service):
        job = service.submit_run(TINY_RUN)
        assert job["state"] in ("queued", "running", "succeeded")
        final = service.wait(job["id"], timeout=120)
        assert final["state"] == "succeeded"
        payload = service.result(job["id"])
        service_result = MOHECOResult.from_dict(payload["result"]["result"])
        direct = optimize(RunSpec.from_dict(TINY_RUN))
        assert service_result.identity_dict() == direct.identity_dict()

    def test_events_stream_and_offsets(self, service):
        job = service.submit_run(TINY_RUN)
        events = list(service.events(job["id"]))
        kinds = [event["kind"] for event in events]
        assert "generation" in kinds
        assert kinds[-1] == "state" and events[-1]["state"] in TERMINAL_STATES
        # Replay from an offset without following.
        replay = list(service.events(job["id"], start=len(events) - 1, follow=False))
        assert replay == events[-1:]

    def test_concurrent_tenants_share_the_warm_cache(self, service):
        spec = dict(TINY_RUN, seed=303)
        first = service.submit_run(spec)
        service.wait(first["id"], timeout=120)
        second = service.submit_run(spec)
        service.wait(second["id"], timeout=120)
        stats = service.result(second["id"])["result"]["result"]["cache_stats"]
        assert stats["hits"] > 0

    def test_sweep_round_trip(self, service):
        job = service.submit_sweep(TINY_SWEEP)
        events = list(service.events(job["id"]))
        assert sum(1 for e in events if e["kind"] == "sweep_run") == 4
        payload = service.result(job["id"])
        assert payload["state"] == "succeeded"
        assert len(payload["result"]["records"]) == 4

    def test_cancel_mid_run(self, service):
        job = service.submit_run(SLOW_RUN)
        # Wait for real progress so the cancel lands mid-optimization.
        for event in service.events(job["id"]):
            if event["kind"] == "generation":
                break
        cancelled = service.cancel(job["id"])
        assert cancelled["state"] in ("running", "cancelled")
        final = service.wait(job["id"], timeout=120)
        assert final["state"] == "cancelled"
        payload = service.result(job["id"])
        assert payload["result"]["result"]["reason"] == "callback_stop"

    def test_result_conflict_until_terminal(self, service):
        job = service.submit_run(SLOW_RUN)
        with pytest.raises(ServiceError) as excinfo:
            service.result(job["id"])
        assert excinfo.value.status == 409
        assert excinfo.value.payload["error"] == "not_finished"
        service.cancel(job["id"])
        service.wait(job["id"], timeout=120)

    def test_malformed_specs_answer_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit_run({"problem": "sphere", "pop_size": 8})
        assert excinfo.value.status == 400
        body = excinfo.value.payload
        assert body["error"] == "invalid_spec"
        assert body["field"] == "pop_size"
        with pytest.raises(ServiceError) as excinfo:
            service.submit_sweep(dict(TINY_SWEEP, methods=["no_such_method"]))
        assert excinfo.value.status == 400
        assert excinfo.value.payload["field"] == "methods[0].method"
        for kind, payload, field in MALFORMED_SPECS:
            submit = service.submit_run if kind == "run" else service.submit_sweep
            with pytest.raises(ServiceError) as excinfo:
                submit(payload)
            assert excinfo.value.status == 400, payload
            assert excinfo.value.payload["error"] == "invalid_spec"
            assert excinfo.value.payload["field"] == field

    def test_bad_engine_params_answer_400(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.submit_run(
                dict(TINY_RUN, engine="process", engine_params={"dispatch": "barrier"})
            )
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "invalid_spec"
        assert excinfo.value.payload["field"] == "engine_params"
        with pytest.raises(ServiceError) as excinfo:
            service.submit_sweep(
                dict(TINY_SWEEP, cache="lru", cache_params={"max_byts": 5})
            )
        assert excinfo.value.status == 400
        assert excinfo.value.payload["field"] == "cache_params"

    def test_remote_engine_is_refused_at_the_door(self, service):
        reason = "unknown engine 'remote'; registered: auto, process, serial"
        for validate, spec in (
            (validate_run_spec, RunSpec.from_dict(dict(TINY_RUN, engine="remote"))),
            (
                validate_sweep_spec,
                SweepSpec.from_dict(dict(TINY_SWEEP, engine="remote")),
            ),
        ):
            with pytest.raises(SpecError) as excinfo:
                validate(spec)
            assert excinfo.value.field == "engine"
            assert excinfo.value.reason == reason
        with pytest.raises(ServiceError) as excinfo:
            service.submit_run(dict(TINY_RUN, engine="remote"))
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"] == "invalid_spec"
        assert excinfo.value.payload["field"] == "engine"

    def test_result_conflict_carries_retry_after(self, service):
        job = service.submit_run(SLOW_RUN)
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.result(job["id"])
            assert excinfo.value.status == 409
            assert excinfo.value.retry_after == 1.0
        finally:
            service.cancel(job["id"])
            service.wait(job["id"], timeout=120)

    def test_unknown_job_404(self, service):
        with pytest.raises(ServiceError) as excinfo:
            service.status("definitely-not-a-job")
        assert excinfo.value.status == 404

    def test_jobs_listing(self, service):
        listed = service.jobs()
        assert listed, "earlier tests should have left jobs behind"
        assert all("id" in job and "state" in job for job in listed)


class TestEventStreamRobustness:
    """``events(follow=True)`` reconnects from its cursor, never busy-polls."""

    def _client(self):
        return ServiceClient("http://service.invalid:1", timeout=1)

    def test_dropped_stream_resumes_exactly_once(self):
        client = self._client()
        calls = []

        def fake_stream(job_id, start, follow, timeout=None):
            calls.append(start)
            if len(calls) == 1:
                yield {"seq": 0, "kind": "state", "state": "running"}
                yield {"seq": 1, "kind": "generation"}
                raise ConnectionResetError("proxy idle-kill")
            yield {"seq": 2, "kind": "generation"}
            yield {"seq": 3, "kind": "state", "state": "succeeded"}

        client._stream_once = fake_stream
        client.status = lambda job_id: {"state": "succeeded"}
        events = list(client.events("job-1"))
        assert [event["seq"] for event in events] == [0, 1, 2, 3]
        # The reconnect asked for events from seq 2 — nothing replayed,
        # nothing skipped.
        assert calls == [0, 2]

    def test_retryable_error_honors_retry_after(self, monkeypatch):
        client = self._client()
        naps = []
        monkeypatch.setattr(
            "repro.service.client.time.sleep", lambda s: naps.append(s)
        )
        calls = []

        def fake_stream(job_id, start, follow, timeout=None):
            calls.append(start)
            if len(calls) == 1:
                raise ServiceError(
                    503, {"error": "busy"}, "url", retry_after=0.05
                )
            yield {"seq": 0, "kind": "state", "state": "succeeded"}

        client._stream_once = fake_stream
        client.status = lambda job_id: {"state": "succeeded"}
        assert len(list(client.events("job-1"))) == 1
        assert naps == [0.05]
        assert calls == [0, 0]

    def test_fatal_error_propagates(self):
        client = self._client()

        def fake_stream(job_id, start, follow, timeout=None):
            raise ServiceError(404, {"error": "unknown_job"}, "url")
            yield  # pragma: no cover - makes this a generator

        client._stream_once = fake_stream
        with pytest.raises(ServiceError) as excinfo:
            list(client.events("job-1"))
        assert excinfo.value.status == 404

    def test_follow_false_drains_once_without_status_poll(self):
        client = self._client()
        calls = []

        def fake_stream(job_id, start, follow, timeout=None):
            calls.append((start, follow))
            yield {"seq": 5, "kind": "generation"}

        client._stream_once = fake_stream
        client.status = lambda job_id: pytest.fail(
            "follow=False must not poll status"
        )
        events = list(client.events("job-1", follow=False))
        assert calls == [(0, False)]
        assert [event["seq"] for event in events] == [5]


class TestCLIJson:
    def test_run_json_output(self, capsys, tmp_path):
        spec_path = tmp_path / "run.json"
        spec_path.write_text(json.dumps(TINY_RUN))
        assert main(["run", "--spec", str(spec_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["spec"]["problem"] == "sphere"
        service_result = MOHECOResult.from_dict(payload["result"])
        direct = optimize(RunSpec.from_dict(TINY_RUN))
        assert service_result.identity_dict() == direct.identity_dict()

    def test_sweep_json_output(self, capsys, tmp_path):
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(TINY_SWEEP))
        code = main(
            ["sweep", "--spec", str(spec_path), "--json", "--progress"]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # progress went to stderr
        assert payload["executed"] == 4
        assert len(payload["records"]) == 4
        assert "sweep" in captured.err or captured.err  # progress on stderr
