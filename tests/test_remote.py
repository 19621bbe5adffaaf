"""Streaming remote engine: wire format, worker daemon, bit-identity.

The load-bearing contract: a :class:`~repro.engine.remote.RemoteEngine`
run is bit-identical (``MOHECOResult.identity_dict()``) to
:class:`~repro.engine.serial.SerialEngine` for any worker count, chunk
size, cache state (cold, warm, block- or sample-keyed), and any injected
worker failure — a mid-round death re-dispatches the
dead worker's chunks and changes nothing but the dispatch stats.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import optimize
from repro.engine import ENGINES, RemoteEngine, make_engine
from repro.engine.base import chunk_pending, evaluate_pending
from repro.engine.cache import make_cache
from repro.engine.remote import WorkerError, normalize_worker_url
from repro.engine.wire import (
    ChunkRequest,
    decode_array,
    decode_problem,
    encode_array,
    encode_problem,
)
from repro.problems import make_problem
from repro.service.worker import serve_worker
from repro.yieldsim.estimator import PendingRefinement


class _Shell:
    def __init__(self, x):
        self.x = np.asarray(x, dtype=float)


def _block(x, samples, category="stage1"):
    return PendingRefinement(_Shell(x), np.asarray(samples, dtype=float), category)


@pytest.fixture
def worker_pool():
    """Start ephemeral-port worker daemons on demand; close them after."""
    servers = []

    def start(n=1, **kwargs):
        batch = []
        for _ in range(n):
            server = serve_worker(port=0, **kwargs)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            servers.append(server)
            batch.append(server)
        return batch

    yield start
    for server in servers:
        server.close()


class TestWireFormat:
    @pytest.mark.parametrize("shape", [(1,), (4,), (3, 5), (1, 1), (7, 2)])
    def test_array_round_trip_is_bit_exact(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**31)
        array = rng.normal(size=shape)
        # Pathological values must survive too: the wire carries raw IEEE
        # bytes, not decimal renderings.
        flat = array.reshape(-1)
        flat[0] = 1e-308
        if flat.size > 1:
            flat[1] = -0.0
        decoded = decode_array(encode_array(array))
        assert decoded.dtype == np.float64
        assert decoded.shape == array.shape
        assert decoded.tobytes() == np.ascontiguousarray(array).tobytes()

    def test_decoded_array_is_writable(self):
        decoded = decode_array(encode_array(np.zeros((2, 2))))
        decoded[0, 0] = 1.0  # frombuffer views are read-only; copies aren't

    def test_array_size_mismatch_rejected(self):
        payload = encode_array(np.zeros((2, 3)))
        payload["shape"] = [2, 4]
        with pytest.raises(ValueError, match="shape"):
            decode_array(payload)

    def test_problem_round_trip_and_token(self):
        problem = make_problem("quadratic")
        payload = encode_problem(problem)
        token, rebuilt = decode_problem(payload)
        assert token == payload["token"]
        x = problem.space.clip(np.zeros(problem.space.dimension))
        rng = np.random.default_rng(0)
        samples = rng.normal(size=(4, problem.variation.dimension))
        np.testing.assert_array_equal(
            evaluate_pending(problem, [_block(x, samples)]),
            evaluate_pending(rebuilt, [_block(x, samples)]),
        )

    def test_problem_token_mismatch_rejected(self):
        payload = encode_problem(make_problem("quadratic"))
        payload["token"] = "0" * 32
        with pytest.raises(ValueError, match="token mismatch"):
            decode_problem(payload)

    @pytest.mark.parametrize("seed", range(5))
    def test_chunk_round_trip_reproduces_pending(self, seed):
        # Property-style: random block structures survive the wire intact.
        rng = np.random.default_rng(seed)
        n_blocks = int(rng.integers(1, 6))
        blocks = [
            _block(
                rng.normal(size=3),
                rng.normal(size=(int(rng.integers(1, 9)), 4)),
            )
            for _ in range(n_blocks)
        ]
        chunk = ChunkRequest.from_pending("tok", blocks)
        assert chunk.n_rows == sum(b.n_samples for b in blocks)
        wired = ChunkRequest.from_dict(json.loads(json.dumps(chunk.to_dict())))
        assert wired.problem_token == "tok"
        rebuilt = wired.to_pending()
        assert len(rebuilt) == n_blocks
        for original, copy in zip(blocks, rebuilt):
            assert copy.samples.tobytes() == original.samples.tobytes()
            assert copy.state.x.tobytes() == original.state.x.tobytes()

    def test_chunk_evaluation_matches_local(self):
        problem = make_problem("quadratic")
        rng = np.random.default_rng(2)
        blocks = [
            _block(
                problem.space.clip(rng.normal(size=problem.space.dimension)),
                rng.normal(size=(5, problem.variation.dimension)),
            )
            for _ in range(3)
        ]
        chunk = ChunkRequest.from_dict(
            ChunkRequest.from_pending("tok", blocks).to_dict()
        )
        np.testing.assert_array_equal(
            evaluate_pending(problem, chunk.to_pending()),
            evaluate_pending(problem, blocks),
        )

    @pytest.mark.parametrize(
        "extent",
        [(9, 0, 2), (0, 3, 2), (0, 0, 99), (-1, 0, 1)],
        ids=["design-row", "inverted", "overrun", "negative-row"],
    )
    def test_bad_extents_rejected(self, extent):
        chunk = ChunkRequest.from_pending("tok", [_block([1.0], np.zeros((2, 2)))])
        data = chunk.to_dict()
        data["blocks"] = [list(extent)]
        with pytest.raises(ValueError):
            ChunkRequest.from_dict(data)


class TestChunking:
    def test_respects_block_boundaries_and_row_target(self):
        blocks = [_block([1.0], np.zeros((rows, 2))) for rows in (5, 5, 5, 20, 3)]
        chunks = chunk_pending(blocks, 10)
        assert [sum(b.n_samples for b in chunk) for chunk in chunks] == [10, 25, 3]
        assert [b for chunk in chunks for b in chunk] == blocks

    def test_single_chunk_when_target_exceeds_round(self):
        blocks = [_block([1.0], np.zeros((2, 2)))] * 3
        assert len(chunk_pending(blocks, 1000)) == 1

    def test_url_normalization(self):
        assert normalize_worker_url("host:9101") == "http://host:9101"
        assert normalize_worker_url("https://a/") == "https://a"
        with pytest.raises(ValueError):
            normalize_worker_url("  ")


class TestWorkerDaemon:
    def _post(self, url, payload):
        request = urllib.request.Request(
            url,
            data=json.dumps(payload).encode(),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())

    def test_health_and_problem_lifecycle(self, worker_pool):
        (server,) = worker_pool(1)
        with urllib.request.urlopen(f"{server.url}/v1/health", timeout=10) as r:
            health = json.loads(r.read())
        assert health["ok"] and health["role"] == "worker"
        assert health["problems"] == [] and health["chunks_served"] == 0

        problem = make_problem("quadratic")
        payload = encode_problem(problem)
        status, body = self._post(f"{server.url}/v1/problems", payload)
        assert status == 200 and body["token"] == payload["token"]
        # Idempotent re-install.
        assert self._post(f"{server.url}/v1/problems", payload)[0] == 200

        rng = np.random.default_rng(4)
        blocks = [
            _block(
                problem.space.clip(rng.normal(size=problem.space.dimension)),
                rng.normal(size=(6, problem.variation.dimension)),
            )
        ]
        chunk = ChunkRequest.from_pending(payload["token"], blocks)
        status, body = self._post(f"{server.url}/v1/evaluate", chunk.to_dict())
        assert status == 200
        np.testing.assert_array_equal(
            decode_array(body["rows"]), evaluate_pending(problem, blocks)
        )
        assert server.chunks_served == 1 and server.rows_served == 6

    def test_unknown_token_answers_409(self, worker_pool):
        (server,) = worker_pool(1)
        chunk = ChunkRequest.from_pending("nope", [_block([1.0], np.zeros((1, 2)))])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{server.url}/v1/evaluate", chunk.to_dict())
        assert excinfo.value.code == 409
        assert json.loads(excinfo.value.read())["error"] == "problem_not_loaded"

    def test_fail_after_injects_503(self, worker_pool):
        (server,) = worker_pool(1, fail_after=0)
        chunk = ChunkRequest.from_pending("any", [_block([1.0], np.zeros((1, 2)))])
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._post(f"{server.url}/v1/evaluate", chunk.to_dict())
        assert excinfo.value.code == 503

    def test_unknown_route_404(self, worker_pool):
        (server,) = worker_pool(1)
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v1/nope", timeout=10)
        assert excinfo.value.code == 404


class TestProblemNotLoaded:
    """Only an HTTP 409 means "re-install the problem on this worker"."""

    def test_real_409_reinstalls_on_the_same_worker(self, worker_pool):
        (server,) = worker_pool(1)
        problem = make_problem("quadratic")
        engine = RemoteEngine(workers=server.url)
        token, payload = engine._problem_wire(problem)
        rng = np.random.default_rng(6)
        x = problem.space.clip(rng.normal(size=problem.space.dimension))
        chunk = ChunkRequest.from_pending(
            token, [_block(x, rng.normal(size=(4, problem.variation.dimension)))]
        )
        rows, _ = engine._evaluate_on(server.url, chunk, payload)
        server.problems.clear()  # the worker restarted and lost its store
        again, _ = engine._evaluate_on(server.url, chunk, payload)
        np.testing.assert_array_equal(again, rows)
        assert token in server.problems

    def test_timeout_on_a_port_409_worker_is_not_a_reinstall(self, monkeypatch):
        # The worker URL contains "409"; a timeout must still fail at once
        # instead of triggering a second problem install first.
        url = "http://127.0.0.1:40977"
        engine = RemoteEngine(workers=url)
        posted = []

        def post(target, payload, timeout):
            posted.append(target.rsplit("/", 1)[-1])
            if target.endswith("/v1/evaluate"):
                raise WorkerError(f"{target} unreachable: timed out")
            return {"ok": True}

        monkeypatch.setattr(engine, "_post_json", post)
        chunk = ChunkRequest.from_pending("tok", [_block([1.0], np.zeros((2, 2)))])
        with pytest.raises(WorkerError) as excinfo:
            engine._evaluate_on(url, chunk, {"token": "tok"})
        assert excinfo.value.status is None
        assert posted == ["problems", "evaluate"]


class TestEngineParams:
    def test_registered(self):
        assert "remote" in ENGINES.names()
        engine = make_engine("remote", workers="h:1,h:2,h:1")
        assert isinstance(engine, RemoteEngine)
        assert engine.worker_urls == ["http://h:1", "http://h:2"]

    def test_workers_required(self):
        with pytest.raises(ValueError, match="worker"):
            RemoteEngine(workers="")
        with pytest.raises(TypeError):
            RemoteEngine()

    @pytest.mark.parametrize(
        "kwargs",
        [{"chunk_rows": 0}, {"max_in_flight": 0}],
    )
    def test_bad_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RemoteEngine(workers="h:1", **kwargs)


CONFIG = dict(
    problem="quadratic",
    seed=3,
    max_generations=3,
    pop_size=8,
    n0=20,
    n_max=120,
)


@pytest.fixture(scope="module")
def serial_identity():
    return optimize(engine="serial", **CONFIG).identity_dict()


class TestBitIdentity:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_streaming_matches_serial(self, serial_identity, worker_pool, n_workers):
        urls = ",".join(w.url for w in worker_pool(n_workers))
        result = optimize(
            engine="remote",
            engine_params={"workers": urls, "chunk_rows": 16},
            **CONFIG,
        )
        assert result.identity_dict() == serial_identity
        decision = result.engine_decision
        assert decision["engine"] == "remote"
        assert decision["rows"] > 0 and decision["local_rows"] == 0

    @pytest.mark.parametrize("chunk_rows", [1, 7, 1000])
    def test_any_chunk_size_matches_serial(
        self, serial_identity, worker_pool, chunk_rows
    ):
        urls = ",".join(w.url for w in worker_pool(2))
        result = optimize(
            engine="remote",
            engine_params={"workers": urls, "chunk_rows": chunk_rows},
            **CONFIG,
        )
        assert result.identity_dict() == serial_identity

    @pytest.mark.parametrize("key_mode", ["block", "sample"])
    def test_cold_and_warm_cache_match_serial(
        self, serial_identity, worker_pool, key_mode
    ):
        urls = ",".join(w.url for w in worker_pool(2))
        cache = make_cache("lru", key=key_mode)
        cold = optimize(
            engine="remote", engine_params={"workers": urls}, cache=cache, **CONFIG
        )
        assert cold.identity_dict() == serial_identity
        warm = optimize(
            engine="remote", engine_params={"workers": urls}, cache=cache, **CONFIG
        )
        assert warm.identity_dict() == serial_identity
        assert warm.cache_stats["hits"] > 0

    def test_mid_round_worker_kill_redispatches_bit_identically(
        self, serial_identity, worker_pool
    ):
        # Deterministic mid-round death: the sole worker serves exactly one
        # chunk, then 503s.  With one in-flight slot the sequence is fixed:
        # chunk 1 lands remotely, chunk 2 kills the worker, everything
        # queued behind it re-dispatches (here: to the local fallback).
        (bad,) = worker_pool(1, fail_after=1)
        result = optimize(
            engine="remote",
            engine_params={
                "workers": bad.url,
                "chunk_rows": 4,
                "max_in_flight": 1,
            },
            **CONFIG,
        )
        assert result.identity_dict() == serial_identity
        decision = result.engine_decision
        assert bad.chunks_served == 1
        assert decision["worker_failures"] >= 1
        assert decision["re_dispatched"] >= 1
        assert decision["local_rows"] > 0

    def test_mixed_fleet_with_failing_worker_stays_bit_identical(
        self, serial_identity, worker_pool
    ):
        # Which worker takes which chunk is a scheduling race by design;
        # the result must not depend on it even when one fleet member
        # rejects every chunk it manages to grab.
        (good,) = worker_pool(1)
        (bad,) = worker_pool(1, fail_after=0)
        result = optimize(
            engine="remote",
            engine_params={
                "workers": f"{good.url},{bad.url}",
                "chunk_rows": 4,
            },
            **CONFIG,
        )
        assert result.identity_dict() == serial_identity
        assert bad.chunks_served == 0  # it never completed one

    def test_all_workers_dead_falls_back_locally(self, serial_identity):
        result = optimize(
            engine="remote",
            engine_params={
                "workers": "127.0.0.1:1",  # nothing listens on port 1
                "health_timeout_seconds": 0.2,
            },
            **CONFIG,
        )
        assert result.identity_dict() == serial_identity
        assert result.engine_decision["local_rows"] > 0

    def test_local_fallback_disabled_raises(self):
        engine = RemoteEngine(
            workers="127.0.0.1:1",
            local_fallback=False,
            health_timeout_seconds=0.2,
        )
        with pytest.raises(RuntimeError, match="no live workers"):
            optimize(engine=engine, **CONFIG)

    def test_decision_outside_result_identity(self, worker_pool):
        urls = ",".join(w.url for w in worker_pool(1))
        result = optimize(
            engine="remote", engine_params={"workers": urls}, **CONFIG
        )
        assert "engine_decision" in result.to_dict()
        assert "engine_decision" not in result.identity_dict()


class TestCLI:
    def test_run_prints_the_remote_engine_line(self, worker_pool, capsys):
        from repro.api.cli import main

        (server,) = worker_pool(1)
        code = main(
            [
                "run",
                "--problem", "quadratic",
                "--seed", "3",
                "--set", "pop_size=8",
                "--set", "max_generations=2",
                "--engine", "remote",
                "--engine-param", f"workers={server.url}",
            ]
        )
        assert code == 0
        line = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("engine[remote]:")
        )
        assert "over 1/1 worker(s)" in line
        assert server.chunks_served > 0


@pytest.mark.slow
class TestCircuitPricedBitIdentity:
    """The deployment regime: circuit-priced rows over real HTTP."""

    CONFIG = dict(
        problem="netlist_ota",
        seed=3,
        max_generations=3,
        pop_size=8,
        n0=20,
        n_max=120,
    )

    def test_streaming_two_workers_matches_serial(self, worker_pool):
        serial = optimize(engine="serial", **self.CONFIG).identity_dict()
        urls = ",".join(w.url for w in worker_pool(2))
        result = optimize(
            engine="remote",
            engine_params={"workers": urls, "chunk_rows": 32},
            **self.CONFIG,
        )
        assert result.identity_dict() == serial
