"""Streaming remote backend: fan one optimization's rounds across hosts.

:class:`RemoteEngine` is the distribution step past
:class:`~repro.engine.process.ProcessPoolEngine`: instead of sharding a
round across local worker *processes*, it streams the round's miss-only
pending blocks (the in-parent cache partition has already happened) as
wire chunks (:mod:`repro.engine.wire`) over HTTP to a pool of ``repro
worker`` daemons (:mod:`repro.service.worker`) — one optimization, many
hosts.

Streaming, not barriering
-------------------------
Chunks dispatch as soon as they are formed and results splice back
row-aligned as they arrive: each chunk owns a fixed row extent of the
round's stacked performance matrix, so completion order cannot change the
result.  Dispatch is pipelined with bounded in-flight backpressure — each
worker serves at most ``max_in_flight`` chunks at a time, and a fast
worker that finishes early immediately pulls the next chunk off the queue
instead of waiting for the round's slowest peer.

Failure semantics
-----------------
Every chunk has a per-request timeout.  A worker that times out, drops
the connection, or answers 5xx is marked dead for the round and its
chunks are re-dispatched to the surviving workers; dead workers are
health-checked again at the next round and revived if they answer.  If
every worker is gone the remaining chunks are evaluated in-parent with
the same fused serial path the workers run — so a run *completes* (and
completes bit-identically) through any sequence of worker deaths.

Determinism
-----------
Workers are pure ``(designs, samples) -> performance`` functions; RNG
streams, screeners, ledgers and the warm-start cache partition all stay
in the parent, and chunk results are spliced by index.  A remote run is
therefore bit-identical (``MOHECOResult.identity_dict()``) to
:class:`~repro.engine.serial.SerialEngine` for any worker count, chunk
size, cache state, and failure/re-dispatch history.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from collections import deque

import numpy as np

from repro.engine.base import chunk_pending
from repro.engine.serial import SerialEngine
from repro.engine.wire import ChunkRequest, encode_problem, decode_array

__all__ = ["RemoteEngine", "WorkerError", "normalize_worker_url"]


class WorkerError(RuntimeError):
    """One worker failed one request (timeout, connection loss, 5xx).

    ``status`` is the HTTP error status the worker answered, or ``None``
    when there was none (unreachable, timed out, malformed reply).
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


def normalize_worker_url(worker: str) -> str:
    """Canonical base URL of one worker: ``host:port`` -> ``http://host:port``."""
    worker = str(worker).strip().rstrip("/")
    if not worker:
        raise ValueError("empty worker address")
    if "://" not in worker:
        worker = f"http://{worker}"
    return worker


def _parse_workers(workers) -> list[str]:
    """``"host:a,host:b"`` / iterable -> deduplicated normalized URL list."""
    if isinstance(workers, str):
        workers = [part for part in workers.split(",") if part.strip()]
    urls = []
    for worker in workers:
        url = normalize_worker_url(worker)
        if url not in urls:
            urls.append(url)
    if not urls:
        raise ValueError(
            "remote engine needs at least one worker "
            "(engine_params={'workers': 'host:port,...'})"
        )
    return urls


class _RoundState:
    """Shared bookkeeping of one in-flight round's chunk queue."""

    def __init__(self, n_chunks: int) -> None:
        self.queue: deque[int] = deque(range(n_chunks))
        self.results: list[np.ndarray | None] = [None] * n_chunks
        self.completed = 0
        self.total = n_chunks
        self.cond = threading.Condition()

    def take(self) -> int | None:
        with self.cond:
            if self.queue:
                return self.queue.popleft()
            return None

    def requeue(self, index: int) -> None:
        with self.cond:
            self.queue.append(index)
            self.cond.notify_all()

    def finish(self, index: int, rows: np.ndarray) -> None:
        with self.cond:
            self.results[index] = rows
            self.completed += 1
            self.cond.notify_all()

    @property
    def done(self) -> bool:
        return self.completed >= self.total


class RemoteEngine(SerialEngine):
    """Stream refinement rounds to a pool of HTTP simulator workers.

    Parameters
    ----------
    workers:
        The worker pool: ``"host:port,host:port"``, or an iterable of
        addresses/URLs.  The service's ``POST /v1/workers`` registration
        endpoint fills this in for ``repro serve`` jobs that submit
        ``engine="remote"`` without an explicit list.
    chunk_rows:
        Target sample rows per chunk.  Smaller chunks pipeline better
        (more re-fill opportunities, finer re-dispatch on failure) at the
        price of more HTTP round-trips; the default suits circuit-priced
        rows (tens of microseconds or more each).
    max_in_flight:
        Chunks in flight per worker.  ``2`` keeps a worker's next chunk
        queued behind its current one (transfer overlaps compute) without
        letting one worker hoard the round.
    timeout_seconds:
        Per-chunk HTTP timeout; a worker that blows it is treated as dead
        for the round and its chunk is re-dispatched.
    min_dispatch_rows:
        Rounds smaller than this many rows are evaluated in-parent (HTTP
        overhead would dominate).
    local_fallback:
        Evaluate chunks in-parent when every worker is dead (default).
        ``False`` raises :class:`WorkerError` instead — for deployments
        where silent local execution would hide a fleet outage.
    health_timeout_seconds:
        Timeout of the registration/revival health probes.
    """

    name = "remote"

    def __init__(
        self,
        workers,
        chunk_rows: int = 64,
        max_in_flight: int = 2,
        timeout_seconds: float = 60.0,
        min_dispatch_rows: int = 2,
        local_fallback: bool = True,
        health_timeout_seconds: float = 5.0,
    ) -> None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {chunk_rows}")
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.worker_urls = _parse_workers(workers)
        self.chunk_rows = int(chunk_rows)
        self.max_in_flight = int(max_in_flight)
        self.timeout_seconds = float(timeout_seconds)
        self.min_dispatch_rows = int(min_dispatch_rows)
        self.local_fallback = bool(local_fallback)
        self.health_timeout_seconds = float(health_timeout_seconds)
        self._dead: set[str] = set()
        self._checked: set[str] = set()
        self._installed: dict[str, set[str]] = {url: set() for url in self.worker_urls}
        self._problem = None
        self._problem_payload: dict | None = None
        self._problem_token: str | None = None
        #: Cumulative dispatch record; surfaces as
        #: ``MOHECOResult.engine_decision`` (identity-excluded, like the
        #: auto engine's commit record).
        self.decision: dict = {
            "engine": "remote",
            "workers": list(self.worker_urls),
            "chunk_rows": self.chunk_rows,
            "max_in_flight": self.max_in_flight,
            "rounds": 0,
            "chunks": 0,
            "rows": 0,
            "re_dispatched": 0,
            "worker_failures": 0,
            "local_rows": 0,
            "worker_cache_rows": 0,
            "per_worker": {
                url: {"chunks": 0, "rows": 0, "cache_hit_rows": 0}
                for url in self.worker_urls
            },
        }

    # -- HTTP plumbing -----------------------------------------------------
    def _post_json(self, url: str, payload: dict, timeout: float) -> dict:
        """POST ``payload``; returns the parsed body.  Raises WorkerError."""
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url,
            data=body,
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            detail = b""
            try:
                detail = error.read()
            except OSError:  # pragma: no cover - socket already gone
                pass
            raise WorkerError(
                f"{url} answered {error.code}: {detail[:200]!r}", error.code
            ) from error
        except (urllib.error.URLError, OSError, TimeoutError, ValueError) as error:
            raise WorkerError(f"{url} unreachable: {error}") from error

    def _probe(self, url: str) -> bool:
        """One health check; ``True`` when the worker answers ok."""
        try:
            request = urllib.request.Request(f"{url}/v1/health", method="GET")
            with urllib.request.urlopen(
                request, timeout=self.health_timeout_seconds
            ) as response:
                return bool(json.loads(response.read().decode("utf-8")).get("ok"))
        except (urllib.error.URLError, OSError, TimeoutError, ValueError):
            return False

    def _mark_dead(self, url: str) -> None:
        if url not in self._dead:
            self._dead.add(url)
            self.decision["worker_failures"] += 1
        # A revived worker may have restarted and lost its problem store.
        self._installed[url] = set()

    def _live_workers(self) -> list[str]:
        """Health-check unverified/dead workers; return the usable pool."""
        for url in self.worker_urls:
            if url in self._checked and url not in self._dead:
                continue
            if self._probe(url):
                self._checked.add(url)
                self._dead.discard(url)
            else:
                self._checked.add(url)
                if url not in self._dead:
                    self._dead.add(url)
                    self.decision["worker_failures"] += 1
        return [url for url in self.worker_urls if url not in self._dead]

    # -- problem installation ----------------------------------------------
    def _problem_wire(self, problem) -> tuple[str, dict]:
        if self._problem is not problem:
            self._problem_payload = encode_problem(problem)
            self._problem_token = self._problem_payload["token"]
            self._problem = problem
            for url in self._installed:
                self._installed[url].discard(self._problem_token)
        return self._problem_token, self._problem_payload

    def _ensure_installed(self, url: str, token: str, payload: dict) -> None:
        """Install the problem on ``url`` if not already there (raises)."""
        if token in self._installed.setdefault(url, set()):
            return
        self._post_json(f"{url}/v1/problems", payload, self.timeout_seconds)
        self._installed[url].add(token)

    # -- chunk dispatch ----------------------------------------------------
    def _evaluate_on(
        self, url: str, chunk: ChunkRequest, payload: dict
    ) -> tuple[np.ndarray, int]:
        """Evaluate one chunk on one worker; raises :class:`WorkerError`.

        Returns ``(rows, worker-cache hit rows)`` — workers that predate
        the daemon-side cache simply omit the count and report ``0``.
        """
        token = chunk.problem_token
        self._ensure_installed(url, token, payload)
        try:
            body = self._post_json(
                f"{url}/v1/evaluate", chunk.to_dict(), self.timeout_seconds
            )
        except WorkerError as error:
            if error.status == 409:
                # The worker restarted and lost the problem store: this is
                # recoverable on the same worker, not a death.
                self._installed[url] = set()
                self._ensure_installed(url, token, payload)
                body = self._post_json(
                    f"{url}/v1/evaluate", chunk.to_dict(), self.timeout_seconds
                )
            else:
                raise
        rows = decode_array(body["rows"])
        if rows.shape[0] != chunk.n_rows:
            raise WorkerError(
                f"{url} returned {rows.shape[0]} rows for a "
                f"{chunk.n_rows}-row chunk"
            )
        return rows, int(body.get("cache_hit_rows", 0) or 0)

    def _pump(self, url: str, state: _RoundState, chunks, payload: dict) -> None:
        """One worker slot: pull chunks until the round drains or the
        worker dies.  Run ``max_in_flight`` of these per worker."""
        while not state.done and url not in self._dead:
            index = state.take()
            if index is None:
                if state.done:
                    return
                # Nothing queued right now, but peers may still fail and
                # requeue; park briefly on the round condition.
                with state.cond:
                    if not state.queue and not state.done:
                        state.cond.wait(timeout=0.05)
                continue
            try:
                rows, hit_rows = self._evaluate_on(url, chunks[index], payload)
            except WorkerError:
                self._mark_dead(url)
                self.decision["re_dispatched"] += 1
                state.requeue(index)
                with state.cond:
                    state.cond.notify_all()
                return
            state.finish(index, rows)
            stats = self.decision["per_worker"][url]
            stats["chunks"] += 1
            stats["rows"] += chunks[index].n_rows
            stats["cache_hit_rows"] += hit_rows
            self.decision["worker_cache_rows"] += hit_rows

    def _drain(self, live, state: _RoundState, chunks, payload) -> None:
        threads = [
            threading.Thread(
                target=self._pump,
                args=(url, state, chunks, payload),
                name=f"repro-remote-{url}-{slot}",
                daemon=True,
            )
            for url in live
            for slot in range(self.max_in_flight)
        ]
        for thread in threads:
            thread.start()
        while True:
            with state.cond:
                if state.done:
                    break
                if not any(thread.is_alive() for thread in threads):
                    break  # every worker died; leftovers fall back locally
                state.cond.wait(timeout=0.1)
        for thread in threads:
            thread.join(timeout=self.timeout_seconds)

    def simulate(self, problem, pending) -> np.ndarray:
        rows = sum(block.n_samples for block in pending)
        if rows < self.min_dispatch_rows:
            self.decision["local_rows"] += rows
            return super().simulate(problem, pending)
        token, payload = self._problem_wire(problem)
        block_chunks = chunk_pending(pending, self.chunk_rows)
        chunks = [
            ChunkRequest.from_pending(token, blocks) for blocks in block_chunks
        ]
        state = _RoundState(len(chunks))
        live = self._live_workers()
        if live:
            self._drain(live, state, chunks, payload)
        leftovers = [i for i, done in enumerate(state.results) if done is None]
        if leftovers:
            if not self.local_fallback and not live:
                raise WorkerError(
                    f"no live workers among {self.worker_urls} and "
                    "local_fallback is disabled"
                )
            # Survivors gone mid-round (or none to begin with): finish the
            # round in-parent with the identical fused serial path.
            for index in leftovers:
                state.results[index] = super().simulate(problem, block_chunks[index])
                self.decision["local_rows"] += chunks[index].n_rows
        self.decision["rounds"] += 1
        self.decision["chunks"] += len(chunks)
        self.decision["rows"] += rows
        return np.concatenate(state.results)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteEngine(workers={len(self.worker_urls)}, "
            f"chunk_rows={self.chunk_rows})"
        )
