"""Job queue and worker pool of the optimization service.

A :class:`JobManager` owns everything between "a spec arrived over the
wire" and "a result is ready to fetch":

* **Validation at the door** — submitted payloads go through
  ``RunSpec``/``SweepSpec.from_dict`` plus the registry-resolving
  validators, so a broken spec fails the submission call with a structured
  :class:`~repro.api.errors.SpecError` instead of poisoning a queued job.
* **A FIFO queue + worker threads** — run jobs execute through
  :func:`repro.api.optimize`, sweep jobs through
  :func:`repro.sweep.run_sweep` (which may itself shard across a process
  pool); the worker count bounds how many jobs simulate concurrently.
* **Event streams** — every job carries an append-only event log
  (state transitions, per-generation progress, per-run sweep completions)
  guarded by a condition variable; :meth:`JobManager.follow_events` blocks
  until new events arrive and drains exactly once, which is what the HTTP
  layer turns into an NDJSON stream.
* **Cooperative cancellation** — a cancelled job's ``threading.Event`` is
  polled by the MOHECO loop's ``on_generation_end`` hook (run jobs) or by
  the sweep executor's ``cancel`` flag (sweep jobs); the run winds down
  after its current generation.
* **Persistence** — events append to ``job-<id>.events.ndjson``, run
  results land in ``job-<id>.json``, and sweep jobs write their records
  through the resumable JSONL :class:`~repro.sweep.store.ResultStore`
  (``job-<id>.store.jsonl``).
"""

from __future__ import annotations

import json
import os
import queue
import tempfile
import threading
import time
import traceback
import uuid

from repro.api.errors import validate_run_spec, validate_sweep_spec
from repro.api.spec import RunSpec
from repro.core.callbacks import Callback
from repro.sweep.spec import SweepSpec

__all__ = [
    "Job",
    "JobManager",
    "UnknownJobError",
    "TERMINAL_STATES",
]

#: States a job can rest in forever.
TERMINAL_STATES = frozenset({"succeeded", "failed", "cancelled"})

#: Generation-record fields small enough to stream per event (the arrays —
#: OCBA counts, evaluated designs — stay in the persisted result payload).
_GENERATION_EVENT_FIELDS = (
    "generation",
    "best_yield",
    "best_violation",
    "feasible_count",
    "stage2_count",
    "simulations_total",
    "local_search_fired",
)


class UnknownJobError(KeyError):
    """No job with the requested id."""


class Job:
    """One submitted unit of work and its observable lifecycle."""

    def __init__(self, job_id: str, kind: str, spec: dict) -> None:
        self.id = job_id
        #: ``"run"`` or ``"sweep"``.
        self.kind = kind
        #: The spec payload as validated (``RunSpec``/``SweepSpec.to_dict``).
        self.spec = spec
        self.state = "queued"
        self.created = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.events: list[dict] = []
        self.result: dict | None = None
        self.error: dict | None = None
        self.cancel_event = threading.Event()
        self.cond = threading.Condition()
        #: Path of the job's sweep ResultStore (sweep jobs only).
        self.store_path: str | None = None

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def emit(self, kind: str, **payload) -> dict:
        """Append one event and wake every follower."""
        with self.cond:
            event = {
                "seq": len(self.events),
                "ts": time.time(),
                "kind": kind,
                **payload,
            }
            self.events.append(event)
            self.cond.notify_all()
        return event

    def transition(self, state: str, **payload) -> dict:
        """Move to ``state`` and emit the matching ``state`` event."""
        with self.cond:
            self.state = state
            if state == "running":
                self.started = time.time()
            if state in TERMINAL_STATES:
                self.finished = time.time()
        return self.emit("state", state=state, **payload)

    def status_dict(self) -> dict:
        """The ``GET /v1/jobs/{id}`` body."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "events": len(self.events),
            "spec": self.spec,
            "error": self.error,
        }


class _RunJobBridge(Callback):
    """Streams a run job's generations as events; polls its cancel flag."""

    def __init__(self, job: Job, on_event=None) -> None:
        self.job = job
        self.on_event = on_event

    def _emit(self, kind: str, **payload) -> None:
        event = self.job.emit(kind, **payload)
        if self.on_event is not None:
            self.on_event(event)

    def on_generation_end(self, optimizer, record) -> bool:
        data = record.to_dict()
        self._emit(
            "generation", **{key: data[key] for key in _GENERATION_EVENT_FIELDS}
        )
        return self.job.cancel_event.is_set()

    def on_local_search(self, optimizer, generation, incumbent, improved) -> None:
        self._emit(
            "local_search", generation=int(generation), improved=improved is not None
        )


class _SweepJobBridge(Callback):
    """Streams a sweep job's per-run and per-generation progress as events."""

    def __init__(self, job: Job, on_event=None) -> None:
        self.job = job
        self.on_event = on_event

    def _emit(self, kind: str, **payload) -> None:
        event = self.job.emit(kind, **payload)
        if self.on_event is not None:
            self.on_event(event)

    def on_sweep_start(self, sweep, total: int, pending: int) -> None:
        self._emit("sweep_start", total=total, pending=pending)

    def on_sweep_run_progress(self, sweep, run, record: dict) -> None:
        self._emit(
            "generation",
            run=run.key,
            **{key: record[key] for key in _GENERATION_EVENT_FIELDS},
        )

    def on_sweep_run_end(self, sweep, run, record, done: int, total: int) -> None:
        self._emit(
            "sweep_run",
            run=run.key,
            done=done,
            total=total,
            reported_yield=record.reported_yield,
            reference_yield=record.reference_yield,
            n_simulations=record.n_simulations,
        )


class JobManager:
    """Queue, execute and observe optimization jobs (see module docstring).

    Parameters
    ----------
    workers:
        Worker threads draining the job queue — the number of jobs that
        *simulate* concurrently.  Queued beyond that, jobs wait in FIFO
        order.
    data_dir:
        Directory for per-job persistence (events NDJSON, result JSON,
        sweep ResultStores).  ``None`` creates a private temporary
        directory that :meth:`close` removes.

    A job computes exactly what a direct :func:`repro.api.optimize` (or
    :func:`repro.sweep.run_sweep`) call with the same spec computes: the
    manager changes where and when work runs, never its result.
    """

    def __init__(self, *, workers: int = 2, data_dir=None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._tempdir = None
        if data_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-service-")
            data_dir = self._tempdir.name
        self.data_dir = os.fspath(data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._worker, name=f"repro-service-worker-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission --------------------------------------------------------
    def submit_run(self, spec_dict: dict) -> Job:
        """Queue one ``RunSpec`` job; raises :class:`SpecError` if invalid."""
        spec = RunSpec.from_dict(spec_dict)
        validate_run_spec(spec)
        return self._enqueue("run", spec.to_dict())

    def submit_sweep(self, spec_dict: dict) -> Job:
        """Queue one ``SweepSpec`` job; raises :class:`SpecError` if invalid."""
        spec = SweepSpec.from_dict(spec_dict)
        validate_sweep_spec(spec)
        return self._enqueue("sweep", spec.to_dict())

    def _enqueue(self, kind: str, spec_dict: dict) -> Job:
        if self._closed:
            raise RuntimeError("the job manager is closed")
        job = Job(uuid.uuid4().hex[:12], kind, spec_dict)
        with self._lock:
            self.jobs[job.id] = job
        self._persist_event(job, job.transition("queued"))
        self._queue.put(job.id)
        return job

    # -- lookup ------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        """The job with ``job_id``; raises :class:`UnknownJobError`."""
        with self._lock:
            try:
                return self.jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    def list_jobs(self) -> list[Job]:
        """Every known job, oldest submission first."""
        with self._lock:
            return sorted(self.jobs.values(), key=lambda job: job.created)

    # -- cancellation ------------------------------------------------------
    def cancel(self, job_id: str) -> Job:
        """Request cooperative cancellation; returns the job.

        Queued jobs cancel immediately (the worker skips them); running
        jobs wind down after their current generation.  Terminal jobs are
        left untouched.
        """
        job = self.get(job_id)
        # The queued->cancelled vs queued->running race is settled under
        # job.cond: whichever of cancel() and the worker's _try_start()
        # gets the lock first wins, and the loser sees the new state.
        with job.cond:
            if job.is_terminal:
                return job
            job.cancel_event.set()
            still_queued = job.state == "queued"
            if still_queued:
                job.state = "cancelled"
                job.finished = time.time()
        if still_queued:
            self._persist_event(job, job.emit("state", state="cancelled"))
        else:
            self._persist_event(job, job.emit("cancel_requested"))
        return job

    # -- event streaming ---------------------------------------------------
    def follow_events(self, job_id: str, start: int = 0, follow: bool = True):
        """Yield the job's events from ``start``; block for new ones.

        With ``follow=True`` the generator ends only after the job reached
        a terminal state *and* every event was delivered — the HTTP layer
        writes each yielded event as one NDJSON line.  ``follow=False``
        drains what exists now and returns.
        """
        job = self.get(job_id)
        index = start
        while True:
            with job.cond:
                if follow:
                    while index >= len(job.events) and not job.is_terminal:
                        job.cond.wait(timeout=0.5)
                batch = job.events[index:]
                terminal = job.is_terminal
            yield from batch
            index += len(batch)
            if not follow or (terminal and index >= len(job.events)):
                return

    # -- execution ---------------------------------------------------------
    def _worker(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self.get(job_id)
            if not self._try_start(job):
                continue  # cancelled while queued
            try:
                if job.kind == "run":
                    self._execute_run_job(job)
                else:
                    self._execute_sweep_job(job)
            except Exception as error:  # noqa: BLE001 - job isolation boundary
                job.error = {
                    "type": type(error).__name__,
                    "message": str(error),
                    "traceback": traceback.format_exc(),
                }
                self._persist_event(
                    job,
                    job.transition(
                        "failed", error=job.error["type"], message=job.error["message"]
                    ),
                )
                self._persist_result(job)

    def _try_start(self, job: Job) -> bool:
        """Atomically claim a queued job for execution (see :meth:`cancel`)."""
        with job.cond:
            if job.cancel_event.is_set() or job.is_terminal:
                return False
            job.state = "running"
            job.started = time.time()
        self._persist_event(job, job.emit("state", state="running"))
        return True

    def _execute_run_job(self, job: Job) -> None:
        from repro.api.driver import optimize

        spec = RunSpec.from_dict(job.spec)
        bridge = _RunJobBridge(job, on_event=lambda e: self._persist_event(job, e))
        result = optimize(spec, callbacks=[bridge])
        job.result = {"spec": job.spec, "result": result.to_dict()}
        cancelled = job.cancel_event.is_set() and result.reason == "callback_stop"
        self._persist_result(job)
        self._persist_event(
            job,
            job.transition(
                "cancelled" if cancelled else "succeeded",
                best_yield=result.best_yield,
                n_simulations=result.n_simulations,
                generations=result.generations,
                reason=result.reason,
            ),
        )

    def _execute_sweep_job(self, job: Job) -> None:
        from repro.sweep.executor import run_sweep

        spec = SweepSpec.from_dict(job.spec)
        job.store_path = os.path.join(self.data_dir, f"job-{job.id}.store.jsonl")
        bridge = _SweepJobBridge(job, on_event=lambda e: self._persist_event(job, e))
        result = run_sweep(
            spec,
            workers=spec.workers or 1,
            store=job.store_path,
            callbacks=[bridge],
            cancel=job.cancel_event,
        )
        job.result = {
            "spec": job.spec,
            "records": [record.to_dict() for record in result.records],
            "executed": result.executed,
            "reused": result.reused,
            "cancelled": result.cancelled,
            "store_path": job.store_path,
        }
        self._persist_result(job)
        self._persist_event(
            job,
            job.transition(
                "cancelled" if result.cancelled else "succeeded",
                completed=len(result.records),
                total=spec.total_runs,
            ),
        )

    # -- persistence -------------------------------------------------------
    def _persist_event(self, job: Job, event: dict) -> None:
        path = os.path.join(self.data_dir, f"job-{job.id}.events.ndjson")
        try:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps(event) + "\n")
        except OSError:
            pass  # events are observability, never worth failing a job over

    def _persist_result(self, job: Job) -> None:
        path = os.path.join(self.data_dir, f"job-{job.id}.json")
        payload = {"job": job.status_dict(), "result": job.result}
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp_path, path)

    # -- lifecycle ---------------------------------------------------------
    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers (after their current job) and clean up."""
        if self._closed:
            return
        self._closed = True
        for job in self.list_jobs():
            if not job.is_terminal:
                job.cancel_event.set()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout=timeout)
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
