"""Sweep execution: whole runs sharded across a process pool.

This is the library's one parallel path.  Within a run the engine
(:mod:`repro.engine`) fuses Monte-Carlo rounds in-process; this module
parallelises *across* runs: the paper's "10 runs with independent random
numbers" are embarrassingly parallel once each run's random streams
derive from its own ``(base_seed, run_index)`` pair
(:func:`repro.rng.run_streams`), so an n-worker sweep is bit-identical to
the serial one — same records, same summary statistics, same rendered
tables — and only the wall-clock moves.

Workers receive pure JSON-compatible payloads (a
:class:`~repro.api.spec.RunSpec` dict plus the run index), resolve the
problem through the registries in their own process, run
:func:`repro.api.optimize` plus the reference MC, and ship a plain record
dict back.  No live object crosses the pool boundary.

Completed runs land incrementally in a resumable
:class:`~repro.sweep.store.ResultStore`; killing a sweep after ``k`` runs
and re-running with ``resume=True`` executes only the missing ones.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass

from repro.api.errors import validate_sweep_spec
from repro.core.callbacks import Callback, CallbackList, wants_run_progress
from repro.ledger import SimulationLedger
from repro.rng import run_streams
from repro.sweep.records import MethodSummary, RunRecord
from repro.sweep.spec import SweepRun, SweepSpec
from repro.sweep.store import ResultStore, StoreMismatchError

__all__ = ["SweepResult", "run_sweep", "execute_run"]


class _RunBridge(Callback):
    """Per-run observer bridging generation records out of :func:`execute_run`.

    ``progress`` receives each generation's ``to_dict()`` payload;
    ``cancel`` is polled after every generation and a truthy answer
    requests the loop's cooperative early stop (the run returns with
    ``reason="callback_stop"``).
    """

    def __init__(self, progress=None, cancel=None) -> None:
        self.progress = progress
        self.cancel = cancel

    def on_generation_end(self, engine, record) -> bool:
        if self.progress is not None:
            self.progress(record.to_dict())
        return bool(self.cancel is not None and self.cancel())


def execute_run(payload: dict, *, progress=None, cancel=None) -> dict:
    """Execute one sweep run from a pure JSON payload; return a record dict.

    This is the sweep worker function — importable at module top level so
    process pools can pickle it by reference, and side-effect free outside
    its own process: problem resolution, the optimizer, its ledger and the
    reference MC all live and die locally.  Streams derive from
    ``(spec.seed, run_index)`` only, which is the whole determinism story.

    ``progress`` (a callable taking one generation-record dict) and
    ``cancel`` (a zero-argument callable; truthy requests a cooperative
    early stop) attach a :class:`_RunBridge` to the run.  Observers never
    change the seeded result; a triggered ``cancel`` ends the run early
    with ``reason="callback_stop"``, which the sweep layer treats as a
    partial record and refuses to persist.
    """
    # Imported here so a forked worker reuses the parent's modules and a
    # spawned one imports cleanly without circular-import ordering issues.
    from repro.api.driver import optimize, resolve_problem
    from repro.api.spec import RunSpec
    from repro.yieldsim import reference_yield

    spec = RunSpec.from_dict(payload["spec"])
    run_index = int(payload["run_index"])
    optimizer_rng, reference_rng = run_streams(spec.seed, run_index)
    ledger = SimulationLedger()
    bridge = (
        [_RunBridge(progress, cancel)]
        if progress is not None or cancel is not None
        else None
    )
    started = time.perf_counter()
    result = optimize(spec, rng=optimizer_rng, ledger=ledger, callbacks=bridge)
    elapsed = time.perf_counter() - started
    # The reference MC builds its own copy of the problem: well under a
    # millisecond even for the circuit problems.
    reference = reference_yield(
        resolve_problem(spec.problem, spec.problem_params),
        result.best_x,
        n=int(payload["reference_n"]),
        rng=reference_rng,
        ledger=ledger,
    )
    record = RunRecord(
        method=payload["method_label"],
        problem=payload["problem_label"],
        run_index=run_index,
        reported_yield=result.best_yield,
        reference_yield=reference.value,
        n_simulations=result.n_simulations,
        generations=result.generations,
        reason=result.reason,
        wall_seconds=elapsed,
        result=result.to_dict(),
    )
    return record.to_dict()


def _payload(run: SweepRun) -> dict:
    return {
        "spec": run.spec.to_dict(),
        "run_index": run.run_index,
        "reference_n": run.reference_n,
        "method_label": run.method_label,
        "problem_label": run.problem_label,
        "key": run.key,
    }


#: Worker-side bridge state, set once per pool worker by the initializer.
_WORKER_PROGRESS_QUEUE = None
_WORKER_CANCEL_EVENT = None


def _init_sweep_worker(progress_queue, cancel_event) -> None:
    """Pool initializer: receive the parent's queue/event by inheritance.

    Multiprocessing queues and events cannot travel through a pool's task
    pickles — only through process-construction arguments — so the bridge
    plumbing rides the initializer and lands in module globals.
    """
    global _WORKER_PROGRESS_QUEUE, _WORKER_CANCEL_EVENT
    _WORKER_PROGRESS_QUEUE = progress_queue
    _WORKER_CANCEL_EVENT = cancel_event


def _execute_run_pooled(payload: dict) -> dict:
    """Pool task: :func:`execute_run` wired to the inherited bridge state."""
    queue = _WORKER_PROGRESS_QUEUE
    event = _WORKER_CANCEL_EVENT
    if queue is not None:
        key = payload["key"]

        def progress(record: dict, _key=key, _queue=queue) -> None:
            _queue.put((_key, record))

    else:
        progress = None
    return execute_run(
        payload,
        progress=progress,
        cancel=event.is_set if event is not None else None,
    )


@dataclass
class SweepResult:
    """Everything a finished sweep produced, grid-ordered.

    ``records`` follows the spec's expansion order (problem-major, then
    method, then run index) regardless of the execution order workers
    finished in — which is why summaries and tables are bit-identical for
    any worker count.
    """

    spec: SweepSpec
    records: list[RunRecord]
    #: Runs executed in this invocation vs replayed from a resumed store.
    executed: int = 0
    reused: int = 0
    #: The sweep was cancelled before completing; ``records`` holds only
    #: the runs that finished (partial, early-stopped runs are discarded —
    #: never persisted — so a resume re-executes them in full).
    cancelled: bool = False
    #: Wall-clock of this invocation and the worker count it used.
    elapsed_seconds: float = 0.0
    workers: int = 1
    #: Store path when the sweep persisted its records.
    store_path: str | None = None

    # -- aggregation -------------------------------------------------------
    def summaries(self, problem: str | None = None) -> list[MethodSummary]:
        """Per-method summaries, in spec order.

        ``problem`` selects one grid row by label; the default is valid
        only for single-problem sweeps (ambiguous otherwise).
        """
        if problem is None:
            if len(self.spec.problems) != 1:
                raise ValueError(
                    "multi-problem sweep: pass problem=<label> to summaries()"
                )
            problem = self.spec.problems[0].label
        labels = [p.label for p in self.spec.problems]
        if problem not in labels:
            raise KeyError(
                f"unknown problem label {problem!r}; sweep has {labels}"
            )
        out = []
        for method in self.spec.methods:
            records = [
                r
                for r in self.records
                if r.problem == problem and r.method == method.label
            ]
            out.append(
                MethodSummary(method=method.label, records=records, problem=problem)
            )
        return out

    def summary(self, method: str, problem: str | None = None) -> MethodSummary:
        """One method's summary by label."""
        for candidate in self.summaries(problem):
            if candidate.method == method:
                return candidate
        raise KeyError(method)

    def tables(self) -> str:
        """Paper-style deviation + simulation tables for every problem."""
        from repro.experiments.tables import (
            format_deviation_table,
            format_simulation_table,
        )

        parts = []
        for problem in self.spec.problems:
            summaries = self.summaries(problem.label)
            parts.append(
                format_deviation_table(
                    f"Deviation of the yield results from the "
                    f"{self.spec.reference_n}-sample MC reference "
                    f"({problem.label})",
                    summaries,
                )
            )
            parts.append(
                format_simulation_table(
                    f"Total number of simulations ({problem.label})", summaries
                )
            )
        return "\n\n".join(parts)


def run_sweep(
    spec: SweepSpec,
    *,
    workers: int | None = None,
    store: "ResultStore | str | None" = None,
    resume: bool = False,
    callbacks: "Callback | list[Callback] | None" = None,
    cancel=None,
) -> SweepResult:
    """Execute a sweep and aggregate its records.

    Parameters
    ----------
    spec:
        The grid to run.
    workers:
        Process count for sharding whole runs; ``None`` falls back to
        ``spec.workers``, then 1 (serial, in-process).  Any count yields
        bit-identical records.
    store:
        A :class:`ResultStore`, a JSONL path, or ``None`` (in-memory only).
        Paths are opened against ``spec`` — fresh files get a header,
        existing ones require ``resume=True`` and a matching sweep hash.
        A ready-made store must belong to this spec (same hash) and still
        be open for appends; the caller keeps ownership of its lifetime.
    resume:
        Replay completed runs from the store and execute only the missing
        ones.
    callbacks:
        Observers; the sweep fires ``on_sweep_start`` /
        ``on_sweep_run_end`` / ``on_sweep_end``
        (see :class:`repro.core.callbacks.Callback`).  When any of them
        overrides ``on_sweep_run_progress``, per-generation records are
        additionally bridged out of every run — including runs executing
        in pool workers, whose records travel a multiprocessing queue.
    cancel:
        Cooperative cancellation flag — any object with a
        ``threading.Event``-style ``is_set()`` method.  Once set, no new
        run starts, queued pool work is cancelled, and in-flight runs are
        asked to early-stop after their current generation (via the
        ``on_generation_end`` return).  Early-stopped partial records are
        *discarded*, never persisted, so resuming the store re-executes
        them in full; the returned result has ``cancelled=True``.
    """
    workers = workers if workers is not None else (spec.workers or 1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    callbacks = CallbackList(callbacks)

    # Validate before touching the store: a typo'd name or a bad override
    # must fail cleanly, not leave a header-only or partial store behind
    # that blocks the corrected rerun (FileExistsError without --resume,
    # hash mismatch with it).
    validate_sweep_spec(spec)

    owns_store = isinstance(store, (str, bytes)) or hasattr(store, "__fspath__")
    if owns_store:
        store = ResultStore.open(store, spec, resume=resume)
    elif store is not None:
        # A caller-supplied store must actually belong to this sweep —
        # run keys alone (problem|method|index) would happily replay
        # records produced at a different scale or seed.
        if store.sweep_hash != spec.sweep_hash():
            raise StoreMismatchError(
                f"store {store.path!r} belongs to sweep "
                f"{store.sweep_hash!r}, not {spec.sweep_hash()!r}; open it "
                "with ResultStore.open(path, spec, resume=True) instead"
            )
        if store.completed and not resume:
            # Same contract as the path form: replaying completed runs is
            # an explicit opt-in, never a silent skip.
            raise ValueError(
                f"store {store.path!r} already holds {len(store.completed)} "
                "completed run(s); pass resume=True to replay them"
            )

    runs = spec.expand()
    completed: dict[str, RunRecord] = (
        dict(store.completed) if store is not None else {}
    )
    pending = [run for run in runs if run.key not in completed]
    if pending and store is not None and not store.writable:
        # Fail before any work, not on the first append (e.g. a store from
        # ResultStore.load, which is read-only by design).
        raise RuntimeError(
            f"store {store.path!r} is not open for appends; use "
            "ResultStore.open(path, spec, resume=True)"
        )
    started = time.perf_counter()

    done = len(runs) - len(pending)
    stream_progress = wants_run_progress(callbacks)
    cancelled = lambda: cancel is not None and cancel.is_set()  # noqa: E731

    def complete(run: SweepRun, record: RunRecord) -> None:
        nonlocal done
        completed[run.key] = record
        if store is not None:
            store.append(run, record)
        done += 1
        callbacks.on_sweep_run_end(spec, run, record, done=done, total=len(runs))

    def finish(run: SweepRun, record: RunRecord) -> None:
        # A record produced after cancellation that early-stopped through
        # the bridge is partial: persisting it would make the store replay
        # a truncated run on resume.  Discard it; runs that genuinely
        # finished (any other reason) still count.
        if cancelled() and record.reason == "callback_stop":
            return
        complete(run, record)

    try:
        callbacks.on_sweep_start(spec, total=len(runs), pending=len(pending))
        if workers == 1 or len(pending) <= 1:
            for run in pending:
                if cancelled():
                    break
                if stream_progress:

                    def progress(record: dict, _run=run) -> None:
                        callbacks.on_sweep_run_progress(spec, _run, record)

                else:
                    progress = None
                finish(
                    run,
                    RunRecord.from_dict(
                        execute_run(
                            _payload(run),
                            progress=progress,
                            cancel=(cancel.is_set if cancel is not None else None),
                        )
                    ),
                )
        else:
            runs_by_key = {run.key: run for run in pending}
            # fork inherits the parent's imported modules (registries,
            # problem factories) for free; platforms without it spawn.  The
            # bridge's queue and event must come from the pool's context.
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            progress_queue = context.Queue() if stream_progress else None
            cancel_event = context.Event() if cancel is not None else None
            pool_kwargs = {}
            if progress_queue is not None or cancel_event is not None:
                pool_kwargs = {
                    "initializer": _init_sweep_worker,
                    "initargs": (progress_queue, cancel_event),
                }
            task = (
                _execute_run_pooled
                if pool_kwargs
                else execute_run
            )

            drain_thread = None
            if progress_queue is not None:

                def drain() -> None:
                    while True:
                        item = progress_queue.get()
                        if item is None:
                            return
                        key, record = item
                        run = runs_by_key.get(key)
                        if run is not None:
                            callbacks.on_sweep_run_progress(spec, run, record)

                drain_thread = threading.Thread(
                    target=drain, name="sweep-progress-drain", daemon=True
                )
                drain_thread.start()

            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(pending)),
                    mp_context=context,
                    **pool_kwargs,
                ) as pool:
                    futures = {
                        pool.submit(task, _payload(run)): run for run in pending
                    }
                    remaining = set(futures)
                    failure: BaseException | None = None
                    cancel_signalled = False
                    while remaining:
                        finished, remaining = wait(
                            remaining,
                            timeout=(0.1 if cancel is not None else None),
                            return_when=FIRST_COMPLETED,
                        )
                        if (
                            not cancel_signalled
                            and cancelled()
                        ):
                            # Propagate the cancel into the workers (their
                            # in-flight runs early-stop after the current
                            # generation) and drop everything still queued.
                            cancel_signalled = True
                            if cancel_event is not None:
                                cancel_event.set()
                            pool.shutdown(wait=False, cancel_futures=True)
                        for future in finished:
                            try:
                                record = RunRecord.from_dict(future.result())
                            except CancelledError:
                                continue
                            except BaseException as error:
                                # Keep draining: runs already in flight
                                # still finish and persist, so a resume
                                # after the failure re-executes only what
                                # truly never ran.  Queued-but-unstarted
                                # runs are cancelled rather than computed
                                # into a store that is about to report
                                # failure.
                                if failure is None:
                                    failure = error
                                    pool.shutdown(wait=False, cancel_futures=True)
                                continue
                            finish(futures[future], record)
                    if failure is not None:
                        raise failure
            finally:
                if progress_queue is not None:
                    progress_queue.put(None)
                    drain_thread.join(timeout=5.0)
    finally:
        if owns_store:
            store.close()

    was_cancelled = cancelled()
    result = SweepResult(
        spec=spec,
        records=[completed[run.key] for run in runs if run.key in completed],
        executed=done - (len(runs) - len(pending)),
        reused=len(runs) - len(pending),
        cancelled=was_cancelled,
        elapsed_seconds=time.perf_counter() - started,
        workers=workers,
        store_path=store.path if store is not None else None,
    )
    callbacks.on_sweep_end(spec, result)
    return result
