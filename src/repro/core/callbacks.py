"""Observer protocol for the MOHECO generation loop.

Callbacks turn the optimizer from a black box into an observable process:
progress streaming and early stopping hang off the same hooks, which fire
at well-defined points of the paper's Fig.-4 flow:

* :meth:`Callback.on_run_start` — before generation 0 is evaluated.
* :meth:`Callback.on_generation_end` — after each generation's record is
  written (including generation 0); returning ``True`` requests an early
  stop, reported as ``reason="callback_stop"``.
* :meth:`Callback.on_stage2_promotion` — a candidate crossed the stage-2
  threshold and was refined to the full ``n_max`` sample count.
* :meth:`Callback.on_local_search` — a memetic Nelder-Mead trigger fired
  (``improved`` is ``None`` when the search found nothing better).
* :meth:`Callback.on_stop` — the run finished; receives the final result.

Sweep-level hooks (fired by :func:`repro.sweep.run_sweep`, one level above
the generation loop):

* :meth:`Callback.on_sweep_start` — the grid is expanded; receives the
  total run count and how many still need executing (fewer on resume).
* :meth:`Callback.on_sweep_run_progress` — one *generation* finished
  inside a (possibly sharded) sweep run; the record arrives as a plain
  dict because it may have crossed a process-pool boundary.  Only fired
  when some registered callback actually overrides this hook (the
  executor skips the bridging machinery otherwise).
* :meth:`Callback.on_sweep_run_end` — one run completed and its record was
  persisted.
* :meth:`Callback.on_sweep_end` — the sweep aggregated its
  :class:`~repro.sweep.executor.SweepResult`.

One callback object can observe both levels; sweep executors only fire the
sweep hooks (per-run hooks would arrive out of order from a process pool).
"""

from __future__ import annotations

from typing import Iterable

__all__ = [
    "Callback",
    "CallbackList",
    "ProgressCallback",
    "SweepProgressCallback",
    "EarlyStopOnYield",
    "wants_run_progress",
]


class Callback:
    """Base observer; override any subset of the hooks."""

    def on_run_start(self, optimizer) -> None:
        """The run is about to evaluate its initial population."""

    def on_generation_end(self, optimizer, record) -> bool | None:
        """A :class:`~repro.core.history.GenerationRecord` was written.

        Return ``True`` to request an early stop after this generation.
        """

    def on_stage2_promotion(self, optimizer, individual) -> None:
        """``individual`` was promoted to stage-2 accuracy."""

    def on_local_search(self, optimizer, generation: int, incumbent, improved) -> None:
        """A local search fired around ``incumbent`` at ``generation``."""

    def on_stop(self, optimizer, result) -> None:
        """The run produced ``result`` (a :class:`MOHECOResult`)."""

    # -- sweep level -------------------------------------------------------
    def on_sweep_start(self, sweep, total: int, pending: int) -> None:
        """A sweep over ``sweep`` (a SweepSpec) is about to execute.

        ``total`` is the grid size; ``pending`` how many runs will actually
        execute (less than ``total`` when resuming a partial store).
        """

    def on_sweep_run_progress(self, sweep, run, record: dict) -> None:
        """A generation finished inside sweep run ``run`` (a SweepRun).

        ``record`` is the generation's
        :meth:`~repro.core.history.GenerationRecord.to_dict` payload —
        plain data, because sharded sweeps ship it from pool workers over
        a multiprocessing queue.  Interleaving across concurrently
        executing runs is arbitrary; within one run the generations
        arrive in order.
        """

    def on_sweep_run_end(self, sweep, run, record, done: int, total: int) -> None:
        """Run ``run`` (a SweepRun) completed with ``record`` (a RunRecord).

        ``done`` counts completed runs including resumed ones.  Sharded
        sweeps deliver completions in finish order, not grid order.
        """

    def on_sweep_end(self, sweep, result) -> None:
        """The sweep finished; ``result`` is the aggregated SweepResult."""


def wants_run_progress(callback: Callback) -> bool:
    """Whether ``callback`` actually listens to :meth:`on_sweep_run_progress`.

    The sweep executor only sets up the worker→parent bridging (a
    multiprocessing queue plus a drain thread) when someone listens; the
    base-class no-op does not count.  A :class:`CallbackList` listens when
    any member does.
    """
    if isinstance(callback, CallbackList):
        return any(wants_run_progress(member) for member in callback.callbacks)
    hook = callback.on_sweep_run_progress
    return getattr(hook, "__func__", hook) is not Callback.on_sweep_run_progress


class CallbackList(Callback):
    """Fans every hook out to a sequence of callbacks.

    ``on_generation_end`` requests a stop when *any* member does.
    """

    def __init__(self, callbacks: Iterable[Callback] | Callback | None = None) -> None:
        if callbacks is None:
            callbacks = []
        elif isinstance(callbacks, Callback):
            callbacks = [callbacks]
        self.callbacks: list[Callback] = list(callbacks)

    def __len__(self) -> int:
        return len(self.callbacks)

    def append(self, callback: Callback) -> None:
        """Add one more observer."""
        self.callbacks.append(callback)

    def on_run_start(self, optimizer) -> None:
        for callback in self.callbacks:
            callback.on_run_start(optimizer)

    def on_generation_end(self, optimizer, record) -> bool:
        stop = False
        for callback in self.callbacks:
            if callback.on_generation_end(optimizer, record):
                stop = True
        return stop

    def on_stage2_promotion(self, optimizer, individual) -> None:
        for callback in self.callbacks:
            callback.on_stage2_promotion(optimizer, individual)

    def on_local_search(self, optimizer, generation: int, incumbent, improved) -> None:
        for callback in self.callbacks:
            callback.on_local_search(optimizer, generation, incumbent, improved)

    def on_stop(self, optimizer, result) -> None:
        for callback in self.callbacks:
            callback.on_stop(optimizer, result)

    def on_sweep_start(self, sweep, total: int, pending: int) -> None:
        for callback in self.callbacks:
            callback.on_sweep_start(sweep, total, pending)

    def on_sweep_run_progress(self, sweep, run, record: dict) -> None:
        for callback in self.callbacks:
            callback.on_sweep_run_progress(sweep, run, record)

    def on_sweep_run_end(self, sweep, run, record, done: int, total: int) -> None:
        for callback in self.callbacks:
            callback.on_sweep_run_end(sweep, run, record, done, total)

    def on_sweep_end(self, sweep, result) -> None:
        for callback in self.callbacks:
            callback.on_sweep_end(sweep, result)


class ProgressCallback(Callback):
    """Streams a one-line summary per generation (the CLI's ``--progress``)."""

    def __init__(self, print_fn=print, every: int = 1) -> None:
        self.print_fn = print_fn
        self.every = max(1, int(every))

    def on_generation_end(self, optimizer, record) -> None:
        if record.generation % self.every:
            return
        self.print_fn(
            f"gen {record.generation:4d}  "
            f"best yield {record.best_yield:7.2%}  "
            f"violation {record.best_violation:.3g}  "
            f"feasible {record.feasible_count}  "
            f"stage2 {record.stage2_count}  "
            f"sims {record.simulations_total}"
            + ("  [LS]" if record.local_search_fired else "")
        )

    def on_stop(self, optimizer, result) -> None:
        self.print_fn(
            f"done: yield {result.best_yield:.2%} after {result.generations} "
            f"generations, {result.n_simulations} simulations ({result.reason})"
        )


class SweepProgressCallback(Callback):
    """Streams one line per completed sweep run (the CLI's ``--progress``)."""

    def __init__(self, print_fn=print) -> None:
        self.print_fn = print_fn

    def on_sweep_start(self, sweep, total: int, pending: int) -> None:
        resumed = total - pending
        note = f" ({resumed} resumed from store)" if resumed else ""
        self.print_fn(
            f"sweep: {len(sweep.problems)} problem(s) x "
            f"{len(sweep.methods)} method(s) x {sweep.runs} run(s) = "
            f"{total} runs{note}"
        )

    def on_sweep_run_end(self, sweep, run, record, done: int, total: int) -> None:
        self.print_fn(
            f"[{done}/{total}] {run.problem_label} / {run.method_label} "
            f"run {run.run_index}: yield {record.reported_yield:.2%} "
            f"(ref {record.reference_yield:.2%}, dev {record.deviation:.2%}) "
            f"in {record.n_simulations} sims, {record.wall_seconds:.2f}s"
        )

    def on_sweep_end(self, sweep, result) -> None:
        self.print_fn(
            f"sweep done: {result.executed} executed, {result.reused} resumed "
            f"in {result.elapsed_seconds:.2f}s with {result.workers} worker(s)"
        )


class EarlyStopOnYield(Callback):
    """Stops the run once the best estimated yield reaches ``target``."""

    def __init__(self, target: float) -> None:
        if not 0.0 < target <= 1.0:
            raise ValueError(f"target yield must be in (0, 1], got {target}")
        self.target = float(target)

    def on_generation_end(self, optimizer, record) -> bool:
        return record.best_yield >= self.target
