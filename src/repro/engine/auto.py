"""Adaptive backend: measure the workload, then pick serial or process.

``BENCH_engine.json`` documents the trade-off the hard-coded backends leave
to the user: the fused in-process dispatch wins on cheap synthetic
problems (micro-second simulations — IPC would dominate), while the
process pool wins on simulation-bound circuit problems (hundreds of
microseconds per MNA/AC solve) on a host with cores to spare.
:class:`AutoEngine` makes that choice from *measured* workload shape
instead of guesswork: the first rounds simulate in-process as a pilot
(identically to :class:`~repro.engine.serial.SerialEngine`), timing each
simulation dispatch and counting the rows it stacks (a round larger than
one group is several dispatches), and once enough rows are measured the
engine commits.

The commit uses a crossover model.  A round of ``R`` rows at per-row cost
``t`` takes ``R * t`` in-process; on a ``W``-worker pool it takes roughly
``overhead + R * ipc + R * t / W`` (per-round dispatch overhead, per-row
chunk/result IPC, then the simulations at ideal speed-up).  Shipping
therefore wins when::

    t  >  (overhead / R + ipc) / (1 - 1 / W)

— the *crossover cost*.  Small rounds (tiny ``R``) raise it (the fixed
dispatch overhead amortises badly), extra workers lower it.  Both the
measured inputs and the resulting decision are recorded in
:attr:`AutoEngine.decision` and surface on
:class:`~repro.core.moheco.MOHECOResult` as ``engine_decision``.

Only :meth:`AutoEngine.simulate` is timed and delegated: the round
template (draw, cache partition, scatter) stays the inherited serial one,
so the committed backend never sees the warm-start cache and only ever
simulates miss rows.  The template groups a round by the committed
backend's :attr:`~AutoEngine.group_rows` (one slab while piloting), so
once the pool is chosen a round of up to ``workers * SLAB_ROWS`` rows is
still one dispatch.  Determinism is untouched: every backend is
seed-equivalent, so the decision only ever changes wall-clock.
"""

from __future__ import annotations

import os
import time

from repro.engine.process import ProcessPoolEngine
from repro.engine.serial import SerialEngine
from repro.registry import check_count, check_real

__all__ = ["AutoEngine"]

#: Per-row IPC cost of the pool path [s]: chunk pickling, result pickling
#: and queue traffic, per stacked row.  Calibrated from the
#: BENCH_engine.json sphere numbers (where the round is pure IPC).
DEFAULT_IPC_ROW_COST_SECONDS = 25e-6

#: Fixed per-round pool dispatch cost [s]: chunking, future submission
#: and collection.
DEFAULT_ROUND_OVERHEAD_SECONDS = 400e-6


class AutoEngine(SerialEngine):
    """Pilot-measured choice between the serial and process backends.

    Parameters
    ----------
    workers:
        Worker count handed to the process pool if chosen; ``None``
        defers to :class:`ProcessPoolEngine`'s default (CPU count, capped).
    pilot_rows:
        Keep measuring in-process until this many simulation rows have
        been timed; then commit.
    ipc_row_cost_seconds / round_overhead_seconds:
        The crossover model's IPC constants; override after measuring a
        platform with ``benchmarks/test_bench_engine.py``.  Setting both
        to ``0.0`` commits to the pool whenever it has 2+ workers.
    """

    name = "auto"

    def __init__(
        self,
        workers: int | None = None,
        pilot_rows: int = 64,
        ipc_row_cost_seconds: float = DEFAULT_IPC_ROW_COST_SECONDS,
        round_overhead_seconds: float = DEFAULT_ROUND_OVERHEAD_SECONDS,
    ) -> None:
        self.validate_params(
            workers, pilot_rows, ipc_row_cost_seconds, round_overhead_seconds
        )
        self.workers = workers
        self.pilot_rows = int(pilot_rows)
        self.ipc_row_cost_seconds = float(ipc_row_cost_seconds)
        self.round_overhead_seconds = float(round_overhead_seconds)
        #: Registry name of the committed backend (``None`` while piloting).
        self.chosen: str | None = None
        #: Measured per-simulation cost the decision was based on.
        self.pilot_cost_seconds: float | None = None
        #: Full record of the commit (inputs + outcome); ``None`` while
        #: piloting.  Surfaces as ``MOHECOResult.engine_decision``.
        self.decision: dict | None = None
        self._delegate: SerialEngine | None = None
        self._timed_rows = 0
        self._timed_seconds = 0.0
        self._timed_rounds = 0

    @staticmethod
    def validate_params(
        workers: int | None = None,
        pilot_rows: int = 64,
        ipc_row_cost_seconds: float = DEFAULT_IPC_ROW_COST_SECONDS,
        round_overhead_seconds: float = DEFAULT_ROUND_OVERHEAD_SECONDS,
        **_,
    ) -> None:
        """The constructor's value checks, starting no worker process."""
        ProcessPoolEngine.validate_params(workers)
        check_count("pilot_rows", pilot_rows, 1)
        check_real("ipc_row_cost_seconds", ipc_row_cost_seconds, 0.0)
        check_real("round_overhead_seconds", round_overhead_seconds, 0.0)

    @property
    def group_rows(self) -> int:
        """The committed backend's group; one slab while piloting."""
        if self._delegate is not None:
            return self._delegate.group_rows
        return super().group_rows

    def simulate(self, problem, pending):
        if self._delegate is not None:
            return self._delegate.simulate(problem, pending)
        # Pilot: the template hands over only genuinely simulated rows, so
        # replayed cache hits never read as impossibly cheap simulations.
        started = time.perf_counter()
        performance = super().simulate(problem, pending)
        self._timed_seconds += time.perf_counter() - started
        self._timed_rows += sum(block.n_samples for block in pending)
        self._timed_rounds += 1
        if self._timed_rows >= self.pilot_rows:
            self._commit()
        return performance

    def crossover_cost_seconds(self, workers: int, rows_per_round: float) -> float:
        """Per-row cost above which a ``workers``-wide pool beats serial."""
        if workers <= 1:
            return float("inf")
        amortised_overhead = self.round_overhead_seconds / max(rows_per_round, 1.0)
        return (amortised_overhead + self.ipc_row_cost_seconds) / (1.0 - 1.0 / workers)

    def _commit(self) -> None:
        self.pilot_cost_seconds = self._timed_seconds / self._timed_rows
        pool_workers = (
            self.workers if self.workers is not None else min(os.cpu_count() or 1, 8)
        )
        rows_per_round = self._timed_rows / max(self._timed_rounds, 1)
        crossover = self.crossover_cost_seconds(pool_workers, rows_per_round)
        if pool_workers > 1 and self.pilot_cost_seconds >= crossover:
            self._delegate = ProcessPoolEngine(workers=pool_workers)
        else:
            # Cheap simulations (or nothing to parallelise across): IPC
            # would dominate, stay fused in-process.
            self._delegate = SerialEngine()
        self.chosen = self._delegate.name
        self.decision = {
            "chosen": self.chosen,
            "pilot_cost_seconds": self.pilot_cost_seconds,
            # inf (single worker: the pool can never win) is stored as None
            # to keep the dict JSON-clean.
            "crossover_cost_seconds": (
                crossover if crossover != float("inf") else None
            ),
            "mean_rows_per_round": rows_per_round,
            "pilot_rows": self._timed_rows,
            "pilot_rounds": self._timed_rounds,
            "workers": pool_workers,
        }

    def close(self) -> None:
        if self._delegate is not None:
            self._delegate.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.chosen or f"piloting ({self._timed_rows}/{self.pilot_rows} rows)"
        return f"AutoEngine({state})"
