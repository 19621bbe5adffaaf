"""The execution engine: how a round of candidate refinements is simulated.

The algorithm layer (OCBA stage 1, stage-2 promotion, the fixed-budget
baseline, the fidelity ladder, memetic local search) describes *what* to
refine — ``(candidate, k_i samples)`` per round — and
:meth:`SerialEngine.refine_round <repro.engine.serial.SerialEngine.refine_round>`,
the one round template, executes it: it fuses each round into stacked
``(sum(k_i), ...)`` dispatches, streamed in groups of at most one
evaluator slab (:data:`~repro.problems.base.SLAB_ROWS` rows) so that a
stage-2 round of tens of thousands of rows never holds more than one
group's samples, in one buffer per round.  Every row a round asks for is
simulated and charged to its candidate's ledger category.
Parallelism lives one level up: ``repro sweep --workers`` shards whole
runs across processes (:mod:`repro.sweep.executor`).

Sample draws stay in per-candidate RNG streams, so a fused round returns
the same estimates, bit for bit, as one ``state.refine`` per candidate
(:mod:`repro.engine.serial`).
"""

from repro.engine.serial import SerialEngine

__all__ = ["SerialEngine"]
