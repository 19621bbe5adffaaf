"""The MOHECO algorithm (paper Fig. 4).

One engine implements the paper's method *and* its compared baselines via
config switches: ``allocation`` picks the stage-1 budget policy and
``use_memetic`` the memetic operators.

==========================  ================================================
method                      config
==========================  ================================================
MOHECO                      ``MOHECOConfig()`` (``n_max=500``)
OO + AS + LHS               ``MOHECOConfig(use_memetic=False)``
AS + LHS, N sims            ``MOHECOConfig(allocation="fixed",
                            use_memetic=False, n_max=N)``
multi-fidelity MOHECO       ``MOHECOConfig(allocation="ladder")`` plus the
                            run's ``mf_params`` (:mod:`repro.mf`)
==========================  ================================================

The registered methods of this family are the rows of
:data:`repro.api.methods.MOHECO_FAMILY`.

Flow per generation (paper steps 1-11):

1. select the current best candidate (Deb's rules),
2. DE mutation + crossover produce one trial per parent,
3. nominal feasibility check per trial (1 simulation),
4-7. feasible trials get yield estimates — allocated by the stage-1 policy
     (OCBA, a fidelity ladder, or ``n_max`` outright for the fixed-budget
     baseline), the full ``n_max`` once promoted to stage 2 (estimated
     yield > 97 %);
     infeasible trials get yield 0 and their constraint violation,
8. one-to-one selection parent vs trial,
9-10. if the best yield has stalled for ``ls_patience`` generations, run a
      Nelder-Mead local search around the best member (stage-2 accuracy,
      every objective evaluation charged),
11. stop on 100 % reported yield or ``stop_patience`` stalled generations.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.compose.screeners import make_screener
from repro.core.callbacks import Callback, CallbackList
from repro.core.config import MOHECOConfig
from repro.core.history import GenerationRecord, OptimizationHistory
from repro.core.state import Individual
from repro.engine import SerialEngine
from repro.ledger import SimulationLedger
from repro.mf.driver import ladder_allocation
from repro.ocba.sequential import OCBAReport, ocba_sequential
from repro.optim.constraints import deb_better
from repro.optim.de import DifferentialEvolution
from repro.optim.memetic import MemeticTrigger
from repro.optim.nelder_mead import nelder_mead_maximize
from repro.rng import ensure_rng, spawn
from repro.sampling import make_sampler
from repro.sampling.acceptance import LinearMarginScreener
from repro.yieldsim.estimator import CandidateYieldState, YieldEstimate

__all__ = ["MOHECO", "MOHECOResult", "result_identity", "select_one_to_one"]

#: Result fields that describe how a run was produced, not what it is.
OBSERVATIONAL_FIELDS = ("elapsed_seconds",)
#: Fields of the retired warm-start cache that payloads written before its
#: retirement still carry: the run's ``cache_stats`` and its ledger's
#: ``cached`` count.  Neither was ever part of a result's identity.
RETIRED_FIELDS = ("cache_stats",)
RETIRED_LEDGER_FIELDS = ("cached",)


def result_identity(data: dict) -> dict:
    """A :meth:`MOHECOResult.to_dict` payload minus its observational fields.

    The one identity rule for live results and for the payloads stored in
    sweep records: drops :data:`OBSERVATIONAL_FIELDS`, and the retired
    cache fields an older payload carries, so it compares equal to the same
    run written now.
    """
    dropped = OBSERVATIONAL_FIELDS + RETIRED_FIELDS
    identity = {k: v for k, v in data.items() if k not in dropped}
    ledger = identity.get("ledger")
    if isinstance(ledger, dict):
        identity["ledger"] = {
            k: v for k, v in ledger.items() if k not in RETIRED_LEDGER_FIELDS
        }
    return identity


def select_one_to_one(population: list[Individual], trials: list[Individual]) -> None:
    """Step 8: standard DE one-to-one replacement, in place; the trial wins ties."""
    for i, trial in enumerate(trials):
        if not deb_better(population[i].fitness(), trial.fitness()):
            population[i] = trial


@dataclass
class MOHECOResult:
    """Outcome of one optimization run."""

    best_x: np.ndarray
    best_yield: float
    best_estimate: YieldEstimate
    generations: int
    n_simulations: int
    reason: str
    history: OptimizationHistory
    ledger: SimulationLedger
    #: Wall-clock duration of the run (0 for results built by hand).
    elapsed_seconds: float = 0.0
    #: Per-generation ladder record of a run whose stage 1 climbs a
    #: fidelity ladder (``allocation="ladder"``, :mod:`repro.mf`): bracket
    #: index and, per rung, fidelity, members, gains, sample counts and
    #: promotions; ``None`` under the other stage-1 policies.  Unlike
    #: ``elapsed_seconds`` this is part of the result *identity* — ladder
    #: decisions must be bit-identical across execution backends and
    #: worker counts.
    fidelity_trace: list | None = None
    #: Per-generation record of a run with the surrogate screen
    #: (``screen_params``, :mod:`repro.compose`): refits, per-trial scores
    #: and every prune/keep decision; ``None`` for runs without the
    #: screen.  Like ``fidelity_trace`` this is part of the result
    #: *identity*: prune decisions must be bit-identical across execution
    #: backends and worker counts.
    screen_trace: list | None = None

    @property
    def sims_per_second(self) -> float:
        """Charged-simulation throughput; what the BENCH files track."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.n_simulations / self.elapsed_seconds

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-compatible representation (history and ledger included)."""
        return {
            "best_x": np.asarray(self.best_x).tolist(),
            "best_yield": float(self.best_yield),
            "best_estimate": {
                "passes": int(self.best_estimate.passes),
                "n": int(self.best_estimate.n),
            },
            "generations": int(self.generations),
            "n_simulations": int(self.n_simulations),
            "reason": str(self.reason),
            "elapsed_seconds": float(self.elapsed_seconds),
            "fidelity_trace": self.fidelity_trace,
            "screen_trace": self.screen_trace,
            "history": self.history.to_dict(),
            "ledger": self.ledger.to_dict(),
        }

    def identity_dict(self) -> dict:
        """:meth:`to_dict` minus the wall-clock field.

        This is the run's *result identity*: what must be byte-equal across
        execution backends and worker counts.  ``elapsed_seconds``
        legitimately differs — it describes how the result was produced,
        not what it is.
        """
        return result_identity(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "MOHECOResult":
        """Inverse of :meth:`to_dict`; keys it does not write are ignored."""
        estimate = data.get("best_estimate", {})
        return cls(
            best_x=np.asarray(data["best_x"], dtype=float),
            best_yield=float(data["best_yield"]),
            best_estimate=YieldEstimate(
                passes=int(estimate.get("passes", 0)), n=int(estimate.get("n", 0))
            ),
            generations=int(data["generations"]),
            n_simulations=int(data["n_simulations"]),
            reason=str(data["reason"]),
            history=OptimizationHistory.from_dict(data.get("history", {})),
            ledger=SimulationLedger.from_dict(data.get("ledger", {})),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            fidelity_trace=data.get("fidelity_trace"),
            screen_trace=data.get("screen_trace"),
        )


class MOHECO:
    """Memetic OO-based hybrid evolutionary constrained optimizer.

    Parameters
    ----------
    problem:
        The :class:`~repro.problems.base.YieldProblem` to solve.
    config:
        Algorithm configuration (paper defaults when omitted).
    ledger:
        Simulation ledger; a fresh one is created when omitted.
    rng:
        Random generator or seed.
    callbacks:
        Observers of the generation loop (a single
        :class:`~repro.core.callbacks.Callback` or a sequence).
    mf_params:
        Fidelity-ladder knobs ``{"eta", "r_min", "brackets"}`` (see
        :meth:`~repro.mf.ladder.FidelityLadder.from_params`); only valid
        with ``config.allocation == "ladder"``, rejected otherwise.
    screen_params:
        Knobs of the surrogate screen in front of the step-3 gate (see
        :class:`~repro.compose.screeners.SurrogateScreener`); ``{}`` runs
        the default screen and ``None`` (the default) runs no screen.
    """

    def __init__(
        self,
        problem,
        config: MOHECOConfig | None = None,
        ledger: SimulationLedger | None = None,
        rng: np.random.Generator | int | None = None,
        callbacks: Callback | list[Callback] | None = None,
        mf_params: dict | None = None,
        screen_params: dict | None = None,
    ) -> None:
        self.problem = problem
        self.config = config or MOHECOConfig()
        self.ledger = ledger if ledger is not None else SimulationLedger()
        self.rng = ensure_rng(rng)
        self.callbacks = CallbackList(callbacks)
        # A ladder allocation records every generation's climb; the record
        # rides onto the result as ``fidelity_trace``.
        self._ladder = ladder_allocation(self.config, mf_params)
        self.sampler = make_sampler(self.config.sampler, problem.variation)
        self.de = DifferentialEvolution(
            problem.space, f=self.config.de_f, cr=self.config.de_cr
        )
        # The screen's stream is spawned last, before any population draw,
        # so its decisions (the result's ``screen_trace``) depend only on
        # the seed and the estimates, never on how a round is grouped or
        # on a sweep's worker count.
        self._screener = None
        self._screen_trace: list | None = None
        if screen_params is not None:
            self._screener = make_screener(screen_params, rng=spawn(self.rng))
            self._screen_trace = []

    # -- candidate construction ------------------------------------------------
    def _new_individuals(
        self, xs: np.ndarray, category: str = "stage1"
    ) -> list[Individual]:
        """Batched step-3 gate: one vectorized feasibility evaluation for the
        whole candidate matrix, then a fresh yield state for each feasible
        candidate (in order, so the RNG spawn sequence is fixed)."""
        feasible, violations = self.problem.nominal_feasibility_batch(xs, self.ledger)
        individuals = []
        for x, ok, violation in zip(xs, feasible, violations):
            state = None
            if ok:
                screener = None
                if self.config.use_acceptance_sampling:
                    screener = LinearMarginScreener(
                        self.problem.specs,
                        safety=self.config.as_safety,
                        min_train=self.config.as_min_train,
                    )
                state = CandidateYieldState(
                    self.problem,
                    x,
                    self.sampler,
                    spawn(self.rng),
                    self.ledger,
                    category=category,
                    screener=screener,
                )
            individuals.append(Individual(x, bool(ok), float(violation), state))
        return individuals

    # -- fused refinement -----------------------------------------------------
    def _refine_round(
        self, states: list, gains: list[int], category: str | None = None
    ) -> None:
        """One fused refinement round: promotions, the ladder, local search."""
        SerialEngine().refine_round(self.problem, states, gains, category=category)

    def _promote_all(self, individuals: list[Individual]) -> None:
        """Promote a batch of candidates in one fused stage-2 round.

        All missing samples are refined together (one fused round),
        then ``on_stage2_promotion`` fires once per candidate, in order —
        the promotions of every stage-1 policy funnel through here so
        callbacks see every promotion.
        """
        if not individuals:
            return
        states = [ind.state for ind in individuals]
        gains = [max(self.config.n_max - state.n, 0) for state in states]
        if any(gains):
            self._refine_round(states, gains, category="stage2")
        for ind in individuals:
            ind.stage = 2
            self.callbacks.on_stage2_promotion(self, ind)

    # -- population yield estimation (steps 4-7) ----------------------------------
    def _estimate_population(self, individuals: list[Individual]) -> OCBAReport:
        cfg = self.config
        feasible = [ind for ind in individuals if ind.feasible]
        rounds = 1  # the fixed budget's one fused stage-2 round
        if self._ladder is not None:
            # Climbed even with nothing feasible: the trace keeps one entry
            # per generation.
            rounds = self._ladder.climb(feasible, self._refine_round)
        if not feasible:
            return OCBAReport(counts=np.zeros(0, dtype=int), estimates=np.zeros(0), rounds=0)

        report = None
        if cfg.allocation == "ocba":
            report = ocba_sequential(
                [ind.state for ind in feasible],
                total_budget=cfg.sim_ave * len(feasible),
                n0=cfg.n0,
                delta=cfg.delta,
            )
        # The fixed-budget baseline promotes everyone: n_max outright, as one
        # fused stage-2 round, with promotion callbacks firing as for the
        # other policies.
        self._promote_all(
            feasible
            if cfg.allocation == "fixed"
            else [ind for ind in feasible if ind.state.value >= cfg.stage2_threshold]
        )
        if report is None:
            report = OCBAReport(
                counts=np.array([ind.n_samples for ind in feasible], dtype=int),
                estimates=np.array([ind.yield_value for ind in feasible]),
                rounds=rounds,
            )
        return report

    def _evaluate(self, xs: np.ndarray) -> tuple[list[Individual], OCBAReport]:
        """Steps 3-7 for a candidate matrix: gate, then estimate.

        With the screen on, every candidate the gate returned becomes its
        training data: feasible ones with their current yield estimate,
        infeasible ones as hard zeros.
        """
        individuals = self._new_individuals(xs)
        report = self._estimate_population(individuals)
        if self._screener is not None:
            for ind in individuals:
                self._screener.observe(ind.x, ind.yield_value if ind.feasible else 0.0)
        return individuals, report

    # -- selection helpers ------------------------------------------------------------
    @staticmethod
    def _best_index(population: list[Individual]) -> int:
        best = 0
        for i in range(1, len(population)):
            if deb_better(population[i].fitness(), population[best].fitness()):
                best = i
        return best

    # -- local search (steps 9-10) -------------------------------------------------------
    def _local_search(self, incumbent: Individual) -> Individual | None:
        """NM around the best member; returns an improved individual or None.

        Each batch of simplex points passes one gate call, and every
        feasible point is refined to ``n_max`` in one fused round; the gate
        spawns the points' RNG streams in row order.
        """
        evaluated: list[Individual] = []

        def objective(xs: np.ndarray) -> np.ndarray:
            individuals = self._new_individuals(xs, "local_search")
            feasible = [ind for ind in individuals if ind.feasible]
            if feasible:
                self._refine_round(
                    [ind.state for ind in feasible], [self.config.n_max] * len(feasible)
                )
            for individual in feasible:
                individual.stage = 2
            evaluated.extend(feasible)
            # An infeasible point scores strictly below any feasible yield,
            # graded by violation so the simplex can climb back into the
            # feasible region.
            return np.array([
                ind.yield_value if ind.feasible else -1.0 - ind.violation
                for ind in individuals
            ])

        nelder_mead_maximize(
            objective,
            incumbent.x,
            self.problem.space,
            max_iterations=self.config.ls_max_iterations,
            initial_step=self.config.ls_initial_step,
            max_evaluations=self.config.ls_max_evaluations,
        )
        if not evaluated:
            return None
        best = evaluated[0]
        for candidate in evaluated[1:]:
            if deb_better(candidate.fitness(), best.fitness()):
                best = candidate
        if deb_better(best.fitness(), incumbent.fitness()):
            return best
        return None

    # -- main loop -----------------------------------------------------------------------
    def run(self) -> MOHECOResult:
        """Execute the optimization and return the best design found."""
        cfg = self.config
        started_at = time.perf_counter()
        history = OptimizationHistory()
        trigger = MemeticTrigger(cfg.ls_patience, cfg.yield_tolerance)
        self.callbacks.on_run_start(self)

        xs = self.de.init_population(cfg.pop_size, self.rng)
        population, report = self._evaluate(xs)
        self._record(history, 0, population, report, ls_fired=False, extra=[])
        stop_requested = self.callbacks.on_generation_end(self, history[-1])

        best_seen = -np.inf
        stall = 0
        reason = "callback_stop" if stop_requested else "max_generations"
        generation = 0
        ls_failed_at: np.ndarray | None = None
        ls_triggers = 0
        remaining = range(1, cfg.max_generations + 1) if not stop_requested else []

        for generation in remaining:
            # Steps 1-2: base-vector selection + DE trial proposal.
            best_index = self._best_index(population)
            trial_xs = self.de.propose(
                np.array([ind.x for ind in population]), best_index, self.rng
            )

            # Steps 3-7: the optional screen, then the feasibility gate and
            # staged yield estimation of the trials it kept.  A pruned trial
            # never reaches the gate, so it charges no simulation; the
            # ledger's ``pruned`` column counts it instead.
            keep = np.ones(len(trial_xs), dtype=bool)
            if self._screener is not None:
                keep, record = self._screener.screen(trial_xs, generation)
                self._screen_trace.append(record)
                self.ledger.record_pruned(int(np.count_nonzero(~keep)))
            kept, report = self._evaluate(trial_xs[keep])

            # Step 8: one-to-one selection (trial wins ties, standard DE).  A
            # pruned trial holds its slot as an unevaluated placeholder,
            # infeasible with infinite violation.
            survivors = iter(kept)
            trials = [
                next(survivors) if k else Individual(x, False, float("inf"), None)
                for k, x in zip(keep, trial_xs)
            ]
            select_one_to_one(population, trials)

            # Steps 9-10: adaptive memetic local search.  A failed search
            # suppresses re-triggering until the incumbent changes: repeating
            # NM around the very same point would spend n_max-priced
            # simulations on a question that was already answered.
            ls_fired = False
            ls_evaluated: list[Individual] = []
            best_index = self._best_index(population)
            best = population[best_index]
            # Local tuning belongs to stage 2 (paper section 2.4): NM only
            # refines an incumbent that already estimates above the stage-2
            # threshold — polishing a mid-yield candidate at n_max accuracy
            # would waste the budget DE spends more efficiently.
            ls_eligible = (
                cfg.use_memetic
                and best.feasible
                and best.yield_value >= cfg.stage2_threshold
            )
            if ls_eligible and trigger.observe(best.yield_value):
                already_searched = ls_failed_at is not None and np.array_equal(
                    best.x, ls_failed_at
                )
                if not already_searched and ls_triggers < cfg.ls_max_triggers:
                    ls_fired = True
                    ls_triggers += 1
                    improved = self._local_search(best)
                    self.callbacks.on_local_search(self, generation, best, improved)
                    if improved is not None:
                        population[best_index] = improved
                        ls_evaluated.append(improved)
                        trigger.note_external_improvement(improved.yield_value)
                        ls_failed_at = None
                    else:
                        ls_failed_at = best.x.copy()

            self._record(history, generation, population, report, ls_fired, ls_evaluated,
                         trials=trials)
            if self.callbacks.on_generation_end(self, history[-1]):
                reason = "callback_stop"
                break

            # Step 11: stopping rules.
            best = population[self._best_index(population)]
            if best.feasible:
                estimate = best.estimate
                if (
                    best.stage == 2
                    and estimate.n >= cfg.n_max
                    and estimate.passes == estimate.n
                ):
                    reason = "yield_100"
                    break
            # Stall accounting: while the population is still infeasible,
            # falling violation counts as progress (the paper's "yield does
            # not increase" rule only makes sense once yield is non-zero).
            objective_now = best.yield_value if best.feasible else -best.violation
            patience = cfg.stop_patience if best.feasible else 3 * cfg.stop_patience
            if objective_now > best_seen + cfg.yield_tolerance:
                best_seen = objective_now
                stall = 0
            else:
                stall += 1
                if stall >= patience:
                    reason = "stalled"
                    break

        # Final answer always carries stage-2 accuracy.
        best = population[self._best_index(population)]
        if best.feasible and best.state is not None:
            self._promote_all([best])

        result = MOHECOResult(
            best_x=best.x.copy(),
            best_yield=best.yield_value,
            best_estimate=best.estimate,
            generations=generation,
            n_simulations=self.ledger.total,
            reason=reason,
            history=history,
            ledger=self.ledger,
            elapsed_seconds=time.perf_counter() - started_at,
            fidelity_trace=self._ladder.trace if self._ladder is not None else None,
            screen_trace=self._screen_trace,
        )
        self.callbacks.on_stop(self, result)
        return result

    # -- bookkeeping ---------------------------------------------------------------------
    def _record(
        self,
        history: OptimizationHistory,
        generation: int,
        population: list[Individual],
        report: OCBAReport,
        ls_fired: bool,
        extra: list[Individual],
        trials: list[Individual] | None = None,
    ) -> None:
        best = population[self._best_index(population)]
        evaluated = [ind for ind in (trials if trials is not None else population)
                     if ind.feasible and ind.n_samples > 0]
        evaluated.extend(extra)
        if evaluated:
            evaluated_x = np.array([ind.x for ind in evaluated])
            evaluated_yield = np.array([ind.yield_value for ind in evaluated])
        else:
            evaluated_x = np.zeros((0, self.problem.design_dimension))
            evaluated_yield = np.zeros(0)
        history.append(
            GenerationRecord(
                generation=generation,
                best_yield=best.yield_value,
                best_violation=best.violation,
                feasible_count=sum(ind.feasible for ind in population),
                stage2_count=sum(ind.stage == 2 for ind in population),
                simulations_total=self.ledger.total,
                local_search_fired=ls_fired,
                ocba_counts=report.counts.copy(),
                ocba_estimates=report.estimates.copy(),
                evaluated_x=evaluated_x,
                evaluated_yield=evaluated_yield,
            )
        )
