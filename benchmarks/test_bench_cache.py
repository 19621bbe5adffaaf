"""Warm-start cache benchmark: cold vs warm sims/sec on a LS-heavy run.

The cache's pitch is simulation-priced: when evaluations cost real time
(MNA/AC circuit solves, or anything heavier than the closed-form
synthetics), a warm-started run replays its Monte-Carlo rounds instead of
recomputing them.  The benchmark therefore wraps the quadratic synthetic
in a deterministic per-row workload (``SIM_COST_FLOPS`` sin/sum flops per
simulated sample) to emulate circuit-priced simulations without leaving
the synthetic substrate, then measures one local-search-heavy MOHECO
configuration three ways:

* ``uncached`` — no cache attached (the baseline the cold overhead is
  judged against),
* ``cold`` — LRU cache attached, first run (pays keying + memoization),
* ``warm`` — the same run again on the now-populated cache.

Because accounting is ledger-faithful, all three report the *same*
``n_simulations``; only the wall-clock moves, so ``sims_per_second`` is
the honest throughput metric.  The acceptance bar: warm >= 1.5x cold on
the local-search-heavy configuration (asserted at full scale; the CI
smoke run shrinks the workload and only requires warm > cold).

Results land in ``BENCH_cache.json`` at the repo root so successive PRs
can track the trajectory.
"""

import json
import os
import time

import numpy as np

from repro.api import LRUEvaluationCache, optimize
from repro.problems import make_quadratic_problem
from repro.problems.base import YieldProblem

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
#: Deterministic extra work per simulated row (emulates circuit pricing).
SIM_COST_FLOPS = 2048 if SMOKE else 8192
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_cache.json")

#: The local-search-heavy regime: tight patience so Nelder-Mead fires, a
#: real stage-2 sample count so every NM evaluation is n_max-priced.
#: (Unlike the other benchmarks the generation count survives smoke mode:
#: shrinking it below the NM trigger point would bench the wrong regime;
#: only the per-row pricing shrinks.)
LS_HEAVY = {
    "pop_size": 10,
    "max_generations": 12,
    "ls_patience": 1,
    "ls_max_triggers": 4,
    "n_max": 150,
    "sim_ave": 20,
    "n0": 10,
    "stop_patience": 30,
}
SEED = 11


class _PricedEvaluator:
    """Wraps an evaluator with deterministic per-row busywork.

    The workload scales with the number of simulated rows (like a real
    simulator) and changes no outputs, so cached and uncached runs stay
    bit-identical while the evaluation cost becomes worth caching.
    """

    def __init__(self, inner, flops_per_row: int) -> None:
        self._inner = inner
        self._spin = np.arange(float(flops_per_row))
        self.variation = inner.variation

    def design_space(self):
        return self._inner.design_space()

    def metric_names(self):
        return self._inner.metric_names()

    def _burn(self, rows: int) -> None:
        for _ in range(rows):
            float(np.sum(np.sin(self._spin)))

    def evaluate_pairs(self, X, samples):
        out = self._inner.evaluate_pairs(X, samples)
        self._burn(np.atleast_2d(X).shape[0])
        return out


def make_priced_quadratic() -> YieldProblem:
    base = make_quadratic_problem()
    evaluator = _PricedEvaluator(base.evaluator, SIM_COST_FLOPS)
    return YieldProblem(evaluator, base.specs, name="priced_quadratic")


def _measure(problem, cache):
    started = time.perf_counter()
    result = optimize(
        problem,
        method="moheco",
        seed=SEED,
        cache=cache,
        **LS_HEAVY,
    )
    elapsed = time.perf_counter() - started
    return {
        "n_simulations": result.n_simulations,
        "elapsed_seconds": elapsed,
        "sims_per_sec": result.n_simulations / elapsed,
        "cache_stats": result.cache_stats,
        "local_search_fired": sum(g.local_search_fired for g in result.history),
        "identity": result.identity_dict(),
    }


def test_cache_warm_start_throughput():
    problem = make_priced_quadratic()
    cache = LRUEvaluationCache()

    uncached = _measure(problem, None)
    cold = _measure(problem, cache)
    warm = _measure(problem, cache)

    # Ledger faithfulness: all three runs charge the identical simulation
    # count and report the identical result.
    assert cold["identity"] == uncached["identity"]
    assert warm["identity"] == uncached["identity"]
    assert warm["n_simulations"] == uncached["n_simulations"]
    assert warm["cache_stats"]["hits"] > 0
    assert warm["cache_stats"]["misses"] == 0
    # The configuration genuinely exercises the memetic local search.
    assert uncached["local_search_fired"] >= 1

    speedup_warm_vs_cold = warm["sims_per_sec"] / cold["sims_per_sec"]
    cold_overhead = uncached["sims_per_sec"] / cold["sims_per_sec"]

    payload = {
        "problem": "priced_quadratic",
        "sim_cost_flops": SIM_COST_FLOPS,
        "config": LS_HEAVY,
        "seed": SEED,
        "smoke": SMOKE,
        "uncached": {k: v for k, v in uncached.items() if k != "identity"},
        "cold": {k: v for k, v in cold.items() if k != "identity"},
        "warm": {k: v for k, v in warm.items() if k != "identity"},
        "speedup_warm_vs_cold": speedup_warm_vs_cold,
        "cold_overhead_vs_uncached": cold_overhead,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\n[saved to {os.path.abspath(OUT_PATH)}]")
    for name in ("uncached", "cold", "warm"):
        print(f"{name:9s} {payload[name]['sims_per_sec']:>12,.0f} sims/s")
    print(
        f"warm-vs-cold speedup: {speedup_warm_vs_cold:.2f}x "
        f"(cold overhead vs uncached: {cold_overhead:.2f}x)"
    )

    # Warm must always beat cold; the 1.5x acceptance bar applies at full
    # scale on a quiet machine (CI smoke runners are too noisy and too
    # small for absolute wall-clock bars).
    assert speedup_warm_vs_cold > 1.0
    if not SMOKE:
        assert speedup_warm_vs_cold >= 1.5, (
            f"warm-started run only {speedup_warm_vs_cold:.2f}x over cold; "
            "expected >= 1.5x on the local-search-heavy configuration"
        )
