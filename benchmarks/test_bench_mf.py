"""Multi-fidelity ladder benchmark: sims-to-target vs fixed fidelity.

The ladder's pitch is charged simulations, not wall-clock: on a problem
where the optimum genuinely reaches 100 % yield, both ``moheco_mf`` and
the fixed-fidelity baseline run until the best design holds a verified
``passes == n == n_max`` estimate (the ``yield_100`` stopping rule), so
the total charged simulation count *is* the sims-to-target metric — no
thresholds to pick, no partial-credit comparisons.

The workload is the circuit-backed ``netlist_ota`` problem (stacked
MNA/AC solves) across several seeds; the baseline is ``fixed_budget``,
the paper's state-of-the-art MC flow that prices every feasible candidate
at the full ``n_fixed``.  The ladder instead opens every generation's
bracket at a cheap wide rung and spends full fidelity only on the
survivors whose pooled yield estimate keeps them in each rung's top
``1/eta``.

Acceptance bar (full scale): ``moheco_mf`` reaches the fixed-fidelity
method's final yield on every seed, with >= 2x fewer charged simulations
in aggregate.  The CI smoke run shrinks to two seeds and only requires
the ratio to exceed 1x.

Results land in ``BENCH_mf.json`` at the repo root so successive PRs can
track the trajectory.
"""

import json
import os
import time

from repro.api import optimize

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
OUT_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "BENCH_mf.json")

SEEDS = (7, 11) if SMOKE else (7, 11, 23, 31, 43)
#: Shared run shape; each method gets the same 500-sample full fidelity.
COMMON = {"max_generations": 10, "pop_size": 20, "n0": 15}
FULL_FIDELITY = 500
#: eta=2 halves gently: six rungs from 16 to 500, promotion keeps 1/2.
MF_PARAMS = {"eta": 2}


def _measure(method: str, seed: int, **kwargs) -> dict:
    started = time.perf_counter()
    result = optimize(
        "netlist_ota", method=method, seed=seed, **COMMON, **kwargs
    )
    return {
        "seed": seed,
        "best_yield": result.best_yield,
        "n_simulations": result.n_simulations,
        "generations": result.generations,
        "reason": result.reason,
        "elapsed_seconds": time.perf_counter() - started,
    }


def test_mf_sims_to_target():
    fixed_runs = [
        _measure("fixed_budget", seed, n_fixed=FULL_FIDELITY) for seed in SEEDS
    ]
    mf_runs = [
        _measure("moheco_mf", seed, n_max=FULL_FIDELITY, mf_params=MF_PARAMS)
        for seed in SEEDS
    ]

    fixed_sims = sum(run["n_simulations"] for run in fixed_runs)
    mf_sims = sum(run["n_simulations"] for run in mf_runs)
    ratio = fixed_sims / mf_sims

    payload = {
        "problem": "netlist_ota",
        "config": COMMON,
        "full_fidelity": FULL_FIDELITY,
        "mf_params": MF_PARAMS,
        "seeds": list(SEEDS),
        "smoke": SMOKE,
        "fixed_budget": fixed_runs,
        "moheco_mf": mf_runs,
        "fixed_sims_total": fixed_sims,
        "mf_sims_total": mf_sims,
        "sims_ratio": ratio,
    }
    with open(OUT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\n[saved to {os.path.abspath(OUT_PATH)}]")
    for fixed, mf in zip(fixed_runs, mf_runs):
        print(
            f"seed {fixed['seed']:>3}: fixed_budget {fixed['n_simulations']:>6} "
            f"sims -> yield {fixed['best_yield']:.3f} | moheco_mf "
            f"{mf['n_simulations']:>6} sims -> yield {mf['best_yield']:.3f}"
        )
    print(f"aggregate sims ratio (fixed / mf): {ratio:.2f}x")

    # The ladder must reach the fixed-fidelity yield on every seed...
    for fixed, mf in zip(fixed_runs, mf_runs):
        assert mf["best_yield"] >= fixed["best_yield"], (
            f"seed {mf['seed']}: moheco_mf reached {mf['best_yield']:.4f} "
            f"but fixed_budget reached {fixed['best_yield']:.4f}"
        )
    # ...and always for less total simulation.
    assert ratio > 1.0
    if not SMOKE:
        assert ratio >= 2.0, (
            f"moheco_mf only saved {ratio:.2f}x charged simulations over "
            "fixed_budget; the acceptance bar is >= 2x at full scale"
        )
