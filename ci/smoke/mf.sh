#!/usr/bin/env bash
# Multi-fidelity ladder smoke: the ladder must beat the fixed-fidelity
# baseline on sims-to-target and combine with the surrogate screen of a
# screened method, then run the tiny-budget mf benchmark.
set -euo pipefail

# Tiny 2-bracket ladder on the circuit-priced problem: both runs stop at
# the same verified-100%-yield target, so total charged simulations is
# the sims-to-target metric.
repro run --problem netlist_ota --method moheco_mf --seed 7 \
  --set pop_size=10 --set max_generations=6 \
  --set "mf_params={'eta': 2, 'brackets': 2}" \
  --out mf-serial.json
repro run --problem netlist_ota --method fixed_budget --seed 7 \
  --set pop_size=10 --set max_generations=6 \
  --out fixed.json
python - <<'EOF'
import json
mf = json.load(open("mf-serial.json"))["result"]
fixed = json.load(open("fixed.json"))["result"]
assert mf["best_yield"] >= fixed["best_yield"], (mf["best_yield"], fixed["best_yield"])
assert mf["n_simulations"] < fixed["n_simulations"], (
    f"ladder charged {mf['n_simulations']} sims, fixed-fidelity "
    f"baseline only {fixed['n_simulations']}"
)
trace = mf["fidelity_trace"]
# Early generations can log empty rungs (an all-infeasible trial pool
# gives the ladder nothing to climb), but the run as a whole must have
# exercised the ladder.
assert trace and any(entry["rungs"] for entry in trace), trace
print(
    f"sims-to-target: moheco_mf {mf['n_simulations']} vs "
    f"fixed_budget {fixed['n_simulations']} "
    f"({len(trace)} ladder generations)"
)
EOF

# Stage 1 is a config value, so a screened method climbs the ladder too:
# the surrogate screen prunes trials before the feasibility gate and the
# survivors climb the rungs, in one run.
repro run --problem netlist_ota --method moheco_screened --seed 23 \
  --set pop_size=20 --set max_generations=20 --set n0=15 --set n_max=500 \
  --set allocation=ladder \
  --set "screen_params={'min_train': 60, 'keep_fraction': 0.5}" \
  --out mf-screened.json
python - <<'EOF'
import json
result = json.load(open("mf-screened.json"))["result"]
fidelity = result["fidelity_trace"]
assert fidelity and any(entry["rungs"] for entry in fidelity), fidelity
assert result["screen_trace"], "screen_trace is empty"
assert result["ledger"]["pruned"] > 0, result["ledger"]
print(
    f"screened ladder: {result['ledger']['pruned']} trials pruned, "
    f"{sum(bool(entry['rungs']) for entry in fidelity)} ladder generations"
)
EOF

# Multi-fidelity benchmark (tiny budget): REPRO_BENCH_SMOKE shrinks to
# two seeds and disarms the >=2x aggregate bar; the yield-parity and
# ratio-above-1x assertions still run.
REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_mf.py -q -s
