#!/usr/bin/env bash
# Multi-fidelity ladder smoke: the ladder must beat the fixed-fidelity
# baseline on sims-to-target, combine with the surrogate screen of a
# screened method, stay bit-identical with a cold and a warm cache, then
# run the tiny-budget mf benchmark.
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

# The fidelity_trace is part of the result identity: the same run —
# first against a cold cache spill, then a warm one — must match the
# uncached reference bit for bit, while the warm replay serves every row
# from the spill instead of simulating.  The cache keys whole sample
# blocks, so the spill holds one line per block the cold run simulated.
rm -f mf-spill.jsonl
for out in mf-cold.json mf-warm.json; do
  repro run --problem netlist_ota --method moheco_mf --seed 7 \
    --set pop_size=10 --set max_generations=6 \
    --set "mf_params={'eta': 2, 'brackets': 2}" \
    --cache lru --cache-param spill_path=mf-spill.jsonl \
    --out "$out"
done
python - <<'EOF'
import json
from repro.core.moheco import MOHECOResult
results = {
    name: MOHECOResult.from_dict(json.load(open(f"mf-{name}.json"))["result"])
    for name in ("cold", "warm")
}
serial = MOHECOResult.from_dict(
    json.load(open("mf-serial.json"))["result"]
)
for name, result in results.items():
    assert result.identity_dict() == serial.identity_dict(), name
    assert result.fidelity_trace == serial.fidelity_trace, name
cold = results["cold"].cache_stats
assert cold["hit_rows"] == 0, cold
warm = results["warm"].cache_stats
assert warm["hit_rows"] > 0, warm
assert warm["miss_rows"] == 0, warm
with open("mf-spill.jsonl", encoding="utf-8") as handle:
    spill_lines = sum(1 for line in handle if line.strip())
assert spill_lines == cold["misses"], (spill_lines, cold)
print(
    f"bit-identity ok; warm run replayed {warm['hit_rows']} of "
    f"{warm['hit_rows'] + warm['miss_rows']} rows from {spill_lines} "
    "spilled blocks"
)
EOF

# Multi-fidelity benchmark (tiny budget): REPRO_BENCH_SMOKE shrinks to
# two seeds and disarms the >=2x aggregate bar; the yield-parity and
# ratio-above-1x assertions still run.
REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_mf.py -q -s
