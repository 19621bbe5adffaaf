#!/usr/bin/env bash
# Warm-start cache smoke: a local-search-heavy run populates the spill
# file cold, replays it warm, and the ledger-faithful accounting must
# charge identical totals either way.
set -euo pipefail

run_cached() {
  repro run --problem quadratic --method moheco --seed 11 \
    --set pop_size=10 --set max_generations=12 --set ls_patience=1 \
    --set ls_max_triggers=4 --set n_max=150 --set sim_ave=20 \
    --set n0=10 --set stop_patience=30 \
    --cache lru --cache-param spill_path=cache-spill.jsonl
}

# Cold: populates the spill file.
run_cached | tee cold.log
grep -Eq "cache\[lru\]: hits=0 " cold.log

# Warm: replays from the spill file.
run_cached | tee warm.log
grep -Eq "cache\[lru\]: hits=[1-9][0-9]* misses=0 " warm.log

# Ledger-faithful accounting charges identical totals.
cold=$(grep -oE "in [0-9]+ simulations" cold.log)
warm=$(grep -oE "in [0-9]+ simulations" warm.log)
echo "cold: $cold / warm: $warm"
test "$cold" = "$warm"

# Grouped partition: the fixed-budget baseline promotes all 12 feasible
# candidates to n_max = 500 in one round (6,000 rows, more than two
# 2,048-row slabs), which streams in slab-sized groups, each partitioned
# against the cache on its own.  Warm, every block must still hit.
run_grouped() {
  repro run --problem sphere --method fixed_budget --seed 11 \
    --set pop_size=30 \
    --cache lru --cache-param spill_path=grouped-spill.jsonl
}

rm -f grouped-spill.jsonl
run_grouped | tee grouped-cold.log
grep -Eq "cache\[lru\]: hits=0 " grouped-cold.log
rows=$(grep -oE "rows_simulated=[0-9]+" grouped-cold.log | cut -d= -f2)
test "$rows" -gt 4096

run_grouped | tee grouped-warm.log
grep -Eq "cache\[lru\]: hits=[1-9][0-9]* misses=0 " grouped-warm.log

cold=$(grep -oE "in [0-9]+ simulations" grouped-cold.log)
warm=$(grep -oE "in [0-9]+ simulations" grouped-warm.log)
echo "grouped cold: $cold / warm: $warm"
test "$cold" = "$warm"

# Cache benchmark (tiny budget): REPRO_BENCH_SMOKE shrinks the per-row
# simulation pricing and skips the 1.5x warm-vs-cold bar (shared runners
# are too noisy for wall-clock bars); identity and hit-count assertions
# still run.
REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_cache.py -q -s
