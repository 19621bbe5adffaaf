#!/usr/bin/env bash
# Benchmark smoke: the cold-import profile of `import repro`, then every
# component micro-benchmark case with timing off
# (~4 s, so each hot path's shape and output assertions run on every PR,
# not only nightly), then the engine's tiny-budget micro-benchmark plus
# the persisted crossover assertions.  REPRO_BENCH_SMOKE shrinks the
# workload and relaxes the 3x assertion: shared CI runners are too noisy
# for absolute speedup bars.  Includes the circuit-priced round
# (netlist_ota stacked MNA/AC solves).
set -euo pipefail

# Cold-import profile: what `import repro` loads and what each module costs
# (microseconds, self | cumulative), largest cumulative first.
python -X importtime -c "import repro" 2> importtime.txt
sort -t '|' -k2,2nr importtime.txt | sed -n '1,15p'

pytest benchmarks/test_bench_components.py -q --benchmark-disable

REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_engine.py -q -s

# Re-check the persisted numbers: the circuit-priced round must sit above
# the engine-selection crossover, and wherever the crossover model
# predicts a pool win (multi-core runners — all hosted GitHub runners
# qualify) the process backend must not be slower than fused serial.
python - <<'EOF'
import json
bench = json.load(open("BENCH_engine.json"))["circuit"]
assert bench["row_cost_over_crossover"] >= 1.0, bench
serial = bench["round"]["serial"]["sims_per_sec"]
process = bench["round"]["process"]["sims_per_sec"]
if bench["pool_should_win_here"]:
    assert process >= serial, (
        f"process {process:,.0f}/s < serial {serial:,.0f}/s "
        f"above the crossover"
    )
print(
    f"crossover ok: {bench['row_cost_over_crossover']:.1f}x above, "
    f"process {process:,.0f}/s vs serial {serial:,.0f}/s "
    f"(cpus={bench['cpus']})"
)
EOF
