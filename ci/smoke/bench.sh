#!/usr/bin/env bash
# Benchmark smoke: the cold-import profile of `import repro`, then every
# component micro-benchmark case with timing off
# (~4 s, so each hot path's shape and output assertions run on every PR,
# not only nightly), then the engine's tiny-budget micro-benchmark plus
# the persisted process-vs-serial assertion.  REPRO_BENCH_SMOKE shrinks the
# sphere workload and relaxes its 3x assertion: shared CI runners are too
# noisy for absolute speedup bars.  The circuit-priced round (netlist_ota
# stacked MNA/AC solves) times the full run's 20 rounds, so the
# process-vs-serial check reads the benchmark's own number.
set -euo pipefail

# Cold-import profile: what `import repro` loads and what each module costs
# (microseconds, self | cumulative), largest cumulative first.
python -X importtime -c "import repro" 2> importtime.txt
sort -t '|' -k2,2nr importtime.txt | sed -n '1,15p'

pytest benchmarks/test_bench_components.py -q --benchmark-disable

REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_engine.py -q -s

# Re-check the persisted numbers: on every host with 2 or more CPUs (all
# hosted GitHub runners qualify) the process backend must not be slower
# than fused serial on the circuit-priced round.
python - <<'EOF'
import json
bench = json.load(open("BENCH_engine.json"))["circuit"]
serial = bench["round"]["serial"]["sims_per_sec"]
process = bench["round"]["process"]["sims_per_sec"]
if bench["cpus"] >= 2:
    assert process >= serial, (
        f"process {process:,.0f}/s < serial {serial:,.0f}/s "
        f"on {bench['cpus']} CPUs"
    )
print(
    f"circuit round ok: process {process:,.0f}/s vs serial {serial:,.0f}/s "
    f"(cpus={bench['cpus']})"
)
EOF
