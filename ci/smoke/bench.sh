#!/usr/bin/env bash
# Benchmark smoke: the cold-import profile of `import repro`, then every
# component micro-benchmark case with timing off
# (~4 s, so each hot path's shape and output assertions run on every PR,
# not only nightly), then the engine's tiny-budget micro-benchmark.
# REPRO_BENCH_SMOKE shrinks the sphere workload and relaxes its 3x
# assertion: shared CI runners are too noisy for absolute speedup bars.
set -euo pipefail

# Cold-import profile: what `import repro` loads and what each module costs
# (microseconds, self | cumulative), largest cumulative first.
python -X importtime -c "import repro" 2> importtime.txt
sort -t '|' -k2,2nr importtime.txt | sed -n '1,15p'

pytest benchmarks/test_bench_components.py -q --benchmark-disable

REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_engine.py -q -s

