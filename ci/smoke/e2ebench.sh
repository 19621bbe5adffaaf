#!/usr/bin/env bash
# End-to-end benchmark smoke: every workload of BENCHMARK.json for one
# tiny iteration, untraced and traced.  Each run replays its identity,
# checks that traced and untraced runs agree, and that the workloads reach
# the stages they exist to measure; the result records land in
# .e2ebench/ for the artifact upload.
set -euo pipefail

python -m pytest e2ebench/test_smoke.py -q
