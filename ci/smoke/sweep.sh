#!/usr/bin/env bash
# Sweep orchestration smoke: a sharded seed sweep, a no-op resume on the
# complete store, a bad spec refused before it runs, the paper's checked-in
# Tables 1-4 specs at a tiny scale, and the tiny-budget sweep benchmark.
set -euo pipefail

# Sharded seed sweep (2 methods x 3 seeds, 2 workers).
repro sweep --problem sphere --method moheco --method fixed_budget \
  --runs 3 --base-seed 42 --reference-n 2000 --max-generations 10 \
  --set pop_size=10 --workers 2 --progress --out sweep-store.jsonl

# Resume is a no-op on a complete store.
repro sweep --problem sphere --method moheco --method fixed_budget \
  --runs 3 --base-seed 42 --reference-n 2000 --max-generations 10 \
  --set pop_size=10 --workers 2 --resume --no-tables \
  --out sweep-store.jsonl | tee resume.log
grep -q "0 run(s) executed, 6 resumed" resume.log

# A bad override on the second method fails at the door: a non-zero exit,
# one error line naming the field, and no store file left behind.
cat > bad-sweep.json <<'EOF'
{"methods": [{"method": "moheco", "overrides": {"pop_size": 8}},
             {"method": "moheco", "label": "tiny", "overrides": {"pop_size": 2}}],
 "problems": ["sphere"], "runs": 2, "reference_n": 500, "max_generations": 3}
EOF
rm -f bad-store.jsonl
if repro sweep --spec bad-sweep.json --out bad-store.jsonl 2> bad-sweep.err; then
  echo "a sweep with pop_size=2 must fail before it runs" >&2
  exit 1
fi
cat bad-sweep.err
grep -q '^error: SweepSpec\.methods\[1\]\.overrides: ' bad-sweep.err
test ! -e bad-store.jsonl

# The Tables 1-4 sweep specs parse, validate and run end to end (one run
# per method, two generations).
for spec in benchmarks/specs/example1.json benchmarks/specs/example2.json; do
  repro sweep --spec "$spec" --runs 1 --max-generations 2 --reference-n 500 \
    --set pop_size=8 --no-tables
done

# Sweep benchmark (tiny budget): REPRO_BENCH_SMOKE shrinks the workload
# and skips the speedup assertion (shared runners are too noisy for
# wall-clock bars at smoke scale); the bit-identity checks across worker
# counts still run.
REPRO_BENCH_SMOKE=1 pytest benchmarks/test_bench_sweep.py -q -s
