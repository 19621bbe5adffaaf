#!/usr/bin/env bash
# Optimization service smoke: boot the HTTP job server, stream a run and
# a sweep through it, check bit-identity with a direct optimize() call,
# check that flags override a submitted spec file, and make sure malformed
# specs answer structured 400s.
set -euo pipefail

cleanup() {
  kill "$(cat serve.pid)" 2>/dev/null || true
  cat serve.log
}
trap cleanup EXIT

# Start the service.
mkdir -p service-data
repro serve --port 8032 --workers 2 --data-dir service-data \
  > serve.log 2>&1 &
echo $! > serve.pid
for i in $(seq 1 50); do
  curl -sf http://127.0.0.1:8032/v1/health && break
  sleep 0.2
done
curl -sf http://127.0.0.1:8032/v1/health

# Submit a run job and stream its events.
repro submit --url http://127.0.0.1:8032 \
  --problem netlist_ota --seed 7 \
  --set pop_size=10 --set max_generations=6 \
  --follow | tee run-events.ndjson
grep -q '"kind": "generation"' run-events.ndjson
grep -q '"state": "succeeded"' run-events.ndjson

# Fetch the run result and assert bit-identity with a direct run.
JOB=$(head -n1 run-events.ndjson | python -c \
  "import json,sys; print(json.load(sys.stdin)['id'])")
repro result "$JOB" --url http://127.0.0.1:8032 --out service-result.json
python - <<'EOF'
import json
from repro.api import optimize
from repro.api.spec import RunSpec
from repro.core.moheco import MOHECOResult
payload = json.load(open("service-result.json"))
served = MOHECOResult.from_dict(payload["result"]["result"])
direct = optimize(RunSpec.from_dict(payload["result"]["spec"]))
assert served.identity_dict() == direct.identity_dict(), (
    "service result diverged from direct optimize()"
)
print("bit-identity ok:", served.best_yield, served.n_simulations)
EOF

# Flags override a submitted spec file the way they override `repro run`'s:
# the job's stored spec carries the --set value, not the file's.
cat > run-spec.json <<'EOF'
{"problem": "sphere", "seed": 7,
 "overrides": {"pop_size": 10, "max_generations": 8}}
EOF
repro submit --url http://127.0.0.1:8032 --spec run-spec.json \
  --set max_generations=3 --wait | tee submit-flags.ndjson
python - <<'EOF'
import json
job = json.loads(open("submit-flags.ndjson").readline())
assert job["spec"]["overrides"]["max_generations"] == 3, job["spec"]
print("submit flags ok:", job["spec"]["overrides"])
EOF

# Submit a 2x2 sweep job and stream its events.
cat > sweep-spec.json <<'EOF'
{"methods": ["moheco", "fixed_budget"], "problems": ["sphere"],
 "runs": 2, "base_seed": 42, "reference_n": 2000,
 "max_generations": 8}
EOF
repro submit --url http://127.0.0.1:8032 --spec sweep-spec.json \
  --follow | tee sweep-events.ndjson
test "$(grep -c '"kind": "sweep_run"' sweep-events.ndjson)" = 4
grep -q '"state": "succeeded"' sweep-events.ndjson

# Malformed specs answer structured 400s.
code=$(curl -s -o bad.json -w "%{http_code}" \
  -X POST http://127.0.0.1:8032/v1/runs \
  -H 'Content-Type: application/json' \
  -d '{"problem": "sphere", "pop_size": 8}')
test "$code" = 400
grep -q '"error": "invalid_spec"' bad.json
grep -q '"field": "pop_size"' bad.json

# Engine parameters are bound at submission: a removed or misspelled
# engine option answers 400 naming engine_params, never a failed job.
code=$(curl -s -o bad-params.json -w "%{http_code}" \
  -X POST http://127.0.0.1:8032/v1/runs \
  -H 'Content-Type: application/json' \
  -d '{"problem": "sphere", "engine": "process", "engine_params": {"dispatch": "barrier"}}')
test "$code" = 400
grep -q '"error": "invalid_spec"' bad-params.json
grep -q '"field": "engine_params"' bad-params.json

# An engine name that is not registered answers 400 naming engine.
code=$(curl -s -o bad-engine.json -w "%{http_code}" \
  -X POST http://127.0.0.1:8032/v1/runs \
  -H 'Content-Type: application/json' \
  -d '{"problem": "sphere", "engine": "remote"}')
test "$code" = 400
grep -q '"error": "invalid_spec"' bad-engine.json
grep -q '"field": "engine"' bad-engine.json
