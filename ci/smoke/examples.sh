#!/usr/bin/env bash
# Examples smoke: every script under examples/ runs to completion.  They
# are the documented entry points of the library (quickstart, a custom
# evaluator, the two paper circuits), so an API change that breaks one
# fails here.  All five take under half a minute together on 2 CPUs.
set -euo pipefail

for script in examples/*.py; do
  echo "== ${script}"
  python "${script}"
done
