#!/usr/bin/env bash
# Design-space exploration smoke: a cold exploration populates the result
# cache, an identical warm rerun must be answered entirely from it, and
# the warm run must print the same ranking table as the cold one.  The
# two runs reach their scores by different routes (simulation through
# the batched estimation kernel vs. cache reads), so the diff checks that
# the cache round-trips every ranked field.  A cold/warm exhaustive
# fir_tuned pair does the same over every impl and cache geometry.
# Run identically by CI and locally:  bash scripts/ci/smoke_dse.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

python "$SCRIPT_DIR/make_smoke_model.py" "$WORK/smoke-model.json"

python -m repro explore --list-spaces

for run in cold warm; do
    python -m repro explore "$WORK/smoke-model.json" --space reed_solomon_tuned \
        --strategy random --budget 6 --seed 1 \
        --cache "$WORK/rs-cache" --top-k 3 \
        | tee "$WORK/rs-$run.txt"
done
grep -q "0 hit(s), 6 miss(es)" "$WORK/rs-cold.txt"
grep -q "6 hit(s), 0 miss(es)" "$WORK/rs-warm.txt"
# the ranking table starts at its dashed rule
diff <(sed -n '/^---/,$p' "$WORK/rs-cold.txt") <(sed -n '/^---/,$p' "$WORK/rs-warm.txt")
grep -q "^  1 " "$WORK/rs-cold.txt"

for run in cold warm; do
    python -m repro explore "$WORK/smoke-model.json" --space fir_tuned \
        --strategy exhaustive --cache "$WORK/fir-cache" --top-k 81 \
        > "$WORK/fir-$run.txt"
done
grep -q " 0 miss(es)" "$WORK/fir-warm.txt"
diff <(sed -n '/^---/,$p' "$WORK/fir-cold.txt") <(sed -n '/^---/,$p' "$WORK/fir-warm.txt")
grep -q "^ 81 " "$WORK/fir-cold.txt"

echo "smoke_dse: OK (cold and warm-cache runs rank alike on reed_solomon_tuned and fir_tuned; warm reruns fully cached)"
