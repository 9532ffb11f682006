#!/usr/bin/env bash
# Design-space exploration smoke: a cold exploration populates the result
# cache, an identical warm rerun must be answered entirely from it, and a
# cold serial (--jobs 1) run must print the same top-k table as the cold
# forked (--jobs 2) one, whose workers read the inherited build tier.
# A cold exhaustive fir_tuned pair does the same over every impl and
# geometry: the forked run's workers use the lowerings the parent made
# before forking, one per impl, shared across cache geometries.
# Run identically by CI and locally:  bash scripts/ci/smoke_dse.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

python "$SCRIPT_DIR/make_smoke_model.py" "$WORK/smoke-model.json"

python -m repro explore --list-spaces

python -m repro explore "$WORK/smoke-model.json" --space reed_solomon_tuned \
    --strategy random --budget 6 --seed 1 --jobs 2 \
    --cache "$WORK/dse-smoke-cache" --top-k 3 \
    | tee "$WORK/cold-jobs2.txt"

python -m repro explore "$WORK/smoke-model.json" --space reed_solomon_tuned \
    --strategy random --budget 6 --seed 1 --jobs 1 --top-k 3 \
    | tee "$WORK/cold-jobs1.txt"

# the ranking table starts at its dashed rule
diff <(sed -n '/^---/,$p' "$WORK/cold-jobs1.txt") <(sed -n '/^---/,$p' "$WORK/cold-jobs2.txt")
grep -q "^  1 " "$WORK/cold-jobs1.txt"

for jobs in 1 2; do
    python -m repro explore "$WORK/smoke-model.json" --space fir_tuned \
        --strategy exhaustive --jobs "$jobs" --top-k 81 \
        > "$WORK/fir-jobs$jobs.txt"
done
diff <(sed -n '/^---/,$p' "$WORK/fir-jobs1.txt") <(sed -n '/^---/,$p' "$WORK/fir-jobs2.txt")
grep -q "^ 81 " "$WORK/fir-jobs1.txt"

python -m repro explore "$WORK/smoke-model.json" --space reed_solomon_tuned \
    --strategy random --budget 6 --seed 1 --jobs 2 \
    --cache "$WORK/dse-smoke-cache" --top-k 3 \
    | tee "$WORK/warm.txt"

grep -q "6 hit(s), 0 miss(es)" "$WORK/warm.txt"
echo "smoke_dse: OK (--jobs 1 and --jobs 2 rank alike on reed_solomon_tuned and fir_tuned; warm rerun fully cached)"
