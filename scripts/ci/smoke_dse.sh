#!/usr/bin/env bash
# Design-space exploration smoke: the same exploration, run in two
# processes under different PYTHONHASHSEED values, must print the same
# report (only the wall-clock timing in the header line may differ).
# Set and dict iteration order changes with the hash seed, so the diff
# checks that candidate order, batching and ranking are deterministic
# across processes.  A seeded random reed_solomon_tuned sample and an
# exhaustive fir_tuned run (every impl and cache geometry) are checked.
# Run identically by CI and locally:  bash scripts/ci/smoke_dse.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

python "$SCRIPT_DIR/make_smoke_model.py" "$WORK/smoke-model.json"

python -m repro explore --list-spaces

# the header's "(0.02s, 4579.4 cand/s)" is the one nondeterministic field
untimed() { sed -E 's/\([0-9.]+s, [0-9.]+ cand\/s\)/(TIME)/' "$1"; }

for seed in 0 1; do
    PYTHONHASHSEED=$seed python -m repro explore "$WORK/smoke-model.json" \
        --space reed_solomon_tuned --strategy random --budget 6 --seed 1 \
        --top-k 3 | tee "$WORK/rs-$seed.txt"
done
diff <(untimed "$WORK/rs-0.txt") <(untimed "$WORK/rs-1.txt")
grep -q "^  1 " "$WORK/rs-0.txt"

for seed in 0 1; do
    PYTHONHASHSEED=$seed python -m repro explore "$WORK/smoke-model.json" \
        --space fir_tuned --strategy exhaustive --top-k 81 \
        > "$WORK/fir-$seed.txt"
done
diff <(untimed "$WORK/fir-0.txt") <(untimed "$WORK/fir-1.txt")
grep -q "^ 81 " "$WORK/fir-0.txt"

echo "smoke_dse: OK (reed_solomon_tuned and fir_tuned reports identical under PYTHONHASHSEED 0 and 1)"
