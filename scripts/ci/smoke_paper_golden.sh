#!/usr/bin/env bash
# Golden smoke: run one benchmark workload briefly and fail unless every
# op reproduced the committed goldens in perfbench/data/golden.json: the
# last line must report "correct": true and "failed": 0.
#   paper   (default) characterize the 56-program suite, fit, compare the
#           10 applications with the RTL reference;
#   explore Reed-Solomon x 3 DVFS explorations; the ranked energy, cycles
#           and area are pinned bitwise, so a batched cache-replay bug
#           (wrong miss counts) fails it.
#   estimate cold one-shot estimates of the 66 bundled cases at the fit
#           point and 3 DVFS points; all 264 (case, point) energies and
#           cycles are pinned bitwise.
# Run identically by CI and locally:
#   bash scripts/ci/smoke_paper_golden.sh [paper|explore|estimate]
set -euo pipefail

WORKLOAD="${1:-paper}"

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
cd "$ROOT"

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

if ! python3 perfbench/run.py --workload "$WORKLOAD" --seed 1 --seconds 4 > "$OUT"; then
    cat "$OUT" >&2
    echo "smoke_paper_golden: FAIL (perfbench/run.py exited non-zero)" >&2
    exit 1
fi

python3 - "$OUT" "$WORKLOAD" <<'PY'
import json
import sys

workload = sys.argv[2]
with open(sys.argv[1], encoding="utf-8") as handle:
    lines = [line for line in handle.read().splitlines() if line.strip()]
if not lines:
    sys.exit("smoke_paper_golden: FAIL (no output)")
result = json.loads(lines[-1])
if result.get("correct") is not True or result.get("failed") != 0:
    if len(lines) > 1:
        print(lines[-2], file=sys.stderr)
    sys.exit(
        f"smoke_paper_golden: FAIL ({workload}: correct={result.get('correct')!r}, "
        f"failed={result.get('failed')!r})"
    )
ops = result.get("attempted")
print(f"smoke_paper_golden: OK ({workload}: {ops} ops, all equal to the goldens)")
PY
