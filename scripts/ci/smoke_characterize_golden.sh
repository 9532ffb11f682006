#!/usr/bin/env bash
# Characterize golden smoke: `repro characterize` over the full bundled
# suite (56 programs, default NNLS fit) must reproduce the committed model
# perfbench/data/model_fixture.json: same format, template, processor
# family and sample count, and every coefficient within 1e-9 * max|c| of
# the fixture (the tolerance perfbench's `paper` workload applies, so BLAS
# last-bit drift across hosts does not flake it).
# Run identically by CI and locally:  bash scripts/ci/smoke_characterize_golden.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

if ! python -m repro characterize -o "$WORK/model.json" > "$WORK/out.txt" 2>&1; then
    cat "$WORK/out.txt" >&2
    echo "smoke_characterize_golden: FAIL (repro characterize exited non-zero)" >&2
    exit 1
fi

python - "$WORK/model.json" "$ROOT/perfbench/data/model_fixture.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as handle:
    model = json.load(handle)
with open(sys.argv[2], encoding="utf-8") as handle:
    fixture = json.load(handle)

problems = []
for key in ("format", "template", "processor_family"):
    if model.get(key) != fixture.get(key):
        problems.append(f"{key}: {model.get(key)!r} != {fixture.get(key)!r}")
samples = model.get("fit_info", {}).get("samples")
if samples != fixture["fit_info"]["samples"]:
    problems.append(f"samples: {samples!r} != {fixture['fit_info']['samples']!r}")
ours, theirs = model.get("coefficients", {}), fixture["coefficients"]
if list(ours) != list(theirs):
    problems.append(f"coefficient names differ: {list(ours)} != {list(theirs)}")
else:
    scale = max(abs(float(c)) for c in theirs.values())
    for name, value in theirs.items():
        if abs(float(ours[name]) - float(value)) > 1e-9 * scale:
            problems.append(f"{name}: {ours[name]!r} != {value!r}")
if problems:
    sys.exit("smoke_characterize_golden: FAIL\n  " + "\n  ".join(problems))
print(
    f"smoke_characterize_golden: OK ({samples} samples, {len(theirs)} "
    "coefficients equal to the committed fixture)"
)
PY
