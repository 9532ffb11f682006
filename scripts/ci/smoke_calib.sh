#!/usr/bin/env bash
# Technology-calibration smoke: characterize a model at one operating
# point and re-estimate it at neighbouring supply voltages: energy must
# rise monotonically with V and scale exactly as (V/V_fit)^2.
# Run identically by CI and locally:  bash scripts/ci/smoke_calib.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

FIT_POINT="90nm@1.2V@600MHz"
LOW_POINT="90nm@1.1V@550MHz"
HIGH_POINT="90nm@1.3V@650MHz"

# -- characterize once, bound to the fit point -------------------------------
python -m repro characterize --core-only --operating-point "$FIT_POINT" \
    -o "$WORK/calib-model.json" > /dev/null
grep -q "repro-energy-macro-model/2" "$WORK/calib-model.json"

# -- estimate at the fit point and two supply corners ------------------------
for point in "$FIT_POINT" "$LOW_POINT" "$HIGH_POINT"; do
    python -m repro estimate "$WORK/calib-model.json" \
        "$SCRIPT_DIR/smoke_loop.s" --format json --operating-point "$point" \
        > "$WORK/est-$point.json"
done

python - "$WORK" "$FIT_POINT" "$LOW_POINT" "$HIGH_POINT" <<'PY'
import json
import sys

work, fit, low, high = sys.argv[1:5]

def load(point):
    with open(f"{work}/est-{point}.json") as handle:
        payload = json.load(handle)
    assert payload["format"] == "repro-estimates/1", payload["format"]
    assert payload["operating_point"] == point, payload["operating_point"]
    (entry,) = payload["estimates"]
    return entry

entries = {point: load(point) for point in (fit, low, high)}
# supply scaling is monotone: E(1.1V) < E(1.2V) < E(1.3V)
assert entries[low]["energy"] < entries[fit]["energy"] < entries[high]["energy"], {
    point: entry["energy"] for point, entry in entries.items()
}
# the operating point never perturbs the simulation
assert len({entry["cycles"] for entry in entries.values()}) == 1
# exact first-order law: E scales with (V/V_fit)^2 at a fixed node
ratio = entries[high]["energy"] / entries[fit]["energy"]
expected = (1.3 / 1.2) ** 2
assert abs(ratio - expected) < 1e-9, (ratio, expected)
print("smoke_calib: voltage scaling OK "
      f"({entries[low]['energy']:.1f} < {entries[fit]['energy']:.1f} "
      f"< {entries[high]['energy']:.1f})")
PY

echo "smoke_calib: OK (monotone, exact (V/V_fit)^2 voltage scaling)"
