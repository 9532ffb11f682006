#!/usr/bin/env bash
# Chaos smoke: boot `repro serve` with a fork pool and a seeded chaos
# plan that kills real worker processes mid-run and poisons one program
# name, drive traffic through the faults, and assert via /metrics that
# the pool respawned and the poison was quarantined while everyone else
# kept getting answers.  Ends with SIGTERM -> drained exit 0.
# Run identically by CI and locally:  bash scripts/ci/smoke_chaos.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

# two scheduled worker crashes early in the run + one poisoned name;
# horizon 6 keeps both scheduled kills inside the six good singleton
# batches (which retry and exonerate), never overlapping the poison's
# own crash dispatches — so the crash arithmetic below is exact
CRASHES=2
CHAOS_SPEC="seed=9,crashes=$CRASHES,horizon=6,poison=ci_poison"

WORK="$(mktemp -d)"
SERVER_PID=""
PORT=""
dump_artifacts() {
    [ -n "${SMOKE_ARTIFACT_DIR:-}" ] || return 0
    mkdir -p "$SMOKE_ARTIFACT_DIR"
    if [ -n "$PORT" ]; then
        python -c 'import sys, urllib.request; sys.stdout.write(urllib.request.urlopen(f"http://127.0.0.1:{sys.argv[1]}/metrics", timeout=10).read().decode())' \
            "$PORT" > "$SMOKE_ARTIFACT_DIR/chaos_metrics.json" 2>/dev/null || true
        [ -s "$SMOKE_ARTIFACT_DIR/chaos_metrics.json" ] \
            || rm -f "$SMOKE_ARTIFACT_DIR/chaos_metrics.json"
    fi
    cp "$WORK/serve.log" "$SMOKE_ARTIFACT_DIR/chaos_serve.log" 2>/dev/null || true
}
cleanup() {
    dump_artifacts
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

python "$SCRIPT_DIR/make_smoke_model.py" "$WORK/smoke-model.json"

python -m repro serve "$WORK/smoke-model.json" --port 0 --workers 2 \
    --chaos "$CHAOS_SPEC" --quarantine-after 3 \
    > "$WORK/serve.log" 2>&1 &
SERVER_PID=$!

# wait for the announce line that carries the ephemeral port
for _ in $(seq 1 100); do
    grep -q "listening on" "$WORK/serve.log" && break
    kill -0 "$SERVER_PID" 2>/dev/null || { cat "$WORK/serve.log"; exit 1; }
    sleep 0.1
done
PORT="$(sed -n 's#.*listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "$WORK/serve.log")"
[ -n "$PORT" ] || { echo "no port announced"; cat "$WORK/serve.log"; exit 1; }

python "$SCRIPT_DIR/chaos_smoke_client.py" "$PORT" "$CRASHES" \
    || { echo "chaos client failed"; cat "$WORK/serve.log"; exit 1; }

# the wounded-and-healed server must still drain cleanly: SIGTERM -> 0
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || { echo "server exited $STATUS"; cat "$WORK/serve.log"; exit 1; }
grep -q "shutting down" "$WORK/serve.log"
echo "smoke_chaos: OK (pool respawn + quarantine proven under live traffic)"
