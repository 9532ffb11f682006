#!/usr/bin/env bash
# Estimation-service smoke: boot `repro serve` on an ephemeral port, POST
# two duplicate estimate requests, assert via /metrics that the duplicate
# coalesced away, then verify SIGTERM produces a clean drained shutdown.
# Run identically by CI and locally:  bash scripts/ci/smoke_serve.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
SERVER_PID=""
PORT=""
dump_artifacts() {
    [ -n "${SMOKE_ARTIFACT_DIR:-}" ] || return 0
    mkdir -p "$SMOKE_ARTIFACT_DIR"
    if [ -n "$PORT" ]; then
        python -c 'import sys, urllib.request; sys.stdout.write(urllib.request.urlopen(f"http://127.0.0.1:{sys.argv[1]}/metrics", timeout=10).read().decode())' \
            "$PORT" > "$SMOKE_ARTIFACT_DIR/serve_metrics.json" 2>/dev/null || true
        [ -s "$SMOKE_ARTIFACT_DIR/serve_metrics.json" ] \
            || rm -f "$SMOKE_ARTIFACT_DIR/serve_metrics.json"
    fi
    cp "$WORK/serve.log" "$SMOKE_ARTIFACT_DIR/serve.log" 2>/dev/null || true
}
cleanup() {
    dump_artifacts
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

python "$SCRIPT_DIR/make_smoke_model.py" "$WORK/smoke-model.json"

python -m repro serve "$WORK/smoke-model.json" --port 0 --workers 1 \
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

python "$SCRIPT_DIR/serve_smoke_client.py" "$PORT"

# clean shutdown: SIGTERM must drain and exit 0
kill -TERM "$SERVER_PID"
STATUS=0
wait "$SERVER_PID" || STATUS=$?
SERVER_PID=""
[ "$STATUS" -eq 0 ] || { echo "server exited $STATUS"; cat "$WORK/serve.log"; exit 1; }
grep -q "shutting down" "$WORK/serve.log"
echo "smoke_serve: OK (coalescing proven, clean shutdown)"
