#!/usr/bin/env bash
# ISS throughput smoke, per dispatch loop: the instrumented per-op loop
# and the fused superop loop must both beat the reference interpreter on
# a two-program subset, superop must not be slower than instrumented on
# any program, and run_batch must not be slower than the same configs
# run solo, and must give every member the stats of its solo run.  Cold
# runs of the whole bundled suite and of the four Reed-Solomon
# implementations must not be slower under the committed payback fusion
# constant than under fuse-on-second-entry.  The static front end of a
# cold estimate (assemble + lowering key + program digest +
# compile_program, timed over all 66 bundled programs) must stay within
# its committed share of the whole cold estimate.  All of that is
# --check's contract.
# Run identically by CI and locally:  bash scripts/ci/smoke_iss.sh
set -euo pipefail

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$SCRIPT_DIR/../.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

python "$ROOT/benchmarks/bench_iss_throughput.py" \
    --programs tp01_alu_mix tp06_memcpy --repeat 2 --batch-configs 8 \
    --output "$WORK/iss-smoke.json" --check
echo "smoke_iss: OK"
