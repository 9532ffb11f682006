"""Layered benchmark of the energy-estimation stack.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads: ``paper`` (characterize + fit + Table II comparison),
``estimate`` (cold one-shot estimates), ``explore`` (design-space
exploration), ``serve`` (HTTP estimation service).  See
``workloads.py`` for what each op does and ``BENCHMARK.json`` for the
metrics.

This script measures set-up time itself: it starts the workload process
(``worker.py``) five times — four with ``--setup-only`` — and reports
the median time until each one is ready, scaled by the host-speed
calibration the process takes right after (see ``calib``).  The last one
runs the ops.
Every process runs with ``PYTHONHASHSEED=0``.  The last line printed is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the host and the noise controls.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
WORKLOADS = ("paper", "estimate", "explore", "serve")
SETUP_PROBES = 4
#: Hard limit on one workload process.
PROCESS_TIMEOUT_S = 170.0
HASH_SEED = "0"


class WorkerError(RuntimeError):
    pass


def _start(args, root: pathlib.Path, scratch: str, setup_only: bool) -> subprocess.Popen:
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scratch", scratch, "--spans-dir", str(HERE / "out"),
    ]
    if setup_only:
        command.append("--setup-only")
    python_path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=python_path)
    # a session of its own, so a timeout can stop the server it starts too
    return subprocess.Popen(command, stdout=subprocess.PIPE, env=env, cwd=root, start_new_session=True)


def _run_worker(args, root: pathlib.Path, scratch: str, setup_only: bool) -> tuple[float, dict]:
    """Start one workload process; returns (scaled set-up seconds, result)."""
    start = time.perf_counter()
    process = _start(args, root, scratch, setup_only)
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, os.killpg, (process.pid, signal.SIGKILL))
    watchdog.start()
    try:
        ready = process.stdout.readline()
        setup_seconds = time.perf_counter() - start
        rest = process.stdout.read().decode("utf-8").splitlines()
        code = process.wait()
    finally:
        watchdog.cancel()
        process.stdout.close()
    if code != 0 or json.loads(ready or b"{}").get("event") != "ready" or not rest:
        raise WorkerError(f"{args.workload} process exited with code {code}")
    setup_seconds *= json.loads(rest[0])["factor"]
    if setup_only:
        return setup_seconds, {}
    if len(rest) < 2:
        raise WorkerError(f"{args.workload} process printed no result")
    return setup_seconds, json.loads(rest[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from the repository root", file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=HERE / "out")
    try:
        setups = [_run_worker(args, root, scratch, True)[0] for _ in range(SETUP_PROBES)]
        setup_seconds, result = _run_worker(args, root, scratch, False)
    except (WorkerError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    setups.append(setup_seconds)
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({
        "host": result["host"],
        "noise_controls": {**result["noise_controls"], "setup_samples_s": setups},
        "missing_layers": result["missing_layers"],
        "notes": result["notes"],
    }))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
