"""Benchmark of the dgame CLI: six commands on four workloads.

    python3 perfbench/run.py --workload lane --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Measures the set-up time of a fresh
interpreter importing ``dgame.cli``, then starts one worker process
(``worker.py``) that runs the workload's passes in-process through
``dgame.cli.main`` and checks every output.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lane", "planted-scale", "multi-input", "trajectory")
SETUP_REPEATS = 3
WORKER_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_once(env: dict) -> float:
    """Seconds from starting an interpreter until ``dgame.cli`` is imported."""
    t0 = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", "import dgame.cli; print('ready', flush=True)"],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"importing dgame.cli failed (exit {code})")
    return elapsed


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    for needed in (os.path.join("src", "dgame", "cli.py"),
                   os.path.join("problems", "lane_keeping.json")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from a dgame checkout", file=sys.stderr)
            return 2

    env = worker_env()
    setup = None
    if not args.trace:
        try:
            setup = statistics.median(setup_once(env) for _ in range(SETUP_REPEATS))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--root", ROOT]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"error: worker failed (exit {proc.returncode})", file=sys.stderr)
        return 3
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    detail["commit"] = git_commit()
    if setup is not None:
        result["metrics"] = {"setup_s": {"value": setup, "unit": "s"}, **result["metrics"]}
        detail["setup_repeats"] = SETUP_REPEATS
    print(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
