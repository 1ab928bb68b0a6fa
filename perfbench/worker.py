"""Benchmark worker: runs one workload's passes through ``dgame.cli.main``.

Started by ``run.py`` with ``src`` on PYTHONPATH and BLAS pinned to one
thread.  Without ``--trace`` it prints the end-to-end metrics measured on
untraced passes; with ``--trace`` it spends the first half of the run on
untraced passes and the second on traced ones, and prints the per-layer
metrics.  The last line of standard output is the result object.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict

import numpy as np
import scipy

import dgame.cli as cli

from spans import LAYERS, Tracer, aggregate
from workloads import WORKLOADS, Failure, read_report

SPANS_DIR = ".perfbench-spans"
COMMANDS = ("reduce", "forward", "inverse", "misspecify", "verify", "simulate")

# (span name, whether its self share is reported); every entry also gets
# .calls and .total_share
FUNCTIONS = (
    ("cli.main", True),
    ("cli.load_problem", False),
    ("pencil.weierstrass", False),
    ("game.reduce_game", False),
    ("game.m_matrix", False),
    ("feedback.simulate", False),
    ("feedback.write_trajectory_csv", False),
    ("feedback.read_trajectory_csv", False),
    ("feedback.fit_feedback", False),
    ("forward.solve_fbne", True),
    ("forward.root", False),
    ("forward.verify_nash_local", False),
    ("forward.care_residual", False),
    ("inverse.constraint_matrices", False),
    ("inverse.identify", True),
    ("inverse.rationalized_behaviors", True),
    ("inverse.dimension_report", False),
    ("linalg.solve_lyapunov", False),
    ("linalg.is_stable", False),
    ("linalg.kernel_basis", False),
)


class Run:
    """State of one benchmark run: the jobs, first-pass digests, counters."""

    def __init__(self, workload, tracer: Tracer):
        self.workload = workload
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[str, Failure]] = []
        self.failed = 0

    def invoke(self, job) -> tuple[object, float]:
        with contextlib.suppress(FileNotFoundError):
            os.remove(job.out)
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(job.argv)
        except (Exception, SystemExit) as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if "Traceback" in sink.getvalue():
            code = f"traceback on stderr (exit {code})"
        return code, wall

    def run_job(self, job) -> tuple[float, list[Failure], dict | None]:
        code, wall = self.invoke(job)
        if code != 0:
            return wall, [Failure(f"exit {code}, expected 0")], None
        with open(job.out, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        fails = []
        if self.digests.setdefault(job.label, digest) != digest:
            fails.append(Failure("output differs from the first pass"))
        report = read_report(job.out) if job.out.endswith(".json") else None
        try:
            fails += job.check(job.out)
            if job.after is not None:
                job.after(report)
        except (KeyError, TypeError, ValueError) as exc:
            fails.append(Failure(f"check raised {type(exc).__name__}: {exc}"))
        return wall, fails, report

    def run_pass(self) -> dict:
        record = {"pass_s": 0.0, "commands": defaultdict(float), "jobs": {},
                  "invocations": set(), "solutions": 0, "behaviors": 0, "matching": 0}
        t0 = time.perf_counter()
        for job in self.workload.jobs:
            self.tracer.invocation = self.attempted
            record["invocations"].add(self.attempted)
            self.attempted += 1
            wall, fails, report = self.run_job(job)
            record["commands"][job.command] += wall
            record["jobs"][job.label] = wall
            if fails:
                self.failed += 1
                self.failures += [(job.label, f) for f in fails]
            if report is not None:
                record["solutions"] += len(report.get("forward", []))
                record["solutions"] += report.get("behaviors", {}).get("count", 0)
                if job.command == "inverse":
                    record["behaviors"] += report.get("behaviors", {}).get("count", 0)
                    record["matching"] += report.get("behaviors", {}).get("matching", 0)
        record["pass_s"] = time.perf_counter() - t0
        return record

    def passes(self, until: float, start: float) -> list[dict]:
        """Passes while the next one, if as slow as the slowest so far, ends
        by ``until`` seconds after ``start``; always at least one."""
        out = [self.run_pass()]
        while (time.perf_counter() - start
               + max(p["pass_s"] for p in out)) <= until:
            out.append(self.run_pass())
        return out


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: Run, traced: list[dict], untraced: list[dict]) -> dict:
    per_pass = [aggregate(run.tracer.spans, p["invocations"]) for p in traced]

    def med(fn):
        return statistics.median(fn(agg, p) for agg, p in zip(per_pass, traced))

    def stat(name, key):
        return lambda agg, p: agg.get(name, {}).get(key, 0)

    def share(name, key):
        return lambda agg, p: agg.get(name, {}).get(key, 0.0) / p["pass_s"]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = _metric(med(
            lambda agg, p: sum(v["self_s"] for k, v in agg.items()
                               if k.split(".")[0] == layer) / p["pass_s"]), "ratio")
    for name, with_self in FUNCTIONS:
        metrics[f"{name}.calls"] = _metric(med(stat(name, "calls")), "count")
        metrics[f"{name}.total_share"] = _metric(med(share(name, "total_s")), "ratio")
        if with_self:
            metrics[f"{name}.self_share"] = _metric(med(share(name, "self_s")), "ratio")
    metrics["forward.solutions"] = _metric(
        med(lambda agg, p: p["solutions"]), "count")
    metrics["forward.solution_yield"] = _metric(med(
        lambda agg, p: _ratio(p["solutions"], agg.get("forward.root", {}).get("calls", 0))),
        "ratio")
    metrics["inverse.behaviors"] = _metric(med(lambda agg, p: p["behaviors"]), "count")
    metrics["inverse.behavior_match_ratio"] = _metric(
        med(lambda agg, p: _ratio(p["matching"], p["behaviors"])), "ratio")
    metrics["ops_failed_ratio"] = _metric(run.failed / run.attempted, "ratio")
    traced_s = statistics.median(p["pass_s"] for p in traced)
    metrics["trace.pass_s"] = _metric(traced_s, "s")
    metrics["trace.overhead_ratio"] = _metric(
        traced_s / statistics.median(p["pass_s"] for p in untraced) - 1.0, "ratio")
    metrics["trace.spans"] = _metric(len(run.tracer.spans) / len(traced), "count")
    return metrics


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration", blas.get("name")),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True, help="checkout holding src/ and problems/")
    args = parser.parse_args(argv)

    work = tempfile.mkdtemp(prefix=".perfbench-", dir=args.root)
    try:
        workload = WORKLOADS[args.workload](args.root, work, np.random.default_rng(args.seed))
        run = Run(workload, Tracer())
        for job in workload.reference:
            code, _ = run.invoke(job)
            if code != 0:
                print(f"reference job {job.label} failed: {code}", file=sys.stderr)
                return 1
        start = time.perf_counter()
        untraced = run.passes(args.seconds / 2 if args.trace else args.seconds, start)
        traced = []
        if args.trace:
            run.tracer.install()
            try:
                traced = run.passes(args.seconds, start)
            finally:
                run.tracer.uninstall()
            spans_dir = os.path.join(args.root, SPANS_DIR)
            os.makedirs(spans_dir, exist_ok=True)
            run.tracer.dump(os.path.join(spans_dir, f"{args.workload}-{args.seed}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(run, traced, untraced)
    else:
        metrics = {
            "pass_s": _metric(statistics.median(p["pass_s"] for p in untraced), "s"),
            "peak_rss_mb": _metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    commands = {}
    for cmd in COMMANDS:
        samples = [p["commands"][cmd] for p in untraced if cmd in p["commands"]]
        if samples:
            commands[f"{cmd}_s"] = {"median": statistics.median(samples), "n": len(samples)}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": {"untraced": [p["pass_s"] for p in untraced],
                   "traced": [p["pass_s"] for p in traced]},
        "commands": commands,
        "jobs_s": {job.label: statistics.median(p["jobs"][job.label] for p in untraced)
                   for job in workload.jobs},
        "ops": {"attempted": run.attempted, "failed": run.failed,
                "ops_failed_ratio": run.failed / run.attempted},
        "failures": sorted({f"{label}: {f.message}" + (" [known]" if f.known else "")
                            for label, f in run.failures}),
        "machine": machine(),
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": all(f.known for _, f in run.failures),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
