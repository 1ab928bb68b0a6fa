"""Write the report tree of this checkout for ``tools/semdiff.py``.

    python tools/reports.py OUT_DIR [--seed 1]

Runs every job of the four ``perfbench`` workloads once, in order, and
every script in ``demos/``, with BLAS on one thread as ``perfbench``
does.  ``OUT_DIR/<workload>/`` receives the workload's generated inputs,
each job's output and ``exit_codes.json``; a job whose command runs the
forward solver also gets ``NAME.loops.json`` beside its report, holding
each solution's closed loop under the JSON path of its spectrum.
``OUT_DIR/demos/<demo>/`` receives the demo's standard output
(``stdout.txt``), the files it writes and ``exit_codes.json``.  Build
one tree per checkout, then compare them:

    python tools/semdiff.py OLD_TREE NEW_TREE
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import numpy as np  # noqa: E402

from dgame import cli, inverse  # noqa: E402
from workloads import WORKLOADS, read_report  # noqa: E402


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)
        fh.write("\n")


def run_workload(name: str, out: str, seed: int) -> None:
    work = os.path.join(out, name)
    os.makedirs(work)
    workload = WORKLOADS[name](ROOT, work, np.random.default_rng(seed))
    loops: list[list] = []
    solve = cli.solve_fbne

    def recording(*args, **kwargs):
        sols = solve(*args, **kwargs)
        loops.append([sol.a_cl.tolist() for sol in sols])
        return sols

    codes = {}
    with contextlib.ExitStack() as stack:
        for module in (cli, inverse):
            stack.callback(setattr, module, "solve_fbne", module.solve_fbne)
            module.solve_fbne = recording
        for job in workload.reference + workload.jobs:
            loops.clear()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                codes[job.label] = cli.main(job.argv)
            if job.after is not None and codes[job.label] == 0:
                job.after(read_report(job.out))
            if loops and job.out.endswith(".json"):
                path = "/forward/{}/spectrum" if job.command == "forward" else \
                    "/behaviors/spectra/{}"
                _write_json(job.out[:-len(".json")] + ".loops.json",
                            {path.format(k): a for k, a in enumerate(loops[-1])})
    _write_json(os.path.join(work, "exit_codes.json"), codes)


def run_demo(script: str, out: str) -> None:
    work = os.path.join(out, "demos", os.path.splitext(os.path.basename(script))[0])
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, script], cwd=work, env=env,
                          capture_output=True, text=True)
    with open(os.path.join(work, "stdout.txt"), "w") as fh:
        fh.write(proc.stdout)
    _write_json(os.path.join(work, "exit_codes.json"), {"demo": proc.returncode})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", help="directory to create")
    parser.add_argument("--seed", type=int, default=1, help="perfbench --seed (default 1)")
    args = parser.parse_args(argv)
    os.makedirs(args.out)
    for name in WORKLOADS:
        run_workload(name, args.out, args.seed)
    demos = os.path.join(ROOT, "demos")
    for script in sorted(os.listdir(demos)):
        if script.endswith(".py"):
            run_demo(os.path.join(demos, script), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
