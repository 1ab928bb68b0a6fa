"""Size sweep of the forward solver over planted index-1 games.

For each size n, draws ``random_game(default_rng(0), n, 3n/4, (1, 1))``
and ``friendly_costs`` from the same generator (the conftest
generators), reduces the game and times ``solve_fbne`` with
``SolveOptions(n_starts=4)``, with BLAS on one thread.  Prints one line
per size: the solve's seconds, its solution count, and each solution's
start, Newton step count (``iterations``), Nash certificate verdict
(``certify_nash``) and largest stationarity backward error.

    python tools/sizesweep.py [--sizes 16 24 32 40 48]

Exits 1 when a listed size finds no solution.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from conftest import friendly_costs, random_game  # noqa: E402
from dgame import SolveOptions, certify_nash, reduce_game, solve_fbne  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[16, 24, 32, 40, 48],
                        help="game orders n; each game has r = 3n/4 dynamic states")
    args = parser.parse_args(argv)
    empty = False
    for n in args.sizes:
        rng = np.random.default_rng(0)
        rg = reduce_game(random_game(rng, n, 3 * n // 4, (1, 1)))
        costs = friendly_costs(rng, n, (1, 1))
        t0 = time.perf_counter()
        sols = solve_fbne(rg, costs, SolveOptions(n_starts=4))
        elapsed = time.perf_counter() - t0
        verdicts = [certify_nash(rg, costs, s.f_star) for s in sols]
        found = ", ".join(
            f"{s.start} ({s.iterations} steps, {'certified' if ok else 'not certified'} "
            f"at {errors.max():.1e})" for s, (ok, errors) in zip(sols, verdicts)) or "none"
        print(f"n {n} / r {rg.r}: {elapsed:.2f} s, {len(sols)} solutions: {found}", flush=True)
        empty |= not sols
    return 1 if empty else 0


if __name__ == "__main__":
    sys.exit(main())
