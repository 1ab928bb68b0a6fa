"""Solution-set sweep of the forward solver over small random games.

Draws 200 games per rng seed with the criterion 7 size distribution of
the test suite (n 2-6, r <= n, 1-3 players, m_i 1-2; conftest
``random_game`` and ``friendly_costs``), runs ``solve_fbne`` on each at
every start count, and compares the solution sets with the ones saved in
``sweep_solutions.json`` beside this script.  A saved solution is lost
when no new one lies within ``MATCH_TOL`` of it (max-norm, relative to
1 + max|F|); a new one that matches no saved one is found.  It also
counts which start family (the start name without its index) each new
solution came from first.  ``--check`` also runs the Nash certificate
(``certify_nash``, the solver's acceptance test at the gain's own value
matrices) on every solution it finds, and names each one the
certificate rejects by its draw and start.

    python tools/sweep.py --check [--rng 777 778] [--starts 16 64]
    python tools/sweep.py --write [--rng 777 778] [--starts 16 64]

``--check`` prints the counts and exits 1 when any saved solution is
lost or any solution found is not certified; ``--write`` records the
current solution sets for the given seeds and start counts, keeping the
others.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

from conftest import friendly_costs, random_game  # noqa: E402
from dgame import SolveOptions, certify_nash, reduce_game, solve_fbne  # noqa: E402

SOLUTIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "sweep_solutions.json")
DRAWS = 200
#: relative max-norm distance under which two gains are one solution
MATCH_TOL = 1e-6


def draws(seed: int):
    """The sweep's reduced games and costs, ``(rg, costs)`` per draw."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        n_players = int(rng.integers(1, 4))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=n_players))
        yield reduce_game(random_game(rng, n, r, dims)), friendly_costs(rng, n, dims)


def solve_all(seed: int, starts: int, certify: bool = False):
    """Per draw, the list of ``(gain, start name)`` that ``solve_fbne``
    returns (empty when it raises), and the ``(draw, start name)`` of each
    solution that ``certify_nash`` rejects when ``certify`` is set."""
    out, rejected = [], []
    for k, (rg, costs) in enumerate(draws(seed)):
        try:
            sols = solve_fbne(rg, costs, SolveOptions(n_starts=starts))
        except ValueError:
            sols = []
        out.append([(sol.f_star.matrix, sol.start) for sol in sols])
        rejected += [(k, sol.start) for sol in sols
                     if certify and not certify_nash(rg, costs, sol.f_star)[0]]
    return out, rejected


def same(f, g) -> bool:
    return f.shape == g.shape and np.abs(f - g).max(initial=0.0) <= MATCH_TOL * (
        1.0 + np.abs(g).max(initial=0.0))


def family(start: str) -> str:
    return re.sub(r"-\d+$", "", start)


def compare(saved, got):
    """``(lost, found)`` counts of the new solution sets against the saved."""
    lost = found = 0
    for old, new in zip(saved, got):
        old = [np.array(f) for f in old]
        lost += sum(not any(same(g, f) for g, _ in new) for f in old)
        found += sum(not any(same(g, f) for f in old) for g, _ in new)
    return lost, found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true", help="compare with the saved sets")
    mode.add_argument("--write", action="store_true", help="save the current sets")
    parser.add_argument("--rng", type=int, nargs="+", default=[777, 778])
    parser.add_argument("--starts", type=int, nargs="+", default=[16, 64])
    args = parser.parse_args(argv)
    saved = {}
    if os.path.exists(SOLUTIONS):
        with open(SOLUTIONS) as fh:
            saved = json.load(fh)
    failed = False
    for seed in args.rng:
        for starts in args.starts:
            key = f"rng{seed}-starts{starts}"
            t0 = time.perf_counter()
            got, rejected = solve_all(seed, starts, certify=args.check)
            elapsed = time.perf_counter() - t0
            families = Counter(family(start) for sols in got for _, start in sols)
            total = sum(len(sols) for sols in got)
            line = (f"{key}: {total} solutions in {elapsed:.1f} s; first found by "
                    + ", ".join(f"{name} {count}" for name, count in sorted(families.items())))
            if args.write:
                saved[key] = [[f.tolist() for f, _ in sols] for sols in got]
            elif key not in saved:
                print(f"{line}; no saved set", file=sys.stderr)
                return 2
            else:
                lost, found = compare(saved[key], got)
                failed |= lost > 0 or bool(rejected)
                n_saved = sum(len(sols) for sols in saved[key])
                line += (f"; lost {lost} and found {found} against {n_saved} saved; "
                         f"certificate rejects {len(rejected)}")
                line += "".join(f"\n  not certified: draw {k}, {start}" for k, start in rejected)
            print(line, flush=True)
    if args.write:
        with open(SOLUTIONS, "w") as fh:
            fh.write("{\n" + ",\n".join(
                f"  {json.dumps(key)}: [\n" + ",\n".join(
                    "    " + json.dumps(sols) for sols in value) + "\n  ]"
                for key, value in sorted(saved.items())) + "\n}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
