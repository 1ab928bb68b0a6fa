"""The four workloads: the CLI invocations of one pass and their output checks.

A workload function writes its inputs into the work directory and returns
the jobs of one pass, plus reference jobs that run once, untimed, before
the passes.
A check returns the list of its failures; a failure marked ``known`` is a
documented defect of the program (ROADMAP item 4), counted as a failed
invocation without making the run incorrect.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gen

LANE_PROBLEM = os.path.join("problems", "lane_keeping.json")
PLANTED_SIZES = (16, 24, 32)
# The planted suite is one fixed draw, not a draw per --seed: the forward
# solver's cost on these games is bimodal in the input (scipy's hybr either
# converges or runs to maxfev), so one n = 32 inverse takes 6 to 23 s
# depending on the game and even on its decomposition gauge.
PLANTED_SUITE_SEED = 0
MULTI_SIZES = (8, 10)
MULTI_INPUTS = (2, 2, 2)
TRAJ_HORIZON, TRAJ_DT = "60", "1e-3"
TRAJ_ROWS = 60001


@dataclass(frozen=True)
class Failure:
    message: str
    known: bool = False


@dataclass
class Job:
    """One CLI invocation: ``dgame <command> <problem> <args> --out <out>``."""

    label: str
    command: str
    problem: str
    args: list[str]
    out: str
    check: Callable[[str], list[Failure]]
    after: Callable[[dict], None] | None = None

    @property
    def argv(self) -> list[str]:
        return [self.command, self.problem, *self.args, "--out", self.out]


@dataclass
class Workload:
    jobs: list[Job]
    reference: list[Job] = field(default_factory=list)


def read_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def csv_rows(path: str) -> int:
    with open(path) as fh:
        return sum(1 for line in fh if line.strip()) - 1


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _theta_writer(path: str) -> Callable[[dict], None]:
    def write(report: dict) -> None:
        _write_json(path, {"theta": [p["theta"] for p in report["inverse"]["players"]]})
    return write


def _expect(cond: bool, message: str, known: bool = False) -> list[Failure]:
    return [] if cond else [Failure(message, known)]


def _forward_count(expected: int):
    def check(path):
        got = len(read_report(path)["forward"])
        return _expect(got == expected, f"forward found {got} solutions, expected {expected}")
    return check


def _member(expected: bool, nash: bool | None = None):
    def check(path):
        section = read_report(path)["verify"]
        fails = _expect(section["all_members"] == expected,
                        f"verify all_members={section['all_members']}, expected {expected}")
        if nash is not None:
            got = section.get("nash_spot_check")
            fails += _expect(got == nash, f"nash_spot_check={got}, expected {nash}")
        return fails
    return check


def _rows(expected: int):
    def check(path):
        got = csv_rows(path)
        return _expect(got == expected, f"trajectory has {got} rows, expected {expected}")
    return check


def lane(root: str, work: str, rng: np.random.Generator) -> Workload:
    problem = os.path.join(root, LANE_PROBLEM)
    raw = read_report(problem)
    theta_inv = os.path.join(work, "lane_theta_inverse.json")
    theta_id = os.path.join(work, "lane_theta_identified.json")
    _write_json(theta_id, {"theta": gen.theta_of(raw["cost_sets"]["identified"])})

    def out(name):
        return os.path.join(work, f"lane_{name}")

    def reduce_check(path):
        pencil = read_report(path)["pencil"]
        return _expect((pencil["r"], pencil["index"]) == (2, 1),
                       f"reduce gave r={pencil['r']}, index={pencil['index']}")

    def inverse_check(path):
        rep = read_report(path)
        return (_expect(rep["inverse"]["feasible"], "inverse is infeasible")
                + _expect(rep.get("behaviors", {}).get("matching") == 1,
                          "inverse does not match exactly 1 behavior"))

    def misspecify_check(path):
        got = read_report(path)["behaviors"]["matching"]
        return _expect(got == 0, f"misspecify matched {got} behaviors, expected 0")

    jobs = [
        Job("reduce", "reduce", problem, [], out("reduce.json"), reduce_check),
        Job("forward", "forward", problem, [], out("forward.json"), _forward_count(1)),
        Job("forward:identified", "forward", problem, ["--costs", "identified"],
            out("forward_identified.json"), _forward_count(2)),
        # 2 is the verified count behind the strict 3c xfail (published: 4)
        Job("forward:misspecified", "forward", problem, ["--costs", "misspecified"],
            out("forward_misspecified.json"), _forward_count(2)),
        Job("inverse", "inverse", problem, [], out("inverse.json"), inverse_check,
            after=_theta_writer(theta_inv)),
        Job("misspecify", "misspecify", problem, [], out("misspecify.json"), misspecify_check),
        Job("verify:member", "verify", problem, ["--theta", theta_inv],
            out("verify_member.json"), _member(True, nash=True)),
        Job("verify:identified", "verify", problem, ["--theta", theta_id],
            out("verify_identified.json"), _member(False)),
        Job("simulate", "simulate", problem, ["--x1-0", "1,0.4"], out("simulate.csv"),
            _rows(1001)),
    ]
    return Workload(jobs)


def planted_scale(root: str, work: str, rng: np.random.Generator) -> Workload:
    rng = np.random.default_rng(PLANTED_SUITE_SEED)
    jobs = []
    for n in PLANTED_SIZES:
        r = 3 * n // 4
        problem = os.path.join(work, f"planted_n{n}.json")
        _write_json(problem, gen.planted_game(rng, n, r, (1, 1)))
        theta = os.path.join(work, f"planted_n{n}_theta.json")

        def reduce_check(path, n=n, r=r):
            pencil = read_report(path)["pencil"]
            return _expect((pencil["r"], pencil["index"]) == (r, 1),
                           f"n={n}: reduce gave r={pencil['r']}, index={pencil['index']}")

        def inverse_check(path, n=n):
            rep = read_report(path)
            fails = _expect(rep["inverse"]["feasible"], f"n={n}: inverse is infeasible")
            for p in rep["inverse"]["players"]:
                fails += _expect(p["kernel_dim"] >= p["bound"],
                                 f"n={n}: kernel_dim {p['kernel_dim']} < bound {p['bound']}")
            # F is an equilibrium of every member cost by construction; the
            # forward solver's absolute acceptance test can still reject it
            matching = rep.get("behaviors", {}).get("matching", 0)
            fails += _expect(matching >= 1, f"n={n}: inverse matched 0 behaviors", known=True)
            return fails

        jobs += [
            Job(f"reduce:n{n}", "reduce", problem, [], os.path.join(work, f"reduce_n{n}.json"),
                reduce_check),
            Job(f"inverse:n{n}", "inverse", problem, ["--starts", "0"],
                os.path.join(work, f"inverse_n{n}.json"), inverse_check,
                after=_theta_writer(theta)),
            Job(f"verify:n{n}", "verify", problem, ["--theta", theta],
                os.path.join(work, f"verify_n{n}.json"), _member(True)),
        ]
    return Workload(jobs)


def multi_input(root: str, work: str, rng: np.random.Generator) -> Workload:
    jobs = []
    for n in MULTI_SIZES:
        problem = os.path.join(work, f"multi_n{n}.json")
        body = gen.planted_game(rng, n, n - 1, MULTI_INPUTS)
        body["costs"] = gen.team_costs(rng, n, MULTI_INPUTS)
        _write_json(problem, body)

        def forward_check(path, n=n):
            sols = read_report(path)["forward"]
            fails = _expect(len(sols) >= 1, f"n={n}: forward found no solution")
            for s in sols:
                fails += _expect(s["residual_max"] <= 1e-8 * s["residual_scale"],
                                 f"n={n}: residual {s['residual_max']:.3g} above 1e-8 scale")
            return fails

        def inverse_check(path, n=n):
            rep = read_report(path)
            return (_expect(rep["inverse"]["feasible"], f"n={n}: inverse is infeasible")
                    + _expect(rep.get("behaviors", {}).get("matching", 0) >= 1,
                              f"n={n}: inverse matched 0 behaviors"))

        jobs += [
            Job(f"forward:n{n}", "forward", problem, ["--starts", "4"],
                os.path.join(work, f"forward_n{n}.json"), forward_check),
            Job(f"inverse:n{n}", "inverse", problem, ["--starts", "4"],
                os.path.join(work, f"inverse_n{n}.json"), inverse_check),
        ]
    return Workload(jobs)


def _same_verdict(reference: str):
    """verify --traj must give plain verify's verdict and residuals to 1e-9."""
    def close(a, b):
        return abs(a - b) <= 1e-9 * max(abs(a), abs(b))

    def check(path):
        got, ref = read_report(path)["verify"], read_report(reference)["verify"]
        fails = _expect(got["all_members"] == ref["all_members"]
                        and got.get("nash_spot_check") == ref.get("nash_spot_check"),
                        "verify --traj verdict differs from plain verify")
        for p, q in zip(got["players"], ref["players"]):
            fails += _expect(p["member"] == q["member"] and close(p["residual"], q["residual"])
                             and close(p["pd_margin"], q["pd_margin"]),
                             f"verify --traj player {p['player']} differs from plain verify")
        return fails
    return check


def trajectory(root: str, work: str, rng: np.random.Generator) -> Workload:
    lane_problem = os.path.join(root, LANE_PROBLEM)
    theta_gt = os.path.join(work, "lane_theta_truth.json")
    _write_json(theta_gt, {"theta": gen.theta_of(read_report(lane_problem)["costs"])})
    n = 16
    planted = os.path.join(work, f"traj_n{n}.json")
    _write_json(planted, gen.planted_game(rng, n, 3 * n // 4, (1, 1)))
    x0 = ",".join(f"{v:.6f}" for v in rng.uniform(-1.0, 1.0, size=3 * n // 4))
    lane_csv = os.path.join(work, "traj_lane.csv")
    plain = os.path.join(work, "traj_verify_plain.json")
    span = ["--horizon", TRAJ_HORIZON, "--dt", TRAJ_DT]
    jobs = [
        Job("simulate:lane", "simulate", lane_problem, ["--x1-0", "1,0.4", *span], lane_csv,
            _rows(TRAJ_ROWS)),
        Job(f"simulate:n{n}", "simulate", planted, [f"--x1-0={x0}", *span],
            os.path.join(work, f"traj_n{n}.csv"), _rows(TRAJ_ROWS)),
        Job("verify:traj", "verify", lane_problem, ["--traj", lane_csv, "--theta", theta_gt],
            os.path.join(work, "traj_verify.json"), _same_verdict(plain)),
    ]
    reference = [Job("verify:plain", "verify", lane_problem, ["--theta", theta_gt], plain,
                     lambda path: [])]
    return Workload(jobs, reference)


WORKLOADS = {
    "lane": lane,
    "planted-scale": planted_scale,
    "multi-input": multi_input,
    "trajectory": trajectory,
}
