"""End-to-end command-line workflows over JSON problem files."""
import ast
import contextlib
import copy
import importlib
import io
import json
import os
import pkgutil
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings

from dgame import (
    ReducedFeedback,
    SolveOptions,
    ThetaLayout,
    cli,
    identify,
    preimage_sample,
    reduce_feedback,
    reduce_game,
    simulate,
    solve_fbne,
    sorted_spectrum,
    write_trajectory_csv,
)
from dgame.cli import main
from conftest import (
    F_GT,
    LANE_A,
    LANE_B,
    LANE_E,
    Q_GT,
    R_GT,
    THETA_MIS,
    lane_costs_gt,
    lane_game,
    lane_profile_gt,
    planted_draw,
    planted_problem,
    stabilizing_reduced_gain,
)

REPO_FIXTURE = Path(__file__).resolve().parent.parent / "problems" / "lane_keeping.json"

# Oracles for the files the CLI reads and writes; the CLI itself checks
# problem files in dgame.cli.load_problem and does not need jsonschema.
_MATRIX = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
}
_COSTS = {
    "type": "object",
    "required": ["Q", "R"],
    "properties": {
        "Q": {"type": "array", "items": _MATRIX, "minItems": 1},
        "R": {"type": "array", "items": {"type": "array", "items": _MATRIX}},
    },
}
PROBLEM_SCHEMA = {
    "type": "object",
    "required": ["E", "A", "B"],
    "properties": {
        "E": _MATRIX,
        "A": _MATRIX,
        "B": {"type": "array", "items": _MATRIX, "minItems": 1},
        "costs": _COSTS,
        "cost_sets": {"type": "object", "additionalProperties": _COSTS},
        "F": {"type": "array", "items": _MATRIX, "minItems": 1},
        "constraints": {
            "type": "object",
            "properties": {
                "diagonal_q": {"type": "boolean"},
                "support": {"type": "array", "items": {"type": "integer"}},
            },
        },
    },
}

_NUMBER_PAIR = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
_SPECTRUM = {"type": "array", "items": _NUMBER_PAIR}
REPORT_SCHEMA = {
    "type": "object",
    "required": ["meta"],
    "properties": {
        "meta": {
            "type": "object",
            "required": ["version", "command", "seed", "tol", "starts", "eps_pd"],
        },
        "pencil": {
            "type": "object",
            "required": ["regular", "index", "r", "finite_spectrum"],
            "properties": {
                "regular": {"type": "boolean"},
                "index": {"type": "integer"},
                "r": {"type": "integer"},
                "finite_spectrum": _SPECTRUM,
            },
        },
        "reduced": {"type": "object"},
        "forward": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["f_star", "p", "spectrum", "residual_max", "iterations"],
            },
        },
        "inverse": {
            "type": "object",
            "required": ["players", "feasible"],
        },
        "behaviors": {
            "type": "object",
            "required": ["count", "matching", "matches", "spectra"],
        },
        "misspecify": {"type": "object"},
        "verify": {"type": "object"},
    },
}
_PROBLEM_VALIDATOR = jsonschema.validators.validator_for(PROBLEM_SCHEMA)(PROBLEM_SCHEMA)


def lane_problem_dict(with_costs=True, with_f=True, **extra):
    prob = {
        "E": LANE_E.tolist(),
        "A": LANE_A.tolist(),
        "B": [b.tolist() for b in LANE_B],
    }
    if with_costs:
        prob["costs"] = {
            "Q": [q.tolist() for q in Q_GT],
            "R": [[r.tolist() for r in row] for row in R_GT],
        }
    if with_f:
        prob["F"] = [F_GT[0:1].tolist(), F_GT[1:2].tolist()]
    prob.update(extra)
    return prob


def write_problem(tmp_path, name="prob.json", **kwargs):
    path = tmp_path / name
    path.write_text(json.dumps(lane_problem_dict(**kwargs)))
    return str(path)


def lane_costs_dict(q0=None, r01=None):
    """The lane game's ground-truth cost block, with Q[0] or R[0][1]
    replaced when given."""
    qs = [q.tolist() for q in Q_GT]
    rs = [[r.tolist() for r in row] for row in R_GT]
    if q0 is not None:
        qs[0] = q0
    if r01 is not None:
        rs[0][1] = r01
    return {"Q": qs, "R": rs}


def run(args):
    return main([str(a) for a in args])


def test_shipped_fixture_reduces(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["reduce", REPO_FIXTURE, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["pencil"] == {
        "regular": True,
        "index": 1,
        "r": 2,
        "finite_spectrum": [[0.0, 0.0], [0.0, 0.0]],
    } or rep["pencil"]["r"] == 2  # spectrum entries are tiny, not exact zeros
    assert rep["pencil"]["index"] == 1
    assert max(abs(x) for pair in rep["pencil"]["finite_spectrum"] for x in pair) <= 1e-9


def test_reduce_rejects_impulsive_problem(tmp_path):
    prob = lane_problem_dict()
    prob["E"] = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
    prob["A"] = np.eye(3).tolist()
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(prob))
    assert run(["reduce", path]) == 2


def test_reduce_state_space_mode(tmp_path, capsys):
    prob = lane_problem_dict(with_costs=False, with_f=False)
    prob["E"] = np.eye(3).tolist()
    prob["A"] = (np.array(prob["A"]) - 2 * np.eye(3)).tolist()
    path = tmp_path / "ode.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "rep.json"
    assert run(["reduce", path, "--out", out]) == 0
    assert json.loads(out.read_text())["pencil"]["index"] == 0
    assert "standard state-space" in capsys.readouterr().err


def test_forward_counts_ground_truth_and_identified(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["forward", REPO_FIXTURE, "--out", out, "--starts", 24]) == 0
    assert len(json.loads(out.read_text())["forward"]) == 1
    assert run(["forward", REPO_FIXTURE, "--costs", "identified",
                "--out", out, "--starts", 24]) == 0
    assert len(json.loads(out.read_text())["forward"]) == 2


def test_forward_requires_costs(tmp_path):
    path = write_problem(tmp_path, with_costs=False)
    assert run(["forward", path]) == 1


def one_line_message(capsys, prefix):
    err = capsys.readouterr().err
    return err.startswith(prefix) and err.count("\n") == 1 and "Traceback" not in err


def test_forward_indefinite_input_weight_exits_2(tmp_path, capsys):
    prob = lane_problem_dict()
    prob["costs"]["R"][0][0] = [[-1.0]]
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(prob))
    assert run(["forward", path, "--out", tmp_path / "rep.json"]) == 2
    assert one_line_message(capsys, "assumption violated: effective input weight of player 0")
    assert not (tmp_path / "rep.json").exists()


def test_forward_single_player_matches_reference(tmp_path):
    import scipy.linalg as sla
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 1))
    q = np.eye(2)
    r = np.array([[1.0]])
    prob = {
        "E": np.eye(2).tolist(),
        "A": a.tolist(),
        "B": [b.tolist()],
        "costs": {"Q": [q.tolist()], "R": [[r.tolist()]]},
    }
    path = tmp_path / "lqr.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "rep.json"
    assert run(["forward", path, "--out", out, "--starts", 8]) == 0
    rep = json.loads(out.read_text())
    assert len(rep["forward"]) == 1
    # invertible E: the reduction is a pure coordinate change, so compare
    # the closed-loop spectrum with the textbook regulator's
    p_ref = sla.solve_continuous_are(a, b, q, r)
    spec_ref = np.sort_complex(np.linalg.eigvals(a - b @ np.linalg.solve(r, b.T @ p_ref)))
    got = np.sort_complex([complex(re, im) for re, im in rep["forward"][0]["spectrum"]])
    np.testing.assert_allclose(got, spec_ref, atol=1e-7)


def test_inverse_feasible_on_fixture(tmp_path):
    out = tmp_path / "rep.json"
    assert run(["inverse", REPO_FIXTURE, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["inverse"]["feasible"]
    for pc in rep["inverse"]["players"]:
        assert pc["residual"] <= 1e-7
        assert pc["pd_margin"] > 0
        assert pc["kernel_dim"] >= pc["bound"] == 6
    assert rep["behaviors"]["matching"] >= 1


def test_inverse_accepts_zero_starts_and_margin_threshold(tmp_path):
    # the lower ends of the option ranges stay valid (the benchmark runs
    # inverse --starts 0)
    out = tmp_path / "rep.json"
    assert run(["inverse", REPO_FIXTURE, "--out", out, "--starts", 0, "--eps-pd", 0]) == 0
    meta = json.loads(out.read_text())["meta"]
    assert (meta["starts"], meta["eps_pd"]) == (0, 0.0)


def test_inverse_with_diagonal_constraint(tmp_path):
    path = write_problem(tmp_path, constraints={"diagonal_q": True})
    out = tmp_path / "rep.json"
    assert run(["inverse", path, "--out", out]) == 0
    rep = json.loads(out.read_text())
    assert rep["inverse"]["feasible"]


def test_inverse_infeasible_support_exits_4(tmp_path):
    path = write_problem(tmp_path, constraints={"support": [0, 6]})
    out = tmp_path / "rep.json"
    assert run(["inverse", path, "--out", out]) == 4
    rep = json.loads(out.read_text())
    assert not rep["inverse"]["feasible"]


def test_inverse_infeasible_report_does_not_depend_on_seed(tmp_path):
    # identification draws nothing at random, so --seed leaves even the
    # empty-set diagnosis alone
    path = write_problem(tmp_path, constraints={"support": [0, 6]})
    sections = []
    for seed in (0, 7):
        out = tmp_path / f"rep{seed}.json"
        assert run(["inverse", path, "--out", out, "--seed", seed]) == 4
        sections.append(json.loads(out.read_text())["inverse"])
    assert sections[0] == sections[1]


def test_inverse_from_trajectory(tmp_path):
    traj_csv = tmp_path / "traj.csv"
    assert run(["simulate", REPO_FIXTURE, "--x1-0", "1,0.4",
                "--horizon", 5, "--dt", "0.02", "--out", traj_csv]) == 0
    path = write_problem(tmp_path, with_f=False)
    out = tmp_path / "rep.json"
    assert run(["inverse", path, "--traj", traj_csv, "--out", out]) == 0
    assert json.loads(out.read_text())["inverse"]["feasible"]


def test_inverse_requires_observation(tmp_path):
    path = write_problem(tmp_path, with_f=False)
    assert run(["inverse", path]) == 1


def test_misspecify_reports_nonzero_descriptor_residuals(tmp_path):
    out = tmp_path / "rep.json"
    err_csv = tmp_path / "err.csv"
    code = run(["misspecify", REPO_FIXTURE, "--out", out, "--traj-out", err_csv,
                "--starts", 16])
    assert code == 0
    rep = json.loads(out.read_text())
    res = rep["misspecify"]["descriptor_residuals"]
    assert all(v > 1e-3 for v in res)
    assert not rep["misspecify"]["identification_consistent"]
    assert rep["behaviors"]["count"] >= 1
    assert rep["behaviors"]["matching"] == 0
    rows = err_csv.read_text().splitlines()
    assert rows[0].startswith("t,xerr1,uerr1")
    data = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
    assert np.abs(data[:, 1:]).max() > 1e-3


def _error_trajectories_csv_oracle(rg, f_red_obs, sols):
    """The per-value f-string loop that ``_format_rows`` replaced."""
    x1_0 = np.ones(rg.r)
    obs = simulate(rg, f_red_obs, x1_0, cli._ERROR_HORIZON, cli._ERROR_DT)
    cols = {"t": obs.times}
    for k, s in enumerate(sols):
        traj = simulate(rg, s.f_star, x1_0, cli._ERROR_HORIZON, cli._ERROR_DT)
        cols[f"xerr{k+1}"] = np.linalg.norm(traj.x - obs.x, axis=1)
        cols[f"uerr{k+1}"] = np.linalg.norm(traj.u - obs.u, axis=1)
    header = list(cols)
    rows = np.column_stack([cols[h] for h in header])
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def test_error_trajectories_csv_matches_the_f_string_loop():
    # the observed loop against itself gives all-zero error columns
    from types import SimpleNamespace
    rg = reduce_game(lane_game())
    observed = reduce_feedback(rg, lane_profile_gt())
    rng = np.random.default_rng(4)
    sols = [SimpleNamespace(f_star=observed)] + [
        SimpleNamespace(f_star=ReducedFeedback(stabilizing_reduced_gain(rng, rg), rg.input_dims))
        for _ in range(2)]
    for chosen in ([], sols):
        got = cli._error_trajectories_csv(rg, observed, chosen).splitlines(True)
        want = _error_trajectories_csv_oracle(rg, observed, chosen).splitlines(True)
        assert len(got) == len(want)
        for k, (g, w) in enumerate(zip(got, want)):
            assert g == w, f"row {k}"


def test_misspecify_reports_an_indefinite_descriptor_input_weight(tmp_path, capsys):
    # under E = I this observed feedback is rationalized by costs whose
    # player-1 input weight, read through the descriptor game's algebraic
    # state, is indefinite: the forward game is not posed, the behaviors
    # section is empty and the exit code is identification's
    path = tmp_path / "indefinite.json"
    path.write_text(json.dumps(lane_problem_dict(
        with_costs=False, F=[[[0.0, -0.28, 0.26]], [[-0.14, -2.27, 5.75]]])))
    out, err_csv = tmp_path / "rep.json", tmp_path / "err.csv"
    capsys.readouterr()
    code = run(["misspecify", path, "--starts", 8, "--out", out, "--traj-out", err_csv])
    rep = json.loads(out.read_text())
    feasible = all(p["feasible"] for p in rep["misspecify"]["ode_players"])
    assert code == (0 if feasible else 4)
    assert rep["misspecify"]["descriptor_margins"][1] < 0
    assert rep["behaviors"] == {"count": 0, "matching": 0, "matches": [], "spectra": []}
    # the error CSV is still written: its time column alone
    lines = err_csv.read_text().splitlines()
    assert lines[0] == "t"
    assert len(lines) == 2 + round(cli._ERROR_HORIZON / cli._ERROR_DT)
    err = capsys.readouterr().err
    assert err.startswith("misspecify: descriptor residuals ") and err.count("\n") == 1
    assert err.endswith("(forward solve on misspecified costs failed: effective input "
                        "weight of player 1 is not positive definite)\n")


def test_misspecify_is_noop_for_state_space_model(tmp_path):
    rng = np.random.default_rng(1)
    a = (rng.standard_normal((2, 2)) - 2 * np.eye(2))
    b = rng.standard_normal((2, 1))
    import scipy.linalg as sla
    p = sla.solve_continuous_are(a, b, np.eye(2), np.eye(1))
    f = -np.linalg.solve(np.eye(1), b.T @ p)
    prob = {
        "E": np.eye(2).tolist(),
        "A": a.tolist(),
        "B": [b.tolist()],
        "F": [f.tolist()],
    }
    path = tmp_path / "ode.json"
    path.write_text(json.dumps(prob))
    out = tmp_path / "rep.json"
    assert run(["misspecify", path, "--out", out, "--starts", 8]) == 0
    rep = json.loads(out.read_text())
    assert rep["misspecify"]["already_state_space"]
    assert all(v <= 1e-7 for v in rep["misspecify"]["descriptor_residuals"])
    assert rep["misspecify"]["identification_consistent"]


def theta_file(tmp_path, thetas, name="theta.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"theta": [list(map(float, t)) for t in thetas]}))
    return str(path)


def test_verify_membership_verdicts(tmp_path):
    layout = ThetaLayout(n=3, input_dims=(1, 1))
    out = tmp_path / "rep.json"

    # candidate weights produced by the identification workflow are members
    inv_out = tmp_path / "inv.json"
    assert run(["inverse", REPO_FIXTURE, "--out", inv_out]) == 0
    id_thetas = [p["theta"] for p in json.loads(inv_out.read_text())["inverse"]["players"]]
    tf = theta_file(tmp_path, id_thetas, "id.json")
    assert run(["verify", REPO_FIXTURE, "--theta", tf, "--out", out]) == 0
    rep = json.loads(out.read_text())["verify"]
    assert rep["all_members"]
    assert rep["nash_spot_check"]

    # positive rescaling preserves membership
    tf = theta_file(tmp_path, [np.array(t) * 37.0 for t in id_thetas], "scaled.json")
    assert run(["verify", REPO_FIXTURE, "--theta", tf, "--out", out]) == 0
    assert json.loads(out.read_text())["verify"]["all_members"]

    # the published misspecified parameters are non-members
    tf = theta_file(tmp_path, THETA_MIS, "mis.json")
    assert run(["verify", REPO_FIXTURE, "--theta", tf, "--out", out]) == 0
    rep = json.loads(out.read_text())["verify"]
    assert not rep["all_members"]
    assert all(not p["member"] for p in rep["players"])


def test_verify_judges_nash_at_the_solver_tolerance(tmp_path):
    # lane's equilibrium gain scaled by 1 + 1e-6 keeps the ground-truth
    # costs as members, at a stationarity backward error of 2.3e-7: above
    # the default --tol, within --tol 1e-6
    rg, c = reduce_game(lane_game()), lane_costs_gt()
    (sol,) = solve_fbne(rg, c, SolveOptions(n_starts=16))
    f = preimage_sample(rg, ReducedFeedback(sol.f_star.matrix * (1 + 1e-6), rg.input_dims))
    path = write_problem(tmp_path, F=[f_i.tolist() for f_i in f.f])
    layout = ThetaLayout(n=rg.n, input_dims=rg.input_dims)
    tf = theta_file(tmp_path, [layout.theta_of(c, i) for i in range(rg.n_players)])
    out = tmp_path / "rep.json"
    for tol, nash in ((None, False), ("1e-6", True)):
        assert run(["verify", path, "--theta", tf, "--out", out,
                    *(["--tol", tol] if tol else [])]) == 0
        rep = json.loads(out.read_text())["verify"]
        assert rep["all_members"] and rep["nash_spot_check"] is nash


@pytest.mark.parametrize("n", [56, 64])
def test_verify_certifies_identified_costs_of_a_large_planted_game(tmp_path, n):
    # the planted game's identified costs rationalize its gain to rounding,
    # and verify certifies it as their equilibrium; at these sizes the
    # gain is ill-conditioned enough that a computed best response lies
    # 5.7e-5 (n = 56) and 5.7e-3 (n = 64) from it, beyond DEDUP_TOL, while
    # its backward error stays at rounding level
    path = tmp_path / "planted.json"
    path.write_text(json.dumps(planted_problem(np.random.default_rng(0), n, 3 * n // 4, (1, 1))))
    problem = cli.load_problem(str(path))
    rg = reduce_game(problem.game)
    cert = identify(rg, reduce_feedback(rg, problem.f_observed))
    tf = theta_file(tmp_path, [p.theta for p in cert.players])
    out = tmp_path / "rep.json"
    assert run(["verify", path, "--theta", tf, "--out", out]) == 0
    rep = json.loads(out.read_text())["verify"]
    assert rep["all_members"] and rep["nash_spot_check"]


def test_verify_rejects_malformed_theta_length(tmp_path):
    tf = theta_file(tmp_path, [np.zeros(5), np.zeros(8)])
    assert run(["verify", REPO_FIXTURE, "--theta", tf]) == 1


def test_simulate_zero_initial_state(tmp_path):
    out = tmp_path / "traj.csv"
    assert run(["simulate", REPO_FIXTURE, "--x1-0", "0,0", "--horizon", 1,
                "--dt", "0.1", "--out", out]) == 0
    data = np.array([[float(v) for v in row.split(",")]
                     for row in out.read_text().splitlines()[1:]])
    assert np.abs(data[:, 1:]).max() == 0.0


@pytest.mark.parametrize("span", [("--dt", "0"), ("--dt", "-0.01"), ("--dt", "nan"),
                                  ("--horizon", "-1"), ("--horizon", "inf"),
                                  ("--horizon", "1e300", "--dt", "1e-300")])
def test_simulate_rejects_bad_time_grid(tmp_path, capsys, span):
    out = tmp_path / "traj.csv"
    assert run(["simulate", REPO_FIXTURE, "--x1-0", "1,0.4", *span, "--out", out]) == 1
    assert one_line_message(capsys, "error: need a finite --dt > 0")
    assert not out.exists()


def test_simulate_grid_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr("dgame.cli.simulate_blocks", no_memory)
    out = tmp_path / "traj.csv"
    assert run(["simulate", REPO_FIXTURE, "--x1-0", "1,0.4", "--horizon", "1e9",
                "--dt", "1e-3", "--out", out]) == 1
    assert one_line_message(capsys, "error: cannot allocate 1000000000001 samples")
    assert not out.exists()


def _simulate_problem(tmp_path, game):
    """Problem file and reduced initial state of a simulate test game."""
    if game == "lane":
        return REPO_FIXTURE, np.array([1.0, 0.4])
    path = tmp_path / "planted16.json"
    path.write_text(json.dumps(planted_draw(16)))
    return path, np.linspace(-1.0, 1.0, 12)


@pytest.mark.parametrize("game", ["lane", "planted16"])
@pytest.mark.parametrize("steps, dt", [(0, 0.01), (1, 0.01), (63, 0.01), (64, 0.01),
                                       (65, 0.01), (255, 0.01), (256, 0.01), (257, 0.01),
                                       (512, 0.01), (60000, 1e-3)])
def test_simulate_streams_the_library_csv(tmp_path, capsys, game, steps, dt):
    # the CSV written block by block, to a file and to standard output, is
    # the library's CSV of the whole trajectory, byte for byte
    path, x1_0 = _simulate_problem(tmp_path, game)
    horizon = repr(steps * dt)
    problem = cli.load_problem(str(path))
    want = io.StringIO(newline="")
    write_trajectory_csv(simulate(reduce_game(problem.game), problem.f_observed, x1_0,
                                  float(horizon), dt), want)
    args = ["simulate", path, "--x1-0=" + ",".join(map(repr, x1_0.tolist())),
            "--horizon", horizon, "--dt", repr(dt)]
    out = tmp_path / "traj.csv"
    capsys.readouterr()
    assert run([*args, "--out", out]) == 0
    assert run(args) == 0
    assert out.read_bytes() == want.getvalue().encode()
    captured = capsys.readouterr()
    assert captured.out == want.getvalue()
    assert captured.err == f"simulate: {steps + 1} samples over {float(horizon)}s\n" * 2


@pytest.mark.parametrize("existing", [False, True])
def test_simulate_out_appears_only_whole(tmp_path, monkeypatch, existing):
    # a formatter failing after two blocks leaves no temporary file, and
    # no output file or the one that was there
    from dgame import feedback
    format_blocks = feedback._format_blocks

    def failing(blocks, fh, line_end):
        def two_then_fail():
            for k, block in enumerate(blocks):
                if k == 2:
                    raise RuntimeError("formatter failed")
                yield block
        format_blocks(two_then_fail(), fh, line_end)

    out = tmp_path / "traj.csv"
    if existing:
        out.write_text("old")
    monkeypatch.setattr(feedback, "_format_blocks", failing)
    with pytest.raises(RuntimeError, match="formatter failed"):
        run(["simulate", REPO_FIXTURE, "--x1-0", "1,0.4", "--horizon", 10, "--out", out])
    assert sorted(os.listdir(tmp_path)) == (["traj.csv"] if existing else [])
    if existing:
        assert out.read_text() == "old"
    monkeypatch.setattr(feedback, "_format_blocks", format_blocks)
    assert run(["simulate", REPO_FIXTURE, "--x1-0", "1,0.4", "--horizon", 10, "--out", out]) == 0
    assert sorted(os.listdir(tmp_path)) == ["traj.csv"]
    umask = os.umask(0o22)
    os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("args", [["reduce", REPO_FIXTURE],
                                  ["simulate", REPO_FIXTURE, "--x1-0", "1,0.4", "--horizon", 3]])
def test_out_writes_into_a_fifo_in_place(tmp_path, capsys, args):
    # an --out that names a FIFO gets the bytes standard output gets, and
    # stays a FIFO: no temporary file is renamed over it
    assert run(args) == 0
    want = capsys.readouterr().out.encode()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert run([*args, "--out", fifo]) == 0
    reader.join(timeout=10)
    assert got == [want]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["fifo"]


def test_simulate_memory_does_not_grow_with_the_horizon(monkeypatch):
    # 600,001 lane samples, whose t, x, u and reduced state arrays would
    # take 600,001 * 8 * 8 bytes, about 38 MB, if kept whole
    class Discard:
        def write(self, text):
            return len(text)

    monkeypatch.setattr(sys, "stdout", Discard())
    args = ["simulate", REPO_FIXTURE, "--x1-0", "1,0.4", "--dt", "1e-4"]
    assert run([*args, "--horizon", 0.01]) == 0  # builds the parser and format tables
    tracemalloc.start()
    try:
        assert run([*args, "--horizon", 60]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_pencil_section_reuses_the_games_eigenvalues(monkeypatch):
    # the game's construction computed them for the Hautus test
    rg = reduce_game(lane_game())
    want = cli._spec_pairs(sorted_spectrum(np.linalg.eigvals(rg.j)))

    def no_eigvals(*args):
        raise AssertionError("J's eigenvalues computed again")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    assert cli._pencil_section(rg)["finite_spectrum"] == want


def test_simulate_unstable_loop_exits_5(tmp_path):
    prob = lane_problem_dict(with_costs=False)
    prob["F"] = [np.zeros((1, 3)).tolist(), np.zeros((1, 3)).tolist()]
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(prob))
    assert run(["simulate", path, "--x1-0", "1,0", "--out", tmp_path / "t.csv"]) == 5


def test_simulate_preimage_members_share_inputs(tmp_path):
    # two distinct realizations of the same reduced behavior produce
    # byte-similar input columns
    rg = reduce_game(lane_game())
    f_red = reduce_feedback(rg, lane_profile_gt())
    alt = preimage_sample(rg, f_red, seed=3)
    prob = lane_problem_dict(with_costs=False)
    prob["F"] = [alt.f[0].tolist(), alt.f[1].tolist()]
    path = tmp_path / "alt.json"
    path.write_text(json.dumps(prob))
    t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["simulate", REPO_FIXTURE, "--x1-0", "1,0.4", "--out", t1]) == 0
    assert run(["simulate", path, "--x1-0", "1,0.4", "--out", t2]) == 0
    d1 = np.array([[float(v) for v in r.split(",")] for r in t1.read_text().splitlines()[1:]])
    d2 = np.array([[float(v) for v in r.split(",")] for r in t2.read_text().splitlines()[1:]])
    # u columns are the last two
    assert np.abs(d1[:, -2:] - d2[:, -2:]).max() <= 1e-6


def test_reports_are_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        assert run(["inverse", REPO_FIXTURE, "--out", out, "--seed", 7]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rep = json.loads(out1.read_text())
    assert rep["meta"]["seed"] == 7
    assert rep["meta"]["command"] == "inverse"


def _fmt_json_reference(obj, indent=0) -> str:
    """Oracle for ``cli._fmt_json``: the recursive formatter that renders
    every value with its own call, floats as ``format(v, ".17g")``."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_fmt_json_reference(v, indent + 1)}'
            for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(_fmt_json_reference(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {_fmt_json_reference(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(obj)


# doubles whose exact decimal expansion has 18 significant digits ending
# in 5, so that 17 digits round a tie, and their neighbours
_TIES = [2.0 ** 50 + 0.25, 2.0 ** 50 + 0.75, 2.0 ** 49 + 0.125, 2.0 ** 49 + 0.375]
_TIES += [np.nextafter(t, d) for t in _TIES for d in (0.0, np.inf)]
_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e16, -1e16, 1e-5,
                1e308, -1e308, 0.1, 1.0 / 3.0, float("inf"), -float("inf"), float("nan")]


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS + _TIES)), min_size=1))
@example(_EDGE_FLOATS)
@example(_TIES + [-t for t in _TIES])
def test_float_lists_format_as_one_call_per_value(values):
    # the one-call rows print what format(v, ".17g") prints, as a row and
    # as the rows of a matrix, at any depth
    values = [float(v) for v in values]
    for obj in (values, [values, values[::-1], []], {"m": [values], "p": [[values]]}):
        assert cli._fmt_json(obj) == _fmt_json_reference(obj)


def _report_values(leaves):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=3), kids, max_size=4)),
        max_leaves=24)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(_report_values(st.one_of(
    st.floats(), st.integers(-10 ** 20, 10 ** 20), st.booleans(), st.none(),
    st.floats().map(np.float64), st.integers(-5, 5).map(np.int64), st.text(max_size=3))))
def test_report_shaped_values_format_as_the_recursive_formatter(obj):
    assert cli._fmt_json(obj) == _fmt_json_reference(obj)


def test_report_emission_matches_the_recursive_formatter(tmp_path, monkeypatch):
    # whole reports of the lane commands, nested dicts of matrices,
    # spectra, counts, verdicts and names, as the commands build them
    reports, emit = [], cli._emit_report
    monkeypatch.setattr(cli, "_emit_report", lambda report, out: (reports.append(report),
                                                                  emit(report, out)))
    theta_file(tmp_path, THETA_MIS)
    for argv in (["reduce"], ["forward", "--starts", 8], ["inverse", "--starts", 4],
                 ["misspecify", "--starts", 8], ["verify", "--theta", tmp_path / "theta.json"]):
        out = tmp_path / f"{argv[0]}.json"
        assert run([argv[0], REPO_FIXTURE, *argv[1:], "--out", out]) == 0
        assert out.read_text() == _fmt_json_reference(reports[-1]) + "\n"
    assert len(reports) == 5


@pytest.mark.parametrize("seq", [
    [1, 2.0], [2.0, 1], [True, 1.0], [1.0, False], [None, 1.0], [np.float64(0.1), 0.2],
    [0.5, np.float32(0.1)], [[1.0, 2], [3.0, 4.0]], [[0.1], [np.float64(0.2)]],
    [[True], [1.0]], [[1.0], None], [[1.0], (2.0,)],
])
def test_mixed_lists_keep_the_per_value_path(monkeypatch, seq):
    # a list holding anything but exact floats renders value by value,
    # so ints stay ints, bools stay true / false and None stays null
    rows, float_row = [], cli._float_row
    monkeypatch.setattr(cli, "_float_row", lambda k: rows.append(k) or float_row(k))
    assert cli._fmt_json(seq) == _fmt_json_reference(seq)
    assert rows == [len(v) for v in seq if type(v) in (list, tuple) and {*map(type, v)} == {float}]


def test_main_reuses_one_parser_without_leaking_options(tmp_path):
    # one parser serves every call in a process; each call parses its
    # own argv from the defaults, so no option carries over
    assert cli.build_parser() is cli.build_parser()
    tf = theta_file(tmp_path, THETA_MIS)
    assert run(["verify", REPO_FIXTURE, "--theta", tf, "--nash-trials", "50"]) == 1
    out = tmp_path / "rep.json"
    assert run(["forward", REPO_FIXTURE, "--costs", "identified", "--starts", 24,
                "--out", out]) == 0
    assert len(json.loads(out.read_text())["forward"]) == 2
    assert run(["forward", REPO_FIXTURE, "--starts", 24, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert len(report["forward"]) == 1 and report["meta"]["starts"] == 24
    assert cli.build_parser.cache_info().currsize == 1


def test_malformed_problem_files(tmp_path, capsys):
    path = tmp_path / "broken.json"

    def stderr_of(text):
        path.write_text(text)
        capsys.readouterr()
        assert run(["reduce", path]) == 1
        return capsys.readouterr().err

    assert stderr_of("{not json") == (
        "error: problem file is not valid JSON: Expecting property name enclosed in "
        "double quotes: line 1 column 2 (char 1)\n")
    assert stderr_of(json.dumps({"E": [[1.0]]})) == "error: problem file has no 'A'\n"
    # several faults: the message names the first one checked
    assert stderr_of(json.dumps({"E": "x", "B": []})) == "error: problem file has no 'A'\n"
    assert stderr_of("[1, 2]") == "error: problem file must be a JSON object\n"
    matrix = "a non-empty list of non-empty lists of numbers"
    matrix_list = f"a non-empty list of matrices, each {matrix}"
    prob = lane_problem_dict()
    prob["costs"]["Q"] = [[["a"]]]
    assert stderr_of(json.dumps(prob)) == (
        f"error: costs Q is not a numeric matrix list ({matrix_list})\n")
    for key, value, message in [
        ("E", [[1, 0, 0], [0, 1, 0], [0, 0, False]], f"E is not a numeric matrix ({matrix})"),
        ("B", [], f"B is not a numeric matrix list ({matrix_list})"),
        ("F", [[[0.0, 1.0, 2.0]], [[]]], f"F is not a numeric matrix list ({matrix_list})"),
        ("costs", {"Q": [[[1.0]]]}, "costs has no 'R'"),
        ("costs", {"Q": [[[1.0]]], "R": [[[[1.0]], None]]},
         f"costs R[0][1] is not a numeric matrix ({matrix})"),
        ("cost_sets", [], "cost_sets must be a JSON object"),
        ("constraints", {"diagonal_q": 1}, "constraints diagonal_q must be a JSON boolean"),
        ("constraints", {"support": [1.5]}, "constraints support must hold integer indices"),
        ("constraints", {"support": [True]}, "constraints support must hold integer indices"),
        # shape, count and symmetry faults name their cost block, also in a
        # cost set that the command does not use
        ("cost_sets", {"alt": lane_costs_dict(q0=[[1.0]])}, "cost set 'alt' Q[0] must be 3x3"),
        ("cost_sets", {"alt": lane_costs_dict(q0=[[1, 2, 0], [0, 1, 0], [0, 0, 1]])},
         "cost set 'alt' Q[0] must be symmetric"),
        ("costs", lane_costs_dict(r01=[[1.0, 0.0], [0.0, 1.0]]), "costs R[0][1] must be 1x1"),
        ("costs", dict(lane_costs_dict(), R=[[[[1.0]], [[1.0]]]]),
         "costs must supply one Q and one R row per player"),
        ("costs", dict(lane_costs_dict(), R=[[[[1.0]]], [[[1.0]], [[1.0]]]]),
         "costs R[0] must have one block per player"),
    ]:
        assert stderr_of(json.dumps(lane_problem_dict(**{key: value}))) == f"error: {message}\n"
    # dimension mismatch caught by validation
    prob = lane_problem_dict()
    prob["B"] = [[[1.0], [0.0]]]
    assert stderr_of(json.dumps(prob)) == "error: B[0] must have 3 rows\n"
    # ragged or non-finite matrices (json reads NaN and Infinity), and
    # supports that keep no parameter or name one that does not exist
    nan, inf = float("nan"), float("inf")
    for path_, value, message in [
        (("E",), [[1, 0, 0], [0, 1], [0, 0, 0]], "E is ragged: its rows differ in length"),
        (("B", 0), [[0], [0, 1], [1]], "B[0] is ragged: its rows differ in length"),
        (("costs", "Q", 1), [[1, 0, 0], [0, 1], [0, 0, 1]],
         "costs Q[1] is ragged: its rows differ in length"),
        (("F", 0), [[1, 0, 0], [0, 1]], "F[0] is ragged: its rows differ in length"),
        (("A",), [[nan, 20, 0], [0, 0, 7.4], [0, 0, -10]], "A has a NaN or infinite entry"),
        (("F", 1), [[nan, -1.8117, 3.8449]], "F[1] has a NaN or infinite entry"),
        (("costs", "Q", 0), [[inf, 0, 0], [0, 0.5, 0], [0, 0, 0.1]],
         "costs Q[0] has a NaN or infinite entry"),
        (("constraints",), {"support": [-1]}, "support indices out of range: [-1]"),
        (("constraints",), {"support": []}, "constraints remove every parameter"),
        # an integer too large for a double; json reads 1e400 as infinity
        (("A", 0, 0), 10 ** 400, "A has an integer too large for a double"),
    ]:
        prob = lane_problem_dict()
        parent = prob
        for key in path_[:-1]:
            parent = parent[key]
        parent[path_[-1]] = value
        assert stderr_of(json.dumps(prob)) == f"error: {message}\n"


def test_game_without_dynamic_state_exits_2(tmp_path, capsys):
    # E = 0 reduces to r = 0: no state for the feedback to act on
    path = tmp_path / "static.json"
    path.write_text(json.dumps(lane_problem_dict(E=np.zeros((3, 3)).tolist(),
                                                 A=np.eye(3).tolist())))
    for argv in (["reduce"], ["forward", "--starts", 2], ["inverse", "--starts", 0]):
        capsys.readouterr()
        assert run([argv[0], path, *argv[1:], "--out", tmp_path / "rep.json"]) == 2
        assert one_line_message(capsys, "assumption violated: rank E = 0")
    assert not (tmp_path / "rep.json").exists()


def _traj_text(times):
    """A lane trajectory CSV (n = 3, two scalar inputs) sampled at ``times``."""
    return "t,x1,x2,x3,u1,u2\n" + "".join(f"{t},1,0.5,0.2,0.1,-0.3\n" for t in times)


# argv (run in a scratch working directory), files written there first, and
# the expected start of the one stderr line
FILE_FAULTS = {
    "reduce-out-missing-dir": (["reduce", REPO_FIXTURE, "--out", "missing/rep.json"], {},
                               "error: cannot write missing/rep.json"),
    "forward-out-missing-dir": (["forward", REPO_FIXTURE, "--starts", 2,
                                 "--out", "missing/rep.json"], {},
                                "error: cannot write missing/rep.json"),
    "simulate-out-missing-dir": (["simulate", REPO_FIXTURE, "--x1-0", "1,0.4",
                                  "--out", "missing/traj.csv"], {},
                                 "error: cannot write missing/traj.csv"),
    "simulate-x1-0-nan": (["simulate", REPO_FIXTURE, "--x1-0", "nan,1", "--out", "traj.csv"],
                          {}, "error: --x1-0 must have finite entries"),
    "misspecify-traj-out-missing-dir": (["misspecify", REPO_FIXTURE, "--starts", 16,
                                         "--out", "rep.json", "--traj-out", "missing/err.csv"],
                                        {}, "error: cannot write missing/err.csv"),
    "traj-missing-file": (["inverse", REPO_FIXTURE, "--traj", "absent.csv"], {},
                          "error: cannot read trajectory file"),
    "traj-header-only": (["inverse", REPO_FIXTURE, "--traj", "traj.csv"],
                         {"traj.csv": _traj_text([])},
                         "error: malformed trajectory file traj.csv: no samples"),
    "traj-too-few-rows": (["inverse", REPO_FIXTURE, "--traj", "traj.csv"],
                          {"traj.csv": _traj_text([0.0, 0.1])},
                          "error: malformed trajectory file traj.csv: need at least n=3"),
    "traj-missing-state-column": (["inverse", REPO_FIXTURE, "--traj", "traj.csv"],
                                  {"traj.csv": "t,x1,x2,u1,u2\n0,1,0,1,1\n0.1,0,1,1,2\n"},
                                  "error: malformed trajectory file traj.csv: 2 state columns"),
    "traj-non-increasing-times": (["verify", REPO_FIXTURE, "--theta", "theta.json",
                                   "--traj", "traj.csv"],
                                  {"traj.csv": _traj_text([0.0, 0.1, 0.1, 0.2]),
                                   "theta.json": json.dumps({"theta": [[1.0], [1.0]]})},
                                  "error: malformed trajectory file traj.csv: times must"),
    "theta-not-utf8": (["verify", REPO_FIXTURE, "--theta", "theta.json"],
                       {"theta.json": b"\xff\xfe[]"}, "error: cannot read theta file"),
    "problem-not-utf8": (["reduce", "prob.json"], {"prob.json": b"\xff\xfe{}"},
                         "error: cannot read problem file"),
    "theta-null-entry": (["verify", REPO_FIXTURE, "--theta", "theta.json"],
                         {"theta.json": json.dumps({"theta": [[None] + [1.0] * 7, [1.0] * 8]})},
                         "error: theta[0] is not a numeric vector"),
    "theta-boolean": (["verify", REPO_FIXTURE, "--theta", "theta.json"],
                      {"theta.json": json.dumps({"theta": [[True] + [1.0] * 7, [1.0] * 8]})},
                      "error: theta[0] is not a numeric vector"),
    "theta-nan-entry": (["verify", REPO_FIXTURE, "--theta", "theta.json"],
                        {"theta.json": json.dumps({"theta": [[1.0] * 8, [float("nan")] * 8]})},
                        "error: theta[1] has a NaN or infinite entry"),
    "theta-huge-integer": (["verify", REPO_FIXTURE, "--theta", "theta.json"],
                           {"theta.json": json.dumps({"theta": [[10 ** 400] + [1] * 7, [1] * 8]})},
                           "error: theta[0] has an integer too large for a double"),
    "theta-non-numeric": (["verify", REPO_FIXTURE, "--theta", "theta.json"],
                          {"theta.json": json.dumps({"theta": [["x", 1.0], [1.0, 2.0]]})},
                          "error: theta[0] is not a numeric vector"),
    # option values under which a verdict or a count means nothing
    "eps-pd-negative": (["verify", REPO_FIXTURE, "--theta", "theta.json", "--eps-pd", -10],
                        {"theta.json": json.dumps({"theta": [[1.0] * 8, [1.0] * 8]})},
                        "error: --eps-pd must be finite and >= 0"),
    "eps-pd-nan": (["inverse", REPO_FIXTURE, "--eps-pd", "nan"], {},
                   "error: --eps-pd must be finite and >= 0"),
    "eps-pd-inf": (["inverse", REPO_FIXTURE, "--eps-pd", "inf"], {},
                   "error: --eps-pd must be finite and >= 0"),
    "tol-negative": (["forward", REPO_FIXTURE, "--tol", -1], {},
                     "error: --tol must be finite and > 0"),
    "tol-zero": (["forward", REPO_FIXTURE, "--tol", 0], {},
                 "error: --tol must be finite and > 0"),
    "tol-nan": (["forward", REPO_FIXTURE, "--tol", "nan"], {},
                "error: --tol must be finite and > 0"),
    "starts-negative": (["forward", REPO_FIXTURE, "--starts", -3], {},
                        "error: --starts must be >= 0"),
    "seed-negative": (["forward", REPO_FIXTURE, "--seed", -1], {},
                      "error: --seed must be >= 0"),
    # verify draws no random deviations, so it takes no trial count
    "nash-trials-unknown": (["verify", REPO_FIXTURE, "--theta", "theta.json",
                             "--nash-trials", 50],
                            {"theta.json": json.dumps({"theta": [[1.0] * 8, [1.0] * 8]})},
                            "error: unrecognized arguments: --nash-trials 50"),
    # malformed command lines: exit 1, not argparse's 2 (EXIT_ASSUMPTION)
    "argv-bad-int": (["forward", REPO_FIXTURE, "--starts", "abc"], {},
                     "error: argument --starts: invalid int value: 'abc'"),
    "argv-unknown-option": (["reduce", REPO_FIXTURE, "--bogus"], {},
                            "error: unrecognized arguments: --bogus"),
    "argv-missing-subcommand": ([], {}, "error: the following arguments are required: command"),
}


@pytest.mark.parametrize("case", sorted(FILE_FAULTS))
def test_unusable_files_exit_1_with_one_line(tmp_path, monkeypatch, capsys, case):
    argv, files, message = FILE_FAULTS[case]
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode())
    capsys.readouterr()
    assert run(argv) == 1
    assert one_line_message(capsys, message)
    assert not list(tmp_path.rglob("*.tmp"))


@pytest.mark.parametrize("argv", [["--help"], ["inverse", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dgame")


@pytest.mark.parametrize("schema", [PROBLEM_SCHEMA, REPORT_SCHEMA])
def test_schemas_are_valid(schema):
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("argv", [["reduce"], ["forward", "--starts", 4],
                                  ["inverse", "--starts", 4], ["misspecify", "--starts", 8],
                                  ["verify", "--theta", "theta.json"]])
def test_reports_match_report_schema(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    theta_file(tmp_path, THETA_MIS)
    assert run([argv[0], REPO_FIXTURE, *argv[1:], "--out", "rep.json"]) == 0
    jsonschema.validate(json.loads((tmp_path / "rep.json").read_text()), REPORT_SCHEMA)


def test_cli_import_leaves_scipy_optimize_unloaded(tmp_path):
    # scipy.optimize costs about 0.1 s of every CLI start-up; jsonschema
    # is a test dependency only, so the CLI must also run where importing
    # it fails (a None entry in sys.modules makes the import raise)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_FIXTURE.parent.parent / "src"), env.get("PYTHONPATH")) if p)
    argv = ["reduce", str(REPO_FIXTURE), "--out", str(tmp_path / "rep.json")]
    for block_jsonschema in (False, True):
        script = (f"import sys\nif {block_jsonschema}: sys.modules['jsonschema'] = None\n"
                  "import dgame.cli\nprint('scipy.optimize' in sys.modules)\n"
                  f"print(dgame.cli.main({argv!r}))\n"
                  "print(sys.modules.get('jsonschema') is not None)\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "0", "False"], (block_jsonschema, proc.stdout)


def test_every_exported_name_resolves():
    # perfbench's tracer looks up each name of a module's __all__, so a
    # stale entry left by a deletion breaks the traced benchmark run
    import dgame
    modules = [dgame] + [importlib.import_module(f"dgame.{info.name}")
                         for info in pkgutil.iter_modules(dgame.__path__)]
    for module in modules:
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], module.__name__


def _unused_imports(path):
    """``(line, name)`` of every name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # __init__.py imports are the package's re-exports
    root = Path(__file__).resolve().parents[1]
    found = {str(path.relative_to(root)): unused
             for top in ("src", "tests", "tools", "demos")
             for path in sorted((root / top).rglob("*.py"))
             if path.name != "__init__.py" and (unused := _unused_imports(path))}
    assert found == {}


# (path of a matrix in the lane problem dict, its shape)
_FUZZ_MATRICES = [(("E",), (3, 3)), (("A",), (3, 3)), (("B", 0), (3, 1)), (("B", 1), (3, 1)),
                  (("costs", "Q", 0), (3, 3)), (("costs", "Q", 1), (3, 3)),
                  (("costs", "R", 0, 1), (1, 1)), (("F", 0), (1, 3)), (("F", 1), (1, 3))]
_FUZZ_ENTRIES = st.one_of(
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, -1e308, 1e-308, 0.0]),
    st.sampled_from(["x", None, True, [1.0]]),
)


def _lookup(prob, path):
    for key in path:
        prob = prob[key]
    return prob


def _set_entry(field, i, j, value):
    (path, (rows, cols)) = field
    return lambda prob: _lookup(prob, path)[i % rows].__setitem__(j % cols, value)


def _drop_last_entry(field, i):
    (path, (rows, _)) = field
    return lambda prob: _lookup(prob, path)[i % rows].pop()


def _replace(path, value):
    # a copy: later mutations must not edit the strategy's own value
    return lambda prob: _lookup(prob, path[:-1]).__setitem__(path[-1], copy.deepcopy(value))


_FUZZ_MUTATIONS = st.one_of(
    st.builds(_set_entry, st.sampled_from(_FUZZ_MATRICES), st.integers(0, 2), st.integers(0, 2),
              _FUZZ_ENTRIES),
    st.builds(_drop_last_entry, st.sampled_from(_FUZZ_MATRICES), st.integers(0, 2)),
    st.builds(_replace, st.sampled_from([path for path, _ in _FUZZ_MATRICES]),
              st.sampled_from([[], [[]], "x", [[1.0]], [[0.0] * 3] * 3, [[1e308] * 3] * 3])),
    st.builds(lambda key: lambda prob: prob.pop(key),
              st.sampled_from(["E", "A", "B", "costs", "F"])),
    st.builds(_replace, st.just(("constraints",)),
              st.fixed_dictionaries(
                  {"support": st.lists(st.one_of(st.integers(-2, 10),
                                                 st.sampled_from([1.0, 2.5, True, None])),
                                       max_size=3)},
                  optional={"diagonal_q": st.one_of(st.booleans(), st.just(1))})),
)


@settings(max_examples=100, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_FUZZ_MUTATIONS, min_size=1, max_size=3))
# known cases: E = 0 (r = 0), a sample of lambda E - A that once
# overflowed in the regularity test, and an integer too large for a double
@example([_replace(("E",), [[0.0] * 3] * 3), _replace(("A",), np.eye(3).tolist())])
@example([_replace(("A",), np.diag([1e308, 1.0, 1.0]).tolist())])
@example([_set_entry(_FUZZ_MATRICES[1], 0, 0, 10 ** 400)])
def test_cli_fuzz_malformed_problem_files_exit_with_one_line(mutations):
    # every command ends with a documented exit code and one stderr
    # line, whatever the problem file holds; warnings count as lines.
    # A file the problem schema rejects is a usage error (exit 1).
    prob = lane_problem_dict()
    for mutate in mutations:
        with contextlib.suppress(KeyError, IndexError, TypeError, AttributeError):
            mutate(prob)
    malformed = not _PROBLEM_VALIDATOR.is_valid(prob)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prob.json")
        with open(path, "w") as fh:
            json.dump(prob, fh)
        for argv in (["reduce"], ["forward", "--starts", "2"], ["inverse", "--starts", "0"]):
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([argv[0], path, *argv[1:], "--out", os.path.join(tmp, "rep.json")])
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            assert code in range(6) and len(lines) == 1, (argv, code, lines)
            assert "Traceback" not in lines[0]
            assert code == 1 or not malformed, (argv, code, lines)
