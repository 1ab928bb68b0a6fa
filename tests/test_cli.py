"""End-to-end command-line workflows over JSON problem files."""
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from dgame.cli import PROBLEM_SCHEMA, REPORT_SCHEMA, main
from conftest import F_GT, LANE_A, LANE_B, LANE_E, Q_GT, R_GT, THETA_MIS

REPO_FIXTURE = Path(__file__).resolve().parent.parent / "problems" / "lane_keeping.json"


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
    from dgame import ThetaLayout
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
                                  ("--horizon", "-1"), ("--horizon", "inf")])
def test_simulate_rejects_bad_time_grid(tmp_path, capsys, span):
    out = tmp_path / "traj.csv"
    assert run(["simulate", REPO_FIXTURE, "--x1-0", "1,0.4", *span, "--out", out]) == 1
    assert one_line_message(capsys, "error: need a finite --dt > 0")
    assert not out.exists()


def test_simulate_grid_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr("dgame.cli.simulate", no_memory)
    out = tmp_path / "traj.csv"
    assert run(["simulate", REPO_FIXTURE, "--x1-0", "1,0.4", "--horizon", "1e9",
                "--dt", "1e-3", "--out", out]) == 1
    assert one_line_message(capsys, "error: cannot allocate 1000000000001 samples")
    assert not out.exists()


def test_simulate_unstable_loop_exits_5(tmp_path):
    prob = lane_problem_dict(with_costs=False)
    prob["F"] = [np.zeros((1, 3)).tolist(), np.zeros((1, 3)).tolist()]
    path = tmp_path / "unstable.json"
    path.write_text(json.dumps(prob))
    assert run(["simulate", path, "--x1-0", "1,0", "--out", tmp_path / "t.csv"]) == 5


def test_simulate_preimage_members_share_inputs(tmp_path):
    # two distinct realizations of the same reduced behavior produce
    # byte-similar input columns
    from dgame import preimage_sample, reduce_feedback, reduce_game
    from conftest import lane_game, lane_profile_gt
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
    assert stderr_of(json.dumps({"E": [[1.0]]})) == (
        "error: problem file schema violation: 'A' is a required property\n")
    # several violations: the message names the best match
    assert stderr_of(json.dumps({"E": "x", "B": []})) == (
        "error: problem file schema violation: 'A' is a required property\n")
    prob = lane_problem_dict()
    prob["costs"]["Q"] = [[["a"]]]
    assert stderr_of(json.dumps(prob)) == (
        "error: problem file schema violation: 'a' is not of type 'number'\n")
    # dimension mismatch caught by validation
    prob = lane_problem_dict()
    prob["B"] = [[[1.0], [0.0]]]
    assert stderr_of(json.dumps(prob)) == "error: B[0] must have 3 rows\n"


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
                         "error: theta[0] has a null or non-finite entry"),
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
    "nash-trials-negative": (["verify", REPO_FIXTURE, "--theta", "theta.json",
                              "--nash-trials", -1],
                             {"theta.json": json.dumps({"theta": [[1.0] * 8, [1.0] * 8]})},
                             "error: --nash-trials must be >= 0"),
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs about 0.1 s of every CLI start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_FIXTURE.parent.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dgame.cli; print('scipy.optimize' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
