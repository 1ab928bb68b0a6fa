"""Command-line front end: descriptor-game workflows over JSON problem files.

    dgame reduce     problem.json            pencil analysis + reduction
    dgame forward    problem.json            enumerate feedback Nash equilibria
    dgame inverse    problem.json            identify costs from an observed feedback
    dgame misspecify problem.json            identify under E=I, evaluate the damage
    dgame verify     problem.json --theta f  membership check for candidate costs
    dgame simulate   problem.json            closed-loop trajectory CSV

Problem files carry the dynamics (``E``, ``A``, ``B``), optionally one
cost set (``costs``), named alternates (``cost_sets``, selected with
``--costs``), an observed feedback (``F``) and identification constraints;
:func:`load_problem` is their only check.  Reports are JSON with floats at
17 significant digits, written atomically, so identical inputs and seeds
give byte-identical output; ``simulate`` writes its CSV as it computes the
samples, into a file the same atomic way.  Exit codes: 0 success, 1 usage/malformed input
(including a malformed command line, a file that cannot be read or written,
a missing key or a wrong JSON type, a ragged or non-finite matrix and an
out-of-range or empty ``support``), 2 model assumption violated (including
a pencil singular to working precision, a game without dynamic state
(r = 0) and an effective input weight that is not positive definite), 3 no
equilibrium found, 4 solution set empty, 5 unstable closed loop.  Each
failure prints one line on standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import __version__
from .feedback import (
    FeedbackProfile,
    UnstableLoopError,
    _format_rows,
    _write_csv,
    fit_feedback,
    read_trajectory_csv,
    reduce_feedback,
    simulate,
    simulate_blocks,
)
from .game import (
    CostParameters,
    DescriptorGame,
    StaticGameError,
    UnstabilizableError,
    reduce_game,
)
from .inverse import (
    Constraints,
    ThetaLayout,
    constraint_matrices,
    dimension_report,
    identify,
    match_behaviors,
    pd_margin,
    rationalized_behaviors,
    residual as theta_residual,
)
from .forward import (
    IndefiniteInputWeightError,
    SolveOptions,
    certify_nash,
    solve_fbne,
)
from .linalg import sorted_spectrum
from .pencil import ImpulsiveModesError, IrregularPencilError

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ASSUMPTION = 2
EXIT_NO_SOLUTION = 3
EXIT_INFEASIBLE = 4
EXIT_UNSTABLE = 5

#: horizon and step of the error trajectories of ``misspecify --traj-out``
_ERROR_HORIZON, _ERROR_DT = 6.0, 0.01


class UsageError(ValueError):
    """Malformed problem content or missing inputs for the command."""


def _float_row(k: int) -> str:
    """The %-template of a flat list of ``k`` floats."""
    return "[" + ", ".join(["%.17g"] * k) + "]"


def _fmt_json(obj, indent=0) -> str:
    """JSON with floats rendered at 17 significant digits (lossless for
    doubles and byte-stable across runs).  A list of exact floats, or a
    list of such lists, is rendered by one ``%`` format call, which
    prints each float as ``format(v, ".17g")`` does."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {_fmt_json(v, indent + 1)}' for k, v in obj.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        kinds = {*map(type, seq)}
        if kinds == {float}:
            return _float_row(len(seq)) % tuple(seq)
        if kinds == {list} and {*map(type, chain.from_iterable(seq))} == {float}:
            rows = ",\n".join(f"{pad}  " + _float_row(len(v)) for v in seq)
            return "[\n" + rows % tuple(chain.from_iterable(seq)) + "\n" + pad + "]"
        flat = all(isinstance(v, (int, float, bool)) or v is None for v in seq)
        if flat:
            return "[" + ", ".join(_fmt_json(v) for v in seq) + "]"
        items = ",\n".join(f"{pad}  {_fmt_json(v, indent + 1)}" for v in seq)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".17g")
    return json.dumps(obj)


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failure to write ``path`` into a one-line usage error."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


@contextlib.contextmanager
def _atomic_open(path: str, newline: str | None = None):
    """A text stream to a temporary file beside ``path`` that replaces
    ``path`` once the block ends, with the mode ``open`` gives a new file;
    if the block fails, the temporary file is removed and ``path`` is left
    as it was.  An existing ``path`` that is not a regular file (a FIFO or
    a device) is written in place, never replaced."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    umask = os.umask(0o22)
    os.umask(umask)
    with _writing(path):
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", newline=newline) as fh:
                yield fh
            return
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            os.chmod(tmp, 0o666 & ~umask)
            with os.fdopen(fd, "w", newline=newline) as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def _write_atomic(path: str, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _emit_report(report: dict, out_path: str | None) -> None:
    text = _fmt_json(report) + "\n"
    if out_path:
        _write_atomic(out_path, text)
    else:
        sys.stdout.write(text)


def _mat(x) -> list:
    return np.asarray(x, dtype=float).tolist()


def _spec_pairs(spectrum) -> list:
    return [[float(s.real), float(s.imag)] for s in np.asarray(spectrum, dtype=complex)]


@dataclass
class Problem:
    game: DescriptorGame
    costs: CostParameters | None
    cost_sets: dict
    f_observed: FeedbackProfile | None
    constraints: Constraints


_ARRAY_KINDS = {1: "vector (a non-empty list of numbers)",
                2: "matrix (a non-empty list of non-empty lists of numbers)",
                3: "matrix list (a non-empty list of matrices, each a non-empty list "
                   "of non-empty lists of numbers)"}
_JSON_TYPES = {list: "array", dict: "object", bool: "boolean"}


def _check_numbers(raw, field: str, depth: int = 2) -> None:
    """Check that ``raw`` nests non-empty lists ``depth`` deep around ints
    or floats (booleans, strings and null are not numbers); ragged rows
    pass here and fail in :func:`_array`."""
    level = [raw]
    for _ in range(depth):
        if not all(type(v) is list and v for v in level):
            break
        level = list(chain.from_iterable(level))
    else:
        if {*map(type, level)} <= {int, float}:
            return
    raise UsageError(f"{field} is not a numeric {_ARRAY_KINDS[depth]}")


def _array(raw, field: str) -> np.ndarray:
    """The floats of an array that :func:`_check_numbers` passed; ragged
    rows, a NaN or infinite entry or an integer too large for a double
    are a usage error naming ``field``."""
    try:
        m = np.array(raw, dtype=float)
    except ValueError:
        raise UsageError(f"{field} is ragged: its rows differ in length") from None
    except OverflowError:
        raise UsageError(f"{field} has an integer too large for a double") from None
    if not np.isfinite(m).all():
        raise UsageError(f"{field} has a NaN or infinite entry")
    return m


def _check_type(raw, kind: type, field: str, required=()):
    """``raw`` if it has the JSON type ``kind`` and the ``required`` keys."""
    if type(raw) is not kind:
        raise UsageError(f"{field} must be a JSON {_JSON_TYPES[kind]}")
    for key in required:
        if key not in raw:
            raise UsageError(f"{field} has no {key!r}")
    return raw


def _check_costs(raw, where: str) -> None:
    raw = _check_type(raw, dict, where, ("Q", "R"))
    _check_numbers(raw["Q"], f"{where} Q", depth=3)
    for i, row in enumerate(_check_type(raw["R"], list, f"{where} R")):
        for j, rij in enumerate(_check_type(row, list, f"{where} R[{i}]")):
            _check_numbers(rij, f"{where} R[{i}][{j}]")


def _check_problem(raw) -> None:
    """Check the keys and JSON types of the whole problem file (the README
    gives its format) before any of it is used; unknown keys pass."""
    raw = _check_type(raw, dict, "problem file", ("E", "A", "B"))
    for key, depth in (("E", 2), ("A", 2), ("B", 3), ("F", 3)):
        if key in raw:
            _check_numbers(raw[key], key, depth)
    if "costs" in raw:
        _check_costs(raw["costs"], "costs")
    for name, body in _check_type(raw.get("cost_sets", {}), dict, "cost_sets").items():
        _check_costs(body, f"cost set {name!r}")
    craw = _check_type(raw.get("constraints", {}), dict, "constraints")
    _check_type(craw.get("diagonal_q", False), bool, "constraints diagonal_q")
    for k in _check_type(craw.get("support", []), list, "constraints support"):
        if not (type(k) is int or type(k) is float and k.is_integer()):
            raise UsageError("constraints support must hold integer indices")


def _parse_costs(raw, n: int, input_dims, where: str) -> CostParameters:
    qs = [_array(qi, f"{where} Q[{i}]") for i, qi in enumerate(raw["Q"])]
    rs = [[_array(rij, f"{where} R[{i}][{j}]") for j, rij in enumerate(row)]
          for i, row in enumerate(raw["R"])]
    n_players = len(input_dims)
    if len(qs) != n_players or len(rs) != n_players:
        raise UsageError(f"{where} must supply one Q and one R row per player")
    for i, qi in enumerate(qs):
        if qi.shape != (n, n):
            raise UsageError(f"{where} Q[{i}] must be {n}x{n}")
    for i, row in enumerate(rs):
        if len(row) != n_players:
            raise UsageError(f"{where} R[{i}] must have one block per player")
        for j, (rij, mj) in enumerate(zip(row, input_dims)):
            if rij.shape != (mj, mj):
                raise UsageError(f"{where} R[{i}][{j}] must be {mj}x{mj}")
    try:
        return CostParameters(q=tuple(qs), r=tuple(tuple(row) for row in rs))
    except ValueError as exc:
        raise UsageError(f"{where} {exc}") from exc


def load_problem(path: str) -> Problem:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read problem file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"problem file is not valid JSON: {exc}") from exc
    _check_problem(raw)
    e, a = _array(raw["E"], "E"), _array(raw["A"], "A")
    bs = tuple(_array(bi, f"B[{i}]") for i, bi in enumerate(raw["B"]))
    n = e.shape[0]
    if e.shape != (n, n) or a.shape != (n, n):
        raise UsageError("E and A must be square matrices of equal size")
    for i, bi in enumerate(bs):
        if bi.shape[0] != n:
            raise UsageError(f"B[{i}] must have {n} rows")
    game = DescriptorGame(e, a, bs)  # assumption violations propagate
    input_dims = game.input_dims
    costs = _parse_costs(raw["costs"], n, input_dims, "costs") if "costs" in raw else None
    cost_sets = {
        name: _parse_costs(body, n, input_dims, f"cost set {name!r}")
        for name, body in raw.get("cost_sets", {}).items()
    }
    f_observed = None
    if "F" in raw:
        fs = [_array(fi, f"F[{i}]") for i, fi in enumerate(raw["F"])]
        if len(fs) != len(bs):
            raise UsageError("F must supply one gain block per player")
        for i, fi in enumerate(fs):
            if fi.shape != (input_dims[i], n):
                raise UsageError(f"F[{i}] must be {input_dims[i]}x{n}")
        f_observed = FeedbackProfile(tuple(fs))
    craw = raw.get("constraints", {})
    constraints = Constraints(
        diagonal_q=craw.get("diagonal_q", False),
        support=tuple(craw["support"]) if "support" in craw else None,
    )
    try:
        constraints.kept_indices(ThetaLayout(n=n, input_dims=input_dims))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return Problem(game=game, costs=costs, cost_sets=cost_sets,
                   f_observed=f_observed, constraints=constraints)


def _select_costs(problem: Problem, args) -> CostParameters:
    name = getattr(args, "costs", None)
    if name:
        if name not in problem.cost_sets:
            raise UsageError(
                f"cost set {name!r} not in problem file "
                f"(available: {sorted(problem.cost_sets)})"
            )
        return problem.cost_sets[name]
    if problem.costs is None:
        raise UsageError("problem file has no costs (add a 'costs' block or use --costs)")
    return problem.costs


def _meta(args) -> dict:
    return {
        "version": __version__,
        "command": args.command,
        "seed": int(args.seed),
        "tol": float(args.tol),
        "starts": int(args.starts),
        "eps_pd": float(args.eps_pd),
        "problem": os.path.basename(args.problem),
    }


def _solve_opts(args) -> SolveOptions:
    return SolveOptions(n_starts=int(args.starts), seed=int(args.seed), tol=float(args.tol))


def _pencil_section(rg) -> dict:
    """The pencil analysis behind the reduction ``rg``; the pencil is
    regular, since constructing the game raises otherwise."""
    return {
        "regular": True,
        "index": rg.w.index,
        "r": rg.r,
        "finite_spectrum": _spec_pairs(sorted_spectrum(rg.w.eigenvalues)),
    }


def _observed_profile(problem: Problem, rg, args) -> FeedbackProfile:
    """Observed full-state profile, from F in the file or a trajectory CSV."""
    traj_path = getattr(args, "traj", None)
    if traj_path:
        try:
            traj = read_trajectory_csv(traj_path, input_dims=rg.input_dims)
            if traj.x.shape[1] != rg.n:
                raise ValueError(f"{traj.x.shape[1]} state columns, expected n={rg.n}")
            return fit_feedback(traj).profile
        except OSError as exc:
            raise UsageError(f"cannot read trajectory file: {exc}") from exc
        except ValueError as exc:
            raise UsageError(f"malformed trajectory file {traj_path}: {exc}") from exc
    if problem.f_observed is None:
        raise UsageError("command needs an observed feedback: provide 'F' or --traj")
    return problem.f_observed


def cmd_reduce(args, problem: Problem, rg) -> int:
    report = {
        "meta": _meta(args),
        "pencil": _pencil_section(rg),
        "reduced": {
            # tied to the toolkit's deterministic decomposition; spectra and
            # membership verdicts are the decomposition-free quantities
            "J": _mat(rg.j),
            "B1": [_mat(b) for b in rg.b1],
            "B2": [_mat(b) for b in rg.b2],
            "X": _mat(rg.w.x),
            "Y": _mat(rg.w.y),
        },
    }
    _emit_report(report, args.out)
    if rg.n > rg.r:
        mode = f"descriptor game, index {rg.w.index}"
    else:
        mode = "standard state-space game (E invertible, index 0)"
    print(f"reduce: n={rg.n}, r={rg.r}; {mode}", file=sys.stderr)
    return EXIT_OK


def cmd_forward(args, problem: Problem, rg) -> int:
    sols = solve_fbne(rg, _select_costs(problem, args), _solve_opts(args))
    report = {
        "meta": _meta(args),
        "pencil": _pencil_section(rg),
        "forward": [
            {
                "f_star": _mat(s.f_star.matrix),
                "p": [_mat(p) for p in s.p],
                "spectrum": _spec_pairs(s.spectrum),
                "residual_max": s.residual_max,
                "residual_scale": s.residual_scale,
                "iterations": int(s.iterations),
                "start": s.start,
            }
            for s in sols
        ],
    }
    _emit_report(report, args.out)
    print(f"forward: {len(sols)} stabilizing solution(s)", file=sys.stderr)
    return EXIT_OK if sols else EXIT_NO_SOLUTION


def _inverse_section(rg, cert) -> dict:
    dims = dimension_report(cert, rg)
    players = []
    for i, pc in enumerate(cert.players):
        players.append({
            "player": i,
            "residual": pc.residual,
            "pd_margin": pc.pd_margin,
            "feasible": pc.feasible,
            "theta": [float(v) for v in pc.theta],
            "kernel_dim": pc.kernel_dim,
            "bound": int(dims[i]["bound"]),
        })
    return {"players": players, "feasible": cert.feasible}


def _behaviors_section(sols, matches) -> dict:
    """The equilibria ``sols`` and which of them reproduce the observed
    behavior."""
    return {
        "count": len(sols),
        "matching": int(sum(matches)),
        "matches": [bool(m) for m in matches],
        "spectra": [_spec_pairs(s.spectrum) for s in sols],
    }


def cmd_inverse(args, problem: Problem, rg) -> int:
    f_red = reduce_feedback(rg, _observed_profile(problem, rg, args))
    cert = identify(rg, f_red, problem.constraints, args.eps_pd)
    report = {
        "meta": _meta(args),
        "pencil": _pencil_section(rg),
        "inverse": _inverse_section(rg, cert),
    }
    if cert.feasible:
        rep = rationalized_behaviors(rg, cert, _solve_opts(args))
        report["behaviors"] = _behaviors_section(rep.solutions, rep.matches)
    _emit_report(report, args.out)
    verdict = "feasible" if cert.feasible else "solution set empty"
    print(f"inverse: {verdict}; residuals "
          + ", ".join(f"{p.residual:.2e}" for p in cert.players), file=sys.stderr)
    return EXIT_OK if cert.feasible else EXIT_INFEASIBLE


def cmd_misspecify(args, problem: Problem, rg) -> int:
    game = problem.game
    f_obs = _observed_profile(problem, rg, args)
    f_red_true = reduce_feedback(rg, f_obs)
    already_ode = bool(np.allclose(game.e, np.eye(game.n)))
    ode_game = DescriptorGame(np.eye(game.n), game.a, game.b)
    rg_ode = reduce_game(ode_game)
    f_red_ode = reduce_feedback(rg_ode, f_obs)
    cert_ode = identify(rg_ode, f_red_ode, problem.constraints, args.eps_pd)
    # evaluate the ODE-identified parameters against the true descriptor
    # kernel conditions at the observed feedback
    ms_true = constraint_matrices(rg, f_red_true)
    layout = ThetaLayout(n=rg.n, input_dims=rg.input_dims)
    desc_res = [theta_residual(ms_true[i], cert_ode.players[i].theta)
                for i in range(rg.n_players)]
    desc_margin = [pd_margin(rg, layout, i, cert_ode.players[i].theta)
                   for i in range(rg.n_players)]
    section = {
        "already_state_space": already_ode,
        "ode_players": [
            {
                "player": i,
                "theta": [float(v) for v in pc.theta],
                "ode_residual": pc.residual,
                "feasible": pc.feasible,
            }
            for i, pc in enumerate(cert_ode.players)
        ],
        "descriptor_residuals": [float(v) for v in desc_res],
        "descriptor_margins": [float(v) for v in desc_margin],
        "identification_consistent": bool(
            all(v <= 1e-6 * (1.0 + np.linalg.norm(ms_true[i], 2))
                for i, v in enumerate(desc_res))
        ),
    }
    report = {
        "meta": _meta(args),
        "pencil": _pencil_section(rg),
        "misspecify": section,
    }
    # the ODE-identified costs can leave a descriptor input weight
    # indefinite, and the forward game is then not posed
    failure = ""
    try:
        sols = solve_fbne(rg, cert_ode.costs(), _solve_opts(args))
    except IndefiniteInputWeightError as exc:
        sols, failure = [], f" (forward solve on misspecified costs failed: {exc})"
    report["behaviors"] = _behaviors_section(sols, match_behaviors(f_red_true, sols))
    if args.traj_out:
        _write_atomic(args.traj_out, _error_trajectories_csv(rg, f_red_true, sols))
    _emit_report(report, args.out)
    print("misspecify: descriptor residuals "
          + ", ".join(f"{v:.4f}" for v in desc_res) + failure, file=sys.stderr)
    return EXIT_OK if cert_ode.feasible else EXIT_INFEASIBLE


def _error_trajectories_csv(rg, f_red_obs, sols) -> str:
    """CSV of state/control error norms of each misspecified equilibrium
    loop against the observed loop, from the shared reduced initial state,
    over ``_ERROR_HORIZON`` in steps of ``_ERROR_DT``."""
    x1_0 = np.ones(rg.r)
    obs = simulate(rg, f_red_obs, x1_0, _ERROR_HORIZON, _ERROR_DT)
    cols = {"t": obs.times}
    for k, s in enumerate(sols):
        traj = simulate(rg, s.f_star, x1_0, _ERROR_HORIZON, _ERROR_DT)
        cols[f"xerr{k+1}"] = np.linalg.norm(traj.x - obs.x, axis=1)
        cols[f"uerr{k+1}"] = np.linalg.norm(traj.u - obs.u, axis=1)
    out = io.StringIO()
    out.write(",".join(cols) + "\n")
    _format_rows(list(cols.values()), out, "\n")
    return out.getvalue()


def cmd_verify(args, problem: Problem, rg) -> int:
    f_red = reduce_feedback(rg, _observed_profile(problem, rg, args))
    layout = ThetaLayout(n=rg.n, input_dims=rg.input_dims)
    try:
        with open(args.theta) as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read theta file: {exc}") from exc
    thetas_raw = raw["theta"] if isinstance(raw, dict) and "theta" in raw else raw
    if not isinstance(thetas_raw, list) or len(thetas_raw) != rg.n_players:
        raise UsageError(f"theta file must hold one vector per player ({rg.n_players})")
    thetas = []
    for i, tvec in enumerate(thetas_raw):
        _check_numbers(tvec, f"theta[{i}]", depth=1)
        tvec = _array(tvec, f"theta[{i}]")
        if tvec.size != layout.size:
            raise UsageError(f"theta[{i}] has length {tvec.size}, expected L={layout.size}")
        thetas.append(tvec)
    ms = constraint_matrices(rg, f_red)
    eps = float(args.eps_pd)
    players = []
    for i, tvec in enumerate(thetas):
        res = theta_residual(ms[i], tvec)
        margin = pd_margin(rg, layout, i, tvec)
        member = bool(
            res <= 1e-6 * (1.0 + np.linalg.norm(ms[i], 2)) * (1.0 + np.linalg.norm(tvec))
            and margin > eps * (1.0 + np.linalg.norm(tvec))
        )
        players.append({
            "player": i,
            "residual": float(res),
            "pd_margin": float(margin),
            "member": member,
        })
    verify_section = {"players": players, "all_members": all(p["member"] for p in players)}
    if verify_section["all_members"]:
        # certify the equilibrium property of the observed loop under the
        # candidate costs by the forward solver's acceptance test
        ok, _ = certify_nash(rg, layout.costs_from_thetas(thetas), f_red, args.tol)
        verify_section["nash_spot_check"] = bool(ok)
    report = {
        "meta": _meta(args),
        "verify": verify_section,
    }
    _emit_report(report, args.out)
    verdict = "member" if verify_section["all_members"] else "non-member"
    print(f"verify: {verdict}", file=sys.stderr)
    return EXIT_OK


def cmd_simulate(args, problem: Problem, rg) -> int:
    if problem.f_observed is None:
        raise UsageError("simulate needs a feedback 'F' in the problem file")
    try:
        x1_0 = np.array([float(v) for v in args.x1_0.split(",")])
    except ValueError as exc:
        raise UsageError(f"cannot parse --x1-0: {exc}") from exc
    if x1_0.size != rg.r:
        raise UsageError(f"--x1-0 must have r={rg.r} entries")
    if not np.isfinite(x1_0).all():
        raise UsageError("--x1-0 must have finite entries")
    if not (0.0 < args.dt < np.inf and 0.0 <= args.horizon < np.inf
            and args.horizon / args.dt < np.inf):
        raise UsageError("need a finite --dt > 0 and a finite --horizon >= 0, "
                         "with a finite --horizon / --dt")
    samples = int(round(args.horizon / args.dt)) + 1
    try:
        blocks = simulate_blocks(rg, problem.f_observed, x1_0, args.horizon, args.dt)
        # the rows are written as they are simulated; a file appears only whole
        if args.out:
            with _atomic_open(args.out, newline="") as fh:
                _write_csv(fh, rg.n, rg.m, blocks)
        else:
            with _writing("standard output"):
                _write_csv(sys.stdout, rg.n, rg.m, blocks)
    except MemoryError as exc:
        raise UsageError(f"cannot allocate {samples} samples; "
                         "raise --dt or lower --horizon") from exc
    print(f"simulate: {samples} samples over {args.horizon}s", file=sys.stderr)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a usage error (exit 1) instead
    of argparse's exit 2, which is ``EXIT_ASSUMPTION`` here; subcommand
    parsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: parsing leaves it unchanged, so :func:`main` may run any
    number of times in one process."""
    parser = _Parser(
        prog="dgame",
        description="Forward and inverse linear-quadratic descriptor differential games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--out", help="write the JSON report (or CSV for simulate) here")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the forward solver's starts (default 0)")
        p.add_argument("--tol", type=float, default=1e-9,
                       help="solver tolerance, a normwise backward error (default 1e-9)")
        p.add_argument("--starts", type=int, default=64,
                       help="multistart count for the forward solver (default 64)")
        p.add_argument("--eps-pd", dest="eps_pd", type=float, default=1e-8,
                       help="definiteness margin threshold (default 1e-8)")

    p = sub.add_parser("reduce", help="pencil analysis and game reduction")
    common(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("forward", help="enumerate feedback Nash equilibria")
    common(p)
    p.add_argument("--costs", help="pick a named cost set from 'cost_sets'")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("inverse", help="identify costs rationalizing the observed feedback")
    common(p)
    p.add_argument("--traj", help="trajectory CSV to fit the observed feedback from")
    p.set_defaults(func=cmd_inverse)

    p = sub.add_parser("misspecify", help="identify under E=I and quantify the damage")
    common(p)
    p.add_argument("--traj", help="trajectory CSV to fit the observed feedback from")
    p.add_argument("--traj-out", dest="traj_out",
                   help="write state/control error trajectories CSV here")
    p.set_defaults(func=cmd_misspecify)

    p = sub.add_parser("verify", help="membership check for candidate cost parameters")
    common(p)
    p.add_argument("--theta", required=True, help="JSON file with per-player theta vectors")
    p.add_argument("--traj", help="trajectory CSV to fit the observed feedback from")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", help="closed-loop trajectory CSV")
    common(p)
    p.add_argument("--x1-0", dest="x1_0", required=True,
                   help="comma-separated reduced initial state (length r)")
    p.add_argument("--horizon", type=float, default=10.0, help="simulation horizon in seconds")
    p.add_argument("--dt", type=float, default=0.01, help="sample step in seconds")
    p.set_defaults(func=cmd_simulate)
    return parser


def _check_options(args) -> None:
    """Reject option values under which verdicts or counts mean nothing."""
    if not 0.0 <= args.eps_pd < np.inf:
        raise UsageError("--eps-pd must be finite and >= 0")
    if not 0.0 < args.tol < np.inf:
        raise UsageError("--tol must be finite and > 0")
    if args.starts < 0:
        raise UsageError("--starts must be >= 0")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_options(args)
        problem = load_problem(args.problem)
        return args.func(args, problem, reduce_game(problem.game))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (IrregularPencilError, ImpulsiveModesError, StaticGameError,
            UnstabilizableError, IndefiniteInputWeightError) as exc:
        print(f"assumption violated: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTION
    except UnstableLoopError as exc:
        print(f"unstable loop: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE


if __name__ == "__main__":
    sys.exit(main())
