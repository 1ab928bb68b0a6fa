"""Forward game solver: stabilizing solutions of the coupled Riccati system.

A reduced feedback F is a feedback Nash equilibrium iff there are
symmetric P_i with stable A_cl = J + B1 F solving, for every player,

    A_cl' P_i + P_i A_cl + [I; F]' M_i [I; F] = 0          (Riccati)
    G F = -(V' + Bd' P)                                    (stationarity)

where G collects the effective input weights and cross couplings, V the
state/input couplings and Bd the block-diagonal input map.  The solver
runs damped policy iteration (each half step is a linear Lyapunov solve)
from a spread of starts, all of them in lockstep: every iteration is one
stacked numpy call per operation over the starts still running, and a
start leaves that set as soon as it converges, leaves the stabilizing
region or fails a solve, with the same outcome it would have on its own.
Each converged start is then polished, and each start that stalls or
fails gets a Newton fallback, on the stacked residual system: MINPACK's
``hybr`` with a finite-difference Jacobian, over one residual evaluator
that each solve builds once and that also gives every reported
residual.  Coupled Riccati systems can have several stabilizing
solutions, so enumeration is heuristic multistart and completeness is
only ever validated at test scale.  G and V are read out of the
players' reduced cost matrices M_i (:func:`dgame.game.m_matrix`); the
damping floor and the deduplication distance are fixed module
constants, and only the start count, seed, tolerance and iteration cap
are options.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.optimize import root

from .feedback import ReducedFeedback
from .game import CostParameters, ReducedGame, gbar_matrix, m_matrix
from .linalg import (
    is_stable,
    solve_lyapunov,
    solve_lyapunov_stack,
    sorted_spectrum,
    symmetrize,
)

__all__ = [
    "SolveOptions",
    "CareResiduals",
    "EquilibriumSolution",
    "IndefiniteInputWeightError",
    "care_residual",
    "solution_at",
    "solve_fbne",
    "equilibrium_cost",
    "verify_nash_local",
]


#: smallest damping factor of the policy iteration's step
DAMPING_FLOOR = 1.0 / 16.0

#: relative max-entry distance under which two feedbacks are one solution
DEDUP_TOL = 1e-5


class IndefiniteInputWeightError(ValueError):
    """Some player's effective own-input weight is not positive definite."""


@dataclass(frozen=True)
class SolveOptions:
    """Multistart solver options; ``tol`` is relative to the data scale."""

    n_starts: int = 64
    seed: int = 0
    tol: float = 1e-9
    max_iter: int = 300


@dataclass(frozen=True)
class CareResiduals:
    """Exact residual matrices of the coupled system at a candidate point."""

    care: tuple[np.ndarray, ...]
    stationarity: np.ndarray
    care_norms: tuple[float, ...]
    stationarity_norm: float
    scale: float

    @property
    def max_norm(self) -> float:
        return max(self.stationarity_norm, max(self.care_norms, default=0.0))


@dataclass(frozen=True)
class EquilibriumSolution:
    """One stabilizing solution: reduced feedback, value matrices, diagnostics."""

    f_star: ReducedFeedback
    p: tuple[np.ndarray, ...]
    a_cl: np.ndarray
    spectrum: np.ndarray
    residuals: CareResiduals
    iterations: int
    start: str = ""


def _data_scale(rg: ReducedGame, ms) -> float:
    """1 + max-entry scale of the reduced data (J, B1 and every M_i); makes
    tolerances meaningful under the positive-scaling freedom of the cost
    parameters."""
    scale = 1.0
    scale = max(scale, np.abs(rg.j).max(initial=0.0))
    scale = max(scale, np.abs(rg.b1_stacked).max(initial=0.0))
    for m_i in ms:
        scale = max(scale, np.abs(m_i).max(initial=0.0))
    return 1.0 + scale


def _care_terms(rg: ReducedGame, c: CostParameters):
    """``(ms, gbar, vbar_t)``: every M_i, the stationarity operator G and
    the m x r stack V' of the players' own couplings v_bar[i][i]', read
    out of rows r + s_i, columns :r of M_i."""
    ms = [m_matrix(rg, c, i) for i in range(rg.n_players)]
    own = [rg.input_slice(i) for i in range(rg.n_players)]
    vbar_t = np.vstack([m_i[rg.r + s.start:rg.r + s.stop, :rg.r] for m_i, s in zip(ms, own)])
    return ms, gbar_matrix(rg, c), vbar_t


class _ResidualSystem:
    """The coupled residual system of one game and cost set.

    Built once per solve from ``(rg, ms, gbar, vbar_t)``, it holds what
    no evaluation changes: J, B1 and the B1_i' blocks, the data scale,
    the upper-triangle index of a value matrix and its mirror, and the
    [I; F] buffer with its identity rows written.  :meth:`residuals`
    (the residual matrices) and :meth:`vector` (the packed system that
    ``root`` solves) share one evaluation, whose products are the
    per-player 2-D formulas of the module docstring in a fixed operand
    order, so both read the same bits.
    """

    def __init__(self, rg: ReducedGame, ms, gbar, vbar_t):
        r, m, n_players = rg.r, rg.m, rg.n_players
        self.r, self.m = r, m
        self.j, self.b1 = rg.j, rg.b1_stacked
        self.b1_t = [b.T for b in rg.b1]
        self.rows = [rg.input_slice(i) for i in range(n_players)]
        self.ms, self.gbar, self.vbar_t = ms, gbar, vbar_t
        self.scale = _data_scale(rg, ms)
        iu = np.triu_indices(r)
        nn = iu[0].size
        self.iu_flat = np.ravel_multi_index(iu, (r, r))
        # entry (a, b) of P_k sits at the packed triangle index of
        # (min(a, b), max(a, b)) in player k's block
        mirror = np.empty((r, r), dtype=np.intp)
        mirror[iu] = mirror[iu[::-1]] = np.arange(nn)
        self.mirror = mirror + nn * np.arange(n_players)[:, None, None]
        self.x = np.zeros((r + m, r))
        self.x[:r] = np.eye(r)
        self.size = m * r + n_players * nn
        self.tri = [slice(m * r + k * nn, m * r + (k + 1) * nn) for k in range(n_players)]

    def _matrices(self, f, p_list):
        """Stationarity residual G F + V' + Bd' P and each player's Riccati
        residual A_cl' P_i + P_i A_cl + [I; F]' M_i [I; F]."""
        a_cl = self.j + self.b1 @ f
        x = self.x
        x[self.r:] = f
        care = [a_cl.T @ p + p @ a_cl + x.T @ m_i @ x for p, m_i in zip(p_list, self.ms)]
        stat = self.gbar @ f + self.vbar_t
        for rows, b_t, p in zip(self.rows, self.b1_t, p_list):
            stat[rows] += b_t @ p
        return stat, care

    def residuals(self, f, p_list) -> CareResiduals:
        """Both residual families at (f, p_list) with their max-norms."""
        stat, care = self._matrices(f, p_list)
        return CareResiduals(
            care=tuple(care),
            stationarity=stat,
            care_norms=tuple(float(np.abs(c).max(initial=0.0)) for c in care),
            stationarity_norm=float(np.abs(stat).max(initial=0.0)),
            scale=self.scale,
        )

    def pack(self, f, p_list) -> np.ndarray:
        """z = [vec(F); upper triangle of each P_i]."""
        return np.concatenate([f.reshape(-1)] + [p.take(self.iu_flat) for p in p_list])

    def unpack(self, z):
        """``(f, p_list)`` of a packed point; ``f`` is a view into ``z``."""
        mr = self.m * self.r
        # + 0.0 turns a packed -0.0 into +0.0, as symmetrizing by a sum would
        p = (z[mr:] + 0.0).take(self.mirror)
        return z[:mr].reshape(self.m, self.r), list(p)

    def vector(self, z) -> np.ndarray:
        """The packed residual at z: vec of the stationarity residual, then
        the upper triangle of each Riccati residual.  The output array is
        new at every call: ``hybr`` keeps the array it is handed."""
        f, p_list = self.unpack(z)
        stat, care = self._matrices(f, p_list)
        out = np.empty(self.size)
        out[:stat.size] = stat.reshape(-1)
        for tri, c in zip(self.tri, care):
            out[tri] = c.take(self.iu_flat)
        return out


def care_residual(rg: ReducedGame, c: CostParameters,
                  f_red: ReducedFeedback | np.ndarray,
                  p: list[np.ndarray]) -> CareResiduals:
    """Residual matrices and max-norms of both equation families at
    (f_red, p); purely evaluative, no solving."""
    f = f_red.matrix if isinstance(f_red, ReducedFeedback) else np.asarray(f_red, dtype=float)
    system = _ResidualSystem(rg, *_care_terms(rg, c))
    return system.residuals(f, [symmetrize(pi) for pi in p])


def _lyapunov_values(rg, ms, f):
    """Value matrices implied by a stabilizing f via per-player Lyapunov solves."""
    a_cl = rg.j + rg.b1_stacked @ f
    stacked = np.vstack([np.eye(rg.r), f])
    return [solve_lyapunov(a_cl, stacked.T @ ms[i] @ stacked) for i in range(rg.n_players)]


def solution_at(rg: ReducedGame, c: CostParameters,
                f_red: ReducedFeedback) -> EquilibriumSolution:
    """The candidate solution of ``c`` at a stabilizing reduced feedback.

    The value matrices come from per-player Lyapunov solves, so the
    Riccati residuals are at rounding level and the stationarity residual
    measures how far ``f_red`` is from an equilibrium (which
    :func:`verify_nash_local` spot-checks directly).  Raises what
    :func:`dgame.linalg.solve_lyapunov` raises when the loop admits no
    unique value matrices.
    """
    system = _ResidualSystem(rg, *_care_terms(rg, c))
    f = f_red.matrix
    p_list = _lyapunov_values(rg, system.ms, f)
    a_cl = rg.j + rg.b1_stacked @ f
    return EquilibriumSolution(
        f_star=f_red,
        p=tuple(p_list),
        a_cl=a_cl,
        spectrum=sorted_spectrum(np.linalg.eigvals(a_cl)),
        residuals=system.residuals(f, p_list),
        iterations=0,
    )


def _policy_iteration(rg, ms, gbar, vbar_t, f0s, scale, opts):
    """Damped fixed-point iteration from every start in lockstep.

    Each start follows its own iteration: stop with ``None`` once the
    loop is unstable, a Lyapunov solve fails or ``gbar`` is singular;
    stop with ``(f, p_list, iters)`` once the residual is within
    tolerance; otherwise step towards the policy update, halving the
    start's damping (down to ``DAMPING_FLOOR``) whenever its residual
    grew.  All active starts share one stacked numpy call per operation
    and retire from the active set as soon as they stop.
    """
    n_players, r = rg.n_players, rg.r
    f = np.array(f0s, dtype=float).reshape(len(f0s), rg.m, r)
    alpha = np.ones(len(f0s))
    last_res = np.full(len(f0s), np.inf)
    outcomes = [None] * len(f0s)
    active = np.arange(len(f0s))
    for it in range(opts.max_iter):
        if not active.size:
            break
        # drop unstable loops
        fa = f[active]
        a_cl = rg.j + rg.b1_stacked @ fa
        stable = np.max(np.linalg.eigvals(a_cl).real, axis=-1, initial=-np.inf) < 0.0
        active, fa, a_cl = active[stable], fa[stable], a_cl[stable]
        # value matrices, one Lyapunov item per (start, player)
        x = np.concatenate([np.broadcast_to(np.eye(r), a_cl.shape), fa], axis=1)
        x_t = x.transpose(0, 2, 1)
        c = np.stack([x_t @ ms[i] @ x for i in range(n_players)], axis=1)
        p, errors = solve_lyapunov_stack(np.repeat(a_cl, n_players, axis=0),
                                         c.reshape(-1, r, r))
        solved = np.array([e is None for e in errors], dtype=bool).reshape(-1, n_players).all(axis=1)
        active, fa, a_cl = active[solved], fa[solved], a_cl[solved]
        c, p = c[solved], p.reshape(-1, n_players, r, r)[solved]
        # residuals of both equation families
        a_t = a_cl.transpose(0, 2, 1)[:, None]
        care_norm = np.abs(a_t @ p + p @ a_cl[:, None] + c).max(axis=(2, 3), initial=0.0)
        bd_t_p = np.concatenate([rg.b1[i].T @ p[:, i] for i in range(n_players)], axis=1)
        stat = gbar @ fa + vbar_t + bd_t_p
        res = np.maximum(np.abs(stat).max(axis=(1, 2), initial=0.0),
                         care_norm.max(axis=1, initial=0.0))
        done = res <= opts.tol * scale
        for k in np.flatnonzero(done):
            outcomes[active[k]] = (fa[k], list(p[k]), it)
        go = ~done
        active, fa, bd_t_p, res = active[go], fa[go], bd_t_p[go], res[go]
        # damped step towards the policy update
        try:
            f_next = -np.linalg.solve(gbar, vbar_t + bd_t_p)
        except np.linalg.LinAlgError:
            return outcomes
        worse = res > last_res[active]
        alpha[active] = np.where(worse, np.maximum(alpha[active] / 2.0, DAMPING_FLOOR),
                                 alpha[active])
        last_res[active] = res
        f[active] = fa + alpha[active][:, None, None] * (f_next - fa)
    return outcomes


def _newton_refine(system: _ResidualSystem, f0, p0):
    """Newton on the stacked residual system from (f0, p0).

    MINPACK's ``hybr`` solves ``system.vector(z) = 0`` over the packed
    point z (vec F, then the upper triangle of each P_i), building its
    Jacobian from finite differences; returns ``(f, p_list)`` with
    symmetrized value matrices, or ``None`` when ``hybr`` fails.
    """
    sol = root(system.vector, system.pack(f0, p0), method="hybr", tol=1e-13)
    if not sol.success:
        return None
    f, p_list = system.unpack(sol.x)
    return f, [symmetrize(p) for p in p_list]


def _lqr_start(j, b, wq, wr):
    p = sla.solve_continuous_are(j, b, wq, wr)
    return -np.linalg.solve(wr, b.T @ p)


def _starting_points(rg, opts):
    """Deterministic then seeded stabilizing initial gains."""
    starts = []
    r, m = rg.r, rg.m
    try:
        starts.append(("joint-lqr", _lqr_start(rg.j, rg.b1_stacked, np.eye(r), np.eye(m))))
    except Exception:
        pass
    try:
        rows = [_lqr_start(rg.j, rg.b1[i], np.eye(r), np.eye(rg.input_dims[i]))
                for i in range(rg.n_players)]
        starts.append(("per-player-lqr", np.vstack(rows)))
    except Exception:
        pass
    rng = np.random.default_rng(opts.seed)
    for k in range(opts.n_starts):
        g = rng.standard_normal((r, r))
        wq = g @ g.T + 0.1 * np.eye(r)
        wr = np.diag(np.exp(rng.uniform(-2.0, 2.0, size=m)))
        gain_scale = 10.0 ** rng.uniform(-0.5, 1.5)
        try:
            f0 = _lqr_start(rg.j, rg.b1_stacked, wq, wr)
        except Exception:
            continue
        starts.append((f"seeded-{k}", f0))
        # non-stabilizing spread for the Newton fallback: covers solutions
        # whose basins the damped iteration cannot reach
        starts.append((f"seeded-raw-{k}", rng.standard_normal((m, r)) * gain_scale))
    return starts


def solve_fbne(rg: ReducedGame, c: CostParameters,
               opts: SolveOptions | None = None) -> list[EquilibriumSolution]:
    """Enumerate stabilizing solutions of the coupled Riccati system.

    Requires every effective own-input weight r_bar[i][i] to be positive
    definite (raises :class:`IndefiniteInputWeightError`).  Returns the
    deduplicated solutions in a canonical order (lexicographic by rounded
    feedback entries); an empty list means no start converged.
    """
    opts = opts or SolveOptions()
    ms, gbar, vbar_t = _care_terms(rg, c)
    for i in range(rg.n_players):
        si = rg.input_slice(i)
        block = ms[i][rg.r + si.start:rg.r + si.stop, rg.r + si.start:rg.r + si.stop]
        if block.size and np.linalg.eigvalsh(symmetrize(block))[0] <= 0:
            raise IndefiniteInputWeightError(
                f"effective input weight of player {i} is not positive definite"
            )
    system = _ResidualSystem(rg, ms, gbar, vbar_t)
    scale = system.scale
    solutions: list[EquilibriumSolution] = []

    def try_add(f, p_list, res, iters, label):
        a_cl = rg.j + rg.b1_stacked @ f
        if not is_stable(a_cl):
            return
        if res.max_norm > opts.tol * scale:
            return
        for sol in solutions:
            gap = np.abs(sol.f_star.matrix - f).max(initial=0.0)
            if gap <= DEDUP_TOL * (1.0 + np.abs(f).max(initial=0.0)):
                return
        solutions.append(EquilibriumSolution(
            f_star=ReducedFeedback(f, rg.input_dims),
            p=tuple(p_list),
            a_cl=a_cl,
            spectrum=sorted_spectrum(np.linalg.eigvals(a_cl)),
            residuals=res,
            iterations=iters,
            start=label,
        ))

    starts = _starting_points(rg, opts)
    outcomes = _policy_iteration(rg, ms, gbar, vbar_t, [f0 for _, f0 in starts], scale, opts)
    for (label, f0), out in zip(starts, outcomes):
        if out is not None:
            f, p_list, iters = out
            res = system.residuals(f, p_list)
            polished = _newton_refine(system, f, p_list)
            if polished is not None:
                res_pol = system.residuals(*polished)
                if res_pol.max_norm < res.max_norm:
                    (f, p_list), res = polished, res_pol
            try_add(f, p_list, res, iters, label)
            continue
        if is_stable(rg.j + rg.b1_stacked @ f0):
            try:
                p0 = _lyapunov_values(rg, ms, f0)
            except (np.linalg.LinAlgError, ValueError):
                p0 = [np.zeros((rg.r, rg.r)) for _ in range(rg.n_players)]
        else:
            p0 = [np.zeros((rg.r, rg.r)) for _ in range(rg.n_players)]
        refined = _newton_refine(system, f0, p0)
        if refined is not None:
            try_add(*refined, system.residuals(*refined), opts.max_iter, f"{label}+newton")

    solutions.sort(key=lambda s: tuple(np.round(s.f_star.matrix, 8).reshape(-1)))
    return solutions


def equilibrium_cost(sol: EquilibriumSolution, i: int, x1_0: np.ndarray) -> float:
    """Player i's equilibrium cost from the reduced initial state x1_0."""
    x1_0 = np.asarray(x1_0, dtype=float).reshape(-1)
    return float(x1_0 @ sol.p[i] @ x1_0)


def verify_nash_local(rg: ReducedGame, c: CostParameters, sol: EquilibriumSolution,
                      n_trials: int = 200, radius: float = 0.5,
                      seed: int = 0, tol: float = 1e-8):
    """Spot-check the equilibrium property with random unilateral deviations.

    For each player and trial, perturbs only that player's reduced gain;
    deviations that destabilize the loop are skipped (they have infinite
    cost).  The deviated value matrix comes from an exact Lyapunov solve,
    and the check requires it to dominate the equilibrium value matrix up
    to ``tol`` (equivalently: no initial state benefits).  Returns
    ``(ok, counterexample)`` with the violating deviation when found.
    """
    ms, _, _ = _care_terms(rg, c)
    rng = np.random.default_rng(seed)
    f_star = sol.f_star.matrix
    for i in range(rg.n_players):
        si = rg.input_slice(i)
        base_p = sol.p[i]
        for _ in range(n_trials):
            delta = rng.standard_normal((rg.input_dims[i], rg.r))
            delta *= radius * rng.uniform(0.05, 1.0) / max(np.abs(delta).max(), 1e-12)
            f_dev = f_star.copy()
            f_dev[si] = f_dev[si] + delta
            a_dev = rg.j + rg.b1_stacked @ f_dev
            if not is_stable(a_dev):
                continue
            stacked = np.vstack([np.eye(rg.r), f_dev])
            try:
                p_dev = solve_lyapunov(a_dev, stacked.T @ ms[i] @ stacked)
            except (np.linalg.LinAlgError, ValueError):
                continue
            gap = np.linalg.eigvalsh(symmetrize(p_dev - base_p))[0]
            if gap < -tol * sol.residuals.scale:
                return False, {"player": i, "delta": delta, "min_eig_gap": float(gap)}
    return True, None
