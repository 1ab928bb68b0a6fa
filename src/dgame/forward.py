"""Forward game solver: stabilizing solutions of the coupled Riccati system.

A reduced feedback F is a feedback Nash equilibrium iff there are
symmetric P_i with stable A_cl = J + B1 F solving, for every player,

    A_cl' P_i + P_i A_cl + C_i = 0,   C_i = [I; F]' M_i [I; F]   (Riccati)
    G F = -(V' + Bd' P)                                    (stationarity)

where G collects the effective input weights and cross couplings, V the
state/input couplings and Bd the block-diagonal input map.  A_cl comes
from :meth:`dgame.game.ReducedGame.closed_loop`; one evaluator per game
and cost set is the only place that forms the closed-loop costs C_i, the
value matrices (P_i solving the Riccati equation at a given F) and both
residual families, for one gain or a stack of them.
The solver packs every start, an initial gain with its Lyapunov value
matrices (zero when its loop is unstable or a solve fails), and runs one
damped Newton solve over all of them (:func:`root`): the exact Jacobian
of the evaluator's packed residual (the Frechet derivative of the
coupled system in F and the P_i), an Armijo backtracking search on the
residual's 2-norm, and every start moving in lockstep until its step
falls below ``_STEP_TOL`` relative to the point, its step is singular or
not finite, backtracking reaches ``_BACKTRACK_FLOOR`` or ``_NEWTON_ITERS``
steps are spent.
Coupled Riccati systems can have several stabilizing solutions, so
enumeration is heuristic multistart and completeness is only ever
validated at test scale.  G and V' are read out of the players' reduced
cost matrices M_i (:func:`dgame.game.m_matrix`); the Newton constants
and the deduplication distance are fixed module constants, and only the
start count, seed and tolerance are options.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .feedback import ReducedFeedback
from .game import CostParameters, ReducedGame, m_matrix
from .linalg import is_stable, solve_lyapunov_stack, sorted_spectrum, symmetrize

__all__ = [
    "SolveOptions",
    "CareResiduals",
    "EquilibriumSolution",
    "IndefiniteInputWeightError",
    "solution_at",
    "solve_fbne",
    "equilibrium_cost",
    "verify_nash_local",
]


#: relative max-entry distance under which two feedbacks are one solution
DEDUP_TOL = 1e-5

#: Newton steps per start in :func:`root`
_NEWTON_ITERS = 100

#: sufficient decrease of the Armijo search: a step of length t must
#: shrink the residual's 2-norm by the factor 1 - _ARMIJO * t
_ARMIJO = 1e-4

#: shortest step length the backtracking search tries before the start
#: retires
_BACKTRACK_FLOOR = 2.0 ** -12

#: a start retires once its Newton step is at most _STEP_TOL (1 + |z|)
#: in the 2-norm
_STEP_TOL = 1e-13

#: memory budget for the Jacobians of one group of starts in a Newton
#: step; a group holds at least one start
_NEWTON_GROUP_BYTES = 256 << 10


class IndefiniteInputWeightError(ValueError):
    """Some player's effective own-input weight is not positive definite."""


@dataclass(frozen=True)
class SolveOptions:
    """Multistart solver options: the number of seeded starts, their seed
    and the residual tolerance, relative to the data scale.  Each start
    gets at most ``_NEWTON_ITERS`` Newton steps."""

    n_starts: int = 64
    seed: int = 0
    tol: float = 1e-9


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
    """One stabilizing solution: reduced feedback, value matrices, diagnostics
    (``iterations`` is the number of Newton steps its start took, ``start``
    the start's name)."""

    f_star: ReducedFeedback
    p: tuple[np.ndarray, ...]
    a_cl: np.ndarray
    spectrum: np.ndarray
    residuals: CareResiduals
    iterations: int
    start: str = ""


class _Evaluator:
    """The closed loop of one game and cost set, at one gain or a stack.

    Built once per solve from ``(rg, c)``, it holds what no evaluation
    changes: the stack of every M_i, player i's rows r + s_i of M_i read
    as G (columns r:, the effective input weight and cross couplings)
    and as the m x r stack V' of the own couplings v_bar[i][i]' (columns
    :r), the game's A_cl map (:meth:`ReducedGame.closed_loop`), the
    B1_i' blocks, the identity block of [I; F], the data scale, the
    index maps and unit directions of the packed Newton point and the
    Jacobian's fixed stationarity rows.  Each method takes one gain F
    of shape (m, r) or a stack (S, m, r), or one packed point of shape
    (nz,) or a stack (S, nz); per-player results carry a
    player axis before the matrix axes, and every product keeps the 2-D
    shape and operand order of the module docstring's formulas per item,
    so a stacked evaluation reads the same bits as one gain at a time.
    """

    def __init__(self, rg: ReducedGame, c: CostParameters):
        r, m, n_players = rg.r, rg.m, rg.n_players
        self.r, self.m, self.n_players = r, m, n_players
        self.ms = np.stack([m_matrix(rg, c, i) for i in range(n_players)])
        self.rows = [rg.input_slice(i) for i in range(n_players)]
        own = np.vstack([m_i[r + s.start:r + s.stop] for m_i, s in zip(self.ms, self.rows)])
        self.vbar_t, self.gbar = own[:, :r], own[:, r:]
        self.closed_loop, self.eye = rg.closed_loop, np.eye(r)
        self.b1_t = [b.T for b in rg.b1]
        # 1 + max-entry scale of J, B1 and every M_i: makes tolerances
        # meaningful under the positive-scaling freedom of the costs
        self.scale = 1.0 + max(1.0, *(np.abs(a).max(initial=0.0)
                                      for a in (rg.j, rg.b1_stacked, self.ms)))
        iu = np.triu_indices(r)
        nn = iu[0].size
        self.iu_flat = np.ravel_multi_index(iu, (r, r))
        self.tri_flat = (self.iu_flat + r * r * np.arange(n_players)[:, None]).reshape(-1)
        # entry (a, b) of P_k sits at the packed triangle index of
        # (min(a, b), max(a, b)) in player k's block
        mirror = np.empty((r, r), dtype=np.intp)
        mirror[iu] = mirror[iu[::-1]] = np.arange(nn)
        self.mirror = mirror + nn * np.arange(n_players)[:, None, None]
        # unit directions of the packed point: each entry of F, and each
        # packed entry of a P_i as the symmetric matrix it unpacks to
        mr = m * r
        self.f_units = np.eye(mr).reshape(mr, m, r)
        self.p_units = np.eye(nn).take(mirror, axis=-1)
        self.b1_stacked_t = rg.b1_stacked.T
        # the Jacobian's stationarity rows, G dF + B1_i' dP_i, hold at
        # every point
        self.jac0 = np.zeros((mr + n_players * nn,) * 2)
        self.jac0[:mr, :mr] = np.kron(self.gbar, self.eye)
        for k, (b_t, s) in enumerate(zip(self.b1_t, self.rows)):
            self.jac0[r * s.start:r * s.stop, mr + k * nn:mr + (k + 1) * nn] = \
                (b_t @ self.p_units).reshape(nn, -1).T

    def lift(self, f):
        """[I; F] of one gain or a stack."""
        r = self.r
        x = np.empty(f.shape[:-2] + (r + self.m, r))
        x[..., :r, :] = self.eye
        x[..., r:, :] = f
        return x

    def costs(self, f):
        """Every player's closed-loop cost C_i = [I; F]' M_i [I; F]."""
        x = self.lift(f)[..., None, :, :]
        return x.swapaxes(-1, -2) @ self.ms @ x

    def values(self, a_cl, costs):
        """Value matrices P_i with A_cl' P_i + P_i A_cl + C_i = 0 for the
        costs of any players, in one stacked Lyapunov solve that shares
        each loop among its players; returns ``(p, errors)``, ``p``
        shaped like ``costs`` and one error (or ``None``) per item in C
        order."""
        r = self.r
        p, errors = solve_lyapunov_stack(a_cl.reshape(-1, r, r),
                                         costs.reshape(-1, costs.shape[-3], r, r))
        return p.reshape(costs.shape), errors

    def residual_matrices(self, f, p, a_cl, costs):
        """``(stat, care)``: the stationarity residual G F + V' + Bd' P and
        each player's Riccati residual A_cl' P_i + P_i A_cl + C_i."""
        care = a_cl.swapaxes(-1, -2)[..., None, :, :] @ p + p @ a_cl[..., None, :, :] + costs
        bd_t_p = np.concatenate([b_t @ p[..., k, :, :] for k, b_t in enumerate(self.b1_t)],
                                axis=-2)
        return self.gbar @ f + self.vbar_t + bd_t_p, care

    def residuals(self, f, p, a_cl=None, costs=None) -> CareResiduals:
        """Both residual families at one gain f and value matrices p, with
        their max-norms; forms the loop unless ``a_cl`` and ``costs`` of
        f are given."""
        if a_cl is None:
            a_cl, costs = self.closed_loop(f), self.costs(f)
        stat, care = self.residual_matrices(f, np.asarray(p), a_cl, costs)
        return CareResiduals(
            care=tuple(care),
            stationarity=stat,
            care_norms=tuple(float(v) for v in np.abs(care).max(axis=(1, 2), initial=0.0)),
            stationarity_norm=float(np.abs(stat).max(initial=0.0)),
            scale=self.scale,
        )

    def pack(self, f, p) -> np.ndarray:
        """z = [vec(F); upper triangle of each P_i], of shape (..., nz)."""
        f, p = np.asarray(f), np.asarray(p)
        lead = f.shape[:-2]
        return np.concatenate([f.reshape(lead + (self.m * self.r,)),
                               p.reshape(lead + (self.n_players * self.r ** 2,)).take(
                                   self.tri_flat, axis=-1)], axis=-1)

    def unpack(self, z):
        """``(f, p)`` of a packed point or a stack; ``f`` is a view into ``z``."""
        mr = self.m * self.r
        # + 0.0 turns a packed -0.0 into +0.0, as symmetrizing by a sum would
        return (z[..., :mr].reshape(z.shape[:-1] + (self.m, self.r)),
                (z[..., mr:] + 0.0).take(self.mirror, axis=-1))

    def vector(self, z) -> np.ndarray:
        """The packed residual at z: vec of the stationarity residual, then
        the upper triangle of each Riccati residual."""
        f, p = self.unpack(z)
        stat, care = self.residual_matrices(f, p, self.closed_loop(f), self.costs(f))
        lead = z.shape[:-1]
        return np.concatenate([stat.reshape(lead + (self.m * self.r,)),
                               care.reshape(lead + (self.n_players * self.r ** 2,)).take(
                                   self.tri_flat, axis=-1)], axis=-1)

    def jacobian(self, f, p, a_cl) -> np.ndarray:
        """The Jacobian of :meth:`vector` in the packed point, (..., nz, nz).

        Column j is the derivative along the j-th unit direction of z.  The
        stationarity rows are G dF + B1_i' dP_i; player i's Riccati rows
        are A_cl' dP_i + dP_i A_cl + dF' H_i + H_i' dF with
        H_i = B1' P_i + M_i[r:, :] [I; F], at the gain f, value matrices
        p and loop a_cl = A_cl(f).
        """
        r, mr, nn = self.r, self.m * self.r, self.iu_flat.size
        lead = f.shape[:-2]
        h = self.b1_stacked_t @ p + self.ms[:, r:, :] @ self.lift(f)[..., None, :, :]
        d_f = self.f_units.swapaxes(-1, -2) @ h[..., None, :, :]
        d_f = (d_f + d_f.swapaxes(-1, -2)).reshape(lead + (self.n_players, mr, r * r))
        d_p = (a_cl.swapaxes(-1, -2)[..., None, :, :] @ self.p_units
               + self.p_units @ a_cl[..., None, :, :]).reshape(lead + (nn, r * r))
        d_p = d_p.take(self.iu_flat, axis=-1).swapaxes(-1, -2)
        jac = np.empty(lead + self.jac0.shape)
        jac[...] = self.jac0
        jac[..., mr:, :mr] = d_f.take(self.iu_flat, axis=-1).swapaxes(-1, -2).reshape(
            lead + (self.n_players * nn, mr))
        for k in range(self.n_players):
            block = slice(mr + k * nn, mr + (k + 1) * nn)
            jac[..., block, block] = d_p
        return jac


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
    ev = _Evaluator(rg, c)
    f = f_red.matrix
    a_cl, costs = ev.closed_loop(f), ev.costs(f)
    p, errors = ev.values(a_cl, costs)
    for err in errors:
        if err is not None:
            raise err
    return EquilibriumSolution(
        f_star=f_red,
        p=tuple(p),
        a_cl=a_cl,
        spectrum=sorted_spectrum(np.linalg.eigvals(a_cl)),
        residuals=ev.residuals(f, p, a_cl, costs),
        iterations=0,
    )


def _newton_steps(ev: _Evaluator, z, res):
    """The Newton step -J(z)^-1 res(z) of every row of the stack z, NaN for
    a singular Jacobian; Jacobians are formed and solved in groups of at
    most ``_NEWTON_GROUP_BYTES``."""
    group = max(1, _NEWTON_GROUP_BYTES // (8 * z.shape[-1] ** 2))
    rhs = -res[..., None]
    step = np.empty_like(rhs)
    for lo in range(0, len(z), group):
        sl = slice(lo, lo + group)
        f, p = ev.unpack(z[sl])
        jac = ev.jacobian(f, p, ev.closed_loop(f))
        try:
            step[sl] = np.linalg.solve(jac, rhs[sl])
        except np.linalg.LinAlgError:
            for k in range(len(jac)):
                try:
                    step[lo + k] = np.linalg.solve(jac[k], rhs[lo + k])
                except np.linalg.LinAlgError:
                    step[lo + k] = np.nan
    return step[..., 0]


def root(ev: _Evaluator, z) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on ``ev.vector(z) = 0`` from every row of the stack z.

    All starts step in lockstep, each with its own Armijo backtracking
    search on the residual's 2-norm: a step of length t (1, 1/2, 1/4,
    ...) is taken once it shrinks that norm by the factor
    1 - ``_ARMIJO`` t.  A start retires once its full step is at most
    ``_STEP_TOL`` (1 + |z|), which it still takes, or when its step is
    singular or not finite, its search falls below ``_BACKTRACK_FLOOR``
    or it has taken ``_NEWTON_ITERS`` steps.  Returns ``(z, steps)``: the
    final points, one row per start, and the number of steps each start
    took; each row is what that start gives on its own.
    """
    z = np.array(z, dtype=float)
    res = ev.vector(z)
    norm = np.linalg.norm(res, axis=-1)
    active = np.arange(len(z))
    steps = np.zeros(len(z), dtype=int)
    for _ in range(_NEWTON_ITERS):
        if not active.size:
            break
        za = z[active]
        step = _newton_steps(ev, za, res[active])
        finite = np.isfinite(step).all(axis=-1)
        small = finite & (np.linalg.norm(step, axis=-1)
                          <= _STEP_TOL * (1.0 + np.linalg.norm(za, axis=-1)))
        z[active[small]] = za[small] + step[small]
        moved = np.zeros(active.size, dtype=bool)
        t = np.ones(active.size)
        search = np.flatnonzero(finite & ~small)
        while search.size:
            trial = za[search] + t[search, None] * step[search]
            res_t = ev.vector(trial)
            norm_t = np.linalg.norm(res_t, axis=-1)
            ok = norm_t <= (1.0 - _ARMIJO * t[search]) * norm[active[search]]
            took = active[search[ok]]
            z[took], res[took], norm[took] = trial[ok], res_t[ok], norm_t[ok]
            moved[search[ok]] = True
            search = search[~ok]
            t[search] /= 2.0
            search = search[t[search] >= _BACKTRACK_FLOOR]
        steps[active[small | moved]] += 1
        active = active[moved]
    return z, steps


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
        # non-stabilizing spread: Newton from these reaches roots whose
        # basins no regulator gain lies in
        starts.append((f"seeded-raw-{k}", rng.standard_normal((m, r)) * gain_scale))
    return starts


def solve_fbne(rg: ReducedGame, c: CostParameters,
               opts: SolveOptions | None = None) -> list[EquilibriumSolution]:
    """Enumerate stabilizing solutions of the coupled Riccati system.

    Every start is packed as its initial gain with that gain's Lyapunov
    value matrices (zero if the loop is unstable or a solve fails), and
    one call of :func:`root`, Newton steps with the exact Jacobian of the
    coupled system, runs from all of them at once.  In start order, a
    start's point counts when its loop is stable, its residual is within
    ``opts.tol`` times the data scale and no earlier solution lies within
    ``DEDUP_TOL``; the solution carries the start's name and its Newton
    step count as ``iterations``.
    Requires every effective own-input weight r_bar[i][i] to be positive
    definite (raises :class:`IndefiniteInputWeightError`).  Returns the
    deduplicated solutions in a canonical order (lexicographic by rounded
    feedback entries); an empty list means no start converged.
    """
    opts = opts or SolveOptions()
    ev = _Evaluator(rg, c)
    for i, (m_i, si) in enumerate(zip(ev.ms, ev.rows)):
        block = m_i[rg.r + si.start:rg.r + si.stop, rg.r + si.start:rg.r + si.stop]
        if block.size and np.linalg.eigvalsh(symmetrize(block))[0] <= 0:
            raise IndefiniteInputWeightError(
                f"effective input weight of player {i} is not positive definite"
            )
    solutions: list[EquilibriumSolution] = []

    def try_add(f, p_list, res, iters, label):
        a_cl = ev.closed_loop(f)
        if not is_stable(a_cl):
            return
        if res.max_norm > opts.tol * ev.scale:
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
    z0 = np.empty((len(starts), len(ev.jac0)))
    for k, (_, f0) in enumerate(starts):
        a_cl = ev.closed_loop(f0)
        p0 = np.zeros((rg.n_players, rg.r, rg.r))
        if is_stable(a_cl):
            p, errors = ev.values(a_cl, ev.costs(f0))
            if all(err is None for err in errors):
                p0 = p
        z0[k] = ev.pack(f0, p0)
    z, steps = root(ev, z0)
    for (label, _), z_k, steps_k in zip(starts, z, steps):
        f, p = ev.unpack(z_k)
        try_add(f, p, ev.residuals(f, p), int(steps_k), label)

    solutions.sort(key=lambda s: tuple(np.round(s.f_star.matrix, 8).reshape(-1)))
    return solutions


def equilibrium_cost(sol: EquilibriumSolution, i: int, x1_0: np.ndarray) -> float:
    """Player i's equilibrium cost from the reduced initial state x1_0."""
    x1_0 = np.asarray(x1_0, dtype=float).reshape(-1)
    return float(x1_0 @ sol.p[i] @ x1_0)


def verify_nash_local(rg: ReducedGame, c: CostParameters, sol: EquilibriumSolution,
                      n_trials: int = 200, radius: float = 0.5,
                      seed: int = 0):
    """Spot-check the equilibrium property with random unilateral deviations.

    For each player and trial, perturbs only that player's reduced gain;
    deviations that destabilize the loop are skipped (they have infinite
    cost).  The deviated value matrix comes from an exact Lyapunov solve,
    and the check requires it to dominate the equilibrium value matrix up
    to ``1e-8`` times the data scale (equivalently: no initial state
    benefits).  Returns ``(ok, counterexample)`` with the violating
    deviation when found.
    """
    ev = _Evaluator(rg, c)
    rng = np.random.default_rng(seed)
    f_star = sol.f_star.matrix
    for i, si in enumerate(ev.rows):
        for _ in range(n_trials):
            delta = rng.standard_normal((rg.input_dims[i], rg.r))
            delta *= radius * rng.uniform(0.05, 1.0) / max(np.abs(delta).max(), 1e-12)
            f_dev = f_star.copy()
            f_dev[si] += delta
            a_dev = ev.closed_loop(f_dev)
            if not is_stable(a_dev):
                continue
            p_dev, errors = ev.values(a_dev, ev.costs(f_dev)[i:i + 1])
            if errors[0] is not None:
                continue
            gap = np.linalg.eigvalsh(symmetrize(p_dev[0] - sol.p[i]))[0]
            if gap < -1e-8 * sol.residuals.scale:
                return False, {"player": i, "delta": delta, "min_eig_gap": float(gap)}
    return True, None
