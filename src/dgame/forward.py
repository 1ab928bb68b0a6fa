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
The starts are regulator gains (the joint regulator, each player's own
regulator, and regulators with seeded random weights), all from one
stacked Riccati solve (:func:`dgame.linalg.solve_riccati_stack`), and
seeded random gains whose loops are mostly unstable.  The solver packs
every start, an initial gain with its Lyapunov value matrices (zero
when its loop is unstable or a solve fails; one stacked evaluation for
all starts), and runs one damped Newton solve over all of them
(:func:`root`): the exact Jacobian
of the evaluator's packed residual (the Frechet derivative of the
coupled system in F and the P_i), an Armijo backtracking search on the
residual's 2-norm whose step lengths (1, 1/2, ... down to
``_BACKTRACK_FLOOR``) are all tried in one stacked evaluation per group
of starts that fits ``_NEWTON_GROUP_BYTES``, and every start moving in
lockstep until its step falls below ``_STEP_TOL`` relative to the point,
its step is singular or not finite, no step length decreases the
residual enough or ``_NEWTON_ITERS`` steps are spent.  The end points
are checked in one stacked evaluation too (loop stability and
residuals), and :func:`verify_nash_local` solves each player's random
deviations as one stack.
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

from .feedback import ReducedFeedback
from .game import CostParameters, ReducedGame, m_matrix
from .linalg import (
    is_stable,
    solve_lyapunov_stack,
    solve_riccati_stack,
    sorted_spectrum,
    symmetrize,
)

__all__ = [
    "SolveOptions",
    "CareResiduals",
    "EquilibriumSolution",
    "IndefiniteInputWeightError",
    "same_behavior",
    "solution_at",
    "solve_fbne",
    "equilibrium_cost",
    "verify_nash_local",
]


#: relative max-entry distance under which two feedbacks are one solution
#: and one behavior (:func:`same_behavior`)
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
#: step, and for the trial points of one group in its step-length search;
#: a group holds at least one start
_NEWTON_GROUP_BYTES = 256 << 10


def same_behavior(f: np.ndarray, g: np.ndarray) -> bool:
    """Whether the reduced gains ``f`` and ``g`` are one behavior: from
    every reduced initial state the input is u = F x1, so two gains give
    one behavior exactly when they agree, here to within
    ``DEDUP_TOL (1 + max|f|)`` in the max-entry norm."""
    return bool(np.abs(f - g).max(initial=0.0) <= DEDUP_TOL * (1.0 + np.abs(f).max(initial=0.0)))


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
        return self.care_residuals(*self.residual_matrices(f, np.asarray(p), a_cl, costs))

    def care_residuals(self, stat, care) -> CareResiduals:
        """The residual matrices ``(stat, care)`` of one point, with their
        max-norms and the data scale."""
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
    ... down to ``_BACKTRACK_FLOOR``) is acceptable once it shrinks that
    norm by the factor 1 - ``_ARMIJO`` t, and the start takes the longest
    acceptable one.  After each Newton step every length of every
    searching start is tried at once, one :meth:`_Evaluator.vector` call
    per group of starts whose trial points fit ``_NEWTON_GROUP_BYTES``;
    the point taken has the bits a halving loop would reach.  A start
    retires once its full step is at most ``_STEP_TOL`` (1 + |z|), which
    it still takes, or when its step is singular or not finite, no length
    is acceptable or it has taken ``_NEWTON_ITERS`` steps.  Returns
    ``(z, steps)``: the final points, one row per start, and the number of
    steps each start took; each row is what that start gives on its own.
    """
    z = np.array(z, dtype=float)
    res = ev.vector(z)
    norm = np.linalg.norm(res, axis=-1)
    active = np.arange(len(z))
    steps = np.zeros(len(z), dtype=int)
    lengths = 2.0 ** -np.arange(1 + round(-np.log2(_BACKTRACK_FLOOR)))
    decrease = 1.0 - _ARMIJO * lengths
    group = max(1, _NEWTON_GROUP_BYTES // (8 * z.shape[-1] * lengths.size))
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
        search = np.flatnonzero(finite & ~small)
        for lo in range(0, search.size, group):
            rows = search[lo:lo + group]
            trial = za[rows, None] + lengths[:, None] * step[rows, None]
            res_t = ev.vector(trial.reshape(-1, z.shape[-1])).reshape(trial.shape)
            norm_t = np.linalg.norm(res_t, axis=-1)
            ok = norm_t <= decrease * norm[active[rows], None]
            hit = np.flatnonzero(ok.any(axis=-1))
            first = ok[hit].argmax(axis=-1)
            took = active[rows[hit]]
            z[took], res[took], norm[took] = (trial[hit, first], res_t[hit, first],
                                              norm_t[hit, first])
            moved[rows[hit]] = True
        steps[active[small | moved]] += 1
        active = active[moved]
    return z, steps


def _starting_points(rg, opts):
    """Deterministic then seeded initial gains, as ``(name, gain)`` pairs.

    Every start but ``seeded-raw-k`` is a regulator gain F = -R^-1 B' P,
    P the stabilizing solution of A' P + P A - P B R^-1 B' P + Q = 0 for
    A = J: ``joint-lqr`` (B = B1, Q = I, R = I), ``per-player-lqr`` (each
    player's rows from B = B1_i, Q = I, R = I) and ``seeded-k`` (B = B1
    with a random Q and diagonal R).  All of them come from one
    :func:`dgame.linalg.solve_riccati_stack` call after every random
    draw is made, so a regulator problem without a solution drops its
    start (``per-player-lqr`` when any player's does; ``seeded-k`` with
    ``seeded-raw-k``) and leaves the others' draws alone.
    """
    r, m, b1 = rg.r, rg.m, rg.b1_stacked
    rng = np.random.default_rng(opts.seed)
    problems = [(b1, np.eye(r), np.ones(m))]
    problems += [(b, np.eye(r), np.ones(b.shape[1])) for b in rg.b1]
    raws = []
    for _ in range(opts.n_starts):
        g = rng.standard_normal((r, r))
        wr = np.exp(rng.uniform(-2.0, 2.0, size=m))
        gain_scale = 10.0 ** rng.uniform(-0.5, 1.5)
        problems.append((b1, g @ g.T + 0.1 * np.eye(r), wr))
        # non-stabilizing spread: Newton from these reaches roots whose
        # basins no regulator gain lies in
        raws.append(rng.standard_normal((m, r)) * gain_scale)
    p, ok = solve_riccati_stack(rg.j, np.array([(b / wr) @ b.T for b, _, wr in problems]),
                                np.array([wq for _, wq, _ in problems]))
    gains = [-(b.T @ p_k) / wr[:, None] for (b, _, wr), p_k in zip(problems, p)]
    seeded = 1 + rg.n_players
    starts = []
    if ok[0]:
        starts.append(("joint-lqr", gains[0]))
    if ok[1:seeded].all():
        starts.append(("per-player-lqr", np.vstack(gains[1:seeded])))
    for k, raw in enumerate(raws):
        if ok[seeded + k]:
            starts += [(f"seeded-{k}", gains[seeded + k]), (f"seeded-raw-{k}", raw)]
    return starts


def solve_fbne(rg: ReducedGame, c: CostParameters,
               opts: SolveOptions | None = None) -> list[EquilibriumSolution]:
    """Enumerate stabilizing solutions of the coupled Riccati system.

    Every start is packed as its initial gain with that gain's Lyapunov
    value matrices (zero if the loop is unstable or a solve fails), and
    one call of :func:`root`, Newton steps with the exact Jacobian of the
    coupled system, runs from all of them at once.  Every end point's loop
    and residuals are evaluated as one stack; in start order, a start's
    point counts when its loop is stable, its residual is within
    ``opts.tol`` times the data scale and no earlier solution is the same
    behavior (:func:`same_behavior`); the solution carries the start's
    name and its Newton step count as ``iterations``.
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
    starts = _starting_points(rg, opts)
    f0 = np.array([f for _, f in starts]).reshape(-1, rg.m, rg.r)
    a_cl = ev.closed_loop(f0)
    p0 = np.zeros((len(f0), rg.n_players, rg.r, rg.r))
    stable = np.flatnonzero(is_stable(a_cl))
    p, errors = ev.values(a_cl[stable], ev.costs(f0[stable]))
    solved = np.array([err is None for err in errors], dtype=bool).reshape(
        stable.size, rg.n_players).all(axis=1)
    p0[stable[solved]] = p[solved]
    z, steps = root(ev, ev.pack(f0, p0))
    f, p = ev.unpack(z)
    a_cl = ev.closed_loop(f)
    stat, care = ev.residual_matrices(f, p, a_cl, ev.costs(f))
    within = np.maximum(np.abs(stat).max(axis=(-2, -1), initial=0.0),
                        np.abs(care).max(axis=(-3, -2, -1), initial=0.0)) <= opts.tol * ev.scale
    solutions: list[EquilibriumSolution] = []
    for k in np.flatnonzero(is_stable(a_cl) & within):
        if any(same_behavior(f[k], sol.f_star.matrix) for sol in solutions):
            continue
        solutions.append(EquilibriumSolution(
            f_star=ReducedFeedback(f[k], rg.input_dims),
            p=tuple(p[k]),
            a_cl=a_cl[k],
            spectrum=sorted_spectrum(np.linalg.eigvals(a_cl[k])),
            residuals=ev.care_residuals(stat[k], care[k]),
            iterations=int(steps[k]),
            start=starts[k][0],
        ))

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

    For each player, perturbs only that player's reduced gain, ``n_trials``
    times; deviations that destabilize the loop are skipped (they have
    infinite cost).  The deviated value matrices come from one stacked
    Lyapunov solve per player, and the check requires each to dominate
    the equilibrium value matrix up to ``1e-8`` times the data scale
    (equivalently: no initial state benefits).  Returns
    ``(ok, counterexample)`` with the first violating deviation, in player
    then trial order, when found.
    """
    ev = _Evaluator(rg, c)
    rng = np.random.default_rng(seed)
    f_star = sol.f_star.matrix
    for i, si in enumerate(ev.rows):
        deltas = np.empty((n_trials, rg.input_dims[i], rg.r))
        for k in range(n_trials):
            delta = rng.standard_normal(deltas.shape[1:])
            delta *= radius * rng.uniform(0.05, 1.0) / max(np.abs(delta).max(), 1e-12)
            deltas[k] = delta
        f_dev = np.repeat(f_star[None], n_trials, axis=0)
        f_dev[:, si] += deltas
        a_dev = ev.closed_loop(f_dev)
        stable = np.flatnonzero(is_stable(a_dev))
        p_dev, errors = ev.values(a_dev[stable], ev.costs(f_dev[stable])[:, i:i + 1])
        solved = np.array([err is None for err in errors], dtype=bool)
        d = p_dev[solved, 0] - sol.p[i]
        gaps = np.linalg.eigvalsh(0.5 * (d + d.swapaxes(-1, -2)))[:, 0]
        bad = np.flatnonzero(gaps < -1e-8 * sol.residuals.scale)
        if bad.size:
            k = stable[solved][bad[0]]
            return False, {"player": i, "delta": deltas[k], "min_eig_gap": float(gaps[bad[0]])}
    return True, None
