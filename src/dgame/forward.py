"""Forward game solver: stabilizing solutions of the coupled Riccati system.

A reduced feedback F is a feedback Nash equilibrium iff there are
symmetric P_i with stable A_cl = J + B1 F solving, for every player,

    A_cl' P_i + P_i A_cl + C_i = 0,   C_i = [I; F]' M_i [I; F]   (Riccati)
    G F = -(V' + Bd' P)                                    (stationarity)

where G collects the effective input weights and cross couplings, V the
state/input couplings and Bd the block-diagonal input map.  A_cl comes
from :meth:`dgame.game.ReducedGame.closed_loop`; one evaluator per game
and cost set is the only place that forms the closed-loop costs C_i, the
value matrices P(F) of a stack of gains (:meth:`_Evaluator.values`, zero
where a loop is unstable or a solve fails) and both residual families.
The starts are regulator gains (the joint regulator, each player's own
regulator, and regulators with seeded random weights), all from one
stacked Riccati solve (:func:`dgame.linalg.solve_riccati_stack`), and
seeded random gains whose loops are mostly unstable.  Each start is
packed as its gain with its value matrices P(F), and one damped Newton
solve runs over all of them (:func:`root`).  Its steps use the exact Jacobian of the
packed residual, eliminated through the packed Lyapunov operator of
A_cl that every player's block shares (:func:`_newton_steps`); its
Armijo search tries every step length in one stacked evaluation.  Both
the search's merit and the acceptance of an end point measure each
residual family against its normwise backward-error denominator
(:meth:`_Evaluator.denominators`): a point is accepted when both
backward errors are at most the tolerance, and the merit scales down a
family whose rounding floor lies above the tolerance in data units.  A
start whose point meets that test takes one more step and retires.  The
end points are checked as one stack too; a solution keeps its largest
residual entry and the data scale.
Whether a given feedback is an equilibrium is decided without random
numbers by :func:`certify_nash`, the same acceptance test at the gain's
own value matrices P(F): with a stable loop and definite own-input
weights, value matrices that meet stationarity are each player's
stabilizing best-response Riccati solution.
Coupled Riccati systems can have several stabilizing solutions, so
enumeration is heuristic multistart and completeness is only ever
validated at test scale.  G and V' are read out of the players' reduced
cost matrices M_i (:func:`dgame.game.m_matrix`); the Newton constants
and the deduplication distance are fixed module constants, and only the
start count, seed and tolerance are options.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .feedback import ReducedFeedback
from .game import CostParameters, ReducedGame, m_matrix
from .linalg import (is_stable, solve_each, solve_lyapunov_stack, solve_riccati_stack,
                     sorted_spectrum, symmetrize, triu_indices)

__all__ = ["SolveOptions", "EquilibriumSolution", "IndefiniteInputWeightError", "same_behavior",
           "solve_fbne", "equilibrium_cost", "certify_nash"]


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

#: memory budget for one group of starts: their blocks L and D_k and the
#: L solve's right-hand sides in a Newton step, their trial points in the
#: step-length search; a group holds at least one start
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
    and the tolerance, a normwise backward error that both residual
    families of an accepted point must meet (:func:`solve_fbne`).  Each
    start gets at most ``_NEWTON_ITERS`` Newton steps."""

    n_starts: int = 64
    seed: int = 0
    tol: float = 1e-9


@dataclass(frozen=True)
class EquilibriumSolution:
    """One stabilizing solution: reduced feedback, value matrices, closed
    loop and its sorted spectrum, and diagnostics: ``residual_max`` is the
    largest entry of both residual families at (F, P), ``residual_scale``
    the data scale of the game and costs (1 + max|J|, |B1|, |M_i|),
    ``iterations`` the number of Newton steps its start took and
    ``start`` the start's name."""

    f_star: ReducedFeedback
    p: tuple[np.ndarray, ...]
    a_cl: np.ndarray
    spectrum: np.ndarray
    residual_max: float
    residual_scale: float
    iterations: int
    start: str = ""


class _Evaluator:
    """The closed loop of one game and cost set, at one gain or a stack.

    Built once per solve from ``(rg, c)`` and the solve's tolerance, it
    holds what no evaluation changes: the stack of every M_i, player i's
    rows r + s_i of M_i read as G (columns r:, the effective input weight
    and cross couplings) and as the m x r stack V' of the own couplings
    v_bar[i][i]' (columns :r), the game's A_cl map
    (:meth:`ReducedGame.closed_loop`), the B1_i' blocks, the identity
    block of [I; F], the data scale, the max-entries and the cut of the
    backward-error denominators and the index maps of the packed Newton
    point; the Jacobian's constant blocks and the maps of its varying
    ones (:attr:`newton`) are built on the first Newton step, so a caller
    that never steps never builds them.  Each method takes one gain F of
    shape (m, r) or a stack (S, m, r), or one packed point of shape (nz,)
    or a stack (S, nz); per-player results carry a player axis before
    the matrix axes, and every product keeps the 2-D shape and operand
    order of the module docstring's formulas per item, so a stacked
    evaluation reads the same bits as one gain at a time.
    """

    def __init__(self, rg: ReducedGame, c: CostParameters, tol: float = SolveOptions.tol):
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
        # max-entries of the denominators' constant factors: G, V', B1,
        # J and every M_i
        self.g_max, self.v_max, self.b1_max, self.j_max, self.m_max = (
            float(np.abs(a).max(initial=0.0)) for a in (self.gbar, self.vbar_t, rg.b1_stacked,
                                                        rg.j, self.ms))
        # a row family whose backward-error denominator s exceeds the cut
        # has a rounding floor eps s above the tolerance in data units,
        # tol scale
        self.tol, self.cut = tol, tol * self.scale / np.finfo(float).eps
        self.b1_stacked, self.input_dims = rg.b1_stacked, rg.input_dims
        iu = triu_indices(r)
        nn = iu[0].size
        self.iu_flat = np.ravel_multi_index(iu, (r, r))
        self.tri_flat = (self.iu_flat + r * r * np.arange(n_players)[:, None]).reshape(-1)
        # entry (a, b) of P_k sits at the packed triangle index of
        # (min(a, b), max(a, b)) in player k's block
        mirror = np.empty((r, r), dtype=np.intp)
        mirror[iu] = mirror[iu[::-1]] = np.arange(nn)
        self.mirror = mirror + nn * np.arange(n_players)[:, None, None]

    @cached_property
    def newton(self) -> _NewtonBlocks:
        """The Newton system's constant blocks and index maps, built on the
        first Newton step (:func:`_newton_steps`)."""
        return _NewtonBlocks(self)

    def own_weights_definite(self):
        """Per player, whether the effective own-input weight r_bar[i][i],
        the block G[s_i, s_i], is positive definite."""
        return [bool((np.linalg.eigvalsh(symmetrize(self.gbar[si, si]))[:1] > 0).all())
                for si in self.rows]

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

    def values(self, f):
        """The value matrices P(F) of a stack of gains (S, m, r): every
        player's P_i with A_cl' P_i + P_i A_cl + C_i = 0, in one stacked
        Lyapunov solve that shares each stable loop among its players.
        Returns ``(p, ok)``, ``p`` of shape (S, N, r, r) and ``ok`` (S,);
        an item's P is zero and its ``ok`` False where its loop is
        unstable or some player's solve fails."""
        a_cl = self.closed_loop(f)
        stable = np.flatnonzero(is_stable(a_cl))
        p, ok = np.zeros((len(f), self.n_players, self.r, self.r)), np.zeros(len(f), dtype=bool)
        p[stable], errors = solve_lyapunov_stack(a_cl[stable], self.costs(f[stable]))
        ok[stable] = np.array([err is None for err in errors], dtype=bool).reshape(
            stable.size, self.n_players).all(axis=1)
        p[~ok] = 0.0
        return p, ok

    def residual_matrices(self, f, p, a_cl, costs):
        """``(stat, care)``: the stationarity residual G F + V' + Bd' P and
        each player's Riccati residual A_cl' P_i + P_i A_cl + C_i."""
        care = a_cl.swapaxes(-1, -2)[..., None, :, :] @ p + p @ a_cl[..., None, :, :] + costs
        bd_t_p = np.concatenate([b_t @ p[..., k, :, :] for k, b_t in enumerate(self.b1_t)],
                                axis=-2)
        return self.gbar @ f + self.vbar_t + bd_t_p, care

    def denominators(self, f, p, a_cl, costs):
        """``(stat, care)``: the normwise backward-error denominators of
        both residual families (Higham 2002, ch. 16) in max-norms, at
        gains f, value matrices p, loops a_cl and closed-loop costs;
        max|G| max|F| + max|B1| max|P| + max|V'| for the stationarity
        rows, shape (...,), and 2 max|A_cl| max|P_k| + max|C_k| for player
        k's Riccati rows, shape (..., N).  A residual over its denominator
        is that family's backward error."""
        return self.denominators_of(*(np.abs(x).max(axis=(-2, -1), initial=0.0)
                                      for x in (f, p, a_cl, costs)))

    def denominators_of(self, f_max, p_max, a_max, c_max=0.0):
        """:meth:`denominators` from the max-entries of the gains (...,),
        of each value matrix (..., N), of the loops (...,) and of each
        closed-loop cost (..., N); with ``c_max`` 0, the Riccati
        denominators are lower bounds, which :func:`root` tests by."""
        stat = self.g_max * f_max + self.b1_max * p_max.max(axis=-1, initial=0.0) + self.v_max
        return stat, 2.0 * a_max[..., None] * p_max + c_max

    def accepts(self, stat, care, s_stat, s_care):
        """The acceptance test of a point: whether both backward errors, the
        residual max-norms ``stat`` (...,) and ``care`` (..., N) over their
        denominators ``s_stat`` and ``s_care`` (:meth:`denominators`), are
        at most the tolerance."""
        return (stat <= self.tol * s_stat) & (care <= self.tol * s_care).all(axis=-1)

    def merit_weights(self, z):
        """The weights of :func:`root`'s merit at the stack of packed points
        z, one per row of :meth:`vector`, shape (S, nz): min(1, cut / s)
        on the rows of a family (stationarity, or one player's Riccati
        equation) with denominator s (:meth:`denominators`), so a family
        is measured in units where its rounding floor is the tolerance.
        Returns ``(w, bound)``, ``bound`` a bound on every denominator of
        the stack from max|F| and max|P| alone.  ``w`` is ``None``, all
        ones, when twice ``bound`` is within the cut (twice, so that
        rounding cannot lift a computed denominator past it), and nothing
        else is formed."""
        mr, m = self.m * self.r, self.m
        f_max, p_max = float(np.abs(z[:, :mr]).max()), float(np.abs(z[:, mr:]).max())
        bound = max(self.g_max * f_max + self.b1_max * p_max + self.v_max,
                    2.0 * (self.j_max + m * self.b1_max * f_max) * p_max
                    + self.m_max * (1.0 + m * f_max) ** 2)
        if 2.0 * bound <= self.cut:
            return None, bound
        f, p = self.unpack(z)
        stat, care = self.denominators(f, p, self.closed_loop(f), self.costs(f))
        s = np.concatenate([stat[:, None], care], axis=-1)
        w = np.divide(self.cut, s, out=np.ones_like(s), where=s > self.cut)
        return np.repeat(w, [mr] + [self.iu_flat.size] * self.n_players, axis=-1), bound

    def accepts_packed(self, z, res):
        """:meth:`accepts` at the stack of packed points z with packed
        residuals res, against lower bounds on the Riccati denominators
        (no closed-loop costs formed): a stricter test, which points at
        the rounding floor, seven orders below the tolerance, still pass."""
        mr, n, shape = self.m * self.r, len(z), (len(z), self.n_players, -1)
        z_max, res = np.abs(z), np.abs(res)
        # player k's packed triangle holds every entry of P_k
        a_max = np.abs(self.closed_loop(z[:, :mr].reshape(n, self.m, self.r))).max(axis=(-2, -1))
        return self.accepts(res[:, :mr].max(axis=-1), res[:, mr:].reshape(shape).max(axis=-1),
                            *self.denominators_of(z_max[:, :mr].max(axis=-1),
                                                  z_max[:, mr:].reshape(shape).max(axis=-1), a_max))

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
        return self.pack(*self.residual_matrices(f, p, self.closed_loop(f), self.costs(f)))

    def jacobian(self, f, p, a_cl):
        """The blocks of :meth:`vector`'s Jacobian that move with the point.

        It is [[K, B_k], [D_k, L]]: the stationarity rows G dF + B1_k' dP_k
        hold the constants K and B_k (:attr:`newton`); player k's
        Riccati rows A_cl' dP_k + dP_k A_cl + dF' H_k + H_k' dF, with
        H_k = B1' P_k + M_k[r:, :] [I; F], hold D_k and the Lyapunov
        operator L that every player shares.  At the gain f, value
        matrices p and loop a_cl = A_cl(f), returns every D_k as d_f,
        (..., nn, N, m r), and L as d_p, (..., nn, nn).
        """
        r, nn, lead, nb = self.r, self.iu_flat.size, f.shape[:-2], self.newton
        h = (nb.h_b1_t @ p + nb.h_ms @ self.lift(f)[..., None, :, :]).reshape(lead + (-1,))
        d_f = h.take(nb.d_from[0], axis=-1) + h.take(nb.d_from[1], axis=-1)
        a_cl = a_cl.reshape(lead + (r * r,))
        d_p = np.zeros(lead + (nn * nn,))
        d_p[..., nb.l_at[0]] = a_cl[..., nb.l_from[0]]
        d_p[..., nb.l_at[1]] += a_cl[..., nb.l_from[1]]
        return d_f, d_p.reshape(lead + (nn, nn))


class _NewtonBlocks:
    """What the packed Newton system of one evaluator holds fixed: the
    Jacobian's constant stationarity blocks K (``stat_f``) and B_k
    (``stat_p``), and the index maps its varying blocks are read through
    (:meth:`_Evaluator.jacobian`).  Built from the evaluator, it keeps no
    reference to it, so an evaluator is freed as soon as its last user
    lets it go."""

    def __init__(self, ev: _Evaluator):
        r, m, n_players, mr = ev.r, ev.m, ev.n_players, ev.m * ev.r
        iu = triu_indices(r)
        nn = iu[0].size
        mirror = ev.mirror[0]
        # the Jacobian's constant stationarity blocks: kron(G, I) against
        # vec F, and (B1_k' U)[a, b] = B1_k'[a, x] against the unit U of
        # P_k at {x, b}, zero-padded over the players to (m r, nn N)
        self.stat_f = np.kron(ev.gbar, ev.eye)
        a, b, x = np.arange(m)[:, None, None], np.arange(r)[:, None], np.arange(r)
        self.stat_p = np.zeros((mr, nn, n_players))
        self.stat_p[a * r + b, mirror[x, b], np.repeat(np.arange(n_players), ev.input_dims)[
            :, None, None]] = ev.b1_stacked.T[a, x]
        self.stat_p = self.stat_p.reshape(mr, -1)
        # maps of the varying blocks at Riccati row (c, d): (A' U)[c, d] is
        # A[x, c] at the unit U of P at {x, d}, (U A)[c, d] is A[x, d] at
        # {c, x}; (E' H)[c, d] is H[a, d] at the unit E of F at (a, c),
        # (H' E)[c, d] is H[a, c] at (a, d), and H's zero row m gives 0
        t, x, c, d = np.arange(nn)[:, None], np.arange(r), iu[0][:, None], iu[1][:, None]
        self.l_at = ((t * nn + mirror[x, d]).ravel(), (t * nn + mirror[c, x]).ravel())
        self.l_from = ((x * r + c).ravel(), (x * r + d).ravel())
        self.h_b1_t = np.vstack([ev.b1_stacked.T, np.zeros((1, r))])
        self.h_ms = np.concatenate([ev.ms[:, r:, :], np.zeros((n_players, 1, r + m))], axis=1)
        h_at = (np.arange(n_players)[:, None, None] * (m + 1) + np.arange(m)[:, None]) * r
        self.d_from = tuple(np.where(np.arange(r) == u[..., None, None], h_at + v[..., None, None],
                                     mr).reshape(nn, n_players, mr) for u, v in ((c, d), (d, c)))


def _newton_steps(ev: _Evaluator, z, res):
    """The Newton step -J(z)^-1 res(z) of every row of the stack z, NaN when
    L or the Schur complement is singular (blocks as in
    :meth:`_Evaluator.jacobian`).  One solve with L per start gives
    L^-1 [D_k | -res_k] for every player k, the m r square Schur
    complement K - sum_k B_k L^-1 D_k gives dF, and dP_k = L^-1 (-res_k -
    D_k dF); no nz x nz matrix is formed.  Starts go in groups whose L,
    D_k and right-hand sides fit ``_NEWTON_GROUP_BYTES``."""
    mr, n_players, nn = ev.m * ev.r, ev.n_players, ev.iu_flat.size
    per_start = 8 * (nn * nn + 3 * nn * n_players * (mr + 1) + mr * (mr + 1))
    group = max(1, _NEWTON_GROUP_BYTES // per_start)
    step = np.empty_like(z)
    for lo in range(0, len(z), group):
        sl = slice(lo, lo + group)
        f, p = ev.unpack(z[sl])
        d_f, d_p = ev.jacobian(f, p, ev.closed_loop(f))
        res_p = res[sl, mr:].reshape(-1, n_players, nn).swapaxes(-1, -2)
        # y[..., k, :] = L^-1 [D_k | -res_k], one column block per player
        y = solve_each(d_p, np.concatenate([d_f, -res_p[..., None]], axis=-1).reshape(
            len(d_p), nn, -1)).reshape(d_f.shape[:-1] + (mr + 1,))
        # [S | b] = [K | -res_F] - sum_k B_k y_k
        schur = -(ev.newton.stat_p @ y.reshape(len(d_p), -1, mr + 1))
        schur[..., :mr] += ev.newton.stat_f
        schur[..., mr] -= res[sl, :mr]
        d_f = solve_each(schur[..., :mr], schur[..., mr:])
        step[sl, :mr] = d_f[..., 0]
        d_p = y[..., mr] - (y[..., :mr].reshape(len(d_p), -1, mr) @ d_f).reshape(res_p.shape)
        step[sl, mr:] = d_p.swapaxes(-1, -2).reshape(len(d_p), -1)
    return step


def root(ev: _Evaluator, z) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton on ``ev.vector(z) = 0`` from every row of the stack z.

    All starts step in lockstep, each with its own Armijo backtracking
    search on the 2-norm of its weighted residual: a step of length t (1,
    1/2, 1/4, ... down to ``_BACKTRACK_FLOOR``) is acceptable once it
    shrinks that norm by the factor 1 - ``_ARMIJO`` t, and the start takes
    the longest acceptable one.  Each row family is weighted by
    :meth:`_Evaluator.merit_weights` at the step's base point, the same
    weights for every length: 1 unless the family's rounding floor
    exceeds the tolerance in data units, where absolute units would leave
    the search backing off on rounding noise.  Row weights leave the
    Newton direction as it is, so only the length taken moves.  After each
    Newton step every length of every searching start is tried at once,
    one :meth:`_Evaluator.vector` call per group of starts whose trial
    points fit ``_NEWTON_GROUP_BYTES``; the point taken has the bits a
    halving loop would reach.  A start whose base point already meets the
    acceptance test (:meth:`_Evaluator.accepts_packed`, both backward
    errors at most the tolerance) takes that step and retires: from there
    Newton is at its rounding floor, about kappa u, and cannot gain
    (Higham 2002, ch. 25).  The test runs only on starts whose merit is at
    most sqrt(nz) tol times twice the stack's denominator bound, which
    every start that passes it meets.  A start also retires when its step
    is singular or not finite, no length is acceptable or it has taken
    ``_NEWTON_ITERS`` steps.  Returns ``(z, steps)``: the final points,
    one row per start, and the number of steps each start took; each row
    is what that start gives on its own.
    """
    z = np.array(z, dtype=float)
    res = ev.vector(z)
    norm = np.linalg.norm(res, axis=-1)
    # whether the active starts' norms were last measured with weights
    weighted = False
    active = np.arange(len(z))
    steps = np.zeros(len(z), dtype=int)
    lengths = 2.0 ** -np.arange(1 + round(-np.log2(_BACKTRACK_FLOOR)))
    decrease = 1.0 - _ARMIJO * lengths
    group = max(1, _NEWTON_GROUP_BYTES // (8 * z.shape[-1] * lengths.size))
    # a start passing the acceptance test has max|res| <= tol bound, and
    # so a weighted merit of at most sqrt(nz) tol bound (twice that, so
    # that rounding cannot drop it)
    reach = 2.0 * np.sqrt(z.shape[-1]) * ev.tol
    for _ in range(_NEWTON_ITERS):
        if not active.size:
            break
        za = z[active]
        w, bound = ev.merit_weights(za)
        if w is not None or weighted:
            # every active norm is measured again with the current weights
            norm[active] = np.linalg.norm(res[active] if w is None else res[active] * w, axis=-1)
            weighted = w is not None
        # the starts acceptable at za, among those whose merit is in reach
        accepted = np.flatnonzero(norm[active] <= reach * bound)
        if accepted.size:
            accepted = accepted[ev.accepts_packed(za[accepted], res[active[accepted]])]
        step = _newton_steps(ev, za, res[active])
        moved = np.zeros(active.size, dtype=bool)
        search = np.flatnonzero(np.isfinite(step).all(axis=-1))
        for lo in range(0, search.size, group):
            rows = search[lo:lo + group]
            trial = za[rows, None] + lengths[:, None] * step[rows, None]
            res_t = ev.vector(trial.reshape(-1, z.shape[-1])).reshape(trial.shape)
            norm_t = np.linalg.norm(res_t if w is None else res_t * w[rows, None], axis=-1)
            ok = norm_t <= decrease * norm[active[rows], None]
            hit = np.flatnonzero(ok.any(axis=-1))
            first = ok[hit].argmax(axis=-1)
            took = active[rows[hit]]
            z[took], res[took], norm[took] = (trial[hit, first], res_t[hit, first],
                                              norm_t[hit, first])
            moved[rows[hit]] = True
        steps[active[moved]] += 1
        moved[accepted] = False  # an acceptable start retires after its step
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
    point counts when its loop is stable, both its backward errors (each
    residual family's max-norm over its denominator,
    :meth:`_Evaluator.denominators`) are at most ``opts.tol`` and no
    earlier solution is the same behavior (:func:`same_behavior`); the
    solution carries the start's name and its Newton step count as
    ``iterations``.
    Requires every effective own-input weight r_bar[i][i] to be positive
    definite (raises :class:`IndefiniteInputWeightError`).  Returns the
    deduplicated solutions in a canonical order (lexicographic by rounded
    feedback entries); an empty list means no start converged.
    """
    opts = opts or SolveOptions()
    ev = _Evaluator(rg, c, opts.tol)
    for i, definite in enumerate(ev.own_weights_definite()):
        if not definite:
            raise IndefiniteInputWeightError(
                f"effective input weight of player {i} is not positive definite"
            )
    starts = _starting_points(rg, opts)
    f0 = np.array([f for _, f in starts]).reshape(-1, rg.m, rg.r)
    z, steps = root(ev, ev.pack(f0, ev.values(f0)[0]))
    f, p = ev.unpack(z)
    a_cl, costs = ev.closed_loop(f), ev.costs(f)
    stat, care = (np.abs(x).max(axis=(-2, -1), initial=0.0)
                  for x in ev.residual_matrices(f, p, a_cl, costs))
    within = ev.accepts(stat, care, *ev.denominators(f, p, a_cl, costs))
    solutions: list[EquilibriumSolution] = []
    for k in np.flatnonzero(is_stable(a_cl) & within):
        if any(same_behavior(f[k], sol.f_star.matrix) for sol in solutions):
            continue
        solutions.append(EquilibriumSolution(
            f_star=ReducedFeedback(f[k], rg.input_dims),
            p=tuple(p[k]),
            a_cl=a_cl[k],
            spectrum=sorted_spectrum(np.linalg.eigvals(a_cl[k])),
            residual_max=float(max(stat[k], care[k].max())),
            residual_scale=ev.scale,
            iterations=int(steps[k]),
            start=starts[k][0],
        ))

    solutions.sort(key=lambda s: tuple(np.round(s.f_star.matrix, 8).reshape(-1)))
    return solutions


def equilibrium_cost(sol: EquilibriumSolution, i: int, x1_0: np.ndarray) -> float:
    """Player i's equilibrium cost from the reduced initial state x1_0."""
    x1_0 = np.asarray(x1_0, dtype=float).reshape(-1)
    return float(x1_0 @ sol.p[i] @ x1_0)


def certify_nash(rg: ReducedGame, c: CostParameters, f_red: ReducedFeedback,
                 tol: float = SolveOptions.tol) -> tuple[bool, np.ndarray]:
    """Whether ``f_red`` is a feedback Nash equilibrium of ``c``: the
    acceptance test of :func:`solve_fbne` at ``tol``, at the gain's own
    Lyapunov value matrices P(F).

    With a stable loop and every effective own-input weight R^_i positive
    definite, value matrices that meet stationarity solve each player's
    best-response Riccati equation (the others' gains fixed) with a stable
    loop, so they are its stabilizing solutions and every F_i is a best
    response (Engwerda 2005, ch. 8).  Nothing is random and no Riccati
    equation is solved.
    Returns ``(ok, errors)``: ``errors[i]`` is player i's stationarity
    backward error (its rows of G F + V' + Bd' P over the family's
    denominator), infinite where R^_i is not positive definite or the
    loop has no stable, unique value matrices; ``ok`` is then False,
    never an exception.
    """
    ev = _Evaluator(rg, c, tol)
    f = f_red.matrix
    (p,), (solved,) = ev.values(f[None])
    if not solved:
        return False, np.full(rg.n_players, np.inf)
    a_cl, costs = ev.closed_loop(f), ev.costs(f)
    definite = np.array(ev.own_weights_definite())
    stat, care = ev.residual_matrices(f, p, a_cl, costs)
    s_stat, s_care = ev.denominators(f, p, a_cl, costs)
    stat_max = np.array([np.abs(stat[si]).max(initial=0.0) for si in ev.rows])
    # a zero residual is a zero backward error, also over a zero denominator
    errors = np.where(definite, np.divide(stat_max, s_stat, out=np.zeros_like(stat_max),
                                          where=stat_max > 0), np.inf)
    ok = definite.all() and ev.accepts(stat_max.max(), np.abs(care).max(axis=(-2, -1)),
                                       s_stat, s_care)
    return bool(ok), errors
