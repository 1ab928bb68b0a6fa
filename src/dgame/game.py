"""Problem data model and reduction of the descriptor game.

A descriptor game couples the dynamics ``E x' = A x + sum_i B_i u_i``
(rank E = r <= n) with per-player quadratic costs

    J_i = integral( x' Q_i x + sum_j u_j' R_ij u_j ) dt.

Substituting the algebraic part of the Weierstrass split turns it into a
standard r-dimensional game

    x1' = J x1 + sum_i B1_i u_i,

whose per-player cost matrix is the congruence

    M_i = T' blkdiag(Q_i, R_i) T,      T = [[X1, -X2 B2], [0, I_m]],

with blocks named q_bar (state weight), v_bar (state/input coupling),
r_bar (effective input weights) and s_bar (cross-input couplings).  This
module owns the data types, the construction-time validation of the
standing assumptions (impulse-free pencil, r >= 1, per-player
stabilizability) and M_i itself (:func:`m_matrix`; consumers, the
forward solver's stationarity operator G among them, slice their blocks
out of it).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import is_symmetric, symmetrize
from .pencil import Pencil, WeierstrassData, weierstrass

__all__ = [
    "UnstabilizableError",
    "StaticGameError",
    "DescriptorGame",
    "CostParameters",
    "ReducedGame",
    "reduce_game",
    "m_matrix",
]

#: rank tolerance for the Hautus stabilizability test
HAUTUS_TOL = 1e-9


class UnstabilizableError(ValueError):
    """Some player cannot stabilize the finite dynamics on their own."""


class StaticGameError(ValueError):
    """rank E = 0: the game has no dynamic state (r = 0) to steer."""


def _check_stabilizable(j: np.ndarray, lams: np.ndarray, b1: np.ndarray, label: str) -> None:
    """Hautus test: rank [lam I - J, B] = r at every unstable eigenvalue
    lam of J among ``lams``, by one stacked SVD; raises naming the first
    failing one in ``lams`` order.  J and B are real, so [conj(lam) I - J,
    B] is the conjugate of [lam I - J, B], with its singular values: a
    complex pair is tested once, through its member with Im >= 0."""
    r = j.shape[0]
    unstable = lams[~(lams.real < 0)]
    tested = unstable[unstable.imag >= 0]
    m = np.empty((tested.size, r, r + b1.shape[1]), dtype=complex)
    m[:, :, :r] = tested[:, None, None] * np.eye(r) - j
    m[:, :, r:] = b1
    s = np.linalg.svd(m, compute_uv=False)
    failing = tested[s[:, -1] <= HAUTUS_TOL * np.maximum(1.0, s[:, 0])]
    if failing.size:
        first = np.flatnonzero(np.isin(unstable, failing) | np.isin(unstable.conj(), failing))[0]
        raise UnstabilizableError(
            f"pair (J, B1[{label}]) is not stabilizable at eigenvalue {unstable[first]:.4g}"
        )


@dataclass(frozen=True)
class DescriptorGame:
    """Game dynamics (E, A, {B_i}); validated on construction.

    Construction checks that (E, A) is regular with index <= 1, that the
    reduced dynamics have at least one state (r >= 1) and that each player
    individually stabilizes them (Hautus rank test on every unstable
    eigenvalue of J).  ``decomposition`` keeps the Weierstrass data that
    check was made on, for :func:`reduce_game`.
    """

    e: np.ndarray
    a: np.ndarray
    b: tuple[np.ndarray, ...]
    decomposition: WeierstrassData = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        e = np.atleast_2d(np.asarray(self.e, dtype=float))
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        bs = tuple(np.atleast_2d(np.asarray(bi, dtype=float)) for bi in self.b)
        if not bs:
            raise ValueError("game needs at least one player")
        n = e.shape[0]
        for i, bi in enumerate(bs):
            if bi.shape[0] != n:
                raise ValueError(f"B[{i}] must have {n} rows")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", bs)
        w = weierstrass(Pencil(e, a))  # raises on irregular / index >= 2
        if w.r == 0:
            raise StaticGameError("rank E = 0 leaves the game no dynamic state (r = 0)")
        for i, bi in enumerate(bs):
            _check_stabilizable(w.j, w.eigenvalues, (w.y.T @ bi)[: w.r], str(i))
        object.__setattr__(self, "decomposition", w)

    @property
    def n(self) -> int:
        return self.e.shape[0]

    @property
    def n_players(self) -> int:
        return len(self.b)

    @property
    def input_dims(self) -> tuple[int, ...]:
        return tuple(bi.shape[1] for bi in self.b)

    @property
    def m(self) -> int:
        return sum(self.input_dims)

    @property
    def b_stacked(self) -> np.ndarray:
        return np.hstack(self.b)


@dataclass(frozen=True)
class CostParameters:
    """Per-player symmetric weights: q[i] is n x n, r[i][j] is m_j x m_j."""

    q: tuple[np.ndarray, ...]
    r: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        qs = tuple(np.atleast_2d(np.asarray(qi, dtype=float)) for qi in self.q)
        rs = tuple(tuple(np.atleast_2d(np.asarray(rij, dtype=float)) for rij in row)
                   for row in self.r)
        if len(rs) != len(qs):
            raise ValueError("need one row of R weights per player")
        for i, qi in enumerate(qs):
            if not is_symmetric(qi, tol=1e-9):
                raise ValueError(f"Q[{i}] must be symmetric")
        for i, row in enumerate(rs):
            if len(row) != len(qs):
                raise ValueError(f"R[{i}] must have one block per player")
            for j, rij in enumerate(row):
                if not is_symmetric(rij, tol=1e-9):
                    raise ValueError(f"R[{i}][{j}] must be symmetric")
                if rij.shape != rs[0][j].shape:
                    raise ValueError("R blocks in one column must share dimensions")
        object.__setattr__(self, "q", tuple(symmetrize(qi) for qi in qs))
        object.__setattr__(self, "r", tuple(tuple(symmetrize(rij) for rij in row) for row in rs))

    @property
    def n_players(self) -> int:
        return len(self.q)


@dataclass(frozen=True)
class ReducedGame:
    """The r-dimensional game produced by :func:`reduce_game`.

    ``b1`` / ``b2`` are the per-player dynamic and algebraic input blocks;
    the algebraic part of the original state is ``x2 = -sum_i b2[i] u_i``.
    ``b1_stacked`` / ``b2_stacked`` are their side-by-side stacks, built
    once on construction and read-only.
    """

    j: np.ndarray
    b1: tuple[np.ndarray, ...]
    b2: tuple[np.ndarray, ...]
    w: WeierstrassData
    input_dims: tuple[int, ...]
    b1_stacked: np.ndarray = field(init=False, repr=False, compare=False)
    b2_stacked: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, blocks in (("b1_stacked", self.b1), ("b2_stacked", self.b2)):
            stacked = np.hstack(blocks)
            stacked.flags.writeable = False
            object.__setattr__(self, name, stacked)

    @property
    def r(self) -> int:
        return self.j.shape[0]

    @property
    def n(self) -> int:
        return self.w.n

    @property
    def n_players(self) -> int:
        return len(self.b1)

    @property
    def m(self) -> int:
        return sum(self.input_dims)

    def input_slice(self, i: int) -> slice:
        o = int(np.sum(self.input_dims[:i]))
        return slice(o, o + self.input_dims[i])

    def closed_loop(self, f: np.ndarray) -> np.ndarray:
        """A_cl = J + B1 F for one reduced gain F (m x r) or a stack (S, m, r)."""
        return self.j + self.b1_stacked @ f


def reduce_game(g: DescriptorGame, decomposition: WeierstrassData | None = None) -> ReducedGame:
    """Split the descriptor game into its dynamic and algebraic parts.

    ``decomposition`` overrides the game's own (canonical) Weierstrass
    data, which is how gauge-dependence of reduced-coordinate quantities
    can be probed; it must decompose the same pencil.  The game's
    construction already checked each player's stabilizability, which
    such a gauge (J' = T1^-1 J T1, B1' = T1^-1 B1) leaves unchanged.
    """
    w = decomposition if decomposition is not None else g.decomposition
    yb = [w.y.T @ bi for bi in g.b]
    return ReducedGame(j=w.j, b1=tuple(y[: w.r] for y in yb), b2=tuple(y[w.r:] for y in yb),
                       w=w, input_dims=g.input_dims)


def m_matrix(rg: ReducedGame, c: CostParameters, i: int) -> np.ndarray:
    """Full (r+m) x (r+m) reduced cost matrix of player ``i``,
    ``T' blkdiag(Q_i, R_i) T`` assembled block by block:

    q_bar       = X1' Q_i X1                          (state weight)
    v_bar[j]    = -X1' Q_i X2 B2_j                    (state/input coupling)
    r_bar[j]    = R_ij + B2_j' X2' Q_i X2 B2_j        (effective input weight)
    s_bar[j][k] = B2_j' X2' Q_i X2 B2_k,  j < k       (cross-input coupling)
    """
    x1, x2, qi, r = rg.w.x1, rg.w.x2, c.q[i], rg.r

    def rows(j):
        s = rg.input_slice(j)
        return slice(r + s.start, r + s.stop)

    out = np.zeros((r + rg.m, r + rg.m))
    out[:r, :r] = symmetrize(x1.T @ qi @ x1)
    for j in range(rg.n_players):
        sj = rows(j)
        v_bar = -x1.T @ qi @ x2 @ rg.b2[j]
        out[:r, sj] = v_bar
        out[sj, :r] = v_bar.T
        out[sj, sj] = symmetrize(c.r[i][j] + rg.b2[j].T @ x2.T @ qi @ x2 @ rg.b2[j])
        for k in range(j + 1, rg.n_players):
            sk = rows(k)
            s_bar = rg.b2[j].T @ x2.T @ qi @ x2 @ rg.b2[k]
            out[sj, sk] = s_bar
            out[sk, sj] = s_bar.T
    return symmetrize(out)

