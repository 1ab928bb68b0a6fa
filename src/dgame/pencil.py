"""Matrix-pencil analysis and Weierstrass reduction of (E, A).

A regular pencil ``lambda E - A`` admits invertible X, Y with

    Y' E X = diag(I_r, N),      Y' A X = diag(J, I_{n-r}),

where N is nilpotent (N = 0 for index-1 pencils) and J carries the finite
eigenvalues.  This module decides regularity and index, constructs the
transformation for index-1 pencils, and exposes the dynamic/algebraic
split used by the game reduction.

Construction: orthogonally transform E to diag(Sigma_r, 0) via its SVD.
In those coordinates index-1 is equivalent to invertibility of the
trailing block A22; the coupling blocks are then eliminated by block
row/column operations and the trailing block scaled to the identity,
leaving J as the (scaled) Schur complement A11 - A12 A22^{-1} A21.

The pair (X, Y) is not unique.  This module fixes the SVD-plus-Schur-
complement construction deterministically; reduced-coordinate quantities
(feedback gains, Riccati solutions, constraint matrices) depend on that
choice, while spectra, solution-set membership and trajectories do not.
:func:`transform_decomposition` produces alternative valid decompositions
for gauge-invariance checks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import sorted_spectrum

__all__ = [
    "Pencil",
    "WeierstrassData",
    "IrregularPencilError",
    "ImpulsiveModesError",
    "is_regular",
    "index_of",
    "weierstrass",
    "finite_spectrum",
    "consistent_initial",
    "transform_decomposition",
]

#: relative SVD cutoff deciding rank(E)
RANK_TOL = 1e-10


class IrregularPencilError(ValueError):
    """det(lambda E - A) vanishes identically; the pencil has no unique solutions."""


class ImpulsiveModesError(ValueError):
    """The pencil has index >= 2: impulsive modes present."""


@dataclass(frozen=True)
class Pencil:
    """A square matrix pencil ``lambda e - a``."""

    e: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        e = np.atleast_2d(np.asarray(self.e, dtype=float))
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        if e.shape != a.shape or e.shape[0] != e.shape[1]:
            raise ValueError("pencil matrices must be square and of equal size")
        if not (np.isfinite(e).all() and np.isfinite(a).all()):
            raise ValueError("pencil matrices must be finite")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.e.shape[0]


@dataclass(frozen=True)
class WeierstrassData:
    """Transformation pair and reduced blocks of an index <= 1 pencil.

    Satisfies ``y.T @ e @ x = diag(I_r, 0)`` and
    ``y.T @ a @ x = diag(j, I_{n-r})``; ``x1``/``x2`` are the first r and
    trailing n - r columns of ``x``.
    """

    x: np.ndarray
    y: np.ndarray
    r: int
    j: np.ndarray
    index: int

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def x1(self) -> np.ndarray:
        return self.x[:, : self.r]

    @property
    def x2(self) -> np.ndarray:
        return self.x[:, self.r:]


def _singular_at(e: np.ndarray, a: np.ndarray, lam: float) -> bool:
    """Numerically rank-deficient test of lam*E - A via singular values."""
    m = lam * e - a
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0:
        return True
    return bool(s[-1] <= 1e-12 * m.shape[0] * s[0])


def is_regular(p: Pencil) -> bool:
    """True iff det(lambda E - A) is not identically zero.

    Samples the determinant at n + 1 deterministic points (scaled by
    ``|A| / |E|`` so the sweep covers the pencil's natural range), falling
    back to extra seeded samples before declaring irregularity: a degree
    <= n polynomial vanishing at n + 1 distinct points is identically zero,
    so any nonsingular sample certifies regularity.
    """
    e, a, n = p.e, p.a, p.n
    norm_e = np.abs(e).max(initial=0.0)
    norm_a = np.abs(a).max(initial=0.0)
    if norm_e == 0.0 and norm_a == 0.0:
        return False
    scale = norm_a / norm_e if norm_e > 0 else 1.0
    scale = max(scale, 1e-6)
    for k in range(1, n + 2):
        if not _singular_at(e, a, k * scale):
            return True
    # fallback sweep at seeded pseudo-random points, in case the
    # deterministic grid happened to hit eigenvalues
    rng = np.random.default_rng(0)
    for lam in rng.uniform(-10.0, 10.0, size=2 * n + 2):
        if not _singular_at(e, a, lam * scale):
            return True
    return False


def _split_by_rank(p: Pencil):
    """SVD-split E = U diag(Sigma_r, 0) V'; returns pieces in those coordinates."""
    u, s, vt = np.linalg.svd(p.e)
    smax = s[0] if s.size else 0.0
    r = int(np.sum(s > RANK_TOL * max(smax, 1e-300)))
    at = u.T @ p.a @ vt.T
    return u, s, vt.T, r, at


def _a22_invertible(at: np.ndarray, r: int) -> bool:
    a22 = at[r:, r:]
    if a22.shape[0] == 0:
        return True
    s = np.linalg.svd(a22, compute_uv=False)
    return bool(s[-1] > 1e-12 * max(1.0, s[0]))


def index_of(p: Pencil) -> int:
    """Nilpotency index of the infinite-eigenvalue block.

    Returns 0 when E is invertible (pure ODE), 1 when the pencil is
    impulse-free with rank(E) < n.  For higher-index pencils the actual
    index is recovered from the rank chain of (lam0*E - A)^{-1} E at a
    regular point lam0.
    """
    if not is_regular(p):
        raise IrregularPencilError("pencil is not regular")
    _, _, _, r, at = _split_by_rank(p)
    n = p.n
    if r == n:
        return 0
    if _a22_invertible(at, r):
        return 1
    # index >= 2: rank chain of E_hat = (lam0 E - A)^{-1} E
    norm_e = np.abs(p.e).max(initial=0.0)
    norm_a = max(np.abs(p.a).max(initial=0.0), 1e-300)
    scale = norm_a / norm_e if norm_e > 0 else 1.0
    lam0 = None
    for k in range(1, 4 * n + 2):
        if not _singular_at(p.e, p.a, k * scale):
            lam0 = k * scale
            break
    if lam0 is None:
        raise IrregularPencilError("could not locate a regular point of the pencil")
    e_hat = np.linalg.solve(lam0 * p.e - p.a, p.e)

    def num_rank(m):
        s = np.linalg.svd(m, compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > 1e-10 * s[0]))

    power = e_hat.copy()
    prev = num_rank(power)
    for mu in range(1, n + 1):
        power = power @ e_hat
        cur = num_rank(power)
        if cur == prev:
            return mu
        prev = cur
    return n


def weierstrass(p: Pencil) -> WeierstrassData:
    """Weierstrass decomposition of a regular, index <= 1 pencil.

    Raises :class:`IrregularPencilError` for irregular pencils and
    :class:`ImpulsiveModesError` when the index exceeds 1.
    """
    if not is_regular(p):
        raise IrregularPencilError("pencil is not regular")
    u, s, v, r, at = _split_by_rank(p)
    n = p.n
    if r == n:
        sig_inv = np.diag(1.0 / s)
        j = sig_inv @ at
        x = v
        y = u @ sig_inv.T
        return WeierstrassData(x=x, y=y, r=n, j=j, index=0)
    if not _a22_invertible(at, r):
        raise ImpulsiveModesError("impulsive modes present (index >= 2)")
    a11, a12 = at[:r, :r], at[:r, r:]
    a21, a22 = at[r:, :r], at[r:, r:]
    sig_inv = np.diag(1.0 / s[:r])
    a22_inv = np.linalg.inv(a22)
    b1 = sig_inv @ a11
    b2 = sig_inv @ a12
    j = b1 - b2 @ a22_inv @ a21
    # left transform: scale Sigma block, then eliminate the off-diagonal
    # blocks of A without touching diag(I_r, 0)
    left = np.block([
        [np.eye(r), -b2 @ a22_inv],
        [np.zeros((n - r, r)), a22_inv],
    ]) @ np.block([
        [sig_inv, np.zeros((r, n - r))],
        [np.zeros((n - r, r)), np.eye(n - r)],
    ]) @ u.T
    right = np.block([
        [np.eye(r), np.zeros((r, n - r))],
        [-a22_inv @ a21, np.eye(n - r)],
    ])
    x = v @ right
    y = left.T
    return WeierstrassData(x=x, y=y, r=r, j=j, index=1)


def finite_spectrum(p: Pencil) -> np.ndarray:
    """Finite eigenvalues of the pencil, canonically ordered.

    For a closed-loop query pass ``Pencil(e, a + b @ f)``.
    """
    w = weierstrass(p)
    return sorted_spectrum(np.linalg.eigvals(w.j))


def consistent_initial(w: WeierstrassData, b2_bar: np.ndarray,
                       f_bar: np.ndarray, x1_0: np.ndarray) -> np.ndarray:
    """Consistent initial state ``x0 = (X1 - X2 B2 F) x1_0`` for a closed loop.

    ``b2_bar`` stacks the players' algebraic input blocks ((n-r) x m) and
    ``f_bar`` is the reduced feedback (m x r); the returned state satisfies
    the closed-loop algebraic constraint by construction.
    """
    x1_0 = np.asarray(x1_0, dtype=float).reshape(-1)
    if x1_0.size != w.r:
        raise ValueError(f"x1_0 must have length r={w.r}")
    s = w.x1 - w.x2 @ np.asarray(b2_bar, dtype=float) @ np.asarray(f_bar, dtype=float)
    return s @ x1_0


def transform_decomposition(w: WeierstrassData, t1: np.ndarray,
                            t2: np.ndarray | None = None) -> WeierstrassData:
    """Re-gauge a decomposition by invertible block transforms.

    Any valid decomposition of the same pencil arises as
    ``X' = X diag(T1, T2)``, ``Y' = Y diag(T1^{-T}, T2^{-T})`` with
    ``J' = T1^{-1} J T1``; this is the tool for checking which outputs are
    gauge-independent.
    """
    t1 = np.asarray(t1, dtype=float)
    if t1.shape != (w.r, w.r):
        raise ValueError(f"t1 must be {w.r}x{w.r}")
    k = w.n - w.r
    if t2 is None:
        t2 = np.eye(k)
    t2 = np.asarray(t2, dtype=float)
    if t2.shape != (k, k):
        raise ValueError(f"t2 must be {k}x{k}")
    t1_inv = np.linalg.inv(t1)
    t2_inv = np.linalg.inv(t2) if k else t2
    block = np.zeros((w.n, w.n))
    block[: w.r, : w.r] = t1
    block[w.r:, w.r:] = t2
    block_inv_t = np.zeros((w.n, w.n))
    block_inv_t[: w.r, : w.r] = t1_inv.T
    block_inv_t[w.r:, w.r:] = t2_inv.T if k else t2
    return WeierstrassData(
        x=w.x @ block,
        y=w.y @ block_inv_t,
        r=w.r,
        j=t1_inv @ w.j @ t1,
        index=w.index,
    )
