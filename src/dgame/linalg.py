"""Dense linear-algebra substrate: Kronecker/vectorization calculus and
small-matrix solves.

Implements the identities the rest of the toolkit is built on:

    vec(X Y Z) = (Z' kron X) vec(Y)
    vec(A)     = D_n vech(A)        for symmetric A

together with Lyapunov solves ``A' P + P A + Q = 0`` for one matrix or a
stack of them (one failing item never spoils the others).  Below order
n = 10 each item is the Kronecker system

    K = (I kron A') + (A' kron I),      K vec(P) = -vec(Q);

from n = 10 on, each loop is factored once as A' = U T U' (real Schur
form) for all its right-hand sides, each a triangular Sylvester solve
T Y + Y T' = -U' Q U with P = U Y U' (Bartels-Stewart).  Also numerical
kernel bases and eigenvalue/definiteness queries, on plain numpy arrays
at desk scale (n up to a few tens); no sparse or large-scale paths.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla

__all__ = [
    "kron",
    "vec",
    "vech",
    "unvech",
    "duplication_matrix",
    "lyapunov_operator",
    "solve_lyapunov",
    "solve_lyapunov_stack",
    "kernel_basis",
    "eigvals",
    "sorted_spectrum",
    "is_stable",
    "min_eig_sym",
    "is_pd",
    "is_symmetric",
    "symmetrize",
]

#: default relative symmetry tolerance for symmetric-matrix inputs
SYM_TOL = 1e-12

#: default relative singular-value cutoff for numerical rank decisions
KERNEL_TOL = 1e-9

#: memory budget for the Kronecker operators of one group of stacked
#: Lyapunov solves; a group holds at least one item
_LYAPUNOV_GROUP_BYTES = 256 << 10

#: smallest order n whose Lyapunov solves go through the real Schur form
#: rather than the Kronecker operator
_SCHUR_MIN_ORDER = 10

#: the error of a Lyapunov equation without a unique solution
_PAIRING = "non-unique/no Lyapunov solution (eigenvalue pairing in a_cl)"


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (thin wrapper over numpy)."""
    return np.kron(np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def vec(a: np.ndarray) -> np.ndarray:
    """Column-wise vectorization: columns stacked top to bottom."""
    return np.asarray(a, dtype=float).reshape(-1, order="F")


def is_symmetric(a: np.ndarray, tol: float = SYM_TOL) -> bool:
    """True if ``max|A - A'| <= tol * (1 + max|A|)``."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = 1.0 + np.abs(a).max(initial=0.0)
    return bool(np.abs(a - a.T).max(initial=0.0) <= tol * scale)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return ``(A + A') / 2``."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def vech(a: np.ndarray, tol: float = SYM_TOL) -> np.ndarray:
    """Half-vectorization of a symmetric matrix.

    Stacks the lower-triangular entries column by column; the result has
    length ``n (n + 1) / 2``.  Raises ``ValueError`` if the input is not
    symmetric within ``tol`` (relative, max-norm).
    """
    a = np.asarray(a, dtype=float)
    if not is_symmetric(a, tol):
        raise ValueError("vech requires a symmetric matrix")
    n = a.shape[0]
    return np.concatenate([a[j:, j] for j in range(n)]) if n else np.zeros(0)


def unvech(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vech`: rebuild the symmetric ``n x n`` matrix."""
    v = np.asarray(v, dtype=float)
    if v.size != n * (n + 1) // 2:
        raise ValueError(f"vech vector of length {v.size} does not match n={n}")
    m = np.zeros((n, n))
    k = 0
    for j in range(n):
        rows = n - j
        m[j:, j] = v[k:k + rows]
        m[j, j:] = v[k:k + rows]
        k += rows
    return m


def duplication_matrix(n: int) -> np.ndarray:
    """The 0/1 matrix D_n with ``vec(A) = D_n vech(A)`` for symmetric A.

    Shape is ``n^2 x n(n+1)/2``; each row holds exactly one unit entry.
    """
    if n < 1:
        raise ValueError("duplication_matrix requires n >= 1")
    d = np.zeros((n * n, n * (n + 1) // 2))
    col = 0
    for j in range(n):
        for i in range(j, n):
            d[i + j * n, col] = 1.0
            d[j + i * n, col] = 1.0
            col += 1
    return d


def lyapunov_operator(a_cl: np.ndarray) -> np.ndarray:
    """The Lyapunov operator ``K = (I kron a_cl') + (a_cl' kron I)``.

    Accepts one ``n x n`` matrix or a stack ``(..., n, n)`` and returns
    ``(..., n^2, n^2)``.  Built by broadcasting; the entries are exactly
    those of the two explicit Kronecker products.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    n = a_cl.shape[-1]
    at = np.ascontiguousarray(np.swapaxes(a_cl, -1, -2))
    eye = np.eye(n)
    # axes (..., i, k, j, l) -> row i*n + k, column j*n + l
    k = (eye[:, None, :, None] * at[..., None, :, None, :]
         + at[..., :, None, :, None] * eye[None, :, None, :])
    return k.reshape(a_cl.shape[:-2] + (n * n, n * n))


def solve_lyapunov_stack(a_cl: np.ndarray, q: np.ndarray):
    """Solve ``a_cl[s]' P + P a_cl[s] + q[s] = 0`` for a stack of loops.

    ``a_cl`` is ``(S, n, n)``; ``q`` is ``(S, n, n)``, or ``(S, K, n, n)``
    for K right-hand sides sharing the loop ``a_cl[s]``.  Returns
    ``(p, errors)``: ``p`` shaped like ``q``, and per item of ``q`` in C
    order ``None`` or the exception :func:`solve_lyapunov` raises for it
    alone (its ``p`` is then NaN).  One failing item never affects
    another.  For n < 10 the items are Kronecker systems, solved in
    groups within a fixed memory budget and one by one when a group is
    singular; for n >= 10 each loop gets one real Schur form
    ``a_cl[s]' = U T U'`` and each right-hand side one ``dtrsyl`` solve
    ``T Y + Y T' = -U' q U`` (Bartels & Stewart 1972), ``P = U Y U'``.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    q = np.asarray(q, dtype=float)
    if (a_cl.ndim != 3 or a_cl.shape[1] != a_cl.shape[2] or q.ndim not in (3, 4)
            or q.shape[:1] + q.shape[-2:] != a_cl.shape):
        raise ValueError("solve_lyapunov requires square matrices of equal size")
    shape, n = q.shape, a_cl.shape[1]
    qs = q if q.ndim == 4 else q[:, None]
    a = np.broadcast_to(a_cl[:, None], qs.shape).reshape(-1, n, n)
    q = qs.reshape(-1, n, n)
    errors: list[Exception | None] = [None] * len(q)
    p = np.full(q.shape, np.nan)
    q_scale = 1.0 + np.abs(q).max(axis=(1, 2), initial=0.0)
    symmetric = np.abs(q - q.transpose(0, 2, 1)).max(axis=(1, 2), initial=0.0) <= 1e-10 * q_scale
    for k in np.flatnonzero(~symmetric):
        errors[k] = ValueError("solve_lyapunov requires symmetric q")
    if n < _SCHUR_MIN_ORDER:
        _lyapunov_kronecker(a, q, np.flatnonzero(symmetric), p, errors)
    else:
        _lyapunov_schur(a_cl, qs, symmetric.reshape(qs.shape[:2]), p, errors)
    resid = np.abs(a.transpose(0, 2, 1) @ p + p @ a + q).max(axis=(1, 2), initial=0.0)
    bound = 1e-10 * q_scale * np.maximum(1.0, np.abs(p).max(axis=(1, 2), initial=0.0))
    for k in np.flatnonzero(~np.isfinite(resid) | (resid > bound)):
        if errors[k] is None:
            errors[k] = ValueError(
                f"Lyapunov residual {resid[k]:.2e} exceeds tolerance; "
                "equation is ill-conditioned (near eigenvalue pairing)"
            )
        p[k] = np.nan
    return p.reshape(shape), errors


def _lyapunov_kronecker(a, q, todo, p, errors):
    """Fill the items ``todo`` of the flat stack ``p`` from stacked
    Kronecker systems ``K vec(P) = -vec(q)``."""
    n = a.shape[-1]
    group = max(1, _LYAPUNOV_GROUP_BYTES // max(1, 8 * n ** 4))
    for lo in range(0, todo.size, group):
        idx = todo[lo:lo + group]
        k_op = lyapunov_operator(a[idx])
        rhs = -q[idx].transpose(0, 2, 1).reshape(idx.size, n * n, 1)   # -vec(q)
        try:
            x = np.linalg.solve(k_op, rhs)
        except np.linalg.LinAlgError:
            x = np.empty_like(rhs)
            for j in range(idx.size):
                try:
                    x[j] = np.linalg.solve(k_op[j], rhs[j])
                except np.linalg.LinAlgError as exc:
                    err = np.linalg.LinAlgError(_PAIRING)
                    err.__cause__ = exc
                    errors[idx[j]] = err
                    x[j] = np.nan
        u = x.reshape(idx.size, n, n).transpose(0, 2, 1)                  # inverse of vec
        p[idx] = 0.5 * (u + u.transpose(0, 2, 1))


def _lyapunov_schur(a_cl, q, todo, p, errors):
    """Fill the items of the flat stack ``p`` that the (S, K) mask
    ``todo`` marks, from one real Schur form per loop and one ``dtrsyl``
    solve per right-hand side; a loop that is not finite or has no Schur
    form leaves its items NaN."""
    k = q.shape[1]
    finite = np.isfinite(a_cl).all(axis=(1, 2))
    for s in np.flatnonzero(todo.any(axis=1) & finite):
        try:
            t, u = sla.schur(a_cl[s].T, output="real", check_finite=False)
        except np.linalg.LinAlgError:
            continue
        rows = np.flatnonzero(todo[s])
        f = u.T @ -q[s, rows] @ u
        for j, f_j in zip(rows, f):
            y, scale, info = sla.lapack.dtrsyl(t, t, f_j, tranb="T")
            if info == 1:
                errors[s * k + j] = np.linalg.LinAlgError(_PAIRING)
                continue
            y = u @ (y / scale) @ u.T
            p[s * k + j] = 0.5 * (y + y.T)


def solve_lyapunov(a_cl: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve ``a_cl' P + P a_cl + q = 0`` for symmetric P.

    The one-item case of :func:`solve_lyapunov_stack` (Kronecker system
    for n < 10, real Schur form for n >= 10); the solution is unique
    exactly when no two eigenvalues of ``a_cl`` sum to zero (always true
    for stable ``a_cl``).

    Raises ``numpy.linalg.LinAlgError`` when the equation has no unique
    solution, and ``ValueError`` when q is not symmetric or the
    residual's max-norm exceeds ``1e-10 (1 + max|q|) max(1, max|P|)``.
    """
    a_cl = np.asarray(a_cl, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a_cl.shape[0]
    if a_cl.shape != (n, n) or q.shape != (n, n):
        raise ValueError("solve_lyapunov requires square matrices of equal size")
    p, errors = solve_lyapunov_stack(a_cl[None], q[None])
    if errors[0] is not None:
        raise errors[0]
    return p[0]


def kernel_basis(m: np.ndarray, tol: float = KERNEL_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``m``.

    Singular values below ``tol * sigma_max`` are treated as zero.  The
    columns of the returned matrix satisfy ``Z' Z = I`` and
    ``|m Z| <= tol * sigma_max * sqrt(cols)``.  A zero (or empty) matrix
    yields the full identity basis.
    """
    if tol <= 0:
        raise ValueError("kernel tolerance must be positive")
    m = np.atleast_2d(np.asarray(m, dtype=float))
    ncols = m.shape[1]
    if m.shape[0] == 0 or ncols == 0:
        return np.eye(ncols)
    _, s, vt = np.linalg.svd(m)
    smax = s[0] if s.size else 0.0
    if smax == 0.0:
        return np.eye(ncols)
    rank = int(np.sum(s > tol * smax))
    return vt[rank:].T.copy()


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix (unordered multiset)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("eigvals requires a square matrix")
    return np.linalg.eigvals(a)


def sorted_spectrum(w: np.ndarray) -> np.ndarray:
    """Canonical ordering of a complex spectrum: by real part, then imaginary."""
    w = np.asarray(w)
    return w[np.lexsort((w.imag, w.real))]


def is_stable(a: np.ndarray):
    """Whether every eigenvalue of ``a`` has negative real part: a bool
    for one matrix, a bool array for a stack ``(..., n, n)``."""
    stable = np.max(np.linalg.eigvals(a).real, axis=-1, initial=-np.inf) < 0.0
    return bool(stable) if stable.ndim == 0 else stable


def min_eig_sym(a: np.ndarray) -> float:
    """Smallest eigenvalue of a symmetric matrix."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return np.inf
    if not is_symmetric(a):
        raise ValueError("min_eig_sym requires a symmetric matrix")
    return float(np.linalg.eigvalsh(symmetrize(a))[0])


def is_pd(a: np.ndarray) -> bool:
    """True if the symmetric matrix ``a`` has ``min eig > 0``."""
    return min_eig_sym(a) > 0.0
