"""Dense linear-algebra substrate: Lyapunov and Riccati solves, kernels
and eigenvalue queries on plain numpy arrays at desk scale (n up to a few
tens; no sparse or large-scale paths).

Lyapunov solves ``A' P + P A + Q = 0`` give the forward model its value
matrices and the inverse side its adjoint solves, for one matrix or a
stack (one failing item never spoils the others).  Each loop is factored
once as A' = U T U' (real Schur form, LAPACK ``dgees``) for all its
right-hand sides, each a triangular Sylvester solve T Y + Y T' = -U' Q U,
P = U Y U' (Bartels-Stewart).  An item is accepted by its normwise
backward error: residual max-norm at most
1e-10 (2 max|A| max|P| + max|Q|) (Higham 2002, ch. 16).  ``vech`` and
``unvech`` pack symmetric parameters.  Stabilizing solutions of a stack of
continuous-time algebraic Riccati equations come from one stacked Newton
iteration for the matrix sign function of their Hamiltonians
(:func:`solve_riccati_stack`).
"""
from __future__ import annotations

import functools

import numpy as np
import scipy.linalg as sla

__all__ = [
    "vech",
    "unvech",
    "solve_lyapunov",
    "solve_lyapunov_stack",
    "solve_riccati_stack",
    "kernel_basis",
    "sorted_spectrum",
    "is_stable",
    "min_eig_sym",
    "is_symmetric",
    "symmetrize",
]

#: default relative symmetry tolerance for symmetric-matrix inputs
SYM_TOL = 1e-12

#: default relative singular-value cutoff for numerical rank decisions
KERNEL_TOL = 1e-9

#: the sign iteration's stop rule: an item has converged once its Newton
#: update is at most _SIGN_TOL relative to the iterate (1-norm); the
#: iteration converges quadratically, so the iterate it then holds is
#: accurate to rounding level
_SIGN_TOL = 1e-10

#: the error of a Lyapunov equation without a unique solution
_PAIRING = "non-unique/no Lyapunov solution (eigenvalue pairing in a_cl)"


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


@functools.cache
def triu_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n)``, built once per order and shared, so its
    arrays are read-only."""
    iu = np.triu_indices(n)
    for a in iu:
        a.flags.writeable = False
    return iu


def vech(a: np.ndarray, tol: float = SYM_TOL) -> np.ndarray:
    """Half-vectorization of a symmetric matrix.

    Stacks the lower-triangular entries column by column; the result has
    length ``n (n + 1) / 2``.  Raises ``ValueError`` if the input is not
    symmetric within ``tol`` (relative, max-norm).
    """
    a = np.asarray(a, dtype=float)
    if not is_symmetric(a, tol):
        raise ValueError("vech requires a symmetric matrix")
    col, row = triu_indices(a.shape[0])    # the lower triangle, column by column
    return a[row, col]


def unvech(v: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`vech`: rebuild the symmetric ``n x n`` matrix."""
    v = np.asarray(v, dtype=float)
    if v.size != n * (n + 1) // 2:
        raise ValueError(f"vech vector of length {v.size} does not match n={n}")
    col, row = triu_indices(n)
    m = np.zeros((n, n))
    m[row, col] = m[col, row] = v
    return m


def solve_lyapunov_stack(a_cl: np.ndarray, q: np.ndarray):
    """Solve ``a_cl[s]' P + P a_cl[s] + q[s] = 0`` for a stack of loops.

    ``a_cl`` is ``(S, n, n)``; ``q`` is ``(S, n, n)``, or ``(S, K, n, n)``
    for K right-hand sides sharing the loop ``a_cl[s]``.  Returns
    ``(p, errors)``: ``p`` shaped like ``q``, and per item of ``q`` in C
    order ``None`` or the exception :func:`solve_lyapunov` raises for it
    alone (its ``p`` is then NaN).  One failing item never affects
    another.  Each loop gets one real Schur form ``a_cl[s]' = U T U'``
    (``dgees``, unsorted) and each right-hand side one ``dtrsyl`` solve
    ``T Y + Y T' = -U' q U`` (Bartels & Stewart 1972), ``P = U Y U'``; a
    loop that is not finite or has no Schur form leaves its items NaN.
    An item whose residual's max-norm exceeds
    ``1e-10 (2 max|a_cl| max|P| + max|q|)`` is rejected.
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
    todo = symmetric.reshape(qs.shape[:2])
    # U' and Y' are stored row-major: each U and Y item then keeps the
    # column-major layout dgees and dtrsyl return, so the stacked products
    # round exactly as products on that output would
    t, u_t = np.empty(a_cl.shape), np.empty(a_cl.shape)
    factored = np.zeros(len(a_cl), dtype=bool)
    for s in np.flatnonzero(todo.any(axis=1) & np.isfinite(a_cl).all(axis=(1, 2))):
        t[s], _, _, _, u, _, info = sla.lapack.dgees(lambda wr, wi: 0, a_cl[s].T)
        u_t[s], factored[s] = u.T, info == 0
    items = np.flatnonzero(todo & factored[:, None])
    u_t = u_t[items // qs.shape[1]]
    y_t = np.full((len(items), n, n), np.nan)
    for i, (k, f_k) in enumerate(zip(items, u_t @ -q[items] @ u_t.transpose(0, 2, 1))):
        t_k = t[k // qs.shape[1]]
        y, scale, info = sla.lapack.dtrsyl(t_k, t_k, f_k, tranb="T")
        if info == 1:
            errors[k] = np.linalg.LinAlgError(_PAIRING)
        else:
            y_t[i] = (y / scale).T
    y = u_t.transpose(0, 2, 1) @ y_t.transpose(0, 2, 1) @ u_t
    p[items] = 0.5 * (y + y.transpose(0, 2, 1))
    resid = np.abs(a.transpose(0, 2, 1) @ p + p @ a + q).max(axis=(1, 2), initial=0.0)
    a_size, p_size, q_size = (np.abs(x).max(axis=(1, 2), initial=0.0) for x in (a, p, q))
    bound = 1e-10 * (2.0 * a_size * p_size + q_size)
    for k in np.flatnonzero(~np.isfinite(resid) | (resid > bound)):
        if errors[k] is None:
            errors[k] = ValueError(
                f"Lyapunov residual {resid[k]:.2e} exceeds tolerance; "
                "equation is ill-conditioned (near eigenvalue pairing)"
            )
        p[k] = np.nan
    return p.reshape(shape), errors


def solve_lyapunov(a_cl: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve ``a_cl' P + P a_cl + q = 0`` for symmetric P.

    The one-item case of :func:`solve_lyapunov_stack` (one real Schur
    form and one ``dtrsyl`` solve); the solution is unique
    exactly when no two eigenvalues of ``a_cl`` sum to zero (always true
    for stable ``a_cl``).

    Raises ``numpy.linalg.LinAlgError`` when the equation has no unique
    solution, and ``ValueError`` when q is not symmetric or the
    residual's max-norm exceeds ``1e-10 (2 max|a_cl| max|P| + max|q|)``,
    a normwise backward error above 1e-10.
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


def solve_each(a, b):
    """``np.linalg.solve`` over a stack ``a`` (S, n, n), ``b`` (S, n, k),
    NaN for an item whose matrix is singular; every other item has the
    bits of its own solve."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(b.shape, np.nan)
        return np.concatenate([solve_each(a[k:k + 1], b[k:k + 1]) for k in range(len(a))])


def solve_riccati_stack(a, s, q):
    """Stabilizing solutions of ``a' P + P a - P s[k] P + q[k] = 0``.

    ``a`` is ``(n, n)`` or ``(K, n, n)``; ``s`` and ``q`` are symmetric
    ``(K, n, n)`` (for a regulator problem, s = B R^-1 B').  Returns
    ``(p, ok)``: ``p`` of shape ``(K, n, n)`` with ``a - s[k] P_k`` stable
    where ``ok[k]``, NaN elsewhere.  Each Hamiltonian
    H_k = [[a, -s_k], [-q_k, -a']] goes through Newton's iteration for the
    matrix sign function with determinant scaling (Roberts 1980; Byers
    1987), Z <- (c Z + (c Z)^-1) / 2 with c = |det Z|^(-1/2n), all items
    in one stack; an item retires once its update is at most
    ``_SIGN_TOL`` relative to the iterate.  Its stable invariant subspace
    is the kernel of W + I (W = sign H_k), so P_k is the least-squares
    solution of [W12; W22 + I] P = -[W11 + I; W21] by a QR factorization.
    An item is masked, never raised for, when it is not finite, a Z is
    singular, it has not converged after 53 + 8 steps (the eigenvalues of
    H_k are then too close to the imaginary axis to tell apart in double
    precision) or [W12; W22 + I] is singular to working precision.
    """
    a, s, q = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (a, s, q)))
    k, n = s.shape[0], s.shape[-1]
    z = np.empty((k, 2 * n, 2 * n))
    z[:, :n, :n], z[:, :n, n:] = a, -s
    z[:, n:, :n], z[:, n:, n:] = -q, -a.transpose(0, 2, 1)
    converged = np.zeros(k, dtype=bool)
    active = np.flatnonzero(np.isfinite(z).all(axis=(1, 2)))
    for _ in range(np.finfo(float).nmant + 9):     # 53 + 8 steps
        if not active.size:
            break
        sign, logdet = np.linalg.slogdet(z[active])
        regular = (sign != 0) & np.isfinite(logdet)
        active, za = active[regular], z[active[regular]]
        c = np.exp(-logdet[regular] / (2 * n))[:, None, None]
        new = 0.5 * (c * za + solve_each(za, np.broadcast_to(np.eye(2 * n), za.shape)) / c)
        finite = np.isfinite(new).all(axis=(1, 2))
        size = np.abs(new).sum(axis=1).max(axis=1)
        update = np.abs(new - za).sum(axis=1).max(axis=1)
        z[active] = new
        done = finite & (update <= _SIGN_TOL * size)
        converged[active[done]] = True
        active = active[finite & ~done]
    p = np.full((k, n, n), np.nan)
    idx = np.flatnonzero(converged)
    w = z[idx]
    eye = np.eye(n)
    lhs = np.concatenate([w[:, :n, n:], w[:, n:, n:] + eye], axis=1)
    rhs = -np.concatenate([w[:, :n, :n] + eye, w[:, n:, :n]], axis=1)
    q_f, r_f = np.linalg.qr(lhs)
    regular = 1.0 / np.linalg.cond(r_f) >= np.finfo(float).eps
    idx, q_f, r_f, rhs = idx[regular], q_f[regular], r_f[regular], rhs[regular]
    x = np.linalg.solve(r_f, q_f.transpose(0, 2, 1) @ rhs)
    p[idx] = 0.5 * (x + x.transpose(0, 2, 1))
    ok = np.isfinite(p).all(axis=(1, 2))
    p[~ok] = np.nan
    return p, ok


def kernel_basis(m: np.ndarray, tol: float = KERNEL_TOL) -> np.ndarray:
    """Orthonormal basis of the numerical kernel of ``m``.

    Singular values below ``tol * sigma_max`` are treated as zero.  The
    columns of the returned matrix satisfy ``Z' Z = I`` and
    ``|m Z| <= tol * sigma_max * sqrt(cols)``.  A zero (or empty) matrix
    yields the full identity basis.
    """
    if not tol > 0:
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
