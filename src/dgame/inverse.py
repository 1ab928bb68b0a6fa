"""Inverse game: which cost parameters rationalize an observed feedback.

For an observed stabilizing reduced feedback F the rationalizing cost
parameters of player i (flattened as theta_i, state weight first, then
the player's input weights) form the intersection of

  * a linear kernel: M_i theta_i = 0, where M_i eliminates the value
    matrix from the coupled Riccati + stationarity equations through the
    loop's adjoint Lyapunov equation, one stacked solve for all players,
  * and an open cone: the effective own-input weight
    R_ii + B2_i' X2' Q_i X2 B2_i must be positive definite,

both linear in theta through one fold, :meth:`ThetaLayout.dual`.

The solution set is a per-player Cartesian product, convex, and closed
under positive scaling, so identification can only ever return a
normalized representative.  This module assembles M_i, computes kernels
and definiteness margins, identifies a maximal-margin representative
(with optional support constraints such as diagonal state weights),
samples the solution set, and reports which closed-loop behaviors an
identified cost tuple rationalizes: an equilibrium reproduces the
observed behavior when its reduced gain is the observed one, by the rule
that deduplicates the forward solver's solutions
(:func:`dgame.forward.same_behavior`).  The margin is concave on the
kernel, so its maximum comes from one deterministic solve of the convex
dual over the spectraplex, with a duality gap as its stopping rule; the
same solve diagnoses an empty solution set.  Only
:func:`sample_solution_set` draws random numbers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .feedback import ReducedFeedback, preimage_matrix
from .game import CostParameters, ReducedGame
from .linalg import (
    KERNEL_TOL,
    is_stable,
    kernel_basis,
    min_eig_sym,
    solve_lyapunov_stack,
    unvech,
    vech,
)
from .forward import EquilibriumSolution, SolveOptions, same_behavior, solve_fbne

__all__ = [
    "ThetaLayout",
    "Constraints",
    "PlayerCertificate",
    "InverseCertificate",
    "constraint_matrices",
    "residual",
    "pd_margin",
    "identify",
    "dimension_report",
    "scale_theta",
    "sample_solution_set",
    "rationalized_behaviors",
    "match_behaviors",
    "BehaviorReport",
]

#: iteration cap of the margin optimizer's dual solve
DUAL_ITERS = 10000


@dataclass(frozen=True)
class ThetaLayout:
    """Flat parameter layout: vech(Q_i) first (lower triangle, column
    major), then vech(R_i1) ... vech(R_iN)."""

    n: int
    input_dims: tuple[int, ...]

    @property
    def q_size(self) -> int:
        return self.n * (self.n + 1) // 2

    @property
    def size(self) -> int:
        return self.q_size + sum(d * (d + 1) // 2 for d in self.input_dims)

    def r_offset(self, j: int) -> int:
        return self.q_size + sum(d * (d + 1) // 2 for d in self.input_dims[:j])

    def pack(self, q: np.ndarray, r_row) -> np.ndarray:
        parts = [vech(np.asarray(q, dtype=float))]
        for rij in r_row:
            parts.append(vech(np.atleast_2d(np.asarray(rij, dtype=float))))
        theta = np.concatenate(parts)
        if theta.size != self.size:
            raise ValueError("cost blocks do not match the layout dimensions")
        return theta

    def unpack(self, theta: np.ndarray):
        theta = np.asarray(theta, dtype=float).reshape(-1)
        if theta.size != self.size:
            raise ValueError(f"theta must have length {self.size}, got {theta.size}")
        q = unvech(theta[: self.q_size], self.n)
        return q, [unvech(theta[self.r_offset(j):self.r_offset(j + 1)], d)
                   for j, d in enumerate(self.input_dims)]

    def dual(self, y_q: np.ndarray, y_r) -> np.ndarray:
        """The adjoint of :meth:`unpack`: the theta-coefficients of
        theta -> <Q, y_q> + sum_j <R_j, y_r[j]> (Frobenius products), for
        stacks ``(..., n, n)`` and ``(..., m_j, m_j)`` of y; returns
        ``(..., size)``.  Each block is y + y' with its diagonal halved,
        read in :func:`vech` order."""
        parts = []
        for y in (y_q, *y_r):
            y = np.asarray(y, dtype=float)
            col, row = np.triu_indices(y.shape[-1])   # vech order of the lower triangle
            folded = (y + np.swapaxes(y, -1, -2))[..., row, col]
            parts.append(np.where(row == col, 0.5, 1.0) * folded)
        return np.concatenate(parts, axis=-1)

    def theta_of(self, c: CostParameters, i: int) -> np.ndarray:
        return self.pack(c.q[i], c.r[i])

    def costs_from_thetas(self, thetas) -> CostParameters:
        qs, rs = [], []
        for th in thetas:
            q, r_row = self.unpack(th)
            qs.append(q)
            rs.append(tuple(r_row))
        return CostParameters(q=tuple(qs), r=tuple(rs))

    def q_diagonal_indices(self) -> list[int]:
        return np.flatnonzero(vech(np.eye(self.n))).tolist()


@dataclass(frozen=True)
class Constraints:
    """Support restriction on theta: entries outside the kept set are
    forced to zero (columns of M_i are simply dropped).

    ``diagonal_q`` keeps only the diagonal entries of the state weight;
    ``support`` is an explicit list of kept theta indices (intersected
    with the diagonal restriction when both are given).
    """

    diagonal_q: bool = False
    support: tuple[int, ...] | None = None

    def kept_indices(self, layout: ThetaLayout) -> list[int]:
        keep = set(range(layout.size))
        if self.diagonal_q:
            diag = set(layout.q_diagonal_indices())
            keep -= {k for k in range(layout.q_size) if k not in diag}
        if self.support is not None:
            bad = [k for k in self.support if not (0 <= int(k) < layout.size)]
            if bad:
                raise ValueError(f"support indices out of range: {bad}")
            keep &= {int(k) for k in self.support}
        if not keep:
            raise ValueError("constraints remove every parameter")
        return sorted(keep)


def constraint_matrices(rg: ReducedGame, f_red: ReducedFeedback) -> list[np.ndarray]:
    """Per-player kernel-condition matrices M_i (shape r*m_i x L).

    Row (a, b), in F order, is entry (a, b) of the stationarity residual
    R_ii F_i - G' Q S + B1_i' P_i as a linear form of theta (S the
    preimage matrix, G = X2 B2_i, A_cl' P_i + P_i A_cl + C_i = 0 with
    C_i = S' Q S + sum_j F_j' R_ij F_j).  P_i leaves through the adjoint
    identity <P_i, W> = <C_i, Z>, A_cl Z + Z A_cl' + W = 0 with
    W = sym(B1 e_a e_b'): one Lyapunov stack over every input a and b < r
    serves all players, and its first failing item's error is raised.
    The row is ``layout.dual(S Z S' - G e_a e_b' S', [F_j Z F_j' +
    delta_ij e_a e_b' F_i'])``.
    """
    f = f_red.matrix
    a_cl = rg.closed_loop(f)
    if not is_stable(a_cl):
        raise ValueError("observed reduced feedback must stabilize the game")
    r, m = rg.r, rg.m
    layout = ThetaLayout(n=rg.n, input_dims=rg.input_dims)
    s = preimage_matrix(rg, f_red)
    b1_ab = rg.b1_stacked.T[:, None, :, None] * np.eye(r)[None, :, None, :]   # B1 e_a e_b'
    w = 0.5 * (b1_ab + np.swapaxes(b1_ab, -1, -2))
    z, errors = solve_lyapunov_stack(a_cl.T[None], w.reshape(1, m * r, r, r))
    for err in errors:
        if err is not None:
            raise err
    z = z.reshape(m, r, r, r)
    out = []
    for i, d in enumerate(rg.input_dims):
        si = rg.input_slice(i)
        z_i = z[si].transpose(1, 0, 2, 3)         # rows (b, a): F order
        g = rg.w.x2 @ rg.b2[i]
        y_q = s @ z_i @ s.T - g.T[None, :, :, None] * s.T[:, None, None, :]
        y_r = [f[rg.input_slice(j)] @ z_i @ f[rg.input_slice(j)].T
               for j in range(rg.n_players)]
        y_r[i] += np.eye(d)[None, :, :, None] * f[si].T[:, None, None, :]
        out.append(layout.dual(y_q, y_r).reshape(r * d, layout.size))
    return out


def residual(m_i: np.ndarray, theta: np.ndarray) -> float:
    """Identification error ``|M_i theta|_2`` of a candidate parameter."""
    return float(np.linalg.norm(np.asarray(m_i) @ np.asarray(theta, dtype=float)))


def _own_weight_map(rg: ReducedGame, layout: ThetaLayout, i: int) -> np.ndarray:
    """The (m_i, m_i, L) map whose product with theta is player i's
    effective own-input weight R_ii + G' Q G, G = X2 B2_i: entry (c, d)
    is ``layout.dual(G e_c e_d' G', [delta_ij e_c e_d'])``."""
    g = rg.w.x2 @ rg.b2[i]
    eye = np.eye(rg.input_dims[i])
    unit = eye[:, None, :, None] * eye[None, :, None, :]       # e_c e_d'
    y_r = [np.zeros(unit.shape[:2] + (d, d)) for d in rg.input_dims]
    y_r[i] = unit
    return layout.dual(g @ unit @ g.T, y_r)


def pd_margin(rg: ReducedGame, layout: ThetaLayout, i: int, theta: np.ndarray) -> float:
    """Smallest eigenvalue of the effective own-input weight at theta;
    positive margin is the open-cone half of solution-set membership."""
    return min_eig_sym(_own_weight_map(rg, layout, i) @ np.asarray(theta, dtype=float))


def scale_theta(theta: np.ndarray, kappa: float) -> np.ndarray:
    """Positive rescaling; membership-preserving (residual and margin are
    both homogeneous of degree one)."""
    if kappa <= 0:
        raise ValueError("scaling factor must be positive")
    return kappa * np.asarray(theta, dtype=float)


@dataclass(frozen=True)
class PlayerCertificate:
    """Per-player identification outcome."""

    m: np.ndarray
    kernel: np.ndarray
    theta: np.ndarray
    residual: float
    pd_margin: float
    feasible: bool
    kept_indices: tuple[int, ...]


@dataclass(frozen=True)
class InverseCertificate:
    """Joint certificate: feasible iff every player is."""

    players: tuple[PlayerCertificate, ...]
    f_red: ReducedFeedback
    layout: ThetaLayout

    @property
    def feasible(self) -> bool:
        return all(p.feasible for p in self.players)

    @property
    def thetas(self) -> tuple[np.ndarray, ...]:
        return tuple(p.theta for p in self.players)

    def costs(self) -> CostParameters:
        return self.layout.costs_from_thetas(self.thetas)


def _margin_map(rg, layout, i, basis_full):
    """The stack of symmetric A_k with own_weight(sum z_k b_k) = sum z_k A_k."""
    return np.moveaxis(_own_weight_map(rg, layout, i) @ basis_full, -1, 0)


def _simplex_projection(v):
    """Euclidean projection of ``v`` onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    k = np.nonzero(u * np.arange(1, v.size + 1) > css)[0][-1]
    return np.maximum(v - css[k] / (k + 1.0), 0.0)


def _maximize_margin(mats, floor):
    """max over |z| = 1 of lambda_min(sum z_k A_k), through its dual.

    The margin is concave and 1-homogeneous, so where its maximum is
    positive it equals min |g(W)| over the spectraplex {W >= 0, tr W = 1},
    g_k(W) = <W, A_k> (Overton, SIAM J. Optim. 1992).  Accelerated
    projected gradient on |g(W)|^2 / 2 (Beck and Teboulle, SIAM J.
    Imaging Sci. 2009) takes steps 1 / |G|_2^2, G the stacked vec(A_k),
    from W = I / m, and resets its momentum when it opposes the step
    (O'Donoghue and Candes, Found. Comput. Math. 2015); without the reset
    a rank-deficient optimum takes thousands of steps.  Each iterate
    gives z = g(W) / |g(W)|, and every unit z has lambda_min(A(z)) <=
    |g(W)|, so |g(W)| minus the best margin is a duality gap.

    Returns ``(z, W)``, z the best unit point of all iterates: once the
    gap is at most 1e-12 |G|_2, once |g(W)| <= max(floor, 1e-12 |G|_2)
    (W then certifies that no unit z has a margin above ``floor``), or
    after ``DUAL_ITERS`` steps.  An iterate with g(W) = 0 certifies that
    no margin is positive and offers z = e_1.  Scalar weights make
    W = [[1]], so the first check returns z = c / |c|, c_k = A_k.
    """
    msize = mats[0].shape[0]
    gmat = np.stack([a.reshape(-1) for a in mats])
    gnorm = np.linalg.norm(gmat, 2)
    tol = 1e-12 * gnorm
    w = y = np.eye(msize) / msize
    t = 1.0
    best_z, best = None, -np.inf
    for _ in range(DUAL_ITERS):
        g = gmat @ w.reshape(-1)
        dual = np.linalg.norm(g)
        z = g / dual if dual else np.eye(g.size)[0]
        val = np.linalg.eigvalsh((z @ gmat).reshape(msize, msize))[0]
        if val > best:
            best_z, best = z, val
        if dual <= max(floor, tol) or dual - best <= tol:
            break
        grad = ((gmat @ y.reshape(-1)) @ gmat).reshape(msize, msize)
        lam, vec = np.linalg.eigh(y - grad / gnorm ** 2)
        w_next = (vec * _simplex_projection(lam)) @ vec.T
        if np.vdot(y - w_next, w_next - w) > 0.0:
            t = 1.0
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = w_next + ((t - 1.0) / t_next) * (w_next - w)
        w, t = w_next, t_next
    return best_z, w


def identify(rg: ReducedGame, f_red: ReducedFeedback,
             constraints: Constraints | None = None,
             eps_pd: float = 1e-8) -> InverseCertificate:
    """Identify, per player, a normalized cost parameter rationalizing the
    observed reduced feedback.

    One path per player.  The search basis is an orthonormal basis of the
    numerical kernel of (the support-restricted) M_i or, when that kernel
    is empty, M_i's least-residual direction (its last right singular
    vector).  The dual solve of :func:`_maximize_margin` picks the unit
    combination theta of that basis with the largest margin.  theta is
    feasible when its margin exceeds ``eps_pd (1 + |theta|)`` and its
    residual is at the kernel's rounding level; otherwise the certificate
    reports the empty-solution-set verdict, with the dual's W certifying
    that no kernel direction clears ``2 eps_pd``, or with theta at
    residual sigma_min(M_i) when the kernel is empty.  Nothing is drawn
    at random: theta is a pure function of the inputs.
    """
    constraints = constraints or Constraints()
    layout = ThetaLayout(n=rg.n, input_dims=rg.input_dims)
    kept = constraints.kept_indices(layout)
    ms = constraint_matrices(rg, f_red)
    players = []
    for i in range(rg.n_players):
        m_full = ms[i]
        m_restricted = m_full[:, kept]
        z_basis = kernel_basis(m_restricted)
        basis_full = np.zeros((layout.size, z_basis.shape[1]))
        basis_full[kept, :] = z_basis
        search = basis_full
        if not z_basis.shape[1]:
            search = np.zeros((layout.size, 1))
            search[kept, 0] = np.linalg.svd(m_restricted)[2][-1]
        z, _ = _maximize_margin(_margin_map(rg, layout, i, search), eps_pd * 2.0)
        theta = search @ z
        theta /= np.linalg.norm(theta)
        res = residual(m_full, theta)
        margin = pd_margin(rg, layout, i, theta)
        feasible = bool(
            margin > eps_pd * (1.0 + np.linalg.norm(theta))
            and res <= 10.0 * KERNEL_TOL * max(1.0, np.linalg.norm(m_full, 2))
        )
        players.append(PlayerCertificate(
            m=m_full,
            kernel=basis_full,
            theta=theta,
            residual=res,
            pd_margin=float(margin),
            feasible=feasible,
            kept_indices=tuple(kept),
        ))
    return InverseCertificate(players=tuple(players), f_red=f_red, layout=layout)


def dimension_report(cert: InverseCertificate, rg: ReducedGame) -> list[dict]:
    """Kernel dimensions against the rank-nullity lower bound
    ``dim >= L - r m_i`` (which exceeds the full-rank-E bound L - n m_i
    whenever r < n: descriptor dynamics enlarge the solution set).  M_i
    has r m_i rows, so an unconstrained kernel always meets the bound; a
    support constraint drops columns and can take it below."""
    out = []
    big_l = cert.layout.size
    for i, pc in enumerate(cert.players):
        dim = pc.kernel.shape[1]
        r_mi = rg.r * rg.input_dims[i]
        n_mi = rg.n * rg.input_dims[i]
        out.append({
            "player": i,
            "kernel_dim": dim,
            "L": big_l,
            "r_mi": r_mi,
            "n_mi": n_mi,
            "bound": big_l - r_mi,
        })
    return out


def sample_solution_set(rg: ReducedGame, cert: InverseCertificate, i: int,
                        seed: int = 0) -> np.ndarray:
    """Draw a normalized feasible parameter for player ``i`` from the
    certified solution set (seeded, deterministic): up to 200 draws from
    the kernel, each or its negative kept once its margin exceeds 1e-8.
    Raises when the kernel is empty or no draw lands in the open cone."""
    pc = cert.players[i]
    if pc.kernel.shape[1] == 0:
        raise ValueError("player has an empty kernel: nothing to sample")
    rng = np.random.default_rng(seed)
    for _ in range(200):
        z = rng.standard_normal(pc.kernel.shape[1])
        theta = pc.kernel @ z
        norm = np.linalg.norm(theta)
        if norm == 0.0:
            continue
        theta /= norm
        if pd_margin(rg, cert.layout, i, theta) <= 1e-8:
            theta = -theta
        if pd_margin(rg, cert.layout, i, theta) > 1e-8:
            return theta
    raise ValueError("no feasible sample found in the solution set")


@dataclass(frozen=True)
class BehaviorReport:
    """Behaviors rationalized by an identified cost tuple."""

    solutions: tuple[EquilibriumSolution, ...]
    spectra: tuple[np.ndarray, ...]
    matches: tuple[bool, ...]
    n_behaviors: int
    n_matching: int


def match_behaviors(f_obs: ReducedFeedback, sols) -> tuple[bool, ...]:
    """Which equilibria of ``sols`` reproduce the observed behavior: those
    whose reduced gain is the observed one (:func:`same_behavior`)."""
    return tuple(same_behavior(f_obs.matrix, sol.f_star.matrix) for sol in sols)


def rationalized_behaviors(rg: ReducedGame, cert: InverseCertificate,
                           solve_opts: SolveOptions | None = None) -> BehaviorReport:
    """Solve the forward game with the certificate's costs and mark each
    equilibrium whose reduced gain is the observed one
    (:func:`match_behaviors`).

    A feasible certificate makes the observed feedback an equilibrium of
    its costs, but the observed gain is not one of the solver's starts:
    the behavior is reported only when some start converges to it and
    passes the solver's acceptance test, so ``n_matching`` can be 0 even
    then (the n = 32 planted game of the benchmark matches none).
    """
    if not cert.feasible:
        raise ValueError("certificate is infeasible: no rationalizing costs to solve")
    sols = solve_fbne(rg, cert.costs(), solve_opts or SolveOptions())
    matches = match_behaviors(cert.f_red, sols)
    return BehaviorReport(
        solutions=tuple(sols),
        spectra=tuple(sol.spectrum for sol in sols),
        matches=matches,
        n_behaviors=len(sols),
        n_matching=int(sum(matches)),
    )
