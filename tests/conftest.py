"""Shared fixtures: the lane-keeping benchmark game and random-instance
generators used by the property suites.

The lane-keeping game couples lateral error, heading error and steering
angle through a quasi-static steering constraint; it is the worked
two-player example every workflow is exercised on.  Random index-1
games are assembled from a planted decomposition (random well-conditioned
X, Y, a chosen dynamic block and invertible algebraic block), which gives
the reconstruction tests an independent ground truth.  The gauge fixture
re-gauges a decomposition, and two oracles give a gain's value matrices
and a random spot check of its equilibrium property.
"""
from __future__ import annotations

import numpy as np
import pytest

from dgame import (
    CostParameters,
    DescriptorGame,
    FeedbackProfile,
    Pencil,
    WeierstrassData,
    is_stable,
    m_matrix,
    reduce_game,
    solve_lyapunov,
)
from dgame.linalg import symmetrize

VX, LWB, KS = 20.0, 2.7, 10.0

LANE_E = np.diag([1.0, 1.0, 0.0])
LANE_A = np.array([
    [0.0, VX, 0.0],
    [0.0, 0.0, VX / LWB],
    [0.0, 0.0, -KS],
])
LANE_B = (np.array([[0.0], [0.0], [1.0]]), np.array([[0.0], [0.0], [1.0]]))

# observed feedback profile of the benchmark (human row, automation row)
F_GT = np.array([
    [-0.0046, -0.3971, 0.7987],
    [-0.4779, -1.8117, 3.8449],
])

Q_GT = (np.diag([1.0, 0.5, 0.1]), np.diag([3.0, 2.0, 0.1]))
R_GT = ((np.array([[2.0]]), np.array([[0.5]])),
        (np.array([[1.0]]), np.array([[0.5]])))

Q_ID = (
    np.array([[0.106, 0.017, 0.050],
              [0.017, -0.328, 1.810],
              [0.050, 1.810, -0.621]]),
    np.array([[1.378, 1.764, -0.499],
              [1.764, 0.985, 0.035],
              [-0.499, 0.035, -0.752]]),
)
R_ID = ((np.array([[0.564]]), np.array([[0.152]])),
        (np.array([[-0.709]]), np.array([[0.231]])))

# published flattened misspecified parameters (state weight entries first,
# lower triangle column-major, then the two scalar input weights)
THETA_MIS = (
    np.array([0.1161, 0.2721, -1.3731, 0.6642, 1.0042, 1.0853, 0.4184, -0.5001]),
    np.array([0.0119, 0.2462, -0.1107, -0.7575, 0.0731, -3.1384, -1.6787, 0.0508]),
)


def lane_game() -> DescriptorGame:
    return DescriptorGame(LANE_E, LANE_A, LANE_B)


def lane_costs_gt() -> CostParameters:
    return CostParameters(q=Q_GT, r=R_GT)


def lane_costs_identified() -> CostParameters:
    return CostParameters(q=Q_ID, r=R_ID)


def lane_costs_misspecified() -> CostParameters:
    from dgame import ThetaLayout
    layout = ThetaLayout(n=3, input_dims=(1, 1))
    return layout.costs_from_thetas(THETA_MIS)


def lane_profile_gt() -> FeedbackProfile:
    return FeedbackProfile((F_GT[0:1], F_GT[1:2]))


@pytest.fixture(scope="session")
def lane():
    """Bundle of the benchmark game, reduction and cost sets."""
    g = lane_game()
    return {
        "game": g,
        "rg": reduce_game(g),
        "pencil": Pencil(LANE_E, LANE_A),
        "costs_gt": lane_costs_gt(),
        "costs_id": lane_costs_identified(),
        "costs_mis": lane_costs_misspecified(),
        "f_gt": lane_profile_gt(),
    }


def well_conditioned(rng: np.random.Generator, n: int, spread: float = 0.5) -> np.ndarray:
    """Random invertible matrix with singular values in ~[e^-spread, e^spread]."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.exp(rng.uniform(-spread, spread, size=n))
    return q1 @ np.diag(s) @ q2.T


def planted_index1_pencil(rng: np.random.Generator, n: int, r: int):
    """Assemble (E, A) from a planted decomposition; returns the pencil and
    the planted dynamic block whose eigenvalues are the finite spectrum."""
    x = well_conditioned(rng, n)
    y = well_conditioned(rng, n)
    j = rng.standard_normal((r, r))
    e_can = np.zeros((n, n))
    e_can[:r, :r] = np.eye(r)
    a_can = np.eye(n)
    a_can[:r, :r] = j
    y_inv_t = np.linalg.inv(y).T
    x_inv = np.linalg.inv(x)
    e = y_inv_t @ e_can @ x_inv
    a = y_inv_t @ a_can @ x_inv
    return Pencil(e, a), j


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


def random_game(rng: np.random.Generator, n: int, r: int, input_dims) -> DescriptorGame:
    """Random index-1 game satisfying the stabilizability assumption."""
    for _ in range(50):
        p, _ = planted_index1_pencil(rng, n, r)
        bs = tuple(rng.standard_normal((n, mi)) for mi in input_dims)
        try:
            return DescriptorGame(p.e, p.a, bs)
        except ValueError:
            continue
    raise RuntimeError("failed to draw a stabilizable game")


def friendly_costs(rng: np.random.Generator, n: int, input_dims) -> CostParameters:
    """Positive semidefinite state weights and definite own-input weights;
    keeps the forward solver's life easy in property sweeps."""
    n_players = len(input_dims)
    qs = []
    for _ in range(n_players):
        g = rng.standard_normal((n, n))
        qs.append(g @ g.T / n)
    rs = []
    for i in range(n_players):
        row = []
        for j, mj in enumerate(input_dims):
            if i == j:
                h = rng.standard_normal((mj, mj))
                row.append(h @ h.T + np.eye(mj))
            else:
                h = 0.3 * rng.standard_normal((mj, mj))
                row.append(0.5 * (h + h.T))
        rs.append(tuple(row))
    return CostParameters(q=tuple(qs), r=tuple(rs))


def stabilizing_reduced_gain(rng: np.random.Generator, rg, spread: float = 1.0):
    """Random stabilizing reduced gain via a randomly weighted regulator."""
    import scipy.linalg as sla
    r, m = rg.r, rg.m
    for _ in range(20):
        g = rng.standard_normal((r, r))
        wq = g @ g.T + 0.2 * np.eye(r)
        wr = np.diag(np.exp(rng.uniform(-spread, spread, size=m)))
        try:
            p = sla.solve_continuous_are(rg.j, rg.b1_stacked, wq, wr)
        except Exception:
            continue
        return -np.linalg.solve(wr, rg.b1_stacked.T @ p)
    raise RuntimeError("failed to draw a stabilizing gain")


def planted_problem(rng, n, r, input_dims) -> dict:
    """Problem dict (E, A, B, F) of the planted index-1 recipe: the pencil
    in planted coordinates, inputs drawn there (B = Y^-T B_can) and F the
    planted regulator gain, F = K (X^-1)[:r], which stabilizes J + B1 K."""
    x = well_conditioned(rng, n)
    y = well_conditioned(rng, n)
    j = rng.standard_normal((r, r))
    e_can = np.zeros((n, n))
    e_can[:r, :r] = np.eye(r)
    a_can = np.eye(n)
    a_can[:r, :r] = j
    y_inv_t = np.linalg.inv(y).T
    x_inv = np.linalg.inv(x)
    b_can = [rng.standard_normal((n, mi)) for mi in input_dims]
    b1 = np.hstack([b[:r] for b in b_can])
    import scipy.linalg as sla
    p = sla.solve_continuous_are(j, b1, np.eye(r), np.eye(b1.shape[1]))
    f = -b1.T @ p @ x_inv[:r]
    offs = np.cumsum([0, *input_dims])
    return {
        "E": (y_inv_t @ e_can @ x_inv).tolist(),
        "A": (y_inv_t @ a_can @ x_inv).tolist(),
        "B": [(y_inv_t @ b).tolist() for b in b_can],
        "F": [f[offs[i]:offs[i + 1]].tolist() for i in range(len(input_dims))],
    }


def planted_draw(n_last: int) -> dict:
    """The problem dict of the game of order ``n_last`` in the planted
    draw with seed 0 (n = 16, 24, 32, with r = 3n/4), the draw of the
    ``planted-scale`` benchmark."""
    rng = np.random.default_rng(0)
    for n in range(16, n_last + 1, 8):
        problem = planted_problem(rng, n, 3 * n // 4, (1, 1))
    return problem


def lyapunov_values_oracle(rg, ms, f):
    """Oracle: value matrices of a stabilizing f, one 2-D Lyapunov solve
    per player, for the players' reduced cost matrices ``ms``."""
    a_cl = rg.j + rg.b1_stacked @ f
    stacked = np.vstack([np.eye(rg.r), f])
    return [solve_lyapunov(a_cl, stacked.T @ ms[i] @ stacked) for i in range(rg.n_players)]


def verify_nash_reference(rg, c, f, p, n_trials=200, radius=0.5, seed=0):
    """Spot check of the equilibrium property of the reduced gain ``f``
    with value matrices ``p`` under the costs ``c``: random unilateral
    deviations, one deviation, one stability test and one Lyapunov solve
    at a time, in player then trial order.  A deviation that destabilizes
    the loop is skipped (its cost is infinite); one whose value matrix
    falls below p_i by more than ``1e-8 max|p_i|`` is a profitable one.
    Returns ``(True, None)``, or ``(False, counterexample)`` at the first
    profitable deviation."""
    rng = np.random.default_rng(seed)
    ms = [m_matrix(rg, c, i) for i in range(rg.n_players)]
    for i in range(rg.n_players):
        si = rg.input_slice(i)
        for _ in range(n_trials):
            delta = rng.standard_normal((rg.input_dims[i], rg.r))
            delta *= radius * rng.uniform(0.05, 1.0) / max(np.abs(delta).max(), 1e-12)
            f_dev = f.copy()
            f_dev[si] += delta
            a_dev = rg.closed_loop(f_dev)
            if not is_stable(a_dev):
                continue
            stacked = np.vstack([np.eye(rg.r), f_dev])
            try:
                p_dev = solve_lyapunov(a_dev, stacked.T @ ms[i] @ stacked)
            except (np.linalg.LinAlgError, ValueError):
                continue
            gap = np.linalg.eigvalsh(symmetrize(p_dev - p[i]))[0]
            if gap < -1e-8 * np.abs(p[i]).max():
                return False, {"player": i, "delta": delta, "min_eig_gap": float(gap)}
    return True, None
