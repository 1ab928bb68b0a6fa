"""Seeded problem generator for the benchmark; uses numpy and scipy only.

Every game is assembled from a planted decomposition: well-conditioned X
and Y, a random dynamic block J of size r and the identity as algebraic
block, so the pencil (E, A) is regular with index 1.  Player inputs are
drawn in planted coordinates (B = Y^-T [B1; B2]).  The observed feedback
is F = K (X^-1)[:r], with K the regulator gain of the planted (J, B1):
then F X2 = 0, the reduced gain is K in the planted gauge, and the closed
loop J + B1 K is stable by construction.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as sla


def well_conditioned(rng: np.random.Generator, n: int, spread: float = 0.5) -> np.ndarray:
    """Random invertible matrix with singular values in ~[e^-spread, e^spread]."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.exp(rng.uniform(-spread, spread, size=n))
    return q1 @ np.diag(s) @ q2.T


def planted_game(rng: np.random.Generator, n: int, r: int, input_dims) -> dict:
    """Problem dict (E, A, B, F) of a planted index-1 game."""
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
    m = b1.shape[1]
    p = sla.solve_continuous_are(j, b1, np.eye(r), np.eye(m))
    k = -b1.T @ p
    f = k @ x_inv[:r]
    offs = np.cumsum([0, *input_dims])
    return {
        "E": (y_inv_t @ e_can @ x_inv).tolist(),
        "A": (y_inv_t @ a_can @ x_inv).tolist(),
        "B": [(y_inv_t @ b).tolist() for b in b_can],
        "F": [f[offs[i]:offs[i + 1]].tolist() for i in range(len(input_dims))],
    }


def team_costs(rng: np.random.Generator, n: int, input_dims) -> dict:
    """Identical-interest costs with a PSD state weight and PD input weights.

    Every player weighs the state with one Q and each input u_j with the
    weight R_jj of its owner, so all players share one cost.  The joint
    regulator of that cost is then a feedback Nash equilibrium (no player
    can lower the shared cost alone).  With one shared cost, the forward
    solver's policy iteration is Kleinman's iteration for that regulator.
    """
    g = rng.standard_normal((n, n))
    q = (g @ g.T / n).tolist()
    own = []
    for mj in input_dims:
        h = rng.standard_normal((mj, mj))
        own.append((h @ h.T + np.eye(mj)).tolist())
    return {"Q": [q for _ in input_dims], "R": [list(own) for _ in input_dims]}


def vech(a) -> list[float]:
    """Lower triangle of a symmetric matrix, column by column (the theta layout)."""
    a = np.asarray(a, dtype=float)
    return np.concatenate([a[j:, j] for j in range(a.shape[0])]).tolist()


def theta_of(costs: dict) -> list[list[float]]:
    """Per-player theta vectors: vech(Q_i), then vech(R_ij) for each j."""
    return [vech(q) + [v for rij in r_row for v in vech(rij)]
            for q, r_row in zip(costs["Q"], costs["R"])]
