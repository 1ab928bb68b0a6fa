"""Inverse game: constraint assembly, kernels, identification, behaviors."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla

from dgame import (
    Constraints,
    DescriptorGame,
    ReducedFeedback,
    SolveOptions,
    ThetaLayout,
    constraint_matrices,
    dimension_report,
    identify,
    pd_margin,
    rationalized_behaviors,
    reduce_feedback,
    reduce_game,
    residual,
    sample_solution_set,
    scale_theta,
    solve_fbne,
    transform_decomposition,
)
from dgame.cli import load_problem
from dgame.inverse import _margin_map, _maximize_margin
from conftest import (
    THETA_MIS,
    friendly_costs,
    lane_costs_gt,
    lane_game,
    lane_profile_gt,
    random_game,
    stabilizing_reduced_gain,
    well_conditioned,
)

FAST = SolveOptions(n_starts=16)


@pytest.fixture(scope="module")
def lane_setup():
    g = lane_game()
    rg = reduce_game(g)
    f_obs = reduce_feedback(rg, lane_profile_gt())
    return g, rg, f_obs


def test_constraint_matrix_shapes(lane_setup):
    _, rg, f_obs = lane_setup
    ms = constraint_matrices(rg, f_obs)
    assert [m.shape for m in ms] == [(2, 8), (2, 8)]


def test_constraint_matrix_equals_lyapunov_elimination():
    # oracle: for any theta, M_i theta must equal the vectorized
    # stationarity residual once the value matrix is taken from an
    # independent (Schur-based) Lyapunov solve
    rng = np.random.default_rng(0)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=int(rng.integers(1, 3))))
        g = random_game(rng, n, r, dims)
        rg = reduce_game(g)
        f = stabilizing_reduced_gain(rng, rg)
        f_red = ReducedFeedback(f, dims)
        ms = constraint_matrices(rg, f_red)
        layout = ThetaLayout(n=n, input_dims=dims)
        theta = rng.standard_normal(layout.size)
        q, r_row = layout.unpack(theta)
        a_cl = rg.j + rg.b1_stacked @ f
        x1, x2 = rg.w.x1, rg.w.x2
        b2 = rg.b2_stacked
        for i in range(len(dims)):
            # player-i Riccati right-hand side at these weights
            r_blk = sla.block_diag(*r_row)
            ci = (x1.T @ q @ x1 - x1.T @ q @ x2 @ b2 @ f
                  - f.T @ b2.T @ x2.T @ q @ x1
                  + f.T @ b2.T @ x2.T @ q @ x2 @ b2 @ f + f.T @ r_blk @ f)
            p_i = sla.solve_continuous_lyapunov(a_cl.T, -0.5 * (ci + ci.T))
            si = rg.input_slice(i)
            stat = (r_row[i] @ f[si]
                    + rg.b2[i].T @ x2.T @ q @ x2 @ b2 @ f
                    - rg.b2[i].T @ x2.T @ q @ x1
                    + rg.b1[i].T @ p_i)
            want = stat.reshape(-1, order="F")
            got = ms[i] @ theta
            scale = 1.0 + np.abs(want).max()
            np.testing.assert_allclose(got, want, atol=1e-9 * scale)


def test_kernel_contains_classical_lqr_weights():
    # single player, invertible E: weights whose regulator gain equals the
    # observed one must satisfy the kernel conditions exactly
    rng = np.random.default_rng(1)
    n, m = 3, 1
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, m))
    g = DescriptorGame(np.eye(n), a, (b,))
    rg = reduce_game(g)
    q = rng.standard_normal((n, n))
    q = q @ q.T + np.eye(n)
    r = np.array([[1.5]])
    p = sla.solve_continuous_are(a, b, q, r)
    f_full = -np.linalg.solve(r, b.T @ p)
    f_red = reduce_feedback(rg, __import__("dgame").FeedbackProfile((f_full,)))
    ms = constraint_matrices(rg, f_red)
    layout = ThetaLayout(n=n, input_dims=(m,))
    theta = layout.pack(q, [r])
    assert residual(ms[0], theta) <= 1e-8 * np.linalg.norm(ms[0], 2) * np.linalg.norm(theta)


def test_ground_truth_weights_lie_in_solver_kernel(lane_setup):
    # the forward solver's equilibrium feedback must be rationalized by
    # the very weights that produced it
    _, rg, _ = lane_setup
    c = lane_costs_gt()
    sols = solve_fbne(rg, c, FAST)
    ms = constraint_matrices(rg, sols[0].f_star)
    layout = ThetaLayout(n=3, input_dims=(1, 1))
    for i in range(2):
        theta = layout.theta_of(c, i)
        assert residual(ms[i], theta) <= 1e-8 * np.linalg.norm(ms[i], 2) * np.linalg.norm(theta)
        assert pd_margin(rg, layout, i, theta) > 0


def test_residual_trivial_and_published_misspecified(lane_setup):
    _, rg, f_obs = lane_setup
    ms = constraint_matrices(rg, f_obs)
    layout = ThetaLayout(n=3, input_dims=(1, 1))
    assert residual(ms[0], np.zeros(8)) == 0.0
    # published flattened misspecified parameters; the magnitudes are tied
    # to the decomposition convention, the nonzero verdict is not
    r1 = residual(ms[0], THETA_MIS[0])
    r2 = residual(ms[1], THETA_MIS[1])
    assert r1 > 0.1
    assert r2 > 0.05
    # record the values seen under this toolkit's canonical decomposition
    assert r1 == pytest.approx(0.8077, abs=2e-3)
    assert r2 == pytest.approx(0.1234, abs=2e-3)


def test_pd_margin_trivial_cases(lane_setup):
    _, rg, _ = lane_setup
    layout = ThetaLayout(n=3, input_dims=(1, 1))
    theta = layout.pack(np.zeros((3, 3)), [np.eye(1), np.zeros((1, 1))])
    assert pd_margin(rg, layout, 0, theta) == pytest.approx(1.0)
    theta_neg = layout.pack(np.zeros((3, 3)), [-np.eye(1), np.zeros((1, 1))])
    assert pd_margin(rg, layout, 0, theta_neg) == pytest.approx(-1.0)


def test_identify_lane_observed_feasible(lane_setup):
    _, rg, f_obs = lane_setup
    cert = identify(rg, f_obs)
    assert cert.feasible
    for pc in cert.players:
        assert pc.residual <= 1e-7
        assert pc.pd_margin > 0
        assert abs(np.linalg.norm(pc.theta) - 1.0) <= 1e-12
        assert pc.kernel.shape[1] == 6


def test_identify_deterministic(lane_setup):
    _, rg, f_obs = lane_setup
    a = identify(rg, f_obs)
    b = identify(rg, f_obs)
    for pa, pb in zip(a.players, b.players):
        np.testing.assert_array_equal(pa.theta, pb.theta)


def test_identify_diagonal_constraint(lane_setup):
    _, rg, f_obs = lane_setup
    cert = identify(rg, f_obs, Constraints(diagonal_q=True))
    assert cert.feasible
    layout = cert.layout
    offdiag = [k for k in range(layout.q_size) if k not in layout.q_diagonal_indices()]
    for pc in cert.players:
        assert np.abs(pc.theta[offdiag]).max(initial=0.0) == 0.0
        assert pc.residual <= 1e-7
        q, _ = layout.unpack(pc.theta)
        assert np.abs(q - np.diag(np.diag(q))).max() == 0.0


def test_identify_support_constraint(lane_setup):
    _, rg, f_obs = lane_setup
    support = (0, 3, 5, 6, 7)  # diagonal state entries plus both input weights
    cert = identify(rg, f_obs, Constraints(support=support))
    for pc in cert.players:
        outside = [k for k in range(8) if k not in support]
        assert np.abs(pc.theta[outside]).max(initial=0.0) == 0.0


def test_identify_infeasible_under_crippling_support(lane_setup):
    # keeping a single own-weight entry leaves no kernel: the certificate
    # must report the empty-solution-set verdict, not fake feasibility
    _, rg, f_obs = lane_setup
    cert = identify(rg, f_obs, Constraints(support=(0, 6)))
    assert not cert.feasible
    assert any(p.residual > 1e-6 for p in cert.players)


@pytest.fixture(scope="module")
def multi_input_setup():
    """A (2, 1)-input game with E = I and one of its equilibria."""
    rng = np.random.default_rng(2)
    g = random_game(rng, 3, 3, (2, 1))
    g = DescriptorGame(np.eye(3), g.a, g.b)
    rg = reduce_game(g)
    c = friendly_costs(rng, 3, (2, 1))
    sols = solve_fbne(rg, c, FAST)
    assert sols
    return rg, sols[0].f_star


def test_identify_multi_input_margin_path(multi_input_setup):
    # matrix-valued own weight exercises the margin optimizer's dual solve
    rg, f_obs = multi_input_setup
    cert = identify(rg, f_obs)
    assert cert.feasible
    layout = cert.layout
    for i, pc in enumerate(cert.players):
        assert pc.residual <= 1e-7 * (1 + np.linalg.norm(pc.m, 2))
        assert pd_margin(rg, layout, i, pc.theta) > 0


# The margin optimizer that the dual solve replaced: an angular grid for
# kernels of dimension <= 2, seeded restarts of a projected supergradient
# ascent otherwise, then a local polish; a closed form for scalar weights.
# Kept as the reference whose margin the dual solve must reach.
ORACLE_RESTARTS, ORACLE_ASCENT_ITERS = 32, 200


def _maximize_margin_oracle(mats, seed, dim):
    if dim == 0:
        return None, -np.inf
    msize = mats[0].shape[0]
    if msize == 1:
        c = np.array([m[0, 0] for m in mats])
        nc = np.linalg.norm(c)
        if nc == 0.0:
            return None, 0.0
        z = c / nc
        return z, float(nc)

    def value(z):
        acc = sum(zk * mk for zk, mk in zip(z, mats))
        return float(np.linalg.eigvalsh(acc)[0])

    def supergrad(z):
        acc = sum(zk * mk for zk, mk in zip(z, mats))
        w, v = np.linalg.eigh(acc)
        vmin = v[:, 0]
        return np.array([vmin @ mk @ vmin for mk in mats])

    if dim <= 2:
        best_z, best_v = None, -np.inf
        if dim == 1:
            for z in (np.array([1.0]), np.array([-1.0])):
                val = value(z)
                if val > best_v:
                    best_z, best_v = z, val
        else:
            for ang in np.linspace(0.0, 2 * np.pi, 721)[:-1]:
                z = np.array([np.cos(ang), np.sin(ang)])
                val = value(z)
                if val > best_v:
                    best_z, best_v = z, val
        z = best_z
    else:
        rng = np.random.default_rng(seed)
        best_z, best_v = None, -np.inf
        for _ in range(ORACLE_RESTARTS):
            z = rng.standard_normal(dim)
            z /= np.linalg.norm(z)
            for it in range(ORACLE_ASCENT_ITERS):
                g = supergrad(z)
                step = 0.5 / np.sqrt(it + 1.0)
                z_new = z + step * g
                nz = np.linalg.norm(z_new)
                if nz == 0.0:
                    break
                z_new /= nz
                z = z_new
            val = value(z)
            if val > best_v:
                best_z, best_v = z, val
        z = best_z
    val = value(z)
    for it in range(2 * ORACLE_ASCENT_ITERS):
        g = supergrad(z)
        step = 0.2 / (it + 1.0)
        z_new = z + step * g
        z_new /= np.linalg.norm(z_new)
        v_new = value(z_new)
        if v_new > val:
            z, val = z_new, v_new
    return z, val


def _dual_solve(mats, floor=2e-8):
    """The dual solve's primal point (checked to be a unit vector), its
    margin, the dual value |g(W)| of its W (checked to lie in the
    spectraplex) and |G|_2."""
    z, w = _maximize_margin(mats, floor)
    assert abs(np.trace(w) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(w)[0] >= -1e-12
    dual = float(np.linalg.norm([np.sum(w * a) for a in mats]))
    gnorm = np.linalg.norm(np.stack([a.reshape(-1) for a in mats]), 2)
    assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
    margin = np.linalg.eigvalsh(sum(zk * a for zk, a in zip(z, mats)))[0]
    return z, margin, dual, gnorm


def _assert_certified_and_no_worse(mats):
    _, margin, dual, gnorm = _dual_solve(mats)
    assert dual - margin <= 1e-12 * gnorm
    _, oracle = _maximize_margin_oracle(mats, 0, len(mats))
    assert margin >= oracle - 1e-12


def test_margin_dual_beats_retired_optimizer_on_planted_games():
    # three players with two inputs each, r = n - 1: the multi-input case
    for n in (4, 5):
        rng = np.random.default_rng(n)
        rg = reduce_game(random_game(rng, n, n - 1, (2, 2, 2)))
        f_obs = ReducedFeedback(stabilizing_reduced_gain(rng, rg), rg.input_dims)
        cert = identify(rg, f_obs)
        assert cert.feasible
        for i, pc in enumerate(cert.players):
            _assert_certified_and_no_worse(_margin_map(rg, cert.layout, i, pc.kernel))


@pytest.mark.parametrize("support, dim", [
    ((1, 2, 5, 6, 7, 8, 9), 1),
    ((0, 2, 3, 4, 5, 6, 7, 8), 2),
    ((1, 2, 3, 4, 5, 6, 7, 8, 9), 3),
    (None, 4),
])
def test_margin_dual_beats_retired_optimizer_under_supports(multi_input_setup, support, dim):
    rg, f_obs = multi_input_setup
    cert = identify(rg, f_obs, Constraints(support=support))
    pc = cert.players[0]
    assert pc.kernel.shape[1] == dim
    assert pc.feasible
    _assert_certified_and_no_worse(_margin_map(rg, cert.layout, 0, pc.kernel))


def test_margin_dual_is_closed_form_for_scalar_weights(lane_setup, multi_input_setup):
    # with m_i = 1 the spectraplex is W = [[1]]: the first check returns
    # z = c / |c| bit for bit, c_k the scalar weight of kernel vector k
    _, rg, f_obs = lane_setup
    rg_multi, f_multi = multi_input_setup
    for game, f, i in ((rg, f_obs, 0), (rg, f_obs, 1), (rg_multi, f_multi, 1)):
        cert = identify(game, f)
        mats = _margin_map(game, cert.layout, i, cert.players[i].kernel)
        c = np.array([a[0, 0] for a in mats])
        z, _ = _maximize_margin(mats, 2e-8)
        assert z.tobytes() == (c / np.linalg.norm(c)).tobytes()
        assert z.tobytes() == _maximize_margin_oracle(mats, 0, len(mats))[0].tobytes()


def test_identify_infeasible_multi_input_floor_exit(multi_input_setup):
    # player 0 keeps a dim-2 kernel whose best margin is negative: the dual
    # value falls under the 2 eps_pd floor, W certifies that no kernel
    # direction clears it, and the best kernel direction is reported
    # infeasible
    rg, f_obs = multi_input_setup
    support = (0, 1, 2, 4, 5, 7, 8, 9)
    cert = identify(rg, f_obs, Constraints(support=support))
    p0, p1 = cert.players
    assert p0.kernel.shape[1] == 2
    assert not p0.feasible and p1.feasible
    assert p0.pd_margin < 0.0
    # theta lies in the kernel
    assert p0.residual <= 1e-12 * np.linalg.norm(p0.m, 2)
    mats = _margin_map(rg, cert.layout, 0, p0.kernel)
    z, margin, dual, gnorm = _dual_solve(mats)
    assert margin <= dual
    assert margin < 0.0
    # it stops at the floor, without driving the dual value to zero
    assert 1e-12 * gnorm < dual <= 2e-8
    assert _maximize_margin_oracle(mats, 0, 2)[1] < 0.0


def test_identify_empty_kernel_takes_least_residual_direction(lane_setup):
    # support (0, 6) leaves each lane player's restricted M_i with full
    # column rank: theta is its last right singular vector, signed for
    # the larger margin
    _, rg, f_obs = lane_setup
    support = (0, 6)
    cert = identify(rg, f_obs, Constraints(support=support))
    assert not cert.feasible
    for i, pc in enumerate(cert.players):
        assert pc.kernel.shape[1] == 0 and not pc.feasible
        _, s, vt = np.linalg.svd(pc.m[:, support])
        v = np.zeros(cert.layout.size)
        v[list(support)] = vt[-1]
        assert min(np.linalg.norm(pc.theta - v), np.linalg.norm(pc.theta + v)) <= 1e-14
        assert pc.residual == pytest.approx(s[-1], rel=1e-12)
        assert pc.pd_margin >= pd_margin(rg, cert.layout, i, -pc.theta)


def test_margin_dual_with_zero_margin_map():
    # g(W) = 0 already at W = I / m: W certifies that no margin is
    # positive, and z is the first coordinate
    mats = [np.zeros((2, 2))] * 3
    z, w = _maximize_margin(mats, 2e-8)
    assert z.tolist() == [1.0, 0.0, 0.0]
    np.testing.assert_array_equal(w, np.eye(2) / 2)


def test_dimension_report_lane(lane_setup):
    _, rg, f_obs = lane_setup
    cert = identify(rg, f_obs)
    rep = dimension_report(cert, rg)
    for entry in rep:
        assert entry["L"] == 8
        assert entry["r_mi"] == 2
        assert entry["bound"] == 6
        assert entry["kernel_dim"] >= 6
        assert entry["bound_ok"]


def test_dimension_bound_on_random_games():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=int(rng.integers(1, 4))))
        g = random_game(rng, n, r, dims)
        rg = reduce_game(g)
        f_red = ReducedFeedback(stabilizing_reduced_gain(rng, rg), dims)
        cert = identify(rg, f_red)
        layout = cert.layout
        for i, pc in enumerate(cert.players):
            assert pc.kernel.shape[1] >= layout.size - r * dims[i]


def test_scale_theta_homogeneity(lane_setup):
    _, rg, f_obs = lane_setup
    cert = identify(rg, f_obs)
    layout = cert.layout
    ms = [p.m for p in cert.players]
    for i, pc in enumerate(cert.players):
        base_margin = pd_margin(rg, layout, i, pc.theta)
        np.testing.assert_array_equal(scale_theta(pc.theta, 1.0), pc.theta)
        for kappa in (1e-6, 7.0, 1e6):
            scaled = scale_theta(pc.theta, kappa)
            assert residual(ms[i], scaled) <= kappa * 1e-7 + 1e-12
            assert pd_margin(rg, layout, i, scaled) == pytest.approx(kappa * base_margin, rel=1e-9)
    with pytest.raises(ValueError):
        scale_theta(cert.players[0].theta, 0.0)


def test_sampling_solution_set_feasible_points(lane_setup):
    _, rg, f_obs = lane_setup
    cert = identify(rg, f_obs)
    layout = cert.layout
    for i in range(2):
        for seed in range(4):
            theta = sample_solution_set(rg, cert, i, seed=seed)
            assert residual(cert.players[i].m, theta) <= 1e-7
            assert pd_margin(rg, layout, i, theta) > 0


def test_rationalized_behaviors_observed_always_matches(lane_setup):
    _, rg, f_obs = lane_setup
    cert = identify(rg, f_obs)
    rep = rationalized_behaviors(rg, cert, FAST)
    assert rep.n_matching == 1
    assert rep.n_behaviors >= 1
    matched = [s for s, m in zip(rep.solutions, rep.matches) if m]
    np.testing.assert_allclose(matched[0].f_star.matrix, f_obs.matrix, atol=1e-6)


def test_rectangularity_mix_and_match(lane_setup):
    # the per-player sets are independent: any combination of feasible
    # per-player parameters rationalizes the same observed feedback
    _, rg, f_obs = lane_setup
    cert = identify(rg, f_obs)
    layout = cert.layout
    ms = [p.m for p in cert.players]
    for seed in range(3):
        thetas = [sample_solution_set(rg, cert, i, seed=seed + 10 * i) for i in range(2)]
        for i in range(2):
            assert residual(ms[i], thetas[i]) <= 1e-7
        costs = layout.costs_from_thetas(thetas)
        # the observed loop satisfies both equation families at these costs
        # (value matrices from the Lyapunov solves of the observed loop)
        from dgame import solution_at
        res = solution_at(rg, costs, f_obs).residuals
        assert res.max_norm <= 1e-7 * res.scale


def test_kernel_membership_gauge_invariant():
    # zero residual under one valid decomposition implies zero under any
    # other; magnitudes of nonzero residuals are allowed to differ
    rng = np.random.default_rng(4)
    g = random_game(rng, 4, 2, (1, 1))
    rg = reduce_game(g)
    f_red = ReducedFeedback(stabilizing_reduced_gain(rng, rg), (1, 1))
    cert = identify(rg, f_red)
    t1 = well_conditioned(rng, 2)
    t2 = well_conditioned(rng, 2)
    w2 = transform_decomposition(rg.w, t1, t2)
    rg2 = reduce_game(g, decomposition=w2)
    # same behavior expressed in the re-gauged coordinates: x1 = T1 x1'
    f2 = ReducedFeedback(f_red.matrix @ t1, (1, 1))
    ms2 = constraint_matrices(rg2, f2)
    big_l = cert.layout.size
    for i in range(2):
        theta = cert.players[i].theta
        scale = np.linalg.norm(ms2[i], 2)
        assert residual(ms2[i], theta) <= 1e-6 * scale
        rnd = rng.standard_normal(big_l)
        rnd /= np.linalg.norm(rnd)
        if residual(cert.players[i].m, rnd) > 1e-3:
            assert residual(ms2[i], rnd) > 1e-8 * scale


def test_forward_inverse_round_trip_random_games():
    rng = np.random.default_rng(5)
    done = 0
    while done < 6:
        n = int(rng.integers(2, 5))
        r = int(rng.integers(1, n + 1))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=int(rng.integers(1, 3))))
        g = random_game(rng, n, r, dims)
        rg = reduce_game(g)
        c = friendly_costs(rng, n, dims)
        try:
            sols = solve_fbne(rg, c, SolveOptions(n_starts=4))
        except ValueError:
            continue
        if not sols:
            continue
        layout = ThetaLayout(n=n, input_dims=dims)
        for sol in sols:
            ms = constraint_matrices(rg, sol.f_star)
            for i in range(len(dims)):
                theta = layout.theta_of(c, i)
                scale = np.linalg.norm(ms[i], 2) * np.linalg.norm(theta)
                assert residual(ms[i], theta) <= 1e-7 * (1.0 + scale)
        done += 1


def _planted_problem(rng, n, r, input_dims) -> dict:
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
    p = sla.solve_continuous_are(j, b1, np.eye(r), np.eye(b1.shape[1]))
    f = -b1.T @ p @ x_inv[:r]
    offs = np.cumsum([0, *input_dims])
    return {
        "E": (y_inv_t @ e_can @ x_inv).tolist(),
        "A": (y_inv_t @ a_can @ x_inv).tolist(),
        "B": [(y_inv_t @ b).tolist() for b in b_can],
        "F": [f[offs[i]:offs[i + 1]].tolist() for i in range(len(input_dims))],
    }


def test_planted_n24_inverse_matches_observed_behavior(tmp_path):
    # the second game of the planted draw with seed 0 (n = 16, then 24, with
    # r = 3n/4): with the identified costs, the solve from the observed
    # feedback alone (no extra starts) must find the observed behavior, in
    # process and in a fresh interpreter with BLAS pinned to one thread
    # (where the Kronecker Lyapunov route once made it miss)
    rng = np.random.default_rng(0)
    for n in (16, 24):
        problem = _planted_problem(rng, n, 3 * n // 4, (1, 1))
    path, out = tmp_path / "planted_n24.json", tmp_path / "inverse.json"
    path.write_text(json.dumps(problem))
    prob = load_problem(str(path))
    rg = reduce_game(prob.game)
    cert = identify(rg, reduce_feedback(rg, prob.f_observed))
    assert cert.feasible
    rep = rationalized_behaviors(rg, cert, SolveOptions(n_starts=0))
    assert rep.n_behaviors == 1 and rep.matches == (True,)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "dgame.cli", "inverse", str(path), "--starts", "0",
         "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    behaviors = json.loads(out.read_text())["behaviors"]
    assert (behaviors["count"], behaviors["matching"]) == (1, 1)
