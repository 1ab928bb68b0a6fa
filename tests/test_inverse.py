"""Inverse game: constraint assembly, kernels, identification, behaviors."""
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

from dgame import (
    Constraints,
    DescriptorGame,
    FeedbackProfile,
    ReducedFeedback,
    SolveOptions,
    ThetaLayout,
    certify_nash,
    constraint_matrices,
    dimension_report,
    identify,
    m_matrix,
    match_behaviors,
    pd_margin,
    rationalized_behaviors,
    reduce_feedback,
    reduce_game,
    residual,
    sample_solution_set,
    scale_theta,
    solve_fbne,
)
from dgame.cli import load_problem
from dgame.inverse import _maximize_margin, _own_weight_map, kernel_of
from conftest import (
    THETA_MIS,
    friendly_costs,
    lane_costs_gt,
    lane_game,
    lane_profile_gt,
    lyapunov_values_oracle,
    planted_draw,
    random_game,
    stabilizing_reduced_gain,
    transform_decomposition,
    verify_nash_reference,
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


def _stationarity_terms(rg, f, layout, theta, i):
    """The three terms R_ii F_i, -B2_i' X2' Q S and B1_i' P_i of player i's
    stationarity residual at theta, with the value matrix P_i from an
    independent (scipy Bartels-Stewart) Lyapunov solve of the loop."""
    q, r_row = layout.unpack(theta)
    a_cl = rg.j + rg.b1_stacked @ f
    s = rg.w.x1 - rg.w.x2 @ rg.b2_stacked @ f
    ci = s.T @ q @ s + f.T @ sla.block_diag(*r_row) @ f
    p_i = sla.solve_continuous_lyapunov(a_cl.T, -0.5 * (ci + ci.T))
    return (r_row[i] @ f[rg.input_slice(i)],
            -rg.b2[i].T @ rg.w.x2.T @ q @ s,
            rg.b1[i].T @ p_i)


def _oracle_draws():
    """(reduced game, stabilizing gain, theta, normwise tolerance): six
    small draws (n = 2 to 5), then the size sweep's two single-input
    players with r = 3n/4, n = 16 to 32 and the n = 48 draw whose loop
    has entries near 1e6 (n = 40 is drawn to keep the stream, not
    checked)."""
    rng = np.random.default_rng(0)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=int(rng.integers(1, 3))))
        rg = reduce_game(random_game(rng, n, r, dims))
        f = stabilizing_reduced_gain(rng, rg)
        yield rg, f, rng.standard_normal(ThetaLayout(n=n, input_dims=dims).size), 1e-12
    rng = np.random.default_rng(0)
    for n in (16, 24, 32, 40, 48):
        rg = reduce_game(random_game(rng, n, 3 * n // 4, (1, 1)))
        f = stabilizing_reduced_gain(rng, rg)
        theta = np.random.default_rng(n).standard_normal(ThetaLayout(n=n, input_dims=(1, 1)).size)
        if n != 40:
            yield rg, f, theta, 1e-12 if n <= 32 else 1e-8


def test_constraint_matrix_equals_lyapunov_elimination():
    # oracle: for any theta, M_i theta must equal the vectorized
    # stationarity residual once the value matrix is taken from an
    # independent Lyapunov solve of the loop itself (not of its adjoint)
    big_loop = 0.0
    for rg, f, theta, tol in _oracle_draws():
        ms = constraint_matrices(rg, ReducedFeedback(f, rg.input_dims))
        layout = ThetaLayout(n=rg.n, input_dims=rg.input_dims)
        big_loop = max(big_loop, np.abs(rg.closed_loop(f)).max())
        for i in range(rg.n_players):
            want = sum(_stationarity_terms(rg, f, layout, theta, i)).reshape(-1, order="F")
            err = np.linalg.norm(ms[i] @ theta - want)
            assert err <= tol * np.linalg.norm(ms[i], 2) * np.linalg.norm(theta)
    assert big_loop >= 1e5


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
    # at random theta the margin is that of the own weight built from the
    # unpacked blocks, R_ii + B2_i' X2' Q X2 B2_i
    rng = np.random.default_rng(6)
    for game in (rg, reduce_game(random_game(rng, 4, 2, (2, 1)))):
        layout = ThetaLayout(n=game.n, input_dims=game.input_dims)
        for i in range(game.n_players):
            theta = rng.standard_normal(layout.size)
            q, r_row = layout.unpack(theta)
            g = game.w.x2 @ game.b2[i]
            want = np.linalg.eigvalsh(r_row[i] + g.T @ q @ g)[0]
            assert abs(pd_margin(game, layout, i, theta) - want) <= 1e-12 * np.abs(theta).sum()


def test_identify_lane_observed_feasible(lane_setup):
    _, rg, f_obs = lane_setup
    cert = identify(rg, f_obs)
    assert cert.feasible
    for pc in cert.players:
        assert pc.residual <= 1e-7
        assert pc.pd_margin > 0
        assert abs(np.linalg.norm(pc.theta) - 1.0) <= 1e-12
        assert pc.kernel_dim == 6


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


def _margin_map(rg, layout, i, basis):
    """The stack of symmetric A_k with own_weight(sum z_k b_k) = sum z_k A_k,
    b_k the columns of ``basis``."""
    return np.moveaxis(_own_weight_map(rg, layout, i) @ basis, -1, 0)


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
            _assert_certified_and_no_worse(_margin_map(rg, cert.layout, i, kernel_of(cert, i)))


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
    assert pc.kernel_dim == dim
    assert pc.feasible
    _assert_certified_and_no_worse(_margin_map(rg, cert.layout, 0, kernel_of(cert, 0)))


def test_margin_dual_is_closed_form_for_scalar_weights(lane_setup, multi_input_setup):
    # with m_i = 1 the spectraplex is W = [[1]]: the first check returns
    # z = c / |c| bit for bit, c_k the scalar weight of kernel vector k
    _, rg, f_obs = lane_setup
    rg_multi, f_multi = multi_input_setup
    for game, f, i in ((rg, f_obs, 0), (rg, f_obs, 1), (rg_multi, f_multi, 1)):
        cert = identify(game, f)
        mats = _margin_map(game, cert.layout, i, kernel_of(cert, i))
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
    assert p0.kernel_dim == 2
    assert not p0.feasible and p1.feasible
    assert p0.pd_margin < 0.0
    # theta lies in the kernel
    assert p0.residual <= 1e-12 * np.linalg.norm(p0.m, 2)
    mats = _margin_map(rg, cert.layout, 0, kernel_of(cert, 0))
    z, margin, dual, gnorm = _dual_solve(mats)
    assert margin <= dual
    assert margin < 0.0
    # it stops at the floor, without driving the dual value to zero
    assert 1e-12 * gnorm < dual <= 2e-8
    assert _maximize_margin_oracle(mats, 0, 2)[1] < 0.0


def test_identify_kernel_without_margin_takes_its_first_basis_vector(multi_input_setup):
    # E = I and a support without player 0's own weight R_00: the margin
    # map vanishes on the kernel, no direction moves the margin, and theta
    # is the explicit kernel basis's first vector, with margin 0
    rg, f_obs = multi_input_setup
    cert = identify(rg, f_obs, Constraints(support=(0, 1, 2, 3, 4, 5, 9)))
    p0 = cert.players[0]
    assert p0.kernel_dim == 2 and not p0.feasible and p0.pd_margin == 0.0
    assert np.abs(p0.theta - kernel_of(cert, 0)[:, 0]).max() <= 1e-15


def test_identify_empty_kernel_takes_least_residual_direction(lane_setup):
    # support (0, 6) leaves each lane player's restricted M_i with full
    # column rank: theta is its last right singular vector, signed for
    # the larger margin
    _, rg, f_obs = lane_setup
    support = (0, 6)
    cert = identify(rg, f_obs, Constraints(support=support))
    assert not cert.feasible
    for i, pc in enumerate(cert.players):
        assert pc.kernel_dim == 0 and not pc.feasible
        _, s, vt = np.linalg.svd(pc.m[:, support])
        v = np.zeros(cert.layout.size)
        v[list(support)] = vt[-1]
        assert min(np.linalg.norm(pc.theta - v), np.linalg.norm(pc.theta + v)) <= 1e-14
        assert pc.residual == pytest.approx(s[-1], rel=1e-12)
        assert pc.pd_margin >= pd_margin(rg, cert.layout, i, -pc.theta)


def _assert_matches_the_explicit_kernel(rg, cert):
    """identify's kernel dimension is the full SVD's count (kernel_basis,
    the oracle), and its theta a unit vector of that kernel whose margin
    is the explicit basis's dual optimum to 1e-12 relative."""
    for i, pc in enumerate(cert.players):
        basis = kernel_of(cert, i)
        assert pc.kernel_dim == basis.shape[1]
        assert abs(np.linalg.norm(pc.theta) - 1.0) <= 1e-12
        assert np.linalg.norm(pc.theta - basis @ (basis.T @ pc.theta)) <= 1e-12
        z, _ = _maximize_margin(_margin_map(rg, cert.layout, i, basis), 2e-8)
        want = pd_margin(rg, cert.layout, i, basis @ z)
        assert abs(pc.pd_margin - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("n", [16, 24, 32, 40, 48, 56, 64])
def test_identify_through_the_row_space_on_size_sweep_draws(n):
    # the conftest size-sweep game with a stabilizing observed gain: from
    # n = 48 the kernel holds directions at M_i's rounding level
    rng = np.random.default_rng(0)
    rg = reduce_game(random_game(rng, n, 3 * n // 4, (1, 1)))
    cert = identify(rg, ReducedFeedback(stabilizing_reduced_gain(rng, rg), rg.input_dims))
    assert cert.feasible
    _assert_matches_the_explicit_kernel(rg, cert)


def test_identify_through_the_row_space_on_lane_and_matrix_weights(lane_setup,
                                                                  multi_input_setup):
    # scalar own weights (lane) and a 2 x 2 one, whose margin map has a
    # repeated column that the search basis drops
    _, rg, f_obs = lane_setup
    rg_multi, f_multi = multi_input_setup
    for game, f in ((rg, f_obs), (rg_multi, f_multi)):
        _assert_matches_the_explicit_kernel(game, identify(game, f))


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
        assert entry["kernel_dim"] >= entry["bound"]


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
            assert pc.kernel_dim >= layout.size - r * dims[i]


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
    for kappa in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            scale_theta(cert.players[0].theta, kappa)


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


@pytest.mark.parametrize("scale", [1.0, 1e-6])
def test_match_behaviors_compares_reduced_gains(scale):
    # an equilibrium reproduces the observation when its reduced gain is
    # the observed one, relative to the gain's size: with every B_i scaled
    # by 1e-6 the gain grows by 1e6 and the verdicts stay the same
    g = lane_game()
    rg = reduce_game(DescriptorGame(g.e, g.a, tuple(b * scale for b in g.b)))
    f_obs = reduce_feedback(rg, FeedbackProfile(tuple(f / scale for f in lane_profile_gt().f)))
    sols = [SimpleNamespace(f_star=ReducedFeedback(f_obs.matrix * (1.0 + d), rg.input_dims))
            for d in (0.0, 1e-10, 1e-3)]
    assert match_behaviors(f_obs, sols) == (True, True, False)


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
        ok, errors = certify_nash(rg, costs, f_obs)
        assert ok, errors


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


def _planted_file(tmp_path, n_last):
    """The problem file of :func:`planted_draw`'s game of order ``n_last``."""
    path = tmp_path / f"planted_n{n_last}.json"
    path.write_text(json.dumps(planted_draw(n_last)))
    return path


@pytest.mark.parametrize("n", [24, 32])
def test_planted_inverse_matches_observed_behavior(tmp_path, n):
    # the second and third games of the planted draw: with the identified
    # costs, the solve from the observed feedback alone (no extra starts)
    # must find the observed behavior, in process and in a fresh
    # interpreter with BLAS pinned to one and to two threads (at n = 24
    # Lyapunov solves through the n^2 x n^2 Kronecker system once made it
    # miss on one thread; at n = 32 the absolute acceptance test rejected
    # the converged point after 56 Newton steps, where backward errors
    # accept it within 12)
    path = _planted_file(tmp_path, n)
    prob = load_problem(str(path))
    rg = reduce_game(prob.game)
    cert = identify(rg, reduce_feedback(rg, prob.f_observed))
    assert cert.feasible
    rep = rationalized_behaviors(rg, cert, SolveOptions(n_starts=0))
    assert rep.n_behaviors == 1 and rep.matches == (True,)
    if n == 32:
        assert rep.solutions[0].iterations <= 12
    src = str(Path(__file__).resolve().parent.parent / "src")
    for threads in ("1", "2"):
        out = tmp_path / f"inverse_{threads}.json"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "dgame.cli", "inverse", str(path), "--starts", "0",
             "--out", str(out)], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        behaviors = json.loads(out.read_text())["behaviors"]
        assert (behaviors["count"], behaviors["matching"]) == (1, 1), threads


def test_planted_n32_identified_costs_are_stationary_and_nash(tmp_path):
    # the third game of the planted draw: an independent Lyapunov solve
    # must find the identified costs stationary at the observed feedback
    # to rounding level (M_i built by inverting the n^2 x n^2 Kronecker
    # Lyapunov operator once left 5e-7 here), and the local Nash check
    # must pass
    prob = load_problem(str(_planted_file(tmp_path, 32)))
    rg = reduce_game(prob.game)
    f_red = reduce_feedback(rg, prob.f_observed)
    cert = identify(rg, f_red)
    assert cert.feasible
    for i, pc in enumerate(cert.players):
        terms = _stationarity_terms(rg, f_red.matrix, cert.layout, pc.theta, i)
        assert np.linalg.norm(sum(terms)) <= 1e-10 * sum(np.linalg.norm(t) for t in terms)
    costs = cert.costs()
    ms = [m_matrix(rg, costs, i) for i in range(rg.n_players)]
    p = lyapunov_values_oracle(rg, ms, f_red.matrix)
    ok, _ = verify_nash_reference(rg, costs, f_red.matrix, p)
    assert ok
