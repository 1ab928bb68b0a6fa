"""Forward solver: residual calculus, enumeration, equilibrium verification."""
import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import root

from dgame import (
    CostParameters,
    DescriptorGame,
    FeedbackProfile,
    ReducedFeedback,
    SolveOptions,
    certify_nash,
    equilibrium_cost,
    identify,
    reduce_feedback,
    reduce_game,
    simulate,
    solve_fbne,
)
from dgame import forward
from dgame.forward import (
    DEDUP_TOL,
    _NEWTON_ITERS,
    _Evaluator,
    _starting_points,
    root as newton_root,
    same_behavior,
)
from dgame.game import m_matrix
from dgame.linalg import is_stable, solve_lyapunov_stack, sorted_spectrum, symmetrize
from conftest import (
    friendly_costs,
    lane_costs_gt,
    lane_costs_identified,
    lane_costs_misspecified,
    lane_game,
    lyapunov_values_oracle,
    planted_draw,
    random_game,
    verify_nash_reference,
)

FAST = SolveOptions(n_starts=16)


def test_care_residual_zero_case():
    # stable dynamics, zero weights: everything vanishes at the origin
    e = np.diag([1.0, 1.0, 0.0])
    a = np.diag([-1.0, -2.0, 1.0])
    g = DescriptorGame(e, a, (np.array([[1.0], [1.0], [1.0]]),))
    rg = reduce_game(g)
    zeros = CostParameters(q=(np.zeros((3, 3)),), r=((np.zeros((1, 1)),),))
    ev = _Evaluator(rg, zeros)
    f = np.zeros((1, 2))
    (p,), ok = ev.values(f[None])
    assert ok.all() and not p.any()
    stat, care = ev.residual_matrices(f, p, ev.closed_loop(f), ev.costs(f))
    assert not stat.any() and not care.any()


def test_values_are_zero_and_not_ok_where_the_loop_is_unstable_or_a_solve_fails():
    # J = 0 and B1 = [I, I], so the loop is player 0's gain: a stable
    # loop, an unstable one, and a stable one with an eigenvalue at
    # -1e-310, where both players' Lyapunov solves fail
    rg = reduce_game(DescriptorGame(np.eye(2), np.zeros((2, 2)), (np.eye(2), np.eye(2))))
    c = CostParameters(q=(np.eye(2), np.diag([1.0, 2.0])),
                       r=((np.eye(2), np.eye(2)), (np.eye(2), 2.0 * np.eye(2))))
    ev = _Evaluator(rg, c)
    loops = np.array([[[-1.0, 0.5], [0.3, -2.0]], np.eye(2), np.diag([-1e-310, -1.0])])
    f = np.concatenate([loops, np.zeros((3, 2, 2))], axis=1)
    assert np.array_equal(ev.closed_loop(f), loops)
    assert is_stable(loops).tolist() == [True, False, True]
    p, ok = ev.values(f)
    assert ok.tolist() == [True, False, False]
    assert not p[1:].any()
    one, errors = solve_lyapunov_stack(loops[:1], ev.costs(f[:1]))
    assert errors == [None, None] and p[:1].tobytes() == one.tobytes()


def test_care_residual_matches_expanded_assembly():
    # independent oracle: assemble the residual directly from the raw
    # weights and decomposition blocks, never through the M matrices
    rng = np.random.default_rng(0)
    g = random_game(rng, 4, 2, (1, 2))
    rg = reduce_game(g)
    c = friendly_costs(rng, 4, (1, 2))
    f = rng.standard_normal((3, 2))
    p_list = [np.eye(2) + 0.1 * k for k in range(2)]
    ev = _Evaluator(rg, c)
    stat, care = ev.residual_matrices(f, np.array(p_list), ev.closed_loop(f), ev.costs(f))
    x1, x2 = rg.w.x1, rg.w.x2
    b2 = rg.b2_stacked
    a_cl = rg.j + rg.b1_stacked @ f
    for i in range(2):
        q = c.q[i]
        r_blk = sla.block_diag(*c.r[i])
        expanded = (
            a_cl.T @ p_list[i] + p_list[i] @ a_cl
            + x1.T @ q @ x1
            - x1.T @ q @ x2 @ b2 @ f
            - f.T @ b2.T @ x2.T @ q @ x1
            + f.T @ b2.T @ x2.T @ q @ x2 @ b2 @ f
            + f.T @ r_blk @ f
        )
        np.testing.assert_allclose(care[i], expanded, atol=1e-10)
    # stationarity rows: own-weight couplings plus value-matrix feedback
    for i in range(2):
        si = rg.input_slice(i)
        row = np.zeros((rg.input_dims[i], rg.r))
        for j in range(2):
            sj = rg.input_slice(j)
            gij = rg.b2[i].T @ x2.T @ c.q[i] @ x2 @ rg.b2[j]
            if i == j:
                gij = c.r[i][i] + gij
            row = row + gij @ f[sj]
        row = row - rg.b2[i].T @ x2.T @ c.q[i] @ x1 + rg.b1[i].T @ p_list[i]
        np.testing.assert_allclose(stat[si], row, atol=1e-10)


def test_lane_ground_truth_unique_solution(lane):
    sols = solve_fbne(lane["rg"], lane["costs_gt"], FAST)
    assert len(sols) == 1
    sol = sols[0]
    assert sol.residual_max <= 1e-8 * sol.residual_scale
    # cross-checked against independent per-player regulator best responses;
    # agrees with the published reduced gain to print precision (~0.2%)
    published = np.array([[-1.9995, -0.3547], [-9.5252, -2.1631]])
    assert np.abs(sol.f_star.matrix - published).max() <= 0.01 * np.abs(published).max()


def test_lane_identified_costs_two_solutions(lane):
    sols = solve_fbne(lane["rg"], lane["costs_id"], SolveOptions(n_starts=32))
    assert len(sols) == 2
    # the two solutions share their second-column gains
    f0, f1 = (s.f_star.matrix for s in sols)
    np.testing.assert_allclose(f0[:, 1], f1[:, 1], atol=1e-6)


def _best_response_distances(rg, c, f):
    """Oracle of the Nash certificate: per player, max|best - F_i| /
    (1 + max|F_i|) for player i's best response to the others' gains F_j,
    the regulator gain of the loop A_{-i} = J + sum_{j != i} B1_j F_j with
    input B1_i and weights Q^ = X' M_i X, S^ = X' M_i E and R^ = E' M_i E
    (X = [I; F_{-i}], F with player i's rows zero, and E the unit columns
    of player i's input rows), from scipy's Schur-based Riccati solver."""
    r, distances = rg.r, []
    for i in range(rg.n_players):
        si = rg.input_slice(i)
        mi = m_matrix(rg, c, i)
        f_minus = f.copy()
        f_minus[si] = 0.0
        x = np.vstack([np.eye(r), f_minus])
        e = np.eye(r + rg.m)[:, r + si.start:r + si.stop]
        q_hat, s_hat, r_hat = x.T @ mi @ x, x.T @ mi @ e, e.T @ mi @ e
        p = sla.solve_continuous_are(rg.j + rg.b1_stacked @ f_minus, rg.b1[i],
                                     symmetrize(q_hat), symmetrize(r_hat), s=s_hat)
        best = -np.linalg.solve(r_hat, rg.b1[i].T @ p + s_hat.T)
        distances.append(np.abs(best - f[si]).max() / (1.0 + np.abs(f[si]).max()))
    return np.array(distances)


def test_best_response_fixed_point_property(lane):
    # at every returned solution, each player's gain is the regulator best
    # response to the others: an independent characterization via the
    # Riccati solver of scipy
    rg = lane["rg"]
    for costs in (lane["costs_gt"], lane["costs_id"]):
        for sol in solve_fbne(rg, costs, FAST):
            assert _best_response_distances(rg, costs, sol.f_star.matrix).max() <= 1e-6


def test_single_player_matches_reference_lqr():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n, m = 3, 2
        a = rng.standard_normal((n, n))
        b = rng.standard_normal((n, m))
        g = DescriptorGame(np.eye(n), a, (b,))
        rg = reduce_game(g)
        q = rng.standard_normal((n, n))
        q = q @ q.T + 0.1 * np.eye(n)
        r = np.diag(rng.uniform(0.5, 2.0, size=m))
        c = CostParameters(q=(q,), r=((r,),))
        sols = solve_fbne(rg, c, FAST)
        assert len(sols) >= 1
        # reference: textbook regulator via the Schur-based scipy solver,
        # mapped through the reduction coordinates
        x = rg.w.x
        q_red = x.T @ q @ x
        p_ref = sla.solve_continuous_are(rg.j, rg.b1[0], q_red, r)
        f_ref = -np.linalg.solve(r, rg.b1[0].T @ p_ref)
        gaps = [np.abs(s.f_star.matrix - f_ref).max() for s in sols]
        assert min(gaps) <= 1e-8 * (1 + np.abs(f_ref).max())


def test_equilibrium_cost_scaling(lane):
    sols = solve_fbne(lane["rg"], lane["costs_gt"], FAST)
    sol = sols[0]
    x = np.array([0.7, -0.2])
    assert equilibrium_cost(sol, 0, np.zeros(2)) == 0.0
    c1 = equilibrium_cost(sol, 0, x)
    c3 = equilibrium_cost(sol, 0, 3.0 * x)
    assert c3 == pytest.approx(9.0 * c1, rel=1e-12)


def test_equilibrium_cost_matches_simulation(lane):
    rg = lane["rg"]
    sols = solve_fbne(rg, lane["costs_gt"], FAST)
    sol = sols[0]
    c = lane_costs_gt()
    x1_0 = np.array([0.5, 0.2])
    traj = simulate(rg, sol.f_star, x1_0, 12.0, 0.002)
    for i in range(2):
        integrand = np.einsum("kj,jl,kl->k", traj.x, c.q[i], traj.x)
        for j in range(2):
            integrand = integrand + c.r[i][j][0, 0] * traj.u[:, j] ** 2
        integral = np.trapezoid(integrand, traj.times)
        assert abs(integral - equilibrium_cost(sol, i, x1_0)) <= 0.01 * abs(integral)


def test_verify_nash_accepts_equilibrium(lane):
    sols = solve_fbne(lane["rg"], lane["costs_gt"], FAST)
    ok, counter = verify_nash_reference(lane["rg"], lane["costs_gt"], sols[0].f_star.matrix,
                                        sols[0].p)
    assert ok, counter


def test_verify_nash_rejects_perturbed_gain(lane):
    rg = lane["rg"]
    c = lane["costs_gt"]
    sols = solve_fbne(rg, c, FAST)
    f_fake = sols[0].f_star.matrix + np.array([[0.4, 0.0], [0.0, 0.0]])
    assert not certify_nash(rg, c, ReducedFeedback(f_fake, rg.input_dims))[0]
    p_fake = lyapunov_values_oracle(rg, [m_matrix(rg, c, i) for i in range(2)], f_fake)
    ok, counter = verify_nash_reference(rg, c, f_fake, p_fake)
    assert not ok
    assert counter["player"] == 0


def test_solver_value_matrices_are_the_lyapunov_oracles(lane):
    # each solution's P is the Lyapunov oracle's P(F) at its gain, its
    # spectrum is its loop's, and its gain passes the certificate there
    rg, c = lane["rg"], lane["costs_id"]
    ms = [m_matrix(rg, c, i) for i in range(rg.n_players)]
    for sol in solve_fbne(rg, c, FAST):
        f = sol.f_star.matrix
        for p, p_sol in zip(lyapunov_values_oracle(rg, ms, f), sol.p):
            np.testing.assert_allclose(p, p_sol, atol=1e-9 * (1 + np.abs(p_sol).max()))
        np.testing.assert_array_equal(sorted_spectrum(np.linalg.eigvals(rg.closed_loop(f))),
                                      sol.spectrum)
        assert certify_nash(rg, c, sol.f_star)[0]


def test_single_player_nash_check_matches_lqr_optimality():
    rng = np.random.default_rng(2)
    n, m = 3, 1
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, m))
    g = DescriptorGame(np.eye(n), a, (b,))
    rg = reduce_game(g)
    q = rng.standard_normal((n, n))
    q = q @ q.T + np.eye(n)
    c = CostParameters(q=(q,), r=((np.eye(1),),))
    sols = solve_fbne(rg, c, FAST)
    ok, _ = verify_nash_reference(rg, c, sols[0].f_star.matrix, sols[0].p, radius=1.0)
    assert ok


def test_solution_set_stable_across_seeds(lane):
    a = solve_fbne(lane["rg"], lane["costs_id"], SolveOptions(n_starts=24, seed=0))
    b = solve_fbne(lane["rg"], lane["costs_id"], SolveOptions(n_starts=24, seed=1234))
    assert len(a) == len(b) == 2
    for sa, sb in zip(a, b):
        np.testing.assert_allclose(sa.f_star.matrix, sb.f_star.matrix, atol=1e-6)


def test_rejects_indefinite_own_weight():
    rng = np.random.default_rng(3)
    g = random_game(rng, 3, 2, (1,))
    rg = reduce_game(g)
    bad = CostParameters(q=(np.zeros((3, 3)),), r=((-np.eye(1),),))
    with pytest.raises(ValueError):
        solve_fbne(rg, bad, FAST)


def _policy_iteration_per_start(rg, ms, gbar, vbar_t, f0, scale):
    """Near-root points: the damped fixed-point iteration for one start on
    its own, which steps towards the policy update and halves its damping
    (down to 1/16) whenever the residual grew; returns (f, p_list, iters)
    once the residual is within 1e-9 times the data scale, or None after
    300 iterations."""
    f = f0.copy()
    alpha = 1.0
    last_res = np.inf
    for it in range(300):
        a_cl = rg.j + rg.b1_stacked @ f
        if not is_stable(a_cl):
            return None
        try:
            p_list = lyapunov_values_oracle(rg, ms, f)
        except (np.linalg.LinAlgError, ValueError):
            return None
        stat, care = _residual_matrices_oracle(rg, ms, gbar, vbar_t, f, p_list)
        res = max(float(np.abs(stat).max(initial=0.0)),
                  *(float(np.abs(c).max(initial=0.0)) for c in care))
        if res <= 1e-9 * scale:
            return f, p_list, it
        bd_t_p = np.vstack([rg.b1[i].T @ p_list[i] for i in range(rg.n_players)])
        try:
            f_next = -np.linalg.solve(gbar, vbar_t + bd_t_p)
        except np.linalg.LinAlgError:
            return None
        if res > last_res:
            alpha = max(alpha / 2.0, 1.0 / 16.0)
        last_res = res
        f = f + alpha * (f_next - f)
    return None


def _residual_matrices_oracle(rg, ms, gbar, vbar_t, f, p_list):
    """Oracle: (stationarity, care) of the coupled system, assembled with
    fresh [I; F], B1 and Bd' P stacks at every call."""
    a_cl = rg.j + np.hstack(rg.b1) @ f
    stacked = np.vstack([np.eye(rg.r), f])
    care = []
    for i in range(rg.n_players):
        ci = stacked.T @ ms[i] @ stacked
        care.append(a_cl.T @ p_list[i] + p_list[i] @ a_cl + ci)
    bd_t_p = np.vstack([rg.b1[i].T @ p_list[i] for i in range(rg.n_players)])
    return gbar @ f + vbar_t + bd_t_p, care


def _newton_system_oracle(rg, ms, gbar, vbar_t):
    """Oracle: the Newton system as closures over the packed point
    z = [vec F; upper triangle of each P_i]; returns (pack, unpack, fun)."""
    n_players, r, m = rg.n_players, rg.r, rg.m
    iu = np.triu_indices(r)
    nn = iu[0].size

    def pack(f, p_list):
        return np.concatenate([f.reshape(-1)] + [p[iu] for p in p_list])

    def unpack(z):
        f = z[:m * r].reshape(m, r)
        p_list = []
        off = m * r
        for _ in range(n_players):
            p = np.zeros((r, r))
            p[iu] = z[off:off + nn]
            p = p + p.T - np.diag(np.diag(p))
            p_list.append(p)
            off += nn
        return f, p_list

    def fun(z):
        stat, care = _residual_matrices_oracle(rg, ms, gbar, vbar_t, *unpack(z))
        return np.concatenate([stat.reshape(-1)] + [c[iu] for c in care])

    return pack, unpack, fun


def _newton_refine_oracle(rg, ms, gbar, vbar_t, f0, p0):
    """Oracle: MINPACK's hybr with a finite-difference Jacobian from
    (f0, p0); returns its last iterate, also when hybr reports that it
    stopped making progress, which from a converged start means the
    residual is at rounding level."""
    pack, unpack, fun = _newton_system_oracle(rg, ms, gbar, vbar_t)
    sol = root(fun, pack(f0, p0), method="hybr", tol=1e-13)
    f, p_list = unpack(sol.x)
    return f, [symmetrize(p) for p in p_list]


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _planted_case(seed, n, r, input_dims):
    rng = np.random.default_rng(seed)
    return reduce_game(random_game(rng, n, r, input_dims)), friendly_costs(rng, n, input_dims)


def _planted_identified_case(n_last):
    """The game of order ``n_last`` in the planted draw with the costs
    ``identify`` finds for its observed feedback."""
    problem = planted_draw(n_last)
    rg = reduce_game(DescriptorGame(np.array(problem["E"]), np.array(problem["A"]),
                                    tuple(np.array(b) for b in problem["B"])))
    f_red = reduce_feedback(rg, FeedbackProfile(tuple(np.array(f) for f in problem["F"])))
    return rg, identify(rg, f_red).costs()


RESIDUAL_CASES = {
    "lane-gt": lambda: (reduce_game(lane_game()), lane_costs_gt()),
    "lane-id": lambda: (reduce_game(lane_game()), lane_costs_identified()),
    "lane-mis": lambda: (reduce_game(lane_game()), lane_costs_misspecified()),
    "planted-r12": lambda: _planted_case(5, 16, 12, (1, 1)),
    "three-players": lambda: _planted_case(6, 8, 7, (2, 2, 2)),
}

# the Newton search's cases: those above and the planted n = 32 game's
# identified costs, where the merit's weights fire (too large for the
# oracle tests)
SEARCH_CASES = dict(RESIDUAL_CASES, **{"planted-n32-id": lambda: _planted_identified_case(32)})


def _data_scale_oracle(rg, ms):
    return 1.0 + max(1.0, np.abs(rg.j).max(initial=0.0),
                     np.abs(np.hstack(rg.b1)).max(initial=0.0),
                     *(np.abs(m_i).max(initial=0.0) for m_i in ms))


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_residual_system_matches_oracle_bytes(case):
    rg, c = RESIDUAL_CASES[case]()
    ev = _Evaluator(rg, c)
    ms, gbar, vbar_t = ev.ms, ev.gbar, ev.vbar_t
    pack, unpack, fun = _newton_system_oracle(rg, ms, gbar, vbar_t)
    rng = np.random.default_rng(0)
    size = rg.m * rg.r + rg.n_players * rg.r * (rg.r + 1) // 2
    # 20 seeded points, then one whose packed zeros are all negative
    points = [rng.standard_normal(size) * 10.0 ** rng.uniform(-2, 2) for _ in range(20)]
    points.append(np.full(size, -0.0))
    oracle = []
    for z in points:
        assert _same_bytes(ev.vector(z), fun(z))
        f, p_list = ev.unpack(z)
        f_w, p_w = unpack(z)
        assert _same_bytes(f, f_w)
        assert all(_same_bytes(p, pw) for p, pw in zip(p_list, p_w))
        assert _same_bytes(ev.pack(f, p_list), pack(f_w, p_w))
        got_stat, got_care = ev.residual_matrices(f, p_list, ev.closed_loop(f), ev.costs(f))
        stat, care = _residual_matrices_oracle(rg, ms, gbar, vbar_t, f_w, p_w)
        assert _same_bytes(got_stat, stat)
        assert len(got_care) == len(care)
        assert all(_same_bytes(a, b) for a, b in zip(got_care, care))
        assert ev.scale == _data_scale_oracle(rg, ms)
        oracle.append((f_w, p_w, stat, care))
    # all 21 points as one stack: every item reads the oracle's bytes
    fs = np.stack([o[0] for o in oracle])
    ps = np.stack([np.stack(o[1]) for o in oracle])
    a_cls = ev.closed_loop(fs)
    stats, cares = ev.residual_matrices(fs, ps, a_cls, ev.costs(fs))
    assert stats.shape == (len(points), rg.m, rg.r)
    assert cares.shape == (len(points), rg.n_players, rg.r, rg.r)
    for k, (f_w, _, stat, care) in enumerate(oracle):
        assert _same_bytes(a_cls[k], rg.j + np.hstack(rg.b1) @ f_w)
        assert _same_bytes(stats[k], stat)
        assert all(_same_bytes(cares[k, i], care[i]) for i in range(rg.n_players))


def _dense_jacobian(ev, f, p):
    """The full Jacobian of ``ev.vector``, (..., nz, nz), assembled from
    the evaluator's constant stationarity blocks (``ev.newton``) and the blocks
    ``ev.jacobian`` returns."""
    mr, nn = ev.m * ev.r, ev.r * (ev.r + 1) // 2
    d_f, d_p = ev.jacobian(f, p, ev.closed_loop(f))
    jac = np.zeros(f.shape[:-2] + (mr + ev.n_players * nn,) * 2)
    jac[..., :mr, :mr] = ev.newton.stat_f
    stat_p = ev.newton.stat_p.reshape(mr, nn, ev.n_players)
    for k in range(ev.n_players):
        block = slice(mr + k * nn, mr + (k + 1) * nn)
        jac[..., :mr, block] = stat_p[:, :, k]
        jac[..., block, :mr] = d_f[..., :, k, :]
        jac[..., block, block] = d_p
    return jac


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_jacobian_matches_central_differences(case):
    rg, c = RESIDUAL_CASES[case]()
    ev = _Evaluator(rg, c)
    rng = np.random.default_rng(1)
    size = rg.m * rg.r + rg.n_players * rg.r * (rg.r + 1) // 2
    zs = rng.standard_normal((4, size))
    fs, ps = ev.unpack(zs)
    jacs = _dense_jacobian(ev, fs, ps)
    assert jacs.shape == (len(zs), size, size)
    blocks = ev.jacobian(fs, ps, ev.closed_loop(fs))
    h = 1e-6
    for k, (z, jac) in enumerate(zip(zs, jacs)):
        f, p = ev.unpack(z)
        # the stack reads the bits of one point at a time
        assert all(_same_bytes(one, many[k])
                   for one, many in zip(ev.jacobian(f, p, ev.closed_loop(f)), blocks))
        fd = np.empty_like(jac)
        for j, e in enumerate(np.eye(size)):
            fd[:, j] = (ev.vector(z + h * e) - ev.vector(z - h * e)) / (2.0 * h)
        assert np.abs(jac - fd).max() <= 1e-6 * np.abs(fd).max()


def _newton_starts(ev, rg, f0s):
    """Every start's packed Newton point, as solve_fbne builds it: the
    initial gain with its Lyapunov value matrices, zero ones when the
    loop is unstable."""
    pack, _, _ = _newton_system_oracle(rg, ev.ms, ev.gbar, ev.vbar_t)
    z0 = []
    for f0 in f0s:
        if is_stable(rg.j + rg.b1_stacked @ f0):
            z0.append(pack(f0, lyapunov_values_oracle(rg, ev.ms, f0)))
        else:
            z0.append(pack(f0, [np.zeros((rg.r, rg.r))] * rg.n_players))
    return np.array(z0)


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_newton_step_matches_the_dense_solve(case):
    # block elimination through the shared Lyapunov block gives the step
    # the joint dense solve gives, at seeded points and, on lane's three
    # cost sets, at every start of a 64-start solve
    rg, c = RESIDUAL_CASES[case]()
    ev = _Evaluator(rg, c)
    size = rg.m * rg.r + rg.n_players * rg.r * (rg.r + 1) // 2
    zs = np.random.default_rng(1).standard_normal((4, size))
    if case.startswith("lane-"):
        starts = [f0 for _, f0 in _starting_points(rg, SolveOptions())]
        zs = np.vstack([zs, _newton_starts(ev, rg, starts)])
    res = ev.vector(zs)
    step = forward._newton_steps(ev, zs, res)
    fs, ps = ev.unpack(zs)
    want = np.linalg.solve(_dense_jacobian(ev, fs, ps), -res[..., None])[..., 0]
    assert np.all(np.abs(step - want).max(axis=-1) <= 1e-10 * np.abs(want).max(axis=-1))


def _starting_points_oracle(rg, opts):
    """The start recipe with one scipy CARE per regulator problem, its
    seeded draws in their per-k order (g, wr, gain scale, raw); assumes
    every regulator problem has a solution."""
    def lqr(b, wq, wr):
        p = sla.solve_continuous_are(rg.j, b, wq, np.diag(wr))
        return -np.linalg.solve(np.diag(wr), b.T @ p)

    r, m = rg.r, rg.m
    starts = [("joint-lqr", lqr(rg.b1_stacked, np.eye(r), np.ones(m))),
              ("per-player-lqr", np.vstack([lqr(b, np.eye(r), np.ones(b.shape[1]))
                                            for b in rg.b1]))]
    rng = np.random.default_rng(opts.seed)
    for k in range(opts.n_starts):
        g = rng.standard_normal((r, r))
        wr = np.exp(rng.uniform(-2.0, 2.0, size=m))
        gain_scale = 10.0 ** rng.uniform(-0.5, 1.5)
        starts.append((f"seeded-{k}", lqr(rg.b1_stacked, g @ g.T + 0.1 * np.eye(r), wr)))
        starts.append((f"seeded-raw-{k}", rng.standard_normal((m, r)) * gain_scale))
    return starts


@pytest.mark.parametrize("case", ["lane-id", "three-players"])
def test_starts_match_the_scipy_recipe(case):
    # the regulator gains agree with one scipy CARE each to 1e-10
    # relative, and the raw draws are the recipe's bit for bit
    rg, _ = RESIDUAL_CASES[case]()
    opts = SolveOptions(n_starts=12, seed=3)
    got, want = _starting_points(rg, opts), _starting_points_oracle(rg, opts)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, f), (_, f_want) in zip(got, want):
        if name.startswith("seeded-raw-"):
            assert _same_bytes(f, f_want)
        else:
            assert np.abs(f - f_want).max() <= 1e-10 * np.abs(f_want).max()


def test_jordan_block_game_keeps_per_player_lqr():
    # J = -I + superdiagonal with B1 = e3 and B2 = e1: each player's
    # Hamiltonian has one defective eigenvalue pair, which an eigenvector
    # basis of H cannot split but the sign function does
    j = -np.eye(3) + np.diag([1.0, 1.0], 1)
    e = np.eye(3)
    rg = reduce_game(DescriptorGame(np.eye(3), j, (e[:, 2:3], e[:, 0:1])))
    starts = dict(_starting_points(rg, SolveOptions(n_starts=2)))
    assert list(starts)[:2] == ["joint-lqr", "per-player-lqr"]
    rows = [-b.T @ sla.solve_continuous_are(rg.j, b, np.eye(3), np.eye(1)) for b in rg.b1]
    want = np.vstack(rows)
    assert np.abs(starts["per-player-lqr"] - want).max() <= 1e-10 * np.abs(want).max()


def test_a_dropped_seeded_start_keeps_the_later_draws(monkeypatch):
    # a seeded regulator problem without a solution drops seeded-k and
    # seeded-raw-k; every later start keeps its draw
    rg = reduce_game(lane_game())
    opts = SolveOptions(n_starts=4)
    want = _starting_points(rg, opts)
    solve = forward.solve_riccati_stack

    def fail_seeded_1(a, s, q):
        p, ok = solve(a, s, q)
        ok[rg.n_players + 2] = False
        return p, ok

    monkeypatch.setattr(forward, "solve_riccati_stack", fail_seeded_1)
    got = _starting_points(rg, opts)
    assert [name for name, _ in got] == [name for name, _ in want
                                         if name not in ("seeded-1", "seeded-raw-1")]
    kept = dict(want)
    assert all(_same_bytes(f, kept[name]) for name, f in got)


@pytest.mark.parametrize("costs", ["costs_gt", "costs_id"])
def test_root_polish_matches_oracle_on_lane_starts(lane, costs):
    # from every near-root point the damped policy iteration reaches, the
    # batched Newton solve and the hybr oracle polish to the same point
    # (the iteration reaches none on the misspecified costs)
    rg, c = lane["rg"], lane[costs]
    ev = _Evaluator(rg, c)
    f0s = [f0 for _, f0 in _starting_points(rg, SolveOptions(n_starts=12))]
    near = [_policy_iteration_per_start(rg, ev.ms, ev.gbar, ev.vbar_t, f0, ev.scale)
            for f0 in f0s]
    near = [out for out in near if out is not None]
    assert near
    pack, _, _ = _newton_system_oracle(rg, ev.ms, ev.gbar, ev.vbar_t)
    z, _ = newton_root(ev, np.array([pack(f0, p0) for f0, p0, _ in near]))
    for (f0, p0, _), z_k in zip(near, z):
        want = _newton_refine_oracle(rg, ev.ms, ev.gbar, ev.vbar_t, f0, p0)
        f, p = ev.unpack(z_k)
        scale = 1.0 + max(np.abs(want[0]).max(), *(np.abs(pw).max() for pw in want[1]))
        assert np.abs(f - want[0]).max() <= 1e-10 * scale
        assert all(np.abs(p_k - pw).max() <= 1e-10 * scale for p_k, pw in zip(p, want[1]))


@pytest.mark.parametrize("costs", ["costs_gt", "costs_id", "costs_mis"])
def test_solutions_carry_their_start_and_newton_steps(lane, costs, monkeypatch):
    # every solution is one start's Newton point: it carries that start's
    # plain name and the number of Newton steps it took
    rg, c = lane["rg"], lane[costs]
    starts = _starting_points(rg, FAST)
    names = [name for name, _ in starts]
    calls = []

    def spy(ev, z0):
        z, steps = newton_root(ev, z0)
        calls.append((ev, z0, z, steps))
        return z, steps

    monkeypatch.setattr(forward, "root", spy)
    sols = solve_fbne(rg, c, FAST)
    assert sols and len(calls) == 1
    ev, z0, z, steps = calls[0]
    want = _newton_starts(ev, rg, [f0 for _, f0 in starts])
    assert np.abs(z0 - want).max() <= 1e-12 * (1.0 + np.abs(want).max())
    for sol in sols:
        assert sol.start in names
        k = names.index(sol.start)
        assert sol.iterations == steps[k] <= _NEWTON_ITERS
        assert _same_bytes(sol.f_star.matrix, ev.unpack(z[k])[0])


def test_solve_fbne_keeps_one_solution_per_behavior(lane, monkeypatch):
    # the starts end at the lane equilibrium, two of them with their gain
    # moved by 0.5 and 10 DEDUP_TOL relative: the first is the same
    # behavior and is dropped, the second is a solution of its own (a
    # loose tol admits its residual)
    rg, c = lane["rg"], lane["costs_gt"]
    (sol,) = solve_fbne(rg, c, FAST)
    ev = _Evaluator(rg, c)
    offsets = np.array([0.0, 0.5, 10.0, 0.0]) * DEDUP_TOL

    def at_solution(ev, z0):
        z = np.repeat(ev.pack(sol.f_star.matrix, np.array(sol.p))[None], len(z0), axis=0)
        z[:len(offsets), :rg.m * rg.r] *= 1.0 + offsets[:, None]
        return z, np.zeros(len(z0), dtype=int)

    monkeypatch.setattr(forward, "root", at_solution)
    opts = SolveOptions(n_starts=1, tol=1e-2)
    names = [name for name, _ in _starting_points(rg, opts)]
    assert len(names) == len(offsets)
    sols = solve_fbne(rg, c, opts)
    assert sorted(s.start for s in sols) == sorted([names[0], names[2]])
    f = sol.f_star.matrix
    assert same_behavior(f, f * (1.0 + offsets[1]))
    assert not same_behavior(f, f * (1.0 + offsets[2]))


def _backward_errors(ev, f, p):
    """The stationarity and the largest Riccati backward error at the gain
    f and value matrices p."""
    a_cl, costs = ev.closed_loop(f), ev.costs(f)
    stat, care = ev.residual_matrices(f, p, a_cl, costs)
    s_stat, s_care = ev.denominators(f, p, a_cl, costs)
    return np.abs(stat).max() / s_stat, max(np.abs(care).max(axis=(1, 2)) / s_care)


def test_solve_fbne_accepts_by_backward_error(monkeypatch):
    # x' = x + 1e-4 u with unit weights: P = 2e8, so at the exact solution
    # the Riccati residual (6.9e-6) is far above the tolerance in data
    # units (tol scale = 2e-9), but its backward error is 9e-15; a point
    # whose gain is moved by 2e-6 relative has a stationarity backward
    # error of 1e-6
    rg = reduce_game(DescriptorGame(np.eye(1), np.ones((1, 1)), (np.array([[1e-4]]),)))
    c = CostParameters(q=(np.eye(1),), r=((np.eye(1),),))
    p = sla.solve_continuous_are(rg.j, rg.b1_stacked, np.eye(1), np.eye(1))
    f = -(rg.b1_stacked.T @ p)
    ev = _Evaluator(rg, c)
    opts = SolveOptions(n_starts=0)

    def solve_at(gain):
        monkeypatch.setattr(forward, "root", lambda ev, z0: (
            np.repeat(ev.pack(gain, p[None])[None], len(z0), axis=0), np.zeros(len(z0), int)))
        return solve_fbne(rg, c, opts)

    (sol,) = solve_at(f)
    assert sol.residual_max > 1e3 * opts.tol * ev.scale
    assert max(_backward_errors(ev, f, p[None])) < 1e-13
    moved = f * (1.0 + 2e-6)
    assert 5e-7 < _backward_errors(ev, moved, p[None])[0] < 2e-6
    assert solve_at(moved) == []


def test_size_sweep_n40_finds_a_solution():
    # the conftest size-sweep draw at n = 40: every stabilizing start once
    # spent all 100 Newton steps with backward errors of 3e-4 to 3e-3
    rng = np.random.default_rng(0)
    rg = reduce_game(random_game(rng, 40, 30, (1, 1)))
    c = friendly_costs(rng, 40, (1, 1))
    sols = solve_fbne(rg, c, SolveOptions(n_starts=4))
    ev = _Evaluator(rg, c)
    assert any(max(_backward_errors(ev, sol.f_star.matrix, np.array(sol.p))) <= 1e-9
               for sol in sols)


@pytest.mark.parametrize("case", ["lane-id", "lane-mis", "three-players", "planted-n32-id"])
def test_root_start_is_independent_of_its_batch(case, monkeypatch):
    # one batch, one call per start and groups of one Jacobian each give
    # the same bits: a start's result never depends on its neighbours,
    # also where the merit's weights fire (planted-n32-id)
    rg, c = SEARCH_CASES[case]()
    ev = _Evaluator(rg, c)
    z0 = _newton_starts(ev, rg, [f0 for _, f0 in _starting_points(rg, SolveOptions(n_starts=6))])
    batch, steps = newton_root(ev, z0)
    single = [newton_root(ev, z0[k:k + 1]) for k in range(len(z0))]
    monkeypatch.setattr(forward, "_NEWTON_GROUP_BYTES", 1)
    grouped, grouped_steps = newton_root(ev, z0)
    assert _same_bytes(batch, np.concatenate([z for z, _ in single]))
    assert _same_bytes(steps, np.concatenate([n for _, n in single]))
    assert _same_bytes(batch, grouped) and _same_bytes(steps, grouped_steps)
    assert not _same_bytes(batch, z0)


def test_root_retires_a_singular_start_alone(lane):
    # lane's reduced J has a zero second column, so a gain with a zero
    # second column leaves A_cl an eigenvalue at 0 and the Lyapunov block
    # L an exactly zero row: that start retires on its NaN step with its
    # point, and leaves the others' bits alone, although it sits in their
    # solve
    rg, c = lane["rg"], lane["costs_id"]
    assert not rg.j[:, 1].any()
    ev = _Evaluator(rg, c)
    z0 = _newton_starts(ev, rg, [f0 for _, f0 in _starting_points(rg, SolveOptions(n_starts=4))])
    want, want_steps = newton_root(ev, z0)
    marked = np.zeros_like(z0[0])
    marked[:rg.m * rg.r] = np.array([[7.0, 0.0], [-3.0, 0.0]]).reshape(-1)
    assert np.isnan(forward._newton_steps(ev, marked[None], ev.vector(marked[None]))).all()
    got, steps = newton_root(ev, np.vstack([z0[:3], marked, z0[3:]]))
    assert _same_bytes(got[3], marked) and steps[3] == 0
    assert _same_bytes(np.vstack([got[:3], got[4:]]), want)
    assert _same_bytes(np.concatenate([steps[:3], steps[4:]]), want_steps)


def _path_point(ev, z0, steps, monkeypatch):
    """The point a start reaches after ``steps`` Newton steps, with no
    start retiring for acceptance."""
    with monkeypatch.context() as m:
        m.setattr(forward, "_NEWTON_ITERS", steps)
        m.setattr(_Evaluator, "accepts_packed", lambda ev, z, res: np.zeros(len(z), dtype=bool))
        return newton_root(ev, z0[None])[0][0]


def _accepted(ev, z):
    """solve_fbne's acceptance test at the packed point z, with the exact
    denominators."""
    return max(_backward_errors(ev, *ev.unpack(z))) <= ev.tol


def test_root_retires_a_start_one_step_after_its_first_acceptable_point(monkeypatch):
    # planted_draw(16)'s identified costs, solved as inverse --starts 0
    # solves them: the joint-lqr start's first acceptable point is its 7th
    # and it takes one more step
    rg, c = _planted_identified_case(16)
    (sol,) = solve_fbne(rg, c, SolveOptions(n_starts=0))
    assert (sol.start, sol.iterations) == ("joint-lqr", 8)
    ev = _Evaluator(rg, c)
    z0 = _newton_starts(ev, rg, [f0 for _, f0 in _starting_points(rg, SolveOptions(n_starts=0))])
    z, steps = newton_root(ev, z0)
    assert steps[0] == 8
    first = next(k for k in range(_NEWTON_ITERS) if _accepted(ev, _path_point(ev, z0[0], k,
                                                                               monkeypatch)))
    assert first == 7
    assert _same_bytes(z[0], _path_point(ev, z0[0], 8, monkeypatch))


@pytest.mark.parametrize("case", ["lane-id", "planted-r12", "three-players"])
def test_root_retires_no_start_early_that_is_not_acceptable(case, monkeypatch):
    # against a run where no start retires for acceptance, a start either
    # ends with the same bits and steps, or ends earlier, one step after a
    # point that meets solve_fbne's acceptance test
    rg, c = SEARCH_CASES[case]()
    ev = _Evaluator(rg, c)
    z0 = _newton_starts(ev, rg, [f0 for _, f0 in _starting_points(rg, SolveOptions(n_starts=6))])
    got, steps = newton_root(ev, z0)
    with monkeypatch.context() as m:
        m.setattr(_Evaluator, "accepts_packed", lambda ev, z, res: np.zeros(len(z), dtype=bool))
        free, free_steps = newton_root(ev, z0)
    retired = np.flatnonzero(steps != free_steps)
    assert retired.size
    for k in range(len(z0)):
        if k not in retired:
            assert _same_bytes(got[k], free[k])
            continue
        assert 0 < steps[k] < free_steps[k]
        assert _accepted(ev, _path_point(ev, z0[k], steps[k] - 1, monkeypatch))
        assert _same_bytes(got[k], _path_point(ev, z0[k], steps[k], monkeypatch))


def _root_halving_reference(ev, z):
    """Reference: the Armijo search as a halving loop, one residual
    evaluation per halving of the starts still searching (the search
    :func:`dgame.forward.root` stacks), on the merit weighted by
    ``merit_weights`` at each step's base point."""
    z = np.array(z, dtype=float)
    res = ev.vector(z)
    norm = np.linalg.norm(res, axis=-1)
    weights = np.ones_like(z)
    active = np.arange(len(z))
    steps = np.zeros(len(z), dtype=int)
    for _ in range(_NEWTON_ITERS):
        if not active.size:
            break
        za = z[active]
        w, _ = ev.merit_weights(za)
        w = np.ones_like(za) if w is None else w
        for k in np.flatnonzero((w != weights[active]).any(axis=-1)):
            weights[active[k]] = w[k]
            norm[active[k]] = np.linalg.norm(res[active[k]] * w[k])
        # every start is tested, not only those the merit admits
        done = ev.accepts_packed(za, res[active])
        step = forward._newton_steps(ev, za, res[active])
        moved = np.zeros(active.size, dtype=bool)
        t = np.ones(active.size)
        search = np.flatnonzero(np.isfinite(step).all(axis=-1))
        while search.size:
            trial = za[search] + t[search, None] * step[search]
            res_t = ev.vector(trial)
            norm_t = np.linalg.norm(w[search] * res_t, axis=-1)
            ok = norm_t <= (1.0 - forward._ARMIJO * t[search]) * norm[active[search]]
            took = active[search[ok]]
            z[took], res[took], norm[took] = trial[ok], res_t[ok], norm_t[ok]
            moved[search[ok]] = True
            search = search[~ok]
            t[search] /= 2.0
            search = search[t[search] >= forward._BACKTRACK_FLOOR]
        steps[active[moved]] += 1
        active = active[moved & ~done]
    return z, steps


@pytest.mark.parametrize("case", ["lane-gt", "lane-id", "lane-mis", "planted-r12",
                                  "planted-n32-id"])
def test_stacked_search_matches_the_halving_loop(case, monkeypatch):
    # every step length tried in one evaluation takes the point, bit for
    # bit, and the step count the halving loop reaches; on the n = 32
    # identified costs the merit's weights fire (a Riccati family's
    # rounding floor is above the tolerance in data units), on lane they
    # are never computed
    rg, c = SEARCH_CASES[case]()
    ev = _Evaluator(rg, c)
    z0 = _newton_starts(ev, rg, [f0 for _, f0 in _starting_points(rg, FAST)])
    fired = []
    denominators = _Evaluator.denominators

    def counted(ev, *args):
        stat, care = denominators(ev, *args)
        fired.append(bool((stat > ev.cut).any() or (care > ev.cut).any()))
        return stat, care

    monkeypatch.setattr(_Evaluator, "denominators", counted)
    got, got_steps = newton_root(ev, z0)
    if case.startswith("lane"):
        assert not fired
    if case == "planted-n32-id":
        assert any(fired)
    want, want_steps = _root_halving_reference(ev, z0)
    assert np.array_equal(got, want)
    assert np.array_equal(got_steps, want_steps)


def test_certificate_agrees_with_the_spot_check_on_lane(lane):
    # lane's five forward solutions (1 / 2 / 2 over the three cost sets)
    # meet stationarity at their own value matrices to rounding, and are
    # each player's best response to rounding in the scipy oracle
    rg = lane["rg"]
    n_solutions = 0
    for costs in ("costs_gt", "costs_id", "costs_mis"):
        c = lane[costs]
        for sol in solve_fbne(rg, c, FAST):
            ok, errors = certify_nash(rg, c, sol.f_star)
            assert ok and verify_nash_reference(rg, c, sol.f_star.matrix, sol.p)[0]
            assert errors.shape == (rg.n_players,) and errors.max() <= 1e-14
            assert _best_response_distances(rg, c, sol.f_star.matrix).max() <= 1e-12
            n_solutions += 1
    assert n_solutions == 5


def test_certificate_rejects_the_perturbed_gain(lane):
    # the perturbed gain of test_verify_nash_rejects_perturbed_gain: player
    # 0's stationarity backward error is 0.034, and player 1's (whose own
    # gain is unchanged) moves with it to 0.0045; the oracle puts their
    # best responses 0.15 and 0.02 away, relative
    rg, c = lane["rg"], lane["costs_gt"]
    (sol,) = solve_fbne(rg, c, FAST)
    f_fake = sol.f_star.matrix + np.array([[0.4, 0.0], [0.0, 0.0]])
    ok, errors = certify_nash(rg, c, ReducedFeedback(f_fake, rg.input_dims))
    assert not ok
    assert (errors > 1e6 * SolveOptions.tol).all()
    assert (_best_response_distances(rg, c, f_fake) > 100 * DEDUP_TOL).all()
    ok, errors = certify_nash(rg, c, ReducedFeedback(sol.f_star.matrix * 1.01, rg.input_dims))
    assert not ok and errors.max() > 1e6 * SolveOptions.tol


def test_certificate_verdict_is_the_best_response_oracles(lane):
    # "every gain is its player's best response within DEDUP_TOL", from
    # scipy's Riccati solver, gives the certificate's verdict on lane's
    # solutions and on the perturbed and the scaled gain
    rg = lane["rg"]
    gains = [(lane[costs], sol.f_star.matrix) for costs in ("costs_gt", "costs_id", "costs_mis")
             for sol in solve_fbne(rg, lane[costs], FAST)]
    c, f = gains[0]
    gains += [(c, f + np.array([[0.4, 0.0], [0.0, 0.0]])), (c, f * 1.01)]
    verdicts = [certify_nash(rg, c, ReducedFeedback(f, rg.input_dims))[0] for c, f in gains]
    oracle = [bool((_best_response_distances(rg, c, f) <= DEDUP_TOL).all()) for c, f in gains]
    assert verdicts == oracle == [True] * 5 + [False] * 2


def test_certificate_judges_at_the_given_tolerance(lane):
    # lane's equilibrium gain scaled by 1 + 1e-6: a stationarity backward
    # error of 2.3e-7, rejected at the solver's default tolerance and
    # accepted at 1e-6
    rg, c = lane["rg"], lane["costs_gt"]
    (sol,) = solve_fbne(rg, c, FAST)
    f = ReducedFeedback(sol.f_star.matrix * (1 + 1e-6), rg.input_dims)
    ok, errors = certify_nash(rg, c, f)
    assert not ok and 1e-7 < errors.max() < 1e-6
    ok, again = certify_nash(rg, c, f, tol=1e-6)
    assert ok and np.array_equal(errors, again)


def test_certificate_is_false_for_an_indefinite_input_weight(lane):
    # player 0's own input weight negated: the certificate says False and
    # raises nothing, and player 1's backward error is still measured
    rg, c = lane["rg"], lane["costs_gt"]
    (sol,) = solve_fbne(rg, c, FAST)
    r = [list(row) for row in c.r]
    r[0][0] = -r[0][0]
    bad = CostParameters(q=c.q, r=r)
    r_hat = m_matrix(rg, bad, 0)[rg.r:rg.r + 1, rg.r:rg.r + 1]
    assert np.linalg.eigvalsh(r_hat)[0] < 0
    ok, errors = certify_nash(rg, bad, sol.f_star)
    assert not ok
    assert errors[0] == np.inf and np.isfinite(errors[1])


def test_certificate_of_a_zero_cost_game_has_zero_errors():
    # no state weight and a stable J: F = 0 is the equilibrium, with zero
    # value matrices, so residuals and denominators are all zero
    g = DescriptorGame(np.eye(2), -np.eye(2), (np.ones((2, 1)),))
    rg = reduce_game(g)
    c = CostParameters(q=(np.zeros((2, 2)),), r=((np.eye(1),),))
    ok, errors = certify_nash(rg, c, ReducedFeedback(np.zeros((1, rg.r)), rg.input_dims))
    assert ok and errors.tolist() == [0.0]


def test_certificate_is_false_for_an_unstable_loop(lane):
    # a gain whose loop is unstable has no value matrices to judge
    rg, c = lane["rg"], lane["costs_gt"]
    f = ReducedFeedback(np.zeros((rg.m, rg.r)), rg.input_dims)
    assert not is_stable(rg.closed_loop(f.matrix))
    ok, errors = certify_nash(rg, c, f)
    assert not ok and (errors == np.inf).all()


_SIZE_SWEEP_N48 = """
import numpy as np
from conftest import friendly_costs, random_game, verify_nash_reference
from dgame import CostParameters, SolveOptions, certify_nash, reduce_game, solve_fbne
rng = np.random.default_rng(0)
rg = reduce_game(random_game(rng, 48, 36, (1, 1)))
c = friendly_costs(rng, 48, (1, 1))
sols = solve_fbne(rg, c, SolveOptions(n_starts=4))
assert sols
for sol in sols:
    ok, counter = verify_nash_reference(rg, c, sol.f_star.matrix, sol.p)
    assert ok, counter
    for k in (-8, -4, 0, 4, 8):
        scaled = CostParameters(q=[10.0 ** k * q for q in c.q],
                                r=[[10.0 ** k * r for r in row] for row in c.r])
        ok, errors = certify_nash(rg, scaled, sol.f_star)
        assert ok, (k, errors)
"""


def test_size_sweep_n48_equilibrium_is_certified():
    # the size sweep's n = 48 equilibrium with BLAS on one thread, under
    # its costs and under the costs scaled by 1e-8 ... 1e8: |P_i| is near
    # 2e7 at scale 1, and the stationarity backward errors, about 1e-10,
    # must not move with the scale; the spot check once flagged a gap of
    # -9.9e-6 here, rounding against |P_0|
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tests.parent / "src"), str(tests), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _SIZE_SWEEP_N48], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


def test_root_evaluates_once_per_newton_step(lane, monkeypatch):
    # every step length of every searching start in one residual
    # evaluation: on lane all starts fit one group, so a solve makes at
    # most one evaluation per Newton step, plus the one at the starts
    counts = {"vector": 0, "newton": 0}
    vector, newton_steps = _Evaluator.vector, forward._newton_steps

    def counted_vector(ev, z):
        counts["vector"] += 1
        return vector(ev, z)

    def counted_newton_steps(ev, z, res):
        counts["newton"] += 1
        return newton_steps(ev, z, res)

    monkeypatch.setattr(_Evaluator, "vector", counted_vector)
    monkeypatch.setattr(forward, "_newton_steps", counted_newton_steps)
    for costs in ("costs_gt", "costs_id", "costs_mis"):
        counts.update(vector=0, newton=0)
        assert solve_fbne(lane["rg"], lane[costs], SolveOptions())
        assert 0 < counts["vector"] <= counts["newton"] + 1


def test_only_newton_steps_build_the_newton_blocks(lane, monkeypatch):
    # the Jacobian's constant blocks and index maps are the Newton step's
    # alone: the certificate never builds them, and a solve builds them
    # once
    rg, c = lane["rg"], lane["costs_gt"]
    (sol,) = solve_fbne(rg, c, FAST)
    built = []

    class Spy(forward._NewtonBlocks):
        def __init__(self, ev):
            built.append(type(ev))
            super().__init__(ev)

    monkeypatch.setattr(forward, "_NewtonBlocks", Spy)
    assert certify_nash(rg, c, sol.f_star)[0]
    assert built == []
    assert len(solve_fbne(rg, c, FAST)) == 1
    assert built == [_Evaluator]


def test_an_evaluator_is_freed_without_the_cyclic_collector(lane):
    # an evaluator that has stepped holds its Newton blocks, and they hold
    # nothing that leads back to it: with the cyclic collector off it is
    # freed the moment its last reference goes
    rg, c = lane["rg"], lane["costs_id"]
    ev = _Evaluator(rg, c)
    z = _newton_starts(ev, rg, [f0 for _, f0 in _starting_points(rg, SolveOptions(n_starts=2))])
    assert np.isfinite(forward._newton_steps(ev, z, ev.vector(z))).all()
    assert isinstance(vars(ev).get("newton"), forward._NewtonBlocks)
    ref = weakref.ref(ev)
    gc.disable()
    try:
        del ev
        assert ref() is None
    finally:
        gc.enable()
