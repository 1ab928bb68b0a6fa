"""Forward solver: residual calculus, enumeration, equilibrium verification."""
import numpy as np
import pytest
import scipy.linalg as sla
from scipy.optimize import root

from dgame import (
    CostParameters,
    DescriptorGame,
    ReducedFeedback,
    SolveOptions,
    equilibrium_cost,
    reduce_game,
    simulate,
    solve_fbne,
    verify_nash_local,
)
from dgame import forward
from dgame.forward import (
    _NEWTON_ITERS,
    _Evaluator,
    _starting_points,
    root as newton_root,
    solution_at,
)
from dgame.game import m_matrix
from dgame.linalg import is_stable, solve_lyapunov, symmetrize
from conftest import (
    friendly_costs,
    lane_costs_gt,
    lane_costs_identified,
    lane_costs_misspecified,
    lane_game,
    random_game,
)

FAST = SolveOptions(n_starts=16)


def test_care_residual_zero_case():
    # stable dynamics, zero weights: everything vanishes at the origin
    e = np.diag([1.0, 1.0, 0.0])
    a = np.diag([-1.0, -2.0, 1.0])
    g = DescriptorGame(e, a, (np.array([[1.0], [1.0], [1.0]]),))
    rg = reduce_game(g)
    zeros = CostParameters(q=(np.zeros((3, 3)),), r=((np.zeros((1, 1)),),))
    sol = solution_at(rg, zeros, ReducedFeedback(np.zeros((1, 2)), rg.input_dims))
    assert not any(p.any() for p in sol.p)
    assert sol.residuals.max_norm == 0.0


def test_care_residual_matches_expanded_assembly():
    # independent oracle: assemble the residual directly from the raw
    # weights and decomposition blocks, never through the M matrices
    rng = np.random.default_rng(0)
    g = random_game(rng, 4, 2, (1, 2))
    rg = reduce_game(g)
    c = friendly_costs(rng, 4, (1, 2))
    f = rng.standard_normal((3, 2))
    p_list = [np.eye(2) + 0.1 * k for k in range(2)]
    res = _Evaluator(rg, c).residuals(f, p_list)
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
        np.testing.assert_allclose(res.care[i], expanded, atol=1e-10)
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
        np.testing.assert_allclose(res.stationarity[si], row, atol=1e-10)


def test_lane_ground_truth_unique_solution(lane):
    sols = solve_fbne(lane["rg"], lane["costs_gt"], FAST)
    assert len(sols) == 1
    sol = sols[0]
    assert sol.residuals.max_norm <= 1e-8 * sol.residuals.scale
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


def test_best_response_fixed_point_property(lane):
    # at every returned solution, each player's gain is the regulator best
    # response to the others: an independent characterization via the
    # Riccati solver of scipy
    rg = lane["rg"]
    for costs in (lane["costs_gt"], lane["costs_id"]):
        for sol in solve_fbne(rg, costs, FAST):
            f = sol.f_star.matrix
            r = rg.r
            rows = [slice(r + s.start, r + s.stop)
                    for s in map(rg.input_slice, range(rg.n_players))]
            for i in range(rg.n_players):
                si = rg.input_slice(i)
                mi = m_matrix(rg, costs, i)
                a_others = rg.j.copy()
                for j in range(rg.n_players):
                    if j != i:
                        a_others = a_others + rg.b1[j] @ f[rg.input_slice(j)]
                # quadratic pieces of player i's single-player problem, read
                # out of M_i: q_bar, v_bar[j], r_bar[j] and s_bar[i][j]
                q_hat = mi[:r, :r].copy()
                v_hat = mi[:r, rows[i]].copy()
                for j in range(rg.n_players):
                    if j == i:
                        continue
                    fj = f[rg.input_slice(j)]
                    v_bar_j = mi[:r, rows[j]]
                    q_hat = q_hat + v_bar_j @ fj + fj.T @ v_bar_j.T
                    q_hat = q_hat + fj.T @ mi[rows[j], rows[j]] @ fj
                    v_hat = v_hat + (mi[rows[i], rows[j]] @ fj).T
                r_hat = mi[rows[i], rows[i]]
                p = sla.solve_continuous_are(a_others, rg.b1[i], 0.5 * (q_hat + q_hat.T),
                                             r_hat, s=v_hat)
                best = -np.linalg.solve(r_hat, rg.b1[i].T @ p + v_hat.T)
                np.testing.assert_allclose(best, f[si], atol=1e-6 * (1 + np.abs(f).max()))


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
    ok, counter = verify_nash_local(lane["rg"], lane["costs_gt"], sols[0],
                                    n_trials=200, radius=0.5)
    assert ok, counter


def test_verify_nash_rejects_perturbed_gain(lane):
    rg = lane["rg"]
    c = lane["costs_gt"]
    sols = solve_fbne(rg, c, FAST)
    f_fake = sols[0].f_star.matrix + np.array([[0.4, 0.0], [0.0, 0.0]])
    fake = solution_at(rg, c, ReducedFeedback(f_fake, rg.input_dims))
    assert fake.residuals.max_norm > 1e-3
    ok, counter = verify_nash_local(rg, c, fake, n_trials=200, radius=0.5)
    assert not ok
    assert counter["player"] == 0


def test_solution_at_reproduces_solver_solution(lane):
    rg, c = lane["rg"], lane["costs_id"]
    for sol in solve_fbne(rg, c, FAST):
        got = solution_at(rg, c, sol.f_star)
        for p, p_sol in zip(got.p, sol.p):
            np.testing.assert_allclose(p, p_sol, atol=1e-9 * (1 + np.abs(p_sol).max()))
        np.testing.assert_array_equal(got.spectrum, sol.spectrum)
        assert got.residuals.scale == sol.residuals.scale
        assert got.residuals.max_norm <= 1e-9 * got.residuals.scale


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
    ok, _ = verify_nash_local(rg, c, sols[0], n_trials=200, radius=1.0)
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


def _lyapunov_values_oracle(rg, ms, f):
    """Oracle: value matrices of a stabilizing f, one 2-D Lyapunov solve
    per player."""
    a_cl = rg.j + rg.b1_stacked @ f
    stacked = np.vstack([np.eye(rg.r), f])
    return [solve_lyapunov(a_cl, stacked.T @ ms[i] @ stacked) for i in range(rg.n_players)]


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
            p_list = _lyapunov_values_oracle(rg, ms, f)
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


RESIDUAL_CASES = {
    "lane-gt": lambda: (reduce_game(lane_game()), lane_costs_gt()),
    "lane-id": lambda: (reduce_game(lane_game()), lane_costs_identified()),
    "lane-mis": lambda: (reduce_game(lane_game()), lane_costs_misspecified()),
    "planted-r12": lambda: _planted_case(5, 16, 12, (1, 1)),
    "three-players": lambda: _planted_case(6, 8, 7, (2, 2, 2)),
}


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
        res = ev.residuals(f, p_list)
        stat, care = _residual_matrices_oracle(rg, ms, gbar, vbar_t, f_w, p_w)
        assert _same_bytes(res.stationarity, stat)
        assert len(res.care) == len(care)
        assert all(_same_bytes(a, b) for a, b in zip(res.care, care))
        assert res.scale == _data_scale_oracle(rg, ms)
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


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_jacobian_matches_central_differences(case):
    rg, c = RESIDUAL_CASES[case]()
    ev = _Evaluator(rg, c)
    rng = np.random.default_rng(1)
    size = rg.m * rg.r + rg.n_players * rg.r * (rg.r + 1) // 2
    zs = rng.standard_normal((4, size))
    fs, ps = ev.unpack(zs)
    jacs = ev.jacobian(fs, ps, ev.closed_loop(fs))
    assert jacs.shape == (len(zs), size, size)
    h = 1e-6
    for z, jac in zip(zs, jacs):
        f, p = ev.unpack(z)
        # the stack reads the bits of one point at a time
        assert _same_bytes(ev.jacobian(f, p, ev.closed_loop(f)), jac)
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
            z0.append(pack(f0, _lyapunov_values_oracle(rg, ev.ms, f0)))
        else:
            z0.append(pack(f0, [np.zeros((rg.r, rg.r))] * rg.n_players))
    return np.array(z0)


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


@pytest.mark.parametrize("case", ["lane-id", "lane-mis", "three-players"])
def test_root_start_is_independent_of_its_batch(case, monkeypatch):
    # one batch, one call per start and groups of one Jacobian each give
    # the same bits: a start's result never depends on its neighbours
    rg, c = RESIDUAL_CASES[case]()
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
    # a start whose Jacobian is singular keeps its point and leaves the
    # others' bits alone, although it sits in their solve
    rg, c = lane["rg"], lane["costs_id"]
    ev = _Evaluator(rg, c)
    z0 = _newton_starts(ev, rg, [f0 for _, f0 in _starting_points(rg, SolveOptions(n_starts=4))])
    want, want_steps = newton_root(ev, z0)
    marked = np.zeros_like(z0[0])
    marked[:rg.m * rg.r] = 7.0
    jacobian = ev.jacobian

    def singular_at_marked(f, p, a_cl):
        jac = jacobian(f, p, a_cl)
        jac[(f == 7.0).all(axis=(-2, -1))] = 0.0
        return jac

    ev.jacobian = singular_at_marked
    got, steps = newton_root(ev, np.vstack([z0[:3], marked, z0[3:]]))
    assert _same_bytes(got[3], marked) and steps[3] == 0
    assert _same_bytes(np.vstack([got[:3], got[4:]]), want)
    assert _same_bytes(np.concatenate([steps[:3], steps[4:]]), want_steps)
