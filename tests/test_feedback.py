"""Feedback reduction, preimage classes, simulation and feedback fitting."""
import numpy as np
import pytest

from dgame import (
    FeedbackProfile,
    Pencil,
    ReducedFeedback,
    Trajectory,
    UnstableLoopError,
    finite_spectrum,
    fit_feedback,
    is_admissible,
    preimage_member,
    preimage_sample,
    read_trajectory_csv,
    reduce_feedback,
    reduce_game,
    simulate,
    solve_lyapunov,
    write_trajectory_csv,
)
from dgame.game import m_matrix
from conftest import (
    F_GT,
    lane_costs_gt,
    lane_game,
    lane_profile_gt,
    random_game,
    stabilizing_reduced_gain,
)

# published parametrization of the observed behavior's feedback family:
# F(x1, x2) = [[a x1 + b, c x1 + d, x1], [a x2 + e, c x2 + f, x2]]
FAMILY = dict(a=0.4383, b=-0.3547, e=-2.163, c=2.006, d=-1.999, f=-9.525)


def family_member(x1, x2):
    p = FAMILY
    return np.array([
        [p["a"] * x1 + p["b"], p["c"] * x1 + p["d"], x1],
        [p["a"] * x2 + p["e"], p["c"] * x2 + p["f"], x2],
    ])


def test_observed_profile_is_admissible(lane):
    adm = is_admissible(lane["game"], lane["f_gt"])
    assert adm.ok
    assert np.max(adm.spectrum.real) < 0


def test_zero_feedback_rejected_for_lane_game(lane):
    zero = FeedbackProfile((np.zeros((1, 3)), np.zeros((1, 3))))
    adm = is_admissible(lane["game"], zero)
    assert not adm.ok
    assert "stable" in adm.reason


def test_index_raising_feedback_rejected(lane):
    # the published family leaves the admissible class exactly on x1+x2 = 10
    bad = family_member(5.0, 5.0)
    adm = is_admissible(lane["game"], FeedbackProfile((bad[0:1], bad[1:2])))
    assert not adm.ok
    assert "index" in adm.reason


def test_family_parametrization_reproduces_observed_profile():
    # the observed profile sits in the published family at x-parameters
    # equal to its own third column (values printed to 4 significant digits)
    reproduced = family_member(0.7987, 3.8449)
    assert np.abs(reproduced - F_GT).max() <= 5e-4


def test_reduce_feedback_zero_gain():
    # open-loop stable descriptor game: zero feedback is admissible and
    # reduces to the zero gain
    e = np.diag([1.0, 1.0, 0.0])
    a = np.diag([-1.0, -2.0, 1.0])
    g = lane_game().__class__(e, a, (np.array([[1.0], [1.0], [1.0]]),
                                     np.array([[0.0], [1.0], [0.5]])))
    rg = reduce_game(g)
    zero = FeedbackProfile((np.zeros((1, 3)), np.zeros((1, 3))))
    np.testing.assert_allclose(reduce_feedback(rg, zero).matrix, 0.0, atol=1e-14)


def test_reduce_feedback_ode_case_is_coordinate_change():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3)) - 3 * np.eye(3)
    g_ode = lane_game().__class__(np.eye(3), a, (np.array([[1.0], [0.0], [0.0]]),))
    rg = reduce_game(g_ode)
    f = FeedbackProfile((np.array([[0.1, -0.2, 0.3]]),))
    got = reduce_feedback(rg, f).matrix
    np.testing.assert_allclose(got, f.stacked @ rg.w.x1, atol=1e-12)


def test_spectrum_coincidence_on_random_games():
    # reduced-loop eigenvalues match the full closed-loop finite spectrum
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=int(rng.integers(1, 3))))
        g = random_game(rng, n, r, dims)
        rg = reduce_game(g)
        f_red = ReducedFeedback(stabilizing_reduced_gain(rng, rg), dims)
        profile = preimage_sample(rg, f_red, seed=checked)
        via_reduction = np.sort_complex(
            np.linalg.eigvals(rg.j + rg.b1_stacked @ reduce_feedback(rg, profile).matrix)
        )
        via_pencil = np.sort_complex(
            finite_spectrum(Pencil(g.e, g.a + g.b_stacked @ profile.stacked))
        )
        np.testing.assert_allclose(
            via_reduction, via_pencil, atol=1e-6 * (1 + np.abs(via_pencil).max())
        )
        checked += 1


def test_preimage_round_trip_for_observed_profile(lane):
    f_red = reduce_feedback(lane["rg"], lane["f_gt"])
    assert preimage_member(lane["rg"], f_red, lane["f_gt"])


def test_preimage_member_rejects_other_behaviors(lane):
    f_red = reduce_feedback(lane["rg"], lane["f_gt"])
    other = family_member(1.0, -3.0)
    assert not preimage_member(lane["rg"], f_red, FeedbackProfile((other[0:1], other[1:2])))


def test_preimage_sample_unique_when_no_algebraic_part():
    rng = np.random.default_rng(3)
    g = random_game(rng, 3, 3, (1, 1))
    g = g.__class__(np.eye(3), g.a, g.b)
    rg = reduce_game(g)
    f_red = ReducedFeedback(stabilizing_reduced_gain(rng, rg), (1, 1))
    s0 = preimage_sample(rg, f_red, seed=None)
    s1 = preimage_sample(rg, f_red, seed=11)
    np.testing.assert_allclose(s0.stacked, s1.stacked, atol=1e-9)
    want = f_red.matrix @ np.linalg.inv(rg.w.x)
    np.testing.assert_allclose(s0.stacked, want, atol=1e-9)


def test_preimage_samples_deterministic_and_distinct(lane):
    rg = lane["rg"]
    f_red = reduce_feedback(rg, lane["f_gt"])
    s_a = preimage_sample(rg, f_red, seed=1)
    s_b = preimage_sample(rg, f_red, seed=1)
    s_c = preimage_sample(rg, f_red, seed=2)
    np.testing.assert_array_equal(s_a.stacked, s_b.stacked)
    assert np.abs(s_a.stacked - s_c.stacked).max() > 1e-6
    assert preimage_member(rg, f_red, s_a)
    assert preimage_member(rg, f_red, s_c)
    np.testing.assert_allclose(
        reduce_feedback(rg, s_c).matrix, f_red.matrix, atol=1e-8 * (1 + np.abs(f_red.matrix).max())
    )


def test_preimage_samples_share_closed_loop_behavior(lane):
    rg = lane["rg"]
    f_red = reduce_feedback(rg, lane["f_gt"])
    x1_0 = np.array([0.8, -0.6])
    t_a = simulate(rg, preimage_sample(rg, f_red, seed=5), x1_0, 4.0, 0.01)
    t_b = simulate(rg, preimage_sample(rg, f_red, seed=9), x1_0, 4.0, 0.01)
    assert np.abs(t_a.x - t_b.x).max() <= 1e-6
    assert np.abs(t_a.u - t_b.u).max() <= 1e-6


def test_simulate_zero_initial_state(lane):
    traj = simulate(lane["rg"], lane["f_gt"], np.zeros(2), 2.0, 0.1)
    assert np.abs(traj.x).max() == 0.0
    assert np.abs(traj.u).max() == 0.0


def test_simulate_lane_decay(lane):
    traj = simulate(lane["rg"], lane["f_gt"], np.array([1.0, 0.5]), 10.0, 0.01)
    assert np.linalg.norm(traj.x[-1]) <= 1e-3 * np.linalg.norm(traj.x[0])


def test_simulate_rejects_unstable_loop(lane):
    zero = FeedbackProfile((np.zeros((1, 3)), np.zeros((1, 3))))
    with pytest.raises(UnstableLoopError):
        simulate(lane["rg"], zero, np.ones(2), 1.0, 0.01)


def test_simulated_cost_matches_value_matrix(lane):
    # quadrature of the original-coordinate integrand against the exact
    # value matrix of the closed loop
    rg = lane["rg"]
    c = lane_costs_gt()
    f_red = reduce_feedback(rg, lane["f_gt"])
    x1_0 = np.array([1.0, -0.3])
    traj = simulate(rg, lane["f_gt"], x1_0, 25.0, 0.002)
    a_cl = rg.j + rg.b1_stacked @ f_red.matrix
    stacked = np.vstack([np.eye(rg.r), f_red.matrix])
    for i in range(2):
        p_i = solve_lyapunov(a_cl, stacked.T @ m_matrix(rg, c, i) @ stacked)
        integrand = np.einsum("kj,jl,kl->k", traj.x, c.q[i], traj.x)
        for j in range(2):
            integrand = integrand + c.r[i][j][0, 0] * traj.u[:, j] ** 2
        integral = np.trapezoid(integrand, traj.times)
        exact = float(x1_0 @ p_i @ x1_0)
        assert abs(integral - exact) <= 0.01 * abs(exact)


def test_fit_feedback_exact_recovery_full_rank():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 3)) - 3.0 * np.eye(3)
    g = lane_game().__class__(np.eye(3), a, (np.array([[1.0], [0.2], [0.0]]),))
    rg = reduce_game(g)
    f_true = stabilizing_reduced_gain(rng, rg)
    profile = FeedbackProfile.from_stacked(
        ReducedFeedback(f_true, (1,)).matrix @ np.linalg.inv(rg.w.x), (1,)
    )
    traj = simulate(rg, profile, rng.standard_normal(3), 4.0, 0.05)
    fit = fit_feedback(traj)
    assert not fit.rank_deficient
    np.testing.assert_allclose(fit.profile.stacked, profile.stacked, atol=1e-8)


def test_fit_feedback_flags_descriptor_rank_deficiency(lane):
    rg = lane["rg"]
    traj = simulate(rg, lane["f_gt"], np.array([1.0, 0.4]), 5.0, 0.02)
    fit = fit_feedback(traj)
    assert fit.rank_deficient and fit.rank == 2
    f_red = reduce_feedback(rg, lane["f_gt"])
    assert preimage_member(rg, f_red, fit.profile)


def test_fit_feedback_noise_robustness(lane):
    rg = lane["rg"]
    f_red = reduce_feedback(rg, lane["f_gt"])
    traj = simulate(rg, lane["f_gt"], np.array([1.0, 0.4]), 5.0, 0.02)
    rng = np.random.default_rng(5)
    noisy = traj.__class__(
        times=traj.times,
        x=traj.x + 1e-6 * rng.standard_normal(traj.x.shape),
        u=traj.u + 1e-6 * rng.standard_normal(traj.u.shape),
        input_dims=traj.input_dims,
    )
    fit = fit_feedback(noisy)
    s = rg.w.x1 - rg.w.x2 @ rg.b2_stacked @ f_red.matrix
    assert np.abs(fit.profile.stacked @ s - f_red.matrix).max() <= 1e-4


def test_fit_feedback_rejects_degenerate():
    traj_cls = simulate(reduce_game(lane_game()), lane_profile_gt(), np.zeros(2), 1.0, 0.1)
    with pytest.raises(ValueError):
        fit_feedback(traj_cls)


def test_trajectory_csv_round_trip(tmp_path, lane):
    traj = simulate(lane["rg"], lane["f_gt"], np.array([0.3, -0.1]), 1.0, 0.05)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x1,x2,x3,u1,u2"
    back = read_trajectory_csv(path, input_dims=(1, 1))
    np.testing.assert_array_equal(back.times, traj.times)
    np.testing.assert_array_equal(back.x, traj.x)
    np.testing.assert_array_equal(back.u, traj.u)


def _write_trajectory_csv_oracle(traj, fh):
    """The ``csv.writer`` implementation the row-format writer replaced."""
    import csv
    n, m = traj.x.shape[1], traj.u.shape[1]
    writer = csv.writer(fh)
    writer.writerow(["t"] + [f"x{i+1}" for i in range(n)] + [f"u{i+1}" for i in range(m)])
    for k in range(len(traj.times)):
        row = [traj.times[k], *traj.x[k], *traj.u[k]]
        writer.writerow([f"{v:.17g}" for v in row])


def test_trajectory_csv_matches_csv_writer_bytes(tmp_path):
    # signed zeros, huge values, denormals and non-finite entries, over
    # more rows than one write block
    import io
    rng = np.random.default_rng(8)
    k = 2500
    x = rng.standard_normal((k, 4)) * 10.0 ** rng.integers(-300, 300, size=(k, 4))
    u = rng.standard_normal((k, 2))
    x[0] = [-0.0, 0.0, 1e300, 5e-324]
    u[1] = [-2.2e-310, np.nan]
    x[2, :2] = [np.inf, -np.inf]
    traj = Trajectory(np.arange(k) * 1e-3, x, u)
    want = io.StringIO(newline="")
    _write_trajectory_csv_oracle(traj, want)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    assert path.read_bytes() == want.getvalue().encode()
    got = io.StringIO(newline="")
    write_trajectory_csv(traj, got)
    assert got.getvalue() == want.getvalue()


def _read_trajectory_csv_oracle(path):
    """The ``csv.reader`` implementation ``np.loadtxt`` replaced: the
    header's column counts and the sample array."""
    import csv
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        n = sum(1 for h in header if h.startswith("x"))
        m = sum(1 for h in header if h.startswith("u"))
        rows = [[float(v) for v in row] for row in reader if row]
    return n, m, np.asarray(rows)


def test_trajectory_csv_reader_matches_csv_reader_bytes(tmp_path):
    # signed zeros, huge values, denormals and non-finite entries, with
    # both line ends and a blank line
    rng = np.random.default_rng(9)
    k = 300
    x = rng.standard_normal((k, 3)) * 10.0 ** rng.integers(-300, 300, size=(k, 3))
    u = rng.standard_normal((k, 2))
    x[0] = [-0.0, 0.0, 1e300]
    x[1] = [1e-300, -1e-300, 5e-324]
    u[1] = [-2.2e-310, np.nan]
    x[2, :2] = [np.inf, -np.inf]
    traj = Trajectory(np.arange(k) * 1e-3, x, u)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    lf = tmp_path / "traj_lf.csv"
    lf.write_bytes(path.read_bytes().replace(b"\r\n", b"\n").replace(b"\n", b"\n\n", 1))
    for p in (path, lf):
        n, m, want = _read_trajectory_csv_oracle(p)
        got = read_trajectory_csv(p, input_dims=(1, 1))
        assert (got.x.shape[1], got.u.shape[1]) == (n, m) == (3, 2)
        for a, b in ((got.times, want[:, 0]), (got.x, want[:, 1:4]), (got.u, want[:, 4:])):
            assert a.tobytes() == np.ascontiguousarray(b).tobytes()


@pytest.mark.parametrize("text", ["", "t,x1,u1\n", "t,x1,u1\r\n\r\n"])
def test_trajectory_csv_without_samples_is_one_error(tmp_path, recwarn, text):
    path = tmp_path / "traj.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="no samples in"):
        read_trajectory_csv(path)
    assert not recwarn.list
