"""Feedback reduction, preimage classes, simulation and feedback fitting."""
import io
import os
import subprocess
import sys

import hypothesis.strategies as st
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings

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
    simulate_blocks,
    solve_lyapunov,
    write_trajectory_csv,
)
from dgame.feedback import _format_rows, preimage_matrix
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


def _simulate_cases():
    lane_rg = reduce_game(lane_game())
    rng = np.random.default_rng(5)
    planted = reduce_game(random_game(rng, 16, 12, (1, 1)))
    gain = ReducedFeedback(stabilizing_reduced_gain(rng, planted), planted.input_dims)
    return {"lane": (lane_rg, reduce_feedback(lane_rg, lane_profile_gt()), np.array([1.0, 0.4])),
            "planted-r12": (planted, gain, rng.uniform(-1.0, 1.0, 12))}


@pytest.mark.parametrize("case", ["lane", "planted-r12"])
@pytest.mark.parametrize("steps", [0, 1, 63, 64, 65, 129, 200])
def test_simulate_blocks_match_the_exponential(case, steps):
    # x1 at steps on both sides of each block edge, and at the last step,
    # against expm(A_cl t_k) x1_0; horizons end inside a block and at 0
    rg, f_red, x1_0 = _simulate_cases()[case]
    dt = 0.01
    traj = simulate(rg, f_red, x1_0, steps * dt, dt)
    assert len(traj.times) == steps + 1
    x1 = np.linalg.solve(rg.w.x, traj.x.T)[:rg.r].T
    a_cl = rg.closed_loop(f_red.matrix)
    for k in sorted({0, 63, 64, 65, 127, 128, steps} & set(range(steps + 1))):
        want = sla.expm(a_cl * (k * dt)) @ x1_0
        assert np.abs(x1[k] - want).max() <= 1e-10 * np.abs(x1).max()


def _simulate_whole(rg, f_red, x1_0, horizon, dt):
    """``simulate`` as it was before it streamed: every x1 row of the
    horizon in one array, then one product each with S' and F_red'."""
    a_cl = rg.closed_loop(f_red.matrix)
    steps = int(round(horizon / dt))
    phi = sla.expm(a_cl * dt)
    powers = [phi]
    while len(powers) < min(steps, 64):
        powers.append(phi @ powers[-1])
    powers = np.vstack(powers)
    x1 = np.empty((steps + 1, rg.r))
    x1[0] = x1_0
    for k in range(0, steps, 64):
        ahead = powers[:(steps - k) * rg.r] @ x1[k]
        x1[k + 1:k + 1 + 64] = ahead.reshape(-1, rg.r)
    return np.arange(steps + 1) * dt, x1 @ preimage_matrix(rg, f_red).T, x1 @ f_red.matrix.T


@pytest.mark.parametrize("case", ["lane", "planted-r12"])
@pytest.mark.parametrize("steps", [0, 1, 2, 63, 64, 65, 255, 256, 257, 511, 512, 513, 4097, 60000])
def test_simulate_blocks_give_the_whole_horizons_bits(case, steps):
    # block edges, a lone last row after zero, one and many whole blocks
    rg, f_red, x1_0 = _simulate_cases()[case]
    dt = 1e-3
    want = _simulate_whole(rg, f_red, x1_0, steps * dt, dt)
    blocks = list(simulate_blocks(rg, f_red, x1_0, steps * dt, dt))
    assert [len(t) for t, _, _ in blocks[:-1]] == [256] * (len(blocks) - 1)
    assert 1 <= len(blocks[-1][0]) <= 257
    traj = simulate(rg, f_red, x1_0, steps * dt, dt)
    for got, ref in zip((traj.times, traj.x, traj.u), want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("horizon, dt", [(1e300, 1e-300), (np.inf, 0.01), (np.nan, 0.01),
                                         (1.0, np.nan)])
def test_simulate_blocks_rejects_a_horizon_or_step_that_is_not_finite(lane, horizon, dt):
    # the step count round(horizon / dt) must be a finite number
    f_red = reduce_feedback(lane["rg"], lane["f_gt"])
    with pytest.raises(ValueError, match="finite"):
        simulate_blocks(lane["rg"], f_red, np.ones(2), horizon, dt)


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


def _percent_rows(values, line_end):
    fmt = ",".join(["%.17g"] * values.shape[1]) + line_end
    return "".join(fmt % tuple(row) for row in values.tolist())


def _assert_same_rows(got, want):
    # names the first differing row instead of diffing megabytes of text
    for k, (g, w) in enumerate(zip(got.splitlines(True), want.splitlines(True))):
        assert g == w, f"row {k}"
    assert len(got) == len(want)


def _assert_formats_as_percent(values, line_ends=("\r\n", "\n")):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    for line_end in line_ends:
        got = io.StringIO(newline="")
        _format_rows([values], got, line_end)
        _assert_same_rows(got.getvalue(), _percent_rows(values, line_end))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=24))
def test_format_rows_matches_percent_on_any_float(xs):
    _assert_formats_as_percent(np.array(xs))
    _assert_formats_as_percent(np.array(xs)[:, None])


def test_format_rows_matches_percent_on_random_bit_patterns():
    rng = np.random.default_rng(18)
    bits = rng.integers(0, 2 ** 64, size=(4000, 7), dtype=np.uint64).view(np.float64)
    bits[0] = [5e-324, -2.2250738585072014e-308, 2.2250738585072009e-308, 1e308, -1e308,
               1.7976931348623157e308, -4.9e-310]
    _assert_formats_as_percent(bits)
    scaled = rng.standard_normal((3000, 5)) * 10.0 ** rng.integers(-300, 300, size=(3000, 5))
    _assert_formats_as_percent(scaled)


def test_format_rows_matches_percent_on_exact_ties():
    # m 2**-18 in [0.1, 1) with m odd has 18 significant digits ending in
    # 5: its 17-digit rounding is an exact tie
    ties = np.arange(26215, 262144, 2) * 2.0 ** -18
    _assert_formats_as_percent(ties.reshape(-1, 5), ("\r\n",))
    _assert_formats_as_percent(-ties[:20000].reshape(-1, 4), ("\n",))


def test_format_rows_matches_percent_at_powers_of_ten():
    p10 = np.array([float(f"1e{k}") for k in range(-300, 301)])
    around = np.stack([np.nextafter(p10, 0.0), p10, np.nextafter(p10, np.inf)], 1)
    _assert_formats_as_percent(around)
    _assert_formats_as_percent(-around)


def test_format_rows_matches_percent_on_every_layout():
    # every fixed-point decade -4..16 and the exponential ones around it,
    # with 1..17 significant digits and both signs
    values = np.array([float(("123456789" * 2)[:digits] + f"e{decade - digits + 1}")
                       for decade in range(-7, 20) for digits in range(1, 18)])
    _assert_formats_as_percent(np.stack([values, -values], 1))
    _assert_formats_as_percent(np.stack([values * 7.0, -values / 3.0], 1))


def test_format_rows_matches_percent_on_zeros_and_non_finite_values():
    _assert_formats_as_percent([[0.0, -0.0, np.inf, -np.inf, np.nan, 1.5]])
    _assert_formats_as_percent([[1.5, -0.0], [np.nan, 2.0], [3.0, 4.0]])


def test_format_rows_prints_zeros_in_every_column_position():
    # 0 and -0 take decade 0's layout beside values of every layout, in
    # the first, a middle and the last column, and fill whole rows
    rng = np.random.default_rng(26)
    for ncols in (1, 2, 3, 7):
        values = rng.standard_normal((4 * ncols + 2, ncols)) * 10.0 ** rng.integers(
            -30, 30, size=(4 * ncols + 2, ncols))
        for k in range(ncols):
            values[4 * k, k], values[4 * k + 1, k] = 0.0, -0.0
            values[4 * k + 2] = np.where(np.arange(ncols) == k, -0.0, 0.0)
        values[-2:] = [[0.0], [-0.0]]
        _assert_formats_as_percent(values)


def test_format_rows_spans_blocks_and_column_groups():
    rng = np.random.default_rng(3)
    k = 2600
    times = np.arange(k) * 1e-3
    x = rng.standard_normal((k, 5)) * np.exp(-times / 0.3)[:, None]
    x[1500, 2] = np.nan
    for line_end in ("\r\n", "\n"):
        got = io.StringIO(newline="")
        _format_rows([times, x, x[:, 0]], got, line_end)
        _assert_same_rows(got.getvalue(),
                          _percent_rows(np.column_stack([times, x, x[:, 0]]), line_end))
    empty = io.StringIO()
    _format_rows([np.zeros(0), np.zeros((0, 3))], empty, "\n")
    assert empty.getvalue() == ""


def test_importing_the_cli_builds_no_format_tables():
    # nor the command-line parser, which the first call of main builds
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import dgame.cli as c, dgame.feedback as f\n"
            "assert f._tables.cache_info().currsize == 0\n"
            "assert c.build_parser.cache_info().currsize == 0")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
