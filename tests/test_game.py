"""Game validation, reduction, and the reduced cost matrices."""
import numpy as np
import pytest
import scipy.linalg as sla

from dgame import (
    CostParameters,
    DescriptorGame,
    UnstabilizableError,
    m_matrix,
    reduce_game,
    simulate,
)
from dgame.forward import _Evaluator
from dgame.game import HAUTUS_TOL, _check_stabilizable
from dgame.pencil import ImpulsiveModesError, Pencil, weierstrass
from conftest import (
    KS,
    friendly_costs,
    lane_costs_gt,
    lane_game,
    lane_profile_gt,
    planted_draw,
    random_game,
    stabilizing_reduced_gain,
)


def m_matrix_congruence(rg, c, i):
    """Oracle for M_i: the explicit congruence ``T' blkdiag(Q_i, R_i) T``
    with ``T = [[X1, -X2 B2], [0, I_m]]``."""
    x1, x2 = rg.w.x1, rg.w.x2
    t = np.block([
        [x1, -x2 @ rg.b2_stacked],
        [np.zeros((rg.m, rg.r)), np.eye(rg.m)],
    ])
    core = sla.block_diag(c.q[i], sla.block_diag(*c.r[i]))
    return t.T @ core @ t


def input_rows(rg, j):
    """Rows (and columns) of player j's inputs in M_i."""
    s = rg.input_slice(j)
    return slice(rg.r + s.start, rg.r + s.stop)


def test_lane_reduction_shapes():
    rg = reduce_game(lane_game())
    assert rg.r == 2
    assert all(b.shape == (1, 1) for b in rg.b2)
    assert rg.b1_stacked.shape == (2, 2)


def test_stacked_input_blocks_built_once_and_read_only():
    rng = np.random.default_rng(4)
    rg = reduce_game(random_game(rng, 6, 4, (1, 2, 1)))
    for stacked, blocks in ((rg.b1_stacked, rg.b1), (rg.b2_stacked, rg.b2)):
        want = np.hstack(blocks)
        assert stacked.shape == want.shape and stacked.tobytes() == want.tobytes()
        assert not stacked.flags.writeable
    assert rg.b1_stacked is rg.b1_stacked
    with pytest.raises(ValueError):
        rg.b1_stacked[0, 0] = 1.0


def test_lane_algebraic_constraint_recovered_in_simulation():
    # steering angle is (u_h + u_a) / Ks along any admissible closed loop
    g = lane_game()
    traj = simulate(g, lane_profile_gt(), np.array([1.0, 0.4]), 3.0, 0.01)
    delta = traj.x[:, 2]
    np.testing.assert_allclose(delta, traj.u.sum(axis=1) / KS, atol=1e-10)


def test_construction_rejects_impulsive_pencil():
    e = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ImpulsiveModesError):
        DescriptorGame(e, np.eye(2), (np.array([[1.0], [1.0]]),))


def test_construction_rejects_unstabilizable_player():
    # unstable mode decoupled from the input
    a = np.diag([1.0, -1.0])
    b = np.array([[0.0], [1.0]])
    with pytest.raises(UnstabilizableError):
        DescriptorGame(np.eye(2), a, (b,))


def _hautus_reference(j, b1, label):
    """Oracle for the stacked Hautus test: one SVD of [lam I - J, B1] per
    unstable eigenvalue of J, in ``eigvals`` order, raising at the first
    whose rank falls short."""
    _hautus_reference_at(j, np.linalg.eigvals(j), b1, label)


def _hautus_reference_at(j, lams, b1, label):
    """The loop of :func:`_hautus_reference` over the eigenvalues ``lams``
    in their order."""
    r = j.shape[0]
    for lam in lams:
        if lam.real < 0:
            continue
        m = np.hstack([lam * np.eye(r) - j, b1.astype(complex)])
        s = np.linalg.svd(m, compute_uv=False)
        if s[-1] <= HAUTUS_TOL * max(1.0, s[0]):
            raise UnstabilizableError(
                f"pair (J, B1[{label}]) is not stabilizable at eigenvalue {lam:.4g}"
            )


def _construction_error(e, a, bs):
    """The text of the error constructing the game raises, or None."""
    try:
        DescriptorGame(e, a, bs)
    except UnstabilizableError as exc:
        return str(exc)
    return None


def _reference_error(e, a, bs):
    """The text of the first error the per-eigenvalue loop raises over the
    players, or None."""
    w = weierstrass(Pencil(np.asarray(e, dtype=float), np.asarray(a, dtype=float)))
    try:
        for i, bi in enumerate(bs):
            _hautus_reference(w.j, (w.y.T @ np.asarray(bi, dtype=float))[: w.r], str(i))
    except UnstabilizableError as exc:
        return str(exc)
    return None


# (E, A, per-player B) and the error the construction must raise, if any
HAUTUS_CASES = {
    # 1 is a double eigenvalue with two eigenvectors: one input cannot
    # reach both, two inputs can
    "repeated-one-input": (np.eye(3), np.diag([1.0, 1.0, -1.0]),
                           (np.array([[1.0], [1.0], [0.0]]),),
                           "pair (J, B1[0]) is not stabilizable at eigenvalue 1"),
    "repeated-two-inputs": (np.eye(3), np.diag([1.0, 1.0, -1.0]),
                            (np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),), None),
    # an input that reaches neither unstable mode: the first in eigvals
    # order is named
    "two-failing-modes": (np.eye(3), np.diag([2.0, 1.0, -1.0]),
                          (np.array([[0.0], [0.0], [1.0]]),),
                          "pair (J, B1[0]) is not stabilizable at eigenvalue 2"),
    # a Jordan block at 1 is reached through its last state
    "jordan-block": (np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]),
                     (np.array([[0.0], [1.0]]),), None),
    # player 1 reaches the mode at 2 but not the one at 1 after it
    "second-player-later-eigenvalue": (np.eye(3), np.diag([2.0, 1.0, -1.0]),
                                       (np.array([[1.0], [1.0], [0.0]]),
                                        np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])),
                                       "pair (J, B1[1]) is not stabilizable at eigenvalue 1"),
    # a descriptor game whose algebraic part the reduction removes
    "descriptor-second-player": (np.diag([1.0, 1.0, 0.0]), np.diag([2.0, 1.0, 1.0]),
                                 (np.array([[1.0], [1.0], [1.0]]),
                                  np.array([[1.0], [0.0], [1.0]])),
                                 "pair (J, B1[1]) is not stabilizable at eigenvalue 1"),
    # a complex pair no input reaches is named through its member with
    # Im > 0, which eigvals lists first
    "complex-pair": (np.eye(3), np.array([[1.0, -2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, -1.0]]),
                     (np.array([[0.0], [0.0], [1.0]]),),
                     "pair (J, B1[0]) is not stabilizable at eigenvalue 1+2j"),
    # the pair is reached and the real mode at 3 is not (a complex
    # spectrum prints it as 3+0j)
    "complex-pair-reached": (np.eye(4), np.array([[3.0, 0.0, 0.0, 0.0], [0.0, 1.0, -2.0, 0.0],
                                                  [0.0, 2.0, 1.0, 0.0], [0.0, 0.0, 0.0, -1.0]]),
                             (np.array([[0.0], [1.0], [0.0], [1.0]]),),
                             "pair (J, B1[0]) is not stabilizable at eigenvalue 3+0j"),
}


@pytest.mark.parametrize("case", sorted(HAUTUS_CASES))
def test_stacked_hautus_test_matches_the_eigenvalue_loop(case):
    e, a, bs, want = HAUTUS_CASES[case]
    assert _construction_error(e, a, bs) == _reference_error(e, a, bs) == want


def test_hautus_test_takes_one_svd_per_conjugate_pair(monkeypatch):
    # J has the real unstable eigenvalue 3 and the pairs 1 +- 2i and
    # 2 +- i: three rank tests, not five; listed conjugate first, the
    # failing pair is named through that member, as the loop names it
    a = np.zeros((6, 6))
    a[0, 0], a[5, 5] = 3.0, -1.0
    a[1:3, 1:3] = [[1.0, -2.0], [2.0, 1.0]]
    a[3:5, 3:5] = [[2.0, -1.0], [1.0, 2.0]]
    b1 = np.array([[1.0], [0.0], [0.0], [1.0], [0.0], [0.0]])
    lams = np.linalg.eigvals(a)
    assert np.sum(lams.real >= 0) == 5 and np.sum((lams.real >= 0) & (lams.imag >= 0)) == 3
    rows = []
    svd = np.linalg.svd

    def counted(m, *args, **kwargs):
        rows.append(m.shape[0])
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    want = "pair (J, B1[0]) is not stabilizable at eigenvalue 1+2j"
    with pytest.raises(UnstabilizableError) as err:
        _check_stabilizable(a, lams, b1, "0")
    assert str(err.value) == want and rows == [3]
    monkeypatch.setattr(np.linalg, "svd", svd)
    with pytest.raises(UnstabilizableError) as err:
        _check_stabilizable(a, np.sort_complex(lams)[::-1].conj(), b1, "0")
    with pytest.raises(UnstabilizableError) as ref:
        _hautus_reference_at(a, np.sort_complex(lams)[::-1].conj(), b1, "0")
    assert str(err.value) == str(ref.value)
    assert "1-2j" in str(err.value)


@pytest.mark.parametrize("n", [16, 32, 48])
def test_stacked_hautus_test_matches_the_loop_on_planted_draws(n):
    # the benchmark's planted games pass; with player 1's input cut off
    # from one unstable mode of J they fail, naming the same eigenvalue
    prob = planted_draw(n)
    e, a = (np.array(prob[k], dtype=float) for k in ("E", "A"))
    bs = [np.array(b, dtype=float) for b in prob["B"]]
    assert _construction_error(e, a, bs) is None
    assert _reference_error(e, a, bs) is None
    w = weierstrass(Pencil(e, a))
    lams, vecs = np.linalg.eig(w.j.T)
    unstable = np.flatnonzero(lams.real >= 0)
    assert unstable.size
    # B1_1 = Y1' B_1 orthogonal to a left eigenvector of J at a real
    # unstable eigenvalue, or to both parts of a complex one's
    k = unstable[-1]
    left = np.column_stack([vecs[:, k].real, vecs[:, k].imag])
    basis = np.linalg.qr(left[:, np.abs(left).max(axis=0) > 0])[0]
    b1 = (w.y.T @ bs[1])[: w.r]
    b1 -= basis @ (basis.T @ b1)
    cut = bs[:1] + [np.linalg.solve(w.y.T, np.vstack([b1, (w.y.T @ bs[1])[w.r:]]))]
    got = _construction_error(e, a, cut)
    assert got is not None and "B1[1]" in got
    assert got == _reference_error(e, a, cut)


def test_cost_parameters_reject_asymmetric():
    with pytest.raises(ValueError):
        CostParameters(q=(np.array([[0.0, 1.0], [0.0, 0.0]]),), r=((np.eye(1),),))


def test_ode_degeneration_reduces_to_original_weights():
    rng = np.random.default_rng(0)
    g = random_game(rng, 4, 4, (2, 1))
    assert g.e.shape == (4, 4)
    # force E = I to hit the no-algebraic-part path
    g = DescriptorGame(np.eye(4), g.a, g.b)
    rg = reduce_game(g)
    assert rg.r == 4
    assert all(b.shape == (0, mi) for b, mi in zip(rg.b2, (2, 1)))
    c = friendly_costs(rng, 4, (2, 1))
    for i in range(2):
        m_i = m_matrix(rg, c, i)
        for j in range(2):
            sj = input_rows(rg, j)
            np.testing.assert_allclose(m_i[sj, sj], c.r[i][j], atol=1e-12)
            assert m_i[:4, sj].shape == (4, (2, 1)[j])
            np.testing.assert_allclose(m_i[:4, sj], 0.0, atol=1e-12)


def test_zero_state_weight_collapses_blocks():
    rng = np.random.default_rng(1)
    g = random_game(rng, 4, 2, (1, 2))
    rg = reduce_game(g)
    c = friendly_costs(rng, 4, (1, 2))
    c0 = CostParameters(q=(np.zeros((4, 4)), c.q[1]), r=c.r)
    m_0 = m_matrix(rg, c0, 0)
    r = rg.r
    np.testing.assert_allclose(m_0[:r, :r], 0.0, atol=1e-14)
    for j in range(2):
        sj = input_rows(rg, j)
        np.testing.assert_allclose(m_0[:r, sj], 0.0, atol=1e-14)
        np.testing.assert_allclose(m_0[sj, sj], c0.r[0][j], atol=1e-14)
    assert np.abs(m_0[input_rows(rg, 0), input_rows(rg, 1)]).max(initial=0.0) <= 1e-14


def test_m_matrix_equals_congruence_product():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=int(rng.integers(1, 4))))
        g = random_game(rng, n, r, dims)
        rg = reduce_game(g)
        c = friendly_costs(rng, n, dims)
        for i in range(len(dims)):
            direct = m_matrix(rg, c, i)
            reference = m_matrix_congruence(rg, c, i)
            scale = 1.0 + np.abs(reference).max()
            assert np.abs(direct - reference).max() <= 1e-10 * scale


def test_cost_blocks_linear_in_weights():
    rng = np.random.default_rng(3)
    g = random_game(rng, 4, 2, (1, 1))
    rg = reduce_game(g)
    c1 = friendly_costs(rng, 4, (1, 1))
    c2 = friendly_costs(rng, 4, (1, 1))
    alpha, beta = 0.7, -1.3
    mix = CostParameters(
        q=tuple(alpha * q1 + beta * q2 for q1, q2 in zip(c1.q, c2.q)),
        r=tuple(tuple(alpha * r1 + beta * r2 for r1, r2 in zip(row1, row2))
                for row1, row2 in zip(c1.r, c2.r)),
    )
    for i in range(2):
        got = m_matrix(rg, mix, i)
        want = alpha * m_matrix(rg, c1, i) + beta * m_matrix(rg, c2, i)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_gbar_single_player_is_own_weight():
    rng = np.random.default_rng(4)
    g = random_game(rng, 3, 2, (2,))
    rg = reduce_game(g)
    c = friendly_costs(rng, 3, (2,))
    np.testing.assert_allclose(_Evaluator(rg, c).gbar, m_matrix(rg, c, 0)[rg.r:, rg.r:],
                               atol=1e-12)


def test_gbar_identity_for_zero_state_weights():
    rng = np.random.default_rng(5)
    g = random_game(rng, 4, 2, (1, 2))
    rg = reduce_game(g)
    zeros = CostParameters(
        q=(np.zeros((4, 4)), np.zeros((4, 4))),
        r=((np.eye(1), np.eye(2)), (np.eye(1), np.eye(2))),
    )
    np.testing.assert_allclose(_Evaluator(rg, zeros).gbar, np.eye(3), atol=1e-14)


def test_gbar_invertible_for_lane_ground_truth():
    rg = reduce_game(lane_game())
    gbar = _Evaluator(rg, lane_costs_gt()).gbar
    assert abs(np.linalg.det(gbar)) > 1e-6


def test_vbar_stack_rows():
    # the forward solver's V' stacks each player's own coupling v_bar[i][i]',
    # read out of M_i; it must equal the block formula -X1' Q_i X2 B2_i
    # (transposed) to the last bit
    rng = np.random.default_rng(7)
    cases = [(reduce_game(lane_game()), lane_costs_gt())]
    for _ in range(15):
        n = int(rng.integers(3, 9))
        r = int(rng.integers(1, n))
        dims = tuple(int(d) for d in rng.integers(1, 3, size=int(rng.integers(1, 4))))
        cases.append((reduce_game(random_game(rng, n, r, dims)), friendly_costs(rng, n, dims)))
    for rg, c in cases:
        stack = _Evaluator(rg, c).vbar_t
        assert stack.shape == (rg.m, rg.r)
        x1, x2 = rg.w.x1, rg.w.x2
        want = np.vstack([(-x1.T @ c.q[i] @ x2 @ rg.b2[i]).T for i in range(rg.n_players)])
        assert stack.tobytes() == want.tobytes()
        for i in range(rg.n_players):
            np.testing.assert_array_equal(stack[rg.input_slice(i)],
                                          m_matrix(rg, c, i)[:rg.r, input_rows(rg, i)].T)


def trapezoid_dae_states(e, a_cl, x0, horizon, dt):
    """Reference closed-loop DAE integrator that never touches the
    decomposition: (E - dt/2 A) x+ = (E + dt/2 A) x."""
    steps = int(round(horizon / dt))
    left = e - 0.5 * dt * a_cl
    right = e + 0.5 * dt * a_cl
    xs = np.empty((steps + 1, e.shape[0]))
    xs[0] = x0
    for k in range(steps):
        xs[k + 1] = np.linalg.solve(left, right @ xs[k])
    return xs


def test_reduced_simulation_matches_raw_dae_integration():
    rng = np.random.default_rng(6)
    for _ in range(3):
        n = int(rng.integers(3, 6))
        r = int(rng.integers(1, n))
        dims = (1, 1)
        g = random_game(rng, n, r, dims)
        rg = reduce_game(g)
        f_red_matrix = stabilizing_reduced_gain(rng, rg)
        from dgame import ReducedFeedback, preimage_sample
        f_red = ReducedFeedback(f_red_matrix, dims)
        profile = preimage_sample(rg, f_red, seed=0)
        x1_0 = rng.standard_normal(r)
        traj = simulate(rg, profile, x1_0, 1.0, 1e-4)
        a_cl = g.a + g.b_stacked @ profile.stacked
        raw = trapezoid_dae_states(g.e, a_cl, traj.x[0], 1.0, 1e-4)
        assert np.abs(raw - traj.x).max() <= 1e-6 * (1 + np.abs(traj.x).max())
