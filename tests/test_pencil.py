"""Pencil regularity, index, Weierstrass reduction and finite spectra."""
import numpy as np
import pytest
import scipy.linalg as sla

from dgame import DescriptorGame, ReducedFeedback, reduce_feedback, reduce_game
from dgame.feedback import preimage_matrix
from dgame.pencil import (
    ImpulsiveModesError,
    IrregularPencilError,
    Pencil,
    finite_spectrum,
    index_of,
    is_regular,
    weierstrass,
)
from conftest import (F_GT, KS, LANE_A, LANE_B, LANE_E, lane_game, lane_profile_gt,
                      planted_index1_pencil, transform_decomposition, well_conditioned)


def test_regularity_basics():
    assert is_regular(Pencil(np.eye(2), np.zeros((2, 2))))
    assert not is_regular(Pencil(np.zeros((2, 2)), np.zeros((2, 2))))
    # singular pencil with nonzero matrices: shared kernel direction
    e = np.diag([1.0, 0.0])
    a = np.diag([2.0, 0.0])
    assert not is_regular(Pencil(e, a))


def test_regularity_and_index_are_scale_free():
    # the samples of lambda E - A are taken on the normalized pencil, so
    # scaling E and A apart never overflows or moves a verdict
    for c_e, c_a in [(1.0, 1.0), (1e-300, 1.0), (1.0, 1e300), (1e300, 1e-300)]:
        p = Pencil(c_e * LANE_E, c_a * LANE_A)
        assert is_regular(p) and index_of(p) == 1
        p = Pencil(c_e * np.array([[0.0, 1.0], [0.0, 0.0]]), c_a * np.eye(2))
        assert is_regular(p) and index_of(p) == 2
    # |A| = 1e308 against unit E: every lambda E - A lies within rounding
    # of |A| of a singular matrix, so the pencil is singular to working
    # precision (the unscaled sample overflowed to inf here)
    assert not is_regular(Pencil(LANE_E, np.diag([1e308, 1.0, 1.0])))


def test_lane_pencil_is_index1():
    p = Pencil(LANE_E, LANE_A)
    assert is_regular(p)
    assert index_of(p) == 1
    assert weierstrass(p).r == 2


def test_index_zero_for_invertible_e():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    assert index_of(Pencil(np.eye(3), a)) == 0
    assert weierstrass(Pencil(np.eye(3), a)).index == 0


def test_index_one_for_purely_algebraic():
    # E = 0 with invertible A: all constraints, no dynamics, impulse-free
    assert index_of(Pencil(np.zeros((2, 2)), np.eye(2))) == 1


def test_index_two_nilpotent_block():
    p = Pencil(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    assert index_of(p) == 2
    with pytest.raises(ImpulsiveModesError):
        weierstrass(p)


def test_index_two_planted_general_coordinates():
    # assemble pencils whose infinite part is a nonzero order-2 nilpotent
    # block, hidden behind random invertible coordinate changes
    rng = np.random.default_rng(7)
    for _ in range(5):
        r = int(rng.integers(1, 4))
        n = r + 2
        e_can = np.zeros((n, n))
        e_can[:r, :r] = np.eye(r)
        e_can[r, r + 1] = 1.0  # order-2 nilpotent block
        a_can = np.eye(n)
        a_can[:r, :r] = rng.standard_normal((r, r))
        x = well_conditioned(rng, n)
        y = well_conditioned(rng, n)
        e = np.linalg.inv(y).T @ e_can @ np.linalg.inv(x)
        a = np.linalg.inv(y).T @ a_can @ np.linalg.inv(x)
        p = Pencil(e, a)
        assert index_of(p) == 2
        with pytest.raises(ImpulsiveModesError):
            weierstrass(p)


def test_index_of_requires_regularity():
    with pytest.raises(IrregularPencilError):
        index_of(Pencil(np.zeros((2, 2)), np.zeros((2, 2))))


def test_weierstrass_invariants_on_planted_pencils():
    rng = np.random.default_rng(1)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        r = int(rng.integers(1, n + 1))
        p, j_planted = planted_index1_pencil(rng, n, r)
        w = weierstrass(p)
        assert w.r == r
        e_can = w.y.T @ p.e @ w.x
        a_can = w.y.T @ p.a @ w.x
        target_e = np.zeros((n, n))
        target_e[:r, :r] = np.eye(r)
        target_a = np.eye(n)
        target_a[:r, :r] = w.j
        scale = max(np.abs(p.e).max(), np.abs(p.a).max(), 1.0)
        assert np.abs(e_can - target_e).max() <= 1e-10 * scale
        assert np.abs(a_can - target_a).max() <= 1e-8 * scale
        # planted dynamic block determines the finite spectrum
        got = np.sort_complex(np.linalg.eigvals(w.j))
        want = np.sort_complex(np.linalg.eigvals(j_planted))
        np.testing.assert_allclose(got, want, atol=1e-6 * (1 + np.abs(want).max()))


def test_weierstrass_ode_degeneration():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    w = weierstrass(Pencil(np.eye(4), a))
    assert w.r == 4 and w.index == 0
    np.testing.assert_allclose(w.y.T @ a @ w.x, w.j, atol=1e-12)


def test_lane_open_loop_spectrum_is_double_zero():
    w = finite_spectrum(Pencil(LANE_E, LANE_A))
    assert w.shape == (2,)
    assert np.abs(w).max() <= 1e-9


def closed_loop_char_poly_coeffs(f):
    """Cofactor expansion of det(lam E - (A + B F)) for the lane game.

    With E = diag(1,1,0) the determinant expands along the third row of
    lam*E - (A+BF) = [[lam, -vx, 0], [0, lam, -vx/L], [-g1, -g2, Ks-g3]]
    where g = F_h + F_a: a quadratic with explicit coefficients.
    """
    from conftest import VX, LWB
    g = f[0] + f[1]
    c2 = KS - g[2]
    c1 = -g[1] * (VX / LWB)
    c0 = -g[0] * VX * (VX / LWB)
    return np.array([c2, c1, c0])


def test_lane_closed_loop_spectrum_against_hand_expansion():
    coeffs = closed_loop_char_poly_coeffs(F_GT)
    want = np.sort_complex(np.roots(coeffs))
    got = np.sort_complex(
        finite_spectrum(Pencil(LANE_E, LANE_A + np.hstack(LANE_B) @ F_GT))
    )
    np.testing.assert_allclose(got, want, atol=1e-8)
    np.testing.assert_allclose(np.sort_complex([want[0]]).real, [-1.5273], atol=2e-3)
    assert abs(abs(want[0].imag) - 3.3185) <= 2e-3


def test_lane_closed_loop_spectrum_against_generalized_eig():
    a_cl = LANE_A + np.hstack(LANE_B) @ F_GT
    w = sla.eig(a_cl, LANE_E, right=False)
    finite = np.sort_complex(w[np.isfinite(w)])
    got = np.sort_complex(finite_spectrum(Pencil(LANE_E, a_cl)))
    np.testing.assert_allclose(got, finite, atol=1e-8)


def test_trivial_ode_spectrum():
    got = finite_spectrum(Pencil(np.eye(2), np.diag([-1.0, -3.0])))
    np.testing.assert_allclose(np.sort_complex(got), [-3.0, -1.0], atol=1e-12)


def test_finite_spectrum_invariant_under_equivalence():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        p, _ = planted_index1_pencil(rng, n, r)
        left = well_conditioned(rng, n)
        right = well_conditioned(rng, n)
        q = Pencil(left @ p.e @ right, left @ p.a @ right)
        w1 = np.sort_complex(finite_spectrum(p))
        w2 = np.sort_complex(finite_spectrum(q))
        np.testing.assert_allclose(w1, w2, atol=1e-6 * (1 + np.abs(w1).max()))


def test_consistent_initial_trivial_cases():
    # the consistent initial state S x1_0, S = X1 - X2 B2 F (preimage_matrix)
    rng = np.random.default_rng(4)
    p, _ = planted_index1_pencil(rng, 4, 2)
    rg = reduce_game(DescriptorGame(p.e, p.a, (rng.standard_normal((4, 3)),)))
    x1_0 = rng.standard_normal(2)
    s0 = preimage_matrix(rg, ReducedFeedback(np.zeros((3, 2)), (3,)))
    np.testing.assert_allclose(s0 @ x1_0, rg.w.x1 @ x1_0, atol=1e-12)
    s = preimage_matrix(rg, ReducedFeedback(rng.standard_normal((3, 2)), (3,)))
    np.testing.assert_allclose(s @ np.zeros(2), np.zeros(4), atol=1e-14)


def test_consistent_initial_satisfies_lane_algebraic_constraint():
    rg = reduce_game(lane_game())
    f_red = reduce_feedback(rg, lane_profile_gt())
    x1_0 = np.array([1.0, -0.5])
    x0 = preimage_matrix(rg, f_red) @ x1_0
    u0 = F_GT @ x0
    # quasi-static steering constraint: 0 = -Ks*delta + u_h + u_a
    resid = -KS * x0[2] + u0.sum()
    assert abs(resid) <= 1e-10 * (1 + np.abs(u0).max())


def test_transform_decomposition_preserves_invariants():
    rng = np.random.default_rng(5)
    p, _ = planted_index1_pencil(rng, 5, 3)
    w = weierstrass(p)
    t1 = well_conditioned(rng, 3)
    t2 = well_conditioned(rng, 2)
    w2 = transform_decomposition(w, t1, t2)
    n = 5
    e_can = w2.y.T @ p.e @ w2.x
    a_can = w2.y.T @ p.a @ w2.x
    target_e = np.zeros((n, n)); target_e[:3, :3] = np.eye(3)
    target_a = np.eye(n); target_a[:3, :3] = w2.j
    assert np.abs(e_can - target_e).max() <= 1e-8
    assert np.abs(a_can - target_a).max() <= 1e-7
    np.testing.assert_allclose(
        np.sort_complex(np.linalg.eigvals(w2.j)),
        np.sort_complex(np.linalg.eigvals(w.j)),
        atol=1e-8,
    )
