"""Half-vectorization, Lyapunov and Riccati solves, kernels and eigen queries."""
import numpy as np
import pytest
import scipy.linalg as sla

from dgame import linalg, reduce_game
from dgame.linalg import (
    is_stable,
    kernel_basis,
    min_eig_sym,
    solve_each,
    solve_lyapunov,
    solve_lyapunov_stack,
    solve_riccati_stack,
    sorted_spectrum,
    unvech,
    vech,
)
from conftest import lane_game, random_game


def test_vech_definition_and_identity():
    a, b, c = 1.5, -2.0, 7.0
    m = np.array([[a, b], [b, c]])
    assert np.array_equal(vech(m), [a, b, c])
    assert np.array_equal(vech(np.eye(3)), [1, 0, 0, 1, 0, 1])


def test_vech_rejects_asymmetric():
    with pytest.raises(ValueError):
        vech(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_vech_length_matches_flat_parameter_count():
    # n = 3 state weight plus two scalar input weights: 6 + 1 + 1 = 8
    assert vech(np.eye(3)).size + 2 == 8


def test_unvech_round_trip():
    rng = np.random.default_rng(2)
    for n in range(1, 7):
        s = rng.standard_normal((n, n))
        s = s + s.T
        np.testing.assert_array_equal(unvech(vech(s), n), s)


def test_triu_indices_are_built_once_per_order_and_read_only():
    for n in (1, 2, 5, 32):
        iu = linalg.triu_indices(n)
        assert linalg.triu_indices(n) is iu
        assert all(np.array_equal(a, b) for a, b in zip(iu, np.triu_indices(n)))
        assert not any(a.flags.writeable for a in iu)


def test_lyapunov_diagonal_balance():
    np.testing.assert_allclose(solve_lyapunov(-np.eye(2), 2.0 * np.eye(2)), np.eye(2), atol=1e-12)
    p = solve_lyapunov(-np.diag([1.0, 2.0]), np.diag([2.0, 8.0]))
    np.testing.assert_allclose(p, np.diag([1.0, 2.0]), atol=1e-12)


def test_lyapunov_residual_on_random_stable_systems():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = rng.standard_normal((3, 3))
        a = a - (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(3)
        g = rng.standard_normal((3, 3))
        q = g @ g.T
        p = solve_lyapunov(a, q)
        resid = np.abs(a.T @ p + p @ a + q).max()
        assert resid <= 1e-10 * (1.0 + np.abs(q).max())
        np.testing.assert_allclose(p, p.T, atol=1e-14)


def test_lyapunov_matches_schur_based_reference():
    import scipy.linalg as sla
    rng = np.random.default_rng(4)
    a = rng.standard_normal((4, 4)) - 3.0 * np.eye(4)
    g = rng.standard_normal((4, 4))
    q = g @ g.T
    ours = solve_lyapunov(a, q)
    reference = sla.solve_continuous_lyapunov(a.T, -q)
    np.testing.assert_allclose(ours, reference, rtol=1e-9, atol=1e-11)


def test_lyapunov_detects_eigenvalue_pairing():
    # eigenvalues +1 and -1 sum to zero: no unique solution
    a = np.diag([1.0, -1.0])
    with pytest.raises((np.linalg.LinAlgError, ValueError)):
        solve_lyapunov(a, np.eye(2))


def test_kernel_basis_simple():
    z = kernel_basis(np.array([[1.0, 0.0]]))
    assert z.shape == (2, 1)
    np.testing.assert_allclose(np.abs(z[:, 0]), [0.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
def test_kernel_basis_rejects_a_tolerance_that_is_not_positive(tol):
    with pytest.raises(ValueError):
        kernel_basis(np.ones((1, 3)), tol=tol)


def test_kernel_basis_zero_matrix_full():
    z = kernel_basis(np.zeros((2, 3)))
    np.testing.assert_array_equal(z, np.eye(3))


def test_kernel_basis_rank_nullity_and_orthonormality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rows, cols = rng.integers(1, 7, size=2)
        rank = int(rng.integers(0, min(rows, cols) + 1))
        m = (rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
             if rank else np.zeros((rows, cols)))
        z = kernel_basis(m, tol=1e-9)
        svals = np.linalg.svd(m, compute_uv=False)
        numerical_rank = int(np.sum(svals > 1e-9 * svals[0])) if svals.size and svals[0] > 0 else 0
        assert z.shape[1] == cols - numerical_rank
        if z.shape[1]:
            np.testing.assert_allclose(z.T @ z, np.eye(z.shape[1]), atol=1e-12)
            smax = svals[0] if svals.size else 0.0
            assert np.abs(m @ z).max(initial=0.0) <= 10 * 1e-9 * max(smax, 1.0)


def test_eigvals_and_stability():
    np.testing.assert_allclose(sorted_spectrum(np.linalg.eigvals(np.diag([-1.0, -2.0]))),
                               [-2.0, -1.0])
    w = sorted_spectrum(np.linalg.eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]])))
    np.testing.assert_allclose(w, [-1j, 1j], atol=1e-12)
    assert is_stable(np.diag([-1.0, -2.0])) is True
    assert is_stable(np.array([[0.0, 1.0], [-1.0, 0.0]])) is False


def test_is_stable_per_item_of_a_stack():
    rng = np.random.default_rng(9)
    stack = rng.standard_normal((2, 6, 3, 3)) - 1.0
    got = is_stable(stack)
    assert got.shape == (2, 6) and got.dtype == bool
    want = [[is_stable(a) for a in row] for row in stack]
    assert got.tolist() == want
    assert 0 < got.sum() < got.size


def test_min_eig_sym_and_pd():
    assert min_eig_sym(np.eye(3)) == pytest.approx(1.0)
    assert min_eig_sym(np.diag([2.0, -0.5])) == pytest.approx(-0.5)


def test_min_eig_gram_positivity():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        assert min_eig_sym(a.T @ a) >= -1e-12


def test_lyapunov_stack_isolates_a_failing_item():
    rng = np.random.default_rng(7)
    a_items, q_items = [], []
    for _ in range(4):
        a = rng.standard_normal((2, 2)) - 3.0 * np.eye(2)
        g = rng.standard_normal((2, 2))
        a_items.append(a)
        q_items.append(g @ g.T)
    # eigenvalues +1 and -1 sum to zero: no unique solution for item 2
    a_items[2] = np.diag([1.0, -1.0])
    q_items[2] = np.eye(2)
    p, errors = solve_lyapunov_stack(np.array(a_items), np.array(q_items))
    assert isinstance(errors[2], np.linalg.LinAlgError)
    assert np.isnan(p[2]).all()
    for k in (0, 1, 3):
        assert errors[k] is None
        assert p[k].tobytes() == solve_lyapunov(a_items[k], q_items[k]).tobytes()


def _stable_loops(rng, s, n):
    """s random loops of order n with every eigenvalue in Re < -1."""
    a = rng.standard_normal((s, n, n))
    shift = np.linalg.eigvals(a).real.max(axis=1) + 1.0
    return a - shift[:, None, None] * np.eye(n)


def _psd_stack(rng, shape, n):
    g = rng.standard_normal(shape + (n, n))
    return g @ g.swapaxes(-1, -2)


def _lyapunov_operator(a):
    """The Lyapunov operator (I kron A') + (A' kron I) on column-major vec."""
    eye = np.eye(a.shape[0])
    return np.kron(eye, a.T) + np.kron(a.T, eye)


def _kronecker_oracle(a, q):
    """P of one item from the explicit n^2 x n^2 Kronecker system."""
    n = a.shape[0]
    x = np.linalg.solve(_lyapunov_operator(a), -q.reshape(-1, order="F"))
    return x.reshape(n, n, order="F")


@pytest.mark.parametrize("n", [1, 2, 3, 9, 10, 12, 18, 24])
def test_lyapunov_schur_route_matches_kronecker_oracle(n):
    rng = np.random.default_rng(n)
    a = _stable_loops(rng, 3, n)
    q = _psd_stack(rng, (3, 2), n)
    p, errors = solve_lyapunov_stack(a, q)
    assert p.shape == q.shape and errors == [None] * 6
    for s in range(3):
        for k in range(2):
            want = _kronecker_oracle(a[s], q[s, k])
            assert np.abs(p[s, k] - want).max() <= 1e-12 * np.abs(want).max()
            assert p[s, k].tobytes() == p[s, k].T.tobytes()


def test_lyapunov_schur_route_isolates_failing_items():
    n = 12
    rng = np.random.default_rng(8)
    a = _stable_loops(rng, 5, n)
    q = _psd_stack(rng, (5,), n)
    # eigenvalues +1 and -1 sum to zero: no unique solution for item 1
    a[1] = np.diag(np.r_[1.0, -1.0, -np.arange(2.0, n)])
    q[2, 0, 1] += 1.0
    a[3, 4, 5] = np.nan
    p, errors = solve_lyapunov_stack(a, q)
    assert isinstance(errors[1], np.linalg.LinAlgError)
    assert "eigenvalue pairing" in str(errors[1])
    assert type(errors[2]) is ValueError and "symmetric q" in str(errors[2])
    assert type(errors[3]) is ValueError and "Lyapunov residual nan" in str(errors[3])
    for k in (1, 2, 3):
        assert np.isnan(p[k]).all()
    for k in (0, 4):
        assert errors[k] is None
        assert p[k].tobytes() == solve_lyapunov(a[k], q[k]).tobytes()


@pytest.mark.parametrize("n", [3, 12])
def test_lyapunov_shared_loops_equal_the_flattened_stack(n):
    # K right-hand sides per loop give the bytes of the same items with
    # each loop repeated K times
    rng = np.random.default_rng(n)
    a = _stable_loops(rng, 3, n)
    q = _psd_stack(rng, (3, 4), n)
    q[1, 2, 0, 1] += 1.0
    p, errors = solve_lyapunov_stack(a, q)
    p_flat, errors_flat = solve_lyapunov_stack(np.repeat(a, 4, axis=0), q.reshape(-1, n, n))
    assert p.tobytes() == p_flat.tobytes()
    assert [repr(e) for e in errors] == [repr(e) for e in errors_flat]
    assert [k for k, e in enumerate(errors) if e is not None] == [6]


@pytest.mark.parametrize("n", [4, 12])
def test_lyapunov_accepts_backward_stable_solve_on_large_non_normal_loop(n):
    # a = U T U' with T = -diag(d) + 1e7 e_1 e_n' has entries in the
    # millions, yet q = U diag(0, 1, ..., 1) U' gives the order-one
    # solution U diag(0, 1 / 2 d_2, ...) U'.  Rounding in a' P + P a leaves
    # a residual above 1e-10 (1 + max|q|) max(1, max|P|), but at rounding
    # level relative to 2 max|a| max|P| + max|q|: the normwise backward
    # error is tiny, so the solve must be accepted at any order
    rng = np.random.default_rng(0)
    d = rng.uniform(1.0, 2.0, n)
    t = -np.diag(d)
    t[0, -1] = 1e7
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = u @ t @ u.T
    q = (u * np.r_[0.0, np.ones(n - 1)]) @ u.T
    p, errors = solve_lyapunov_stack(a[None], q[None])
    assert errors == [None]
    resid = np.abs(a.T @ p[0] + p[0] @ a + q).max()
    a_size, p_size, q_size = np.abs(a).max(), np.abs(p).max(), np.abs(q).max()
    assert a_size >= 1e5 and resid > 1e-10 * (1.0 + q_size) * max(1.0, p_size)
    assert resid <= 1e-14 * (2.0 * a_size * p_size + q_size)


def _regulator_problems(rng, b, count):
    """B R^-1 B', Q and R of the unit regulator problem and of ``count``
    problems with the forward solver's seeded weights."""
    r, m = b.shape
    qs, rs = [np.eye(r)], [np.ones(m)]
    for _ in range(count):
        g = rng.standard_normal((r, r))
        qs.append(g @ g.T + 0.1 * np.eye(r))
        rs.append(np.exp(rng.uniform(-2.0, 2.0, size=m)))
    return np.array([(b / w) @ b.T for w in rs]), np.array(qs), rs


def _riccati_condition(a, s, q, p):
    """Relative condition estimate of the Riccati equation at its solution
    p: (|Q| + 2|A||P| + |S||P|^2) / (sep(A_c', -A_c) |P|), A_c = A - S P."""
    sep = np.linalg.svd(_lyapunov_operator(a - s @ p), compute_uv=False)[-1]
    norm = lambda x: np.linalg.norm(x, 2)
    return (norm(q) + 2 * norm(a) * norm(p) + norm(s) * norm(p) ** 2) / (sep * norm(p))


@pytest.mark.parametrize("case", ["lane", "r3", "r6", "r9", "r12"])
def test_riccati_stack_matches_scipy_care(case):
    # scipy's ordered-QZ solver is the oracle: every item of one stacked
    # sign iteration agrees with it to 1e-10 relative, or to a few
    # rounding errors times the condition number where one input drives
    # many states (|P| ~ 1e6 at r = 12; both solvers leave backward
    # errors near 1e-16 there)
    rng = np.random.default_rng(11)
    if case == "lane":
        rg = reduce_game(lane_game())
    else:
        r = int(case[1:])
        rg = reduce_game(random_game(rng, r + 2, r, (1, 2)))
    for b in (rg.b1_stacked, *rg.b1):
        s, q, rs = _regulator_problems(rng, b, 16)
        p, ok = solve_riccati_stack(rg.j, s, q)
        assert ok.all()
        for p_k, s_k, q_k, w in zip(p, s, q, rs):
            want = sla.solve_continuous_are(rg.j, b, q_k, np.diag(w))
            bound = max(1e-10, 16 * np.finfo(float).eps * _riccati_condition(rg.j, s_k, q_k, want))
            assert np.abs(p_k - want).max() <= bound * np.abs(want).max()
            assert p_k.tobytes() == p_k.T.tobytes()
            assert is_stable(rg.j - s_k @ p_k)


def test_riccati_stack_masks_an_unstabilizable_item_alone():
    # S = 0 leaves the rotation's eigenvalues +-i on the imaginary axis:
    # no stabilizing solution, and its neighbours keep their bits
    rng = np.random.default_rng(12)
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    b = rng.standard_normal((2, 1))
    s, q, _ = _regulator_problems(rng, b, 3)
    alone, alone_ok = solve_riccati_stack(j, s, q)
    assert alone_ok.all()
    p, ok = solve_riccati_stack(j, np.insert(s, 2, 0.0, axis=0), np.insert(q, 2, np.eye(2), axis=0))
    assert ok.tolist() == [True, True, False, True, True]
    assert np.isnan(p[2]).all()
    assert np.delete(p, 2, axis=0).tobytes() == alone.tobytes()


def test_riccati_stack_masks_non_finite_items():
    s = np.stack([np.eye(2)] * 3)
    q = np.stack([np.eye(2)] * 3)
    s[1, 0, 0] = np.nan
    q[2, 1, 1] = np.inf
    p, ok = solve_riccati_stack(-np.eye(2), s, q)
    assert ok.tolist() == [True, False, False]
    assert np.abs(p[0] - (np.sqrt(2.0) - 1.0) * np.eye(2)).max() <= 1e-14


def test_solve_each_masks_a_singular_item_alone():
    # the stacked solve fails on item 1; every other item keeps the bits
    # of its own solve
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal((4, 5, 5)), rng.standard_normal((4, 5, 2))
    a[1, :, 3] = 0.0
    x = solve_each(a, b)
    assert np.isnan(x[1]).all()
    for k in (0, 2, 3):
        assert x[k].tobytes() == np.linalg.solve(a[k], b[k]).tobytes()
