"""Vectorization calculus, Lyapunov solves, kernels and eigen queries."""
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
import hypothesis.strategies as st

from dgame import linalg, reduce_game
from dgame.linalg import (
    duplication_matrix,
    eigvals,
    is_pd,
    is_stable,
    kernel_basis,
    kron,
    lyapunov_operator,
    min_eig_sym,
    solve_lyapunov,
    solve_lyapunov_stack,
    solve_riccati_stack,
    sorted_spectrum,
    unvech,
    vec,
    vech,
)
from conftest import lane_game, random_game


def test_kron_identity_factor():
    assert np.array_equal(kron(np.eye(2), [[3.0]]), np.diag([3.0, 3.0]))


def test_kron_rank_one():
    out = kron([[1.0], [2.0]], [[1.0, 1.0]])
    assert np.array_equal(out, [[1.0, 1.0], [2.0, 2.0]])


def test_vec_definition():
    assert np.array_equal(vec([[1.0, 3.0], [2.0, 4.0]]), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(vec(np.zeros((2, 2))), np.zeros(4))


def test_vec_of_triple_product_matches_kron_form():
    # vec(X Y Z) = (Z' kron X) vec(Y), checked against the plain product
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y, z = (rng.standard_normal((3, 3)) for _ in range(3))
        direct = vec(x @ y @ z)
        via_kron = kron(z.T, x) @ vec(y)
        np.testing.assert_allclose(via_kron, direct, rtol=1e-12, atol=1e-12)


def test_vec_of_rectangular_triple_product():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 4))
    y = rng.standard_normal((4, 3))
    z = rng.standard_normal((3, 5))
    np.testing.assert_allclose(kron(z.T, x) @ vec(y), vec(x @ y @ z), rtol=1e-12, atol=1e-12)


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


def test_duplication_small_cases():
    assert np.array_equal(duplication_matrix(1), [[1.0]])
    d2 = duplication_matrix(2)
    assert d2.shape == (4, 3)
    np.testing.assert_array_equal(d2 @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 2.0, 3.0])


def test_duplication_unit_entries_one_per_row():
    # index-map enumeration: every vec position maps to exactly one vech slot
    d3 = duplication_matrix(3)
    assert d3.shape == (9, 6)
    assert np.all(np.isin(d3, (0.0, 1.0)))
    assert d3.sum() == 9
    np.testing.assert_array_equal(d3.sum(axis=1), np.ones(9))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_duplication_reproduces_vec_of_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    s = rng.standard_normal((n, n))
    s = s + s.T
    np.testing.assert_allclose(duplication_matrix(n) @ vech(s), vec(s), rtol=0, atol=1e-12)


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
    np.testing.assert_allclose(sorted_spectrum(eigvals(np.diag([-1.0, -2.0]))), [-2.0, -1.0])
    w = sorted_spectrum(eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]])))
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
    assert is_pd(np.eye(2))
    assert not is_pd(np.diag([1.0, 0.0]))


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


def _kronecker_oracle(a, q):
    """P of one item from the explicit n^2 x n^2 Kronecker system."""
    n = a.shape[0]
    x = np.linalg.solve(lyapunov_operator(a), -vec(q))
    return x.reshape(n, n, order="F")


@pytest.mark.parametrize("n", [10, 12, 18, 24])
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
    # each loop repeated K times, on both routes
    rng = np.random.default_rng(n)
    a = _stable_loops(rng, 3, n)
    q = _psd_stack(rng, (3, 4), n)
    q[1, 2, 0, 1] += 1.0
    p, errors = solve_lyapunov_stack(a, q)
    p_flat, errors_flat = solve_lyapunov_stack(np.repeat(a, 4, axis=0), q.reshape(-1, n, n))
    assert p.tobytes() == p_flat.tobytes()
    assert [repr(e) for e in errors] == [repr(e) for e in errors_flat]
    assert [k for k, e in enumerate(errors) if e is not None] == [6]


def test_lyapunov_route_switches_between_orders_9_and_10(monkeypatch):
    def no_kronecker(a_cl):
        raise AssertionError("Kronecker route taken")

    monkeypatch.setattr(linalg, "lyapunov_operator", no_kronecker)
    rng = np.random.default_rng(10)
    with pytest.raises(AssertionError, match="Kronecker route taken"):
        solve_lyapunov_stack(_stable_loops(rng, 1, 9), _psd_stack(rng, (1,), 9))
    p, errors = solve_lyapunov_stack(_stable_loops(rng, 1, 10), _psd_stack(rng, (1,), 10))
    assert errors == [None] and np.isfinite(p).all()


@pytest.mark.parametrize("n", [4, 12])
def test_lyapunov_accepts_backward_stable_solve_on_large_non_normal_loop(n):
    # a = U T U' with T = -diag(d) + 1e7 e_1 e_n' has entries in the
    # millions, yet q = U diag(0, 1, ..., 1) U' gives the order-one
    # solution U diag(0, 1 / 2 d_2, ...) U'.  Rounding in a' P + P a leaves
    # a residual above 1e-10 (1 + max|q|) max(1, max|P|), but at rounding
    # level relative to 2 max|a| max|P| + max|q|: the normwise backward
    # error is tiny, so the solve must be accepted on both routes
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
    sep = np.linalg.svd(lyapunov_operator(a - s @ p), compute_uv=False)[-1]
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
