"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 3c is expected to fail: the published misspecified
parameter vector admits exactly two stabilizing solutions, not the four
stated alongside it (the xfail reason carries the full analysis); the test
asserts the published count faithfully and is marked xfail so the defect
stays visible instead of being silently masked.
"""
import time

import numpy as np
import pytest

from dgame import (
    Constraints,
    Pencil,
    ReducedFeedback,
    SolveOptions,
    ThetaLayout,
    constraint_matrices,
    finite_spectrum,
    identify,
    index_of,
    is_regular,
    pd_margin,
    preimage_sample,
    rationalized_behaviors,
    reduce_feedback,
    reduce_game,
    residual,
    sample_solution_set,
    scale_theta,
    simulate,
    solve_lyapunov,
    solve_fbne,
    weierstrass,
)
from conftest import (
    F_GT,
    LANE_A,
    LANE_B,
    LANE_E,
    THETA_MIS,
    friendly_costs,
    lane_costs_gt,
    lane_costs_identified,
    lane_costs_misspecified,
    lane_game,
    lane_profile_gt,
    random_game,
    transform_decomposition,
    verify_nash_reference,
    well_conditioned,
)


class Budget:
    """Runtime guard that prints the acceptance verdict line."""

    def __init__(self, criterion, seconds, detail=""):
        self.criterion = criterion
        self.seconds = seconds
        self.detail = detail

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        in_budget = dt < self.seconds
        verdict = "PASS" if (exc_type is None and in_budget) else "FAIL"
        suffix = f" — {self.detail}" if self.detail else ""
        print(f"ACCEPTANCE {self.criterion}: {verdict} ({dt:.2f}s){suffix}")
        if exc_type is None and not in_budget:
            raise AssertionError(
                f"criterion {self.criterion} exceeded its {self.seconds}s budget ({dt:.2f}s)"
            )
        return False


def test_criterion_1_pencil_analysis():
    with Budget("1", 1.0, "pencil regular, index 1, r=2, double zero spectrum"):
        p = Pencil(LANE_E, LANE_A)
        assert is_regular(p)
        assert index_of(p) == 1
        assert weierstrass(p).r == 2
        spec = finite_spectrum(p)
        assert spec.shape == (2,)
        assert np.abs(spec).max() <= 1e-9


def test_criterion_2_closed_loop_spectrum_coincidence():
    with Budget("2", 1.0, "both spectrum routes coincide at -1.527 +/- 3.319j"):
        g = lane_game()
        rg = reduce_game(g)
        f_red = reduce_feedback(rg, lane_profile_gt())
        via_pencil = np.sort_complex(
            finite_spectrum(Pencil(LANE_E, LANE_A + np.hstack(LANE_B) @ F_GT))
        )
        via_reduction = np.sort_complex(
            np.linalg.eigvals(rg.j + rg.b1_stacked @ f_red.matrix)
        )
        np.testing.assert_allclose(via_reduction, via_pencil, atol=1e-6)
        expected = np.sort_complex(np.array([-1.527 + 3.319j, -1.527 - 3.319j]))
        np.testing.assert_allclose(via_pencil, expected, atol=2e-3)


OPTS_64 = SolveOptions(n_starts=64)


def _assert_solution_quality(sols):
    for s in sols:
        assert s.residual_max <= 1e-8 * s.residual_scale
        assert np.max(s.spectrum.real) < 0


def test_criterion_3a_forward_count_ground_truth():
    with Budget("3a", 10.0, "ground-truth costs admit exactly one stabilizing solution"):
        rg = reduce_game(lane_game())
        sols = solve_fbne(rg, lane_costs_gt(), OPTS_64)
        _assert_solution_quality(sols)
        assert len(sols) == 1


def test_criterion_3b_forward_count_identified():
    with Budget("3b", 10.0, "published identified costs admit exactly two"):
        rg = reduce_game(lane_game())
        sols = solve_fbne(rg, lane_costs_identified(), OPTS_64)
        _assert_solution_quality(sols)
        assert len(sols) == 2


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the published misspecified parameter vectors admit exactly 2 "
        "stabilizing solutions, not the 4 reported alongside them: the "
        "four reported misspecified gain matrices do not solve the "
        "stationarity equations of those parameters (residuals ~0.5, "
        "against ~1e-12 for a true solution), and a 4000-start wide-scale "
        "Newton enumeration over gains up to 10^2.5 finds exactly 4 roots, "
        "2 of them stabilizing.  The count below asserts the reported "
        "value faithfully and is expected to fail."
    ),
)
def test_criterion_3c_forward_count_misspecified():
    with Budget("3c", 10.0, "published misspecified costs: published count is four"):
        rg = reduce_game(lane_game())
        sols = solve_fbne(rg, lane_costs_misspecified(), OPTS_64)
        _assert_solution_quality(sols)
        assert len(sols) == 4


def test_criterion_3c_actual_misspecified_count_is_two():
    # documents the verified reality so regressions get caught
    with Budget("3c-actual", 10.0, "misspecified costs: two stabilizing solutions"):
        rg = reduce_game(lane_game())
        sols = solve_fbne(rg, lane_costs_misspecified(), OPTS_64)
        _assert_solution_quality(sols)
        assert len(sols) == 2


def _scan_solution_set_for_behavior_count(rg, cert, want_count, want_matching,
                                          max_candidates=24):
    """Deterministic seeded walk through the certified solution set until a
    parameter tuple exhibits the requested behavior multiplicity; the
    winning candidate is re-verified at full multistart count."""
    scan_opts = SolveOptions(n_starts=12)
    candidates = [cert.thetas]
    for k in range(max_candidates):
        candidates.append(tuple(
            sample_solution_set(rg, cert, i, seed=17 * k + 3 * i)
            for i in range(rg.n_players)
        ))
    for thetas in candidates:
        trial = cert.__class__(
            players=tuple(
                pc.__class__(m=pc.m, kernel_dim=pc.kernel_dim, theta=theta,
                             residual=residual(pc.m, theta),
                             pd_margin=pd_margin(rg, cert.layout, i, theta),
                             feasible=True, kept_indices=pc.kept_indices)
                for i, (pc, theta) in enumerate(zip(cert.players, thetas))
            ),
            f_red=cert.f_red,
            layout=cert.layout,
        )
        try:
            rep = rationalized_behaviors(rg, trial, scan_opts)
        except ValueError:
            continue
        if rep.n_behaviors == want_count and rep.n_matching == want_matching:
            rep_full = rationalized_behaviors(rg, trial, SolveOptions(n_starts=48))
            if rep_full.n_behaviors == want_count and rep_full.n_matching == want_matching:
                return trial, rep_full
    raise AssertionError(
        f"no certified parameter with {want_count} behaviors found in the scan"
    )


def test_criterion_4_identification_and_diagonal_constraint():
    with Budget("4", 10.0, "identification feasible; diagonal-constrained tuple "
                           "with a unique matching behavior exists"):
        rg = reduce_game(lane_game())
        f_obs = reduce_feedback(rg, lane_profile_gt())
        cert = identify(rg, f_obs)
        assert cert.feasible
        for pc in cert.players:
            assert pc.residual <= 1e-7
            assert pc.pd_margin > 0
        cert_diag = identify(rg, f_obs, Constraints(diagonal_q=True))
        assert cert_diag.feasible
        for pc in cert_diag.players:
            assert pc.residual <= 1e-7
            assert pc.pd_margin > 0
        trial, rep = _scan_solution_set_for_behavior_count(rg, cert_diag, 1, 1)
        assert rep.n_behaviors == 1 and rep.n_matching == 1
        np.testing.assert_allclose(
            rep.solutions[0].f_star.matrix, f_obs.matrix,
            atol=1e-6 * (1 + np.abs(f_obs.matrix).max()),
        )


def test_criterion_5_behavior_multiplicity():
    with Budget("5", 20.0, "identified costs rationalizing two behaviors, one observed"):
        rg = reduce_game(lane_game())
        f_obs = reduce_feedback(rg, lane_profile_gt())
        cert = identify(rg, f_obs)
        assert cert.feasible
        trial, rep = _scan_solution_set_for_behavior_count(rg, cert, 2, 1)
        assert rep.n_behaviors == 2
        assert rep.n_matching == 1
        # the matching equilibrium reproduces the observed trajectories
        matching = [s for s, m in zip(rep.solutions, rep.matches) if m][0]
        x1_0 = np.array([1.0, 0.4])
        obs = simulate(rg, f_obs, x1_0, 6.0, 0.01)
        got = simulate(rg, matching.f_star, x1_0, 6.0, 0.01)
        assert np.abs(got.x - obs.x).max() <= 1e-5
        assert np.abs(got.u - obs.u).max() <= 1e-5
        # informationally non-unique realizations of the matching gain
        # induce identical trajectories
        s_a = preimage_sample(rg, matching.f_star, seed=21)
        s_b = preimage_sample(rg, matching.f_star, seed=22)
        assert np.abs(s_a.stacked - s_b.stacked).max() > 1e-8
        t_a = simulate(rg, s_a, x1_0, 6.0, 0.01)
        t_b = simulate(rg, s_b, x1_0, 6.0, 0.01)
        assert np.abs(t_a.x - t_b.x).max() <= 1e-6
        assert np.abs(t_a.u - t_b.u).max() <= 1e-6


def test_criterion_6_misspecification():
    with Budget("6", 30.0, "published misspecified parameters violate the "
                           "descriptor conditions; no misspecified behavior "
                           "matches the observation"):
        rg = reduce_game(lane_game())
        f_obs = reduce_feedback(rg, lane_profile_gt())
        ms = constraint_matrices(rg, f_obs)
        r1 = residual(ms[0], THETA_MIS[0])
        r2 = residual(ms[1], THETA_MIS[1])
        # magnitudes are decomposition-dependent (published values were
        # 3.31 and 0.28 under the authors' unstated convention); under the
        # canonical construction here they come out near 0.81 and 0.12
        assert r1 > 0.1
        assert r2 > 0.05
        sols = solve_fbne(rg, lane_costs_misspecified(), OPTS_64)
        assert len(sols) >= 1
        x_basis = np.eye(rg.r)
        obs = [simulate(rg, f_obs, e, 6.0, 0.01) for e in x_basis]
        for s in sols:
            dist = max(
                np.abs(simulate(rg, s.f_star, e, 6.0, 0.01).u - obs[k].u).max()
                for k, e in enumerate(x_basis)
            )
            assert dist > 1e-5


def test_criterion_7_property_suites():
    with Budget("7", 180.0, "round trips, dimension bounds, scaling/gauge "
                            "invariances, Lyapunov identity, local "
                            "equilibrium checks"):
        rng = np.random.default_rng(2024)
        layout_cache = {}
        solved = 0
        attempts = 0
        equilibria_checked = 0
        while solved < 50 and attempts < 120:
            attempts += 1
            n = int(rng.integers(2, 7))
            r = int(rng.integers(1, n + 1))
            n_players = int(rng.integers(1, 4))
            dims = tuple(int(d) for d in rng.integers(1, 3, size=n_players))
            g = random_game(rng, n, r, dims)
            rg = reduce_game(g)
            c = friendly_costs(rng, n, dims)
            try:
                sols = solve_fbne(rg, c, SolveOptions(n_starts=2))
            except ValueError:
                continue
            if not sols:
                continue
            solved += 1
            key = (n, dims)
            if key not in layout_cache:
                layout_cache[key] = ThetaLayout(n=n, input_dims=dims)
            layout = layout_cache[key]
            sol = sols[0]
            ms = constraint_matrices(rg, sol.f_star)
            for i in range(n_players):
                theta = layout.theta_of(c, i)
                scale = 1.0 + np.linalg.norm(ms[i], 2) * np.linalg.norm(theta)
                # forward/inverse round trip
                assert residual(ms[i], theta) <= 1e-7 * scale
                # solution-set dimension bound
                dim = np.linalg.svd(ms[i], compute_uv=False)
                kernel_dim = layout.size - int(np.sum(dim > 1e-9 * dim[0]))
                assert kernel_dim >= layout.size - r * dims[i]
                # positive-scaling invariance
                base_margin = pd_margin(rg, layout, i, theta)
                for kappa in (1e-6, 1.0, 1e6):
                    scaled = scale_theta(theta, kappa)
                    assert residual(ms[i], scaled) <= kappa * 1e-7 * scale
                    assert pd_margin(rg, layout, i, scaled) == pytest.approx(
                        kappa * base_margin, rel=1e-6, abs=1e-30
                    )
            # local equilibrium spot check on every converged solution
            for sol_k in sols:
                ok, counter = verify_nash_reference(rg, c, sol_k.f_star.matrix, sol_k.p,
                                                    seed=solved)
                assert ok, counter
                equilibria_checked += 1
            # gauge invariance of residual nullity on a subsample
            if solved % 10 == 0:
                t1 = well_conditioned(rng, r)
                t2 = well_conditioned(rng, n - r) if n > r else np.eye(0)
                w2 = transform_decomposition(rg.w, t1, t2)
                rg2 = reduce_game(g, decomposition=w2)
                f2 = ReducedFeedback(sol.f_star.matrix @ t1, dims)
                ms2 = constraint_matrices(rg2, f2)
                for i in range(n_players):
                    theta = layout.theta_of(c, i)
                    norm2 = np.linalg.norm(ms2[i], 2) * np.linalg.norm(theta)
                    assert residual(ms2[i], theta) <= 1e-6 * (1.0 + norm2)
        assert solved == 50, f"only {solved} solvable games in {attempts} draws"
        assert equilibria_checked >= 50
        # the Lyapunov identity at tight tolerance
        for _ in range(25):
            n = int(rng.integers(1, 7))
            a = rng.standard_normal((n, n)) - (2.0 + n) * np.eye(n)
            gq = rng.standard_normal((n, n))
            q = gq @ gq.T
            p = solve_lyapunov(a, q)
            assert np.abs(a.T @ p + p @ a + q).max() <= 1e-10 * (1 + np.abs(q).max())
