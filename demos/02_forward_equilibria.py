"""Feedback Nash equilibria of the shared-steering game.

Solves the coupled Riccati system for the ground-truth weights,
certifies the equilibrium property (no player gains by deviating
unilaterally), compares the value matrices with simulated cost integrals,
and shows how distinct full-state gains can realize one and the same
equilibrium behavior.
"""
import numpy as np

import dgame as dg

vx, length, ks = 20.0, 2.7, 10.0
E = np.diag([1.0, 1.0, 0.0])
A = np.array([[0.0, vx, 0.0], [0.0, 0.0, vx / length], [0.0, 0.0, -ks]])
B = (np.array([[0.0], [0.0], [1.0]]), np.array([[0.0], [0.0], [1.0]]))
game = dg.DescriptorGame(E, A, B)
rg = dg.reduce_game(game)

costs = dg.CostParameters(
    q=(np.diag([1.0, 0.5, 0.1]), np.diag([3.0, 2.0, 0.1])),
    r=((np.array([[2.0]]), np.array([[0.5]])),
       (np.array([[1.0]]), np.array([[0.5]]))),
)

sols = dg.solve_fbne(rg, costs, dg.SolveOptions(n_starts=32))
print(f"{len(sols)} stabilizing solution(s) of the coupled Riccati system")
for k, sol in enumerate(sols):
    print(f"\nsolution {k}:")
    print("  reduced gains:\n", np.round(sol.f_star.matrix, 6))
    print("  closed-loop spectrum:", np.round(sol.spectrum, 4))
    print("  residual:", f"{sol.residual_max:.2e}",
          f"(scale {sol.residual_scale:.1f})")

sol = sols[0]
ok = dg.certify_nash(rg, costs, sol.f_star)[0]
print("\nno profitable unilateral deviation found:", ok)

x1_0 = np.array([1.0, 0.4])
print("\nequilibrium costs from x1(0) =", x1_0)
traj = dg.simulate(rg, sol.f_star, x1_0, 25.0, 0.002)
for i in range(2):
    exact = dg.equilibrium_cost(sol, i, x1_0)
    integrand = np.einsum("kj,jl,kl->k", traj.x, costs.q[i], traj.x)
    for j in range(2):
        integrand += costs.r[i][j][0, 0] * traj.u[:, j] ** 2
    quad = np.trapezoid(integrand, traj.times)
    print(f"  player {i}: value matrix {exact:.6f}   simulated {quad:.6f}")

# informational non-uniqueness: many full-state gains, one behavior
print("\ntwo full-state realizations of the equilibrium behavior:")
for seed in (1, 2):
    member = dg.preimage_sample(rg, sol.f_star, seed=seed)
    print(f"  seed {seed}:", np.round(member.stacked, 4).tolist())
t1 = dg.simulate(rg, dg.preimage_sample(rg, sol.f_star, seed=1), x1_0, 5.0, 0.01)
t2 = dg.simulate(rg, dg.preimage_sample(rg, sol.f_star, seed=2), x1_0, 5.0, 0.01)
print("max trajectory difference between them:",
      f"{max(np.abs(t1.x - t2.x).max(), np.abs(t1.u - t2.u).max()):.2e}")

dg.write_trajectory_csv(traj, "equilibrium_trajectory.csv")
print("\nwrote equilibrium_trajectory.csv")
