"""Identifying cost parameters from an observed feedback profile.

Given the dynamics and an observed stabilizing profile, the rationalizing
cost parameters of each player form the intersection of a linear kernel
with an open definiteness cone: a convex set, closed under positive
scaling, and a Cartesian product across players.  This script certifies
the set is nonempty, explores its geometry, and shows that identified
costs can rationalize more than one closed-loop behavior.
"""
import numpy as np

import dgame as dg

vx, length, ks = 20.0, 2.7, 10.0
E = np.diag([1.0, 1.0, 0.0])
A = np.array([[0.0, vx, 0.0], [0.0, 0.0, vx / length], [0.0, 0.0, -ks]])
B = (np.array([[0.0], [0.0], [1.0]]), np.array([[0.0], [0.0], [1.0]]))
game = dg.DescriptorGame(E, A, B)
rg = dg.reduce_game(game)

observed = dg.FeedbackProfile((np.array([[-0.0046, -0.3971, 0.7987]]),
                               np.array([[-0.4779, -1.8117, 3.8449]])))
f_obs = dg.reduce_feedback(game, observed)

cert = dg.identify(rg, f_obs)
print("identification feasible:", cert.feasible)
for i, pc in enumerate(cert.players):
    print(f"  player {i}: residual {pc.residual:.2e}, "
          f"definiteness margin {pc.pd_margin:.4f}, "
          f"kernel dimension {pc.kernel_dim}")

for entry in dg.dimension_report(cert, rg):
    print(f"  player {entry['player']}: solution-set dimension >= "
          f"{entry['bound']} (flat parameters L={entry['L']}, "
          f"constraints r*m_i={entry['r_mi']}; a full-rank-E model "
          f"would only force >= {entry['L'] - entry['n_mi']})")

# positive scalings never leave the solution set
theta = cert.players[0].theta
scaled = dg.scale_theta(theta, 1e6)
print("\nscaling by 1e6 keeps residual", f"{dg.residual(cert.players[0].m, scaled):.2e}",
      "and margin", f"{dg.pd_margin(rg, cert.layout, 0, scaled):.1f}")

# sample a few distinct rationalizing parameters
print("\nthree sampled rationalizing parameters for player 0:")
for seed in range(3):
    th = dg.sample_solution_set(rg, cert, 0, seed=seed)
    print(f"  seed {seed}: theta = {np.round(th, 4).tolist()}")

# how many behaviors do the identified costs rationalize?
rep = dg.rationalized_behaviors(rg, cert, dg.SolveOptions(n_starts=32))
print(f"\nmax-margin identified costs: {rep.n_behaviors} behavior(s), "
      f"{rep.n_matching} matching the observation")

# other points of the same solution set can rationalize several behaviors;
# walk the set until one with two behaviors appears
for k in range(20):
    thetas = tuple(dg.sample_solution_set(rg, cert, i, seed=17 * k + 3 * i)
                   for i in range(2))
    trial = dg.InverseCertificate(
        players=tuple(
            type(pc)(m=pc.m, kernel_dim=pc.kernel_dim, theta=t,
                     residual=dg.residual(pc.m, t),
                     pd_margin=dg.pd_margin(rg, cert.layout, i, t),
                     feasible=True, kept_indices=pc.kept_indices)
            for i, (pc, t) in enumerate(zip(cert.players, thetas))
        ),
        f_red=cert.f_red, layout=cert.layout,
    )
    rep = dg.rationalized_behaviors(rg, trial, dg.SolveOptions(n_starts=24))
    if rep.n_behaviors == 2:
        print(f"sampled tuple (walk step {k}): 2 behaviors, "
              f"{rep.n_matching} matching; spectra:")
        for s, m in zip(rep.solutions, rep.matches):
            tag = "matches observation" if m else "different behavior"
            print(f"   {np.round(s.spectrum, 4)}  <- {tag}")
        break

# structural constraints shrink the set: diagonal state weights
cert_diag = dg.identify(rg, f_obs, dg.Constraints(diagonal_q=True))
print("\ndiagonal-constrained identification feasible:", cert_diag.feasible)
q0, r_row0 = cert_diag.layout.unpack(cert_diag.players[0].theta)
print("  player 0 state weight diag:", np.round(np.diag(q0), 4).tolist(),
      " input weights:", [float(np.round(r[0, 0], 4)) for r in r_row0])
