#!/usr/bin/env python3
"""Numerical certificates behind the boundary-spectrum forgetting guarantee.

The guarantee rests on four checkable facts:

1. cover inequality: the squared per-step stretch of the transfer never
   exceeds phi(delta^2) = 1 - eta delta^4 (eta = 1/48), clamped past 1/2.
   With the tangent cover phi_tangent in place of phi, the same scalar
   check covers k neurons for every k: g(z) = z phi_tangent(z) is
   concave, so by Jensen sum_i (theta(zeta_i + Delta_i) - theta(zeta_i))^2
   <= k g(x/k) <= x phi(x/k) <= x phi_k(x), with x = |Delta|^2;
2. shape facts: phi <= 1, phi non-increasing, z phi(z) non-decreasing.
   These are proved: the first two hold for any eta > 0, the third iff
   eta (kappa + 1) gamma^kappa <= 1 (here 1/64);
3. dominance: the recursion q <- q (1 - eta q^2) stays below the closed
   form q*(t) = [(eta/2) t + q0^-2]^(-1/2), which vanishes, so distances
   vanish too (power-law slow, never slower).  This one is proved for
   every t: Bernoulli's inequality gives q_{t+1}^-2 >= q_t^-2 + 2 eta,
   so q_t <= B(t) = [2 eta t + q0^-2]^(-1/2) <= q*(t);
4. per-step audit: simulated boundary reservoirs actually respect the
   cover at every step, for any neuron count via phi_k(z) = phi(z / k^2).

Each check reports its worst margin and its status: the shape facts and
dominance are "proved" (dominance's margins only tabulate q* - B); the
others are "sampled" over a grid or run, not a proof.
"""

import math

import numpy as np

from critical_esn import (
    CoverParams,
    IidSign,
    Reservoir,
    SINE_SIGMOID,
    TANH,
    LINEAR,
    audit_step_inequality,
    check_phi_properties,
    make_orthogonal_reservoir,
    phi,
    q_star,
    tau_bound,
    phi_tangent,
    verify_cover_inequality,
    verify_dominance,
)

A = math.pi / 4
p = CoverParams()

print("1. cover inequality on the (delta, zeta) grid, one neuron (phi) and every k (phi_tangent):")
for tf in (TANH, SINE_SIGMOID, LINEAR):
    for cover in (phi, phi_tangent):
        rep = verify_cover_inequality(tf, p, cover=cover)
        print(
            f"   {tf.kind:14s} {cover.__name__:12s} passed={rep.passed!s:5s}"
            f" worst margin {rep.worst_margin:+.3e} at {rep.worst_point}"
        )

print()
rep = check_phi_properties(p)
print(f"2. cover shape facts: {rep.status}, passed={rep.passed}, margin 1 - eta (kappa+1) gamma^kappa = {rep.worst_margin:+.6f}")

print()
print("3. dominance of the closed form over the recursion (Bernoulli bound, proved for every t):")
for q0 in (0.1, 0.5, 1.0):
    rep = verify_dominance(q0, p, T=100_000)
    print(f"   q0={q0}: {rep.status}, passed={rep.passed}, min gap q* - B over t <= 10^5 {rep.worst_margin:+.2e}")
print(f"   closed form at t=10^5 from q0=1: q* = {q_star(100_000, 1.0, p):.5f} (still > 0: power law)")

print()
print("4. per-step audit on simulated boundary reservoirs:")
rng = np.random.default_rng(1)
for k in (1, 4, 16):
    for tf in (TANH, SINE_SIGMOID):
        base = make_orthogonal_reservoir(k, 1, 0.5, seed=int(rng.integers(1 << 30)))
        res = Reservoir(W=base.W, w_in=base.w_in, tf=tf)
        rep = audit_step_inequality(
            res, IidSign(A, k), rng.uniform(-1, 1, k), rng.uniform(-1, 1, k), T=300
        )
        print(f"   k={k:2d} {tf.kind:14s} passed={rep.passed!s:5s} worst margin {rep.worst_margin:+.1e}")

print()
print("time-to-epsilon upper bounds from the certificates:")
print(f"   subcritical S=0.9, d0=1, eps=1e-6 : {tau_bound(1e-6, 1.0, 'subcritical', S=0.9):8.1f} steps")
print(f"   boundary far phase, d0=2, eps=0.8 : {tau_bound(0.8, 2.0, 'critical_far', p):8.1f} steps")
print(f"   boundary near phase, d0=1, eps=0.1: {tau_bound(0.1, 1.0, 'critical_near', p):8.1f} steps")
print("   (near-phase bound is the power-law one: polynomial in 1/eps, not log)")
