#!/usr/bin/env python3
"""Where is the critical point?  Two independent answers.

First, the Lyapunov exponent of the alternating-drive neuron family as a
function of its coupling b.  Under the drive u_t = (-1)^t pi/4 the states
+-pi/4 form a period-2 orbit for every b, on unit-slope points of the
transfer, so its exponent is ln b: it attracts for b < 1 and repels for
b > 1, and b = 1 is the boundary between contraction and instability.
(+-a is such an orbit only where a is a multiple of pi/4.)  The run is
pinned to that orbit, and its exponent is taken in closed form over one
period, so the unstable side (b > 1) measures the orbit itself rather than
whatever the system escapes to.

Second, the over-tuned variant x_{t+1} = tanh(-b x_t + u_t): pushing the
coupling until its alternating orbit turns marginally stable puts the
critical value at b = 2.344186 with orbit amplitude 0.757240, solved to
rounding.  At that point the slightest increase in drive amplitude tips
the network into divergence, which is why operating there is brittle.
"""

import math
from pathlib import Path

from critical_esn import (
    Alternating,
    TANH,
    alternating_orbit,
    find_critical_b,
    lyapunov_sweep,
    make_alternating_neuron,
)
from critical_esn.analysis import write_sweep_csv

A = math.pi / 4
OUT = Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

grid = [round(0.5 + 0.05 * i, 2) for i in range(21)]
points = lyapunov_sweep(
    make_alternating_neuron,
    Alternating(A),
    grid,
    reference_orbit=alternating_orbit(A),
)
print("coupling sweep of the alternating-drive neuron (exponent vs ln b):")
for p in points[::4]:
    print(f"  b={p.b:4.2f}  lambda={p.exponent:+.5f}   ln b = {math.log(p.b):+.5f}")
crossings = [
    (a.b, b.b) for a, b in zip(points, points[1:]) if a.exponent < 0 <= b.exponent
]
print(f"  sign change between b = {crossings[0][0]} and b = {crossings[0][1]}")
write_sweep_csv(OUT / "lyapunov_sweep.csv", points)
print(f"  full sweep written to {OUT / 'lyapunov_sweep.csv'}")

print()
b_star, amp = find_critical_b(TANH, A, bracket=(1.5, 3.0))
print("over-tuned tanh neuron under the same drive:")
print(f"  critical coupling b* = {b_star!r}  (solved to rounding)")
print(f"  orbit amplitude |x*| = {amp!r}")
x_lin = b_star * amp - A
print(f"  orbit residual       = {abs(TANH(x_lin) - amp):.2e}")
print(f"  |b* theta'| - 1      = {abs(b_star * TANH.derivative(x_lin)) - 1.0:+.2e}")
