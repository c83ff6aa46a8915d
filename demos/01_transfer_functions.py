#!/usr/bin/env python3
"""Tour of the admissible transfer functions and their unit-slope points.

Everything downstream hinges on two facts demonstrated here: the slope of
each transfer function never exceeds 1, and the isolated points where it
*equals* 1 (epi-critical points) are where a boundary-spectrum network can
hold a memory without exponential decay.
"""

import math

import numpy as np

from critical_esn import LINEAR, SINE_SIGMOID, TANH

print("== slope range (the derivative on a 20001-point grid of [-4, 4]) ==")
xs = np.linspace(-4.0, 4.0, 20001)
for tf in (TANH, SINE_SIGMOID, LINEAR):
    slopes = tf.derivative(xs)
    print(f"  {tf.kind:14s} theta' in [{slopes.min():.12f}, {slopes.max():.12f}]")

print()
print("== epi-critical points (where the derivative equals exactly 1) ==")
print(f"  tanh on [-2, 2]:          {TANH.epi_critical_points(-2, 2)}")
pts = SINE_SIGMOID.epi_critical_points(0, 4 * math.pi)
print(f"  sine sigmoid on [0, 4pi]: {np.round(pts, 6).tolist()}")
print("  ... which all sit on the line y = x/2:")
for p in pts:
    print(f"      theta({p:.6f}) = {SINE_SIGMOID(p):.6f} = p/2 ? {abs(SINE_SIGMOID(p) - p/2) < 1e-12}")

print()
print("== the identity transfer is the counterexample ==")
print("  slope is 1 everywhere, so there is no isolated unit-slope set:")
try:
    LINEAR.epi_critical_points(-1, 1)
except ValueError as exc:
    print(f"  ValueError: {exc}")
