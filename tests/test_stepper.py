"""The two bodies of the stepping kernel agree on a single neuron.

A k = 1, n = 2 reservoir with w_in = [[a, 0]] driven by rows [u, 0] steps
its twin traces on the array body; the k = n = 1 reservoir [[a]] driven by
u steps them on its kind's float body.  Both compute the same map, so
their twin traces (free, and from an input perturbation as in figure45)
and free-running Lyapunov exponents (where both n step the (1, 2) block
on the array body) must match: exactly where
both run the array body or the math-module and numpy forms agree bitwise,
within rounding for tanh.
Where the map diverges (linear or sine sigmoid with |w| = 3), both free
twin traces raise ValueError("twin states must stay finite"), both
free-running Lyapunov estimates report the +inf sentinel, and both
perturbed traces raise the same ValueError, unless their twins collide
before the state overflows (sine sigmoid from x0 = 1), when both stop at
the same collision.  The bounded tanh stays finite there.
"""

import math

import numpy as np
import pytest

from critical_esn.analysis import lyapunov_exponent
from critical_esn.dynamics import FileInput, convergence_trace, perturbation_experiment
from critical_esn.reservoir import Reservoir
from critical_esn.transfer import LINEAR, SINE_SIGMOID, TANH

TRANSFERS = {"sine_sigmoid": SINE_SIGMOID, "linear": LINEAR, "tanh": TANH}
UNBOUNDED = ("linear", "sine_sigmoid")
DIVERGED = "twin states must stay finite"


def _cases(per_kind=8, seed=1411):
    """(kind, w, a, T, x0, y0, input seed): a seeded grid in |w| <= 1, |a| <= 2, T <= 500, and corners.

    Each kind draws from its own stream, seeded from seed and the kind's
    name, so adding or removing a kind leaves the other kinds' cases alone.
    """
    cases = []
    for kind in sorted(TRANSFERS):
        rng = np.random.default_rng([seed, *kind.encode()])
        cases.append((kind, 1.0, 2.0, 500, 1.0, -1.0, 0))  # the corners of the box
        cases.append((kind, -1.0, -2.0, 100, -1.0, 0.0, 1))
        for _ in range(per_kind):
            w, x0, y0 = rng.uniform(-1.0, 1.0, 3)
            cases.append((kind, w, rng.uniform(-2.0, 2.0), int(rng.integers(100, 501)), x0, y0, int(rng.integers(2**32))))
    # Twins that decay to zero through distances below 1.5e-154, whose squares underflow.
    cases.append(("linear", 0.1, 0.0, 400, 0.5, -0.5, 0))
    cases.append(("sine_sigmoid", 0.2, 0.0, 200, 0.5, -0.5, 0))
    # Corners outside the box: tanh stays bounded, linear grows
    # like 3^t and sine sigmoid like 1.5^t until the state overflows.
    for kind, T in (("tanh", 500), ("linear", 1000), ("sine_sigmoid", 2000)):
        cases.append((kind, 3.0, 2.0, T, 1.0, -1.0, 0))
        cases.append((kind, -3.0, -2.0, T, -1.0, 0.0, 1))
    return cases


def _perturbed(res, spec, du, T, x0):
    """figure45's twin trace, perturbed at input sample 1; None where the run diverges."""
    try:
        return perturbation_experiment(res, spec, 1, du, T, x0=[x0])
    except ValueError as exc:
        assert str(exc) == DIVERGED
        return None


@pytest.mark.parametrize("kind,w,a,T,x0,y0,seed", _cases())
def test_float_and_array_bodies_agree(tmp_path, kind, w, a, T, x0, y0, seed):
    u = np.random.default_rng(seed).uniform(-1.0, 1.0, T + 1)
    np.savetxt(tmp_path / "n1.csv", u[:, None], delimiter=",")
    np.savetxt(tmp_path / "n2.csv", np.column_stack([u, np.zeros_like(u)]), delimiter=",")
    tf = TRANSFERS[kind]
    floats = (Reservoir(W=[[w]], w_in=[[a]], tf=tf), FileInput(str(tmp_path / "n1.csv")), [0.01])
    arrays = (Reservoir(W=[[w]], w_in=[[a, 0.0]], tf=tf), FileInput(str(tmp_path / "n2.csv")), [0.01, 0.0])

    pt_f, pt_a = (_perturbed(res, spec, du, T, x0) for res, spec, du in (floats, arrays))
    if kind in UNBOUNDED and abs(w) > 1.0:
        for res, spec, _ in (floats, arrays):
            with pytest.raises(ValueError, match=DIVERGED):
                convergence_trace(res, spec, [x0], [y0], T)
            assert lyapunov_exponent(res, spec, T=T, x0=[x0]).exponent == math.inf
        assert (pt_a is None) == (pt_f is None)
        pairs = [] if pt_a is None else [(pt_a, pt_f)]
    else:
        tr_f, tr_a = (convergence_trace(res, spec, [x0], [y0], T) for res, spec, _ in (floats, arrays))
        ly_f, ly_a = (lyapunov_exponent(res, spec, T=T, x0=[x0]) for res, spec, _ in (floats, arrays))
        pairs = [(tr_a, tr_f), (pt_a, pt_f)]
    if kind == "tanh":  # math.tanh and np.tanh differ in the last bit
        for tr_a, tr_f in pairs:
            np.testing.assert_allclose(tr_a.q, tr_f.q, rtol=0.0, atol=1e-12)
        return
    for tr_a, tr_f in pairs:
        np.testing.assert_array_equal(tr_a.q, tr_f.q)
        assert tr_a.floor_hit_at == tr_f.floor_hit_at
    if abs(w) <= 1.0:
        assert ly_a.exponent == ly_f.exponent
