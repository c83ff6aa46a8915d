"""Plain statements of the update and the covering recursion, for the tests only.

The package steps through one kernel, ``dynamics._advance``, and proves
the covering sequence's dominance in closed form; neither goes through
these.  They are the independent oracles those are compared against.
"""

import numpy as np

from critical_esn.contraction import CoverParams


def step(res, x, u):
    """One update: returns (x_next, x_lin_next) with x_lin = W x + w_in u."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if x.shape != (res.k,):
        raise ValueError(f"state must have shape ({res.k},)")
    if u.shape != (res.n,):
        raise ValueError(f"input must have shape ({res.n},)")
    x_lin = res.W @ x + res.w_in @ u
    return res.tf(x_lin), x_lin


def iterate_q(q0: float, p: CoverParams = CoverParams(), T: int = 1000) -> np.ndarray:
    """The T+1 values q_0..q_T of q_{t+1} = q_t (1 - eta q_t^kappa).

    Positive and strictly decreasing for q0 in (0, 1]; q0 = 0 is the
    trivial fixed point.
    """
    if not (0.0 <= q0 <= 1.0):
        raise ValueError("need q0 in [0, 1]")
    if T < 1:
        raise ValueError("need T >= 1")
    out = np.empty(T + 1)
    q = float(q0)
    out[0] = q
    eta, kappa = p.eta, p.kappa
    for t in range(1, T + 1):
        q = q * (1.0 - eta * q**kappa)
        out[t] = q
    return out
