"""Plain statements of the update, the twin distance, the covering recursion and the delay readout, for the tests only.

The package steps twin traces through one kernel, ``dynamics._advance``,
in blocks, proves the covering sequence's dominance in closed form, and
stacks only each delay block's training targets.  These step one step at
a time, iterate the recursion, and stack each block's targets over every
row: they are the independent oracles those are compared against.
"""

import math

import numpy as np

from critical_esn.contraction import CoverParams
from critical_esn.dynamics import run_with_inputs
from critical_esn.readout import _normal_matrix, _squared_correlation, fit_readout, predict


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


def twin_trace(res, u_x, u_y, x0, y0, shared_from=0):
    """(q, floor_hit_at) of twin copies stepped one step at a time by step(), each step's distance checked at once.

    q_t is the Euclidean norm of x_t - y_t, by math.hypot where it is below
    1e-146 (a square may underflow), and 0 at or below 1e-300.  The first
    0 at a t >= shared_from is permanent: q stays 0 from there, and t is
    floor_hit_at if some earlier q is positive.
    """
    q = np.zeros(len(u_x))
    x, y = np.asarray(x0, dtype=float), np.asarray(y0, dtype=float)
    for t in range(len(u_x)):
        if t:  # u_0 is aligned with the initial pair
            x, y = step(res, x, u_x[t])[0], step(res, y, u_y[t])[0]
        d = x - y
        q[t] = np.linalg.norm(d)
        if q[t] < 1e-146:
            q[t] = math.hypot(*d.tolist())
        if q[t] <= 1e-300:
            q[t] = 0.0
            if t >= shared_from:
                return q, (t if q[:t].any() else None)
    return q, None


def delay_scores_full_block(res, input_amplitude, max_delay, T, washout=200, ridge=1e-8, seed=0):
    """memory_capacity's per_delay with each 8-delay target block stacked over every row, training and test.

    The states come from one run_with_inputs call over all T inputs, and
    each delay is scored against its column of the stacked block.
    """
    u = np.random.default_rng(seed).uniform(-input_amplitude, input_amplitude, size=(T, res.n))
    t_start = max(washout, max_delay)
    X = run_with_inputs(res, u).states[t_start:]
    X = np.ldexp(X, -math.frexp(max(X.max(), -X.min()))[1])
    split = X.shape[0] // 2
    G = _normal_matrix(X[:split], ridge)
    drive = np.ldexp(u[:, 0], -math.frexp(input_amplitude)[1])
    scores = []
    for first in range(1, max_delay + 1, 8):
        delays = range(first, min(first + 8, max_delay + 1))
        targets = np.stack([drive[t_start - d : T - d] for d in delays], axis=1)
        pred = predict(fit_readout(X[:split], targets[:split], ridge=ridge, normal=G), X[split:])
        scores.extend((d, _squared_correlation(pred[:, j], targets[split:, j])) for j, d in enumerate(delays))
    return tuple(scores)
