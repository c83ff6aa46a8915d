"""Input sequences, trajectory simulation, and twin-trajectory experiments.

Time indexing convention used throughout: a trajectory of horizon T holds
states x_1..x_T with

    x_t = theta(W x_{t-1} + w_in u_t),

and the generated input sample u_0 is aligned with the initial state x0
(it is never consumed by a transition).  This keeps
state and input phases locked: on the alternating-input attractor of the
single-neuron family below, x_t and u_t carry the same sign at every t.

Distances in convergence traces are Euclidean, by one rule at every k.
Once twin states collide (distance at most 1e-300), the trace is exactly
zero from that step on and the index is recorded as floor_hit_at.  Twin
traces step in blocks of 8, 9, 18, 36, ... steps (each as long as the
trace so far, at most 256) and look for a collision after each, so a pair
that collides at step c steps at most max(8, 2c) states per copy.
Stepping ends with the block that holds the first permanent collision:
a divergence after it is reported only inside that block.

Every simulation steps through one kernel, ``_advance``, whose docstring
describes its two bodies and the divergence rule it owns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .reservoir import Reservoir, _read_csv, _write_csv
from .transfer import _FORMULAS, SINE_SIGMOID

__all__ = [
    "Alternating",
    "IidSign",
    "Constant",
    "FileInput",
    "InputSequence",
    "Trajectory",
    "ConvergenceTrace",
    "generate_input",
    "run",
    "run_with_inputs",
    "convergence_trace",
    "perturbation_experiment",
    "make_alternating_neuron",
    "alternating_orbit",
    "write_trace_csv",
    "write_states_csv",
]

ZERO_FLOOR = 1e-300  # twins that decay together stop here, not on subnormal states (tens of times slower)
_BLOCK = 256  # the longest twin-trace block, the steps between two collision and finiteness checks
_FIRST_BLOCK = 8  # the first and shortest; at least 2, so twins that collide at t = 1 and overflow at t = 2 still raise


@dataclass(frozen=True)
class Alternating:
    """u_t = (-1)^t * amplitude, with u_0 = +amplitude."""

    amplitude: float


@dataclass(frozen=True)
class IidSign:
    """u_t = +/- amplitude, i.i.d. fair signs from the seeded generator."""

    amplitude: float
    seed: int


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class FileInput:
    """Inputs read from a CSV file, one time step per row; blank and '#' comment lines are skipped."""

    path: str


InputSequence = Union[Alternating, IidSign, Constant, FileInput]

# The period of the samples generate_input makes, by spec kind; the other
# kinds have none.
_PERIODS = {Alternating: 2, Constant: 1}


def generate_input(spec: InputSequence, T: int, n: int = 1) -> np.ndarray:
    """Materialize the first T input vectors as a (T, n) array.

    Deterministic given the spec (seeds included).  Scalar kinds are
    broadcast across the n input coordinates.  Raises ValueError("inputs
    must be finite") unless every sample is finite.
    """
    if T < 1:
        raise ValueError("need T >= 1")
    if isinstance(spec, Alternating):
        a, u = float(spec.amplitude), np.empty((T, n))
        u[0::2], u[1::2] = a, -a
    elif isinstance(spec, IidSign):
        rng = np.random.default_rng(spec.seed)
        signs = rng.integers(0, 2, size=(T, n)) * 2.0 - 1.0
        u = signs * spec.amplitude
    elif isinstance(spec, Constant):
        u = np.full((T, n), float(spec.value))
    elif isinstance(spec, FileInput):
        try:
            _, data = _read_csv(spec.path)
        except OSError as exc:
            raise IOError(f"cannot read input file {spec.path!r}: {exc}") from exc
        except ValueError as exc:
            raise IOError(f"ill-formed input file {spec.path!r}: {exc}") from exc
        if data.shape[0] < T:
            raise IOError(f"input file {spec.path!r} has {data.shape[0]} rows, need {T}")
        if data.shape[1] != n:
            raise IOError(f"input file {spec.path!r} has {data.shape[1]} columns, need {n}")
        u = data[:T]
    else:
        raise TypeError(f"unknown input spec {spec!r}")
    _check_inputs(u)
    return u


def _check_inputs(inputs: np.ndarray) -> None:
    if not np.all(np.isfinite(inputs)):
        raise ValueError("inputs must be finite")


@dataclass(frozen=True)
class Trajectory:
    """States x_1..x_T (T x k) and the linear states that produced them.

    states[i] == theta(linear_states[i]) elementwise, for every row; the
    initial state x0 is the caller's.
    """

    states: np.ndarray
    linear_states: np.ndarray


@dataclass(frozen=True)
class ConvergenceTrace:
    """Twin-trajectory distances q_t for t = 0..T-1 (q_0 from the initial pair), exactly zero from floor_hit_at on."""

    q: np.ndarray
    floor_hit_at: Optional[int] = None


def _as_state(res: Reservoir, x, name: str) -> np.ndarray:
    if x is None:
        return np.zeros(res.k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (res.k,):
        raise ValueError(f"{name} must have shape ({res.k},)")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def _advance(res: Reservoir, u: np.ndarray, x: np.ndarray, out=None, lin_out=None) -> np.ndarray:
    """Apply x_t = theta(W x_{t-1} + w_in u_t) for each row u_t of the span u; return the last state.

    The package's one stepping kernel.  It stores the i-th state in out[i]
    (a 1-D state always comes with out), with lin_out its linear state, and
    it writes nothing else.  The inputs are not checked here:
    generate_input, run_with_inputs and perturbation_experiment reject
    non-finite ones where they are made.

    A call at k = n = 1 on a 1-D state with no linear states to store (the
    twin traces) runs the one plain-float loop: the drive w_in u_t as a list
    of floats, z = w x + d, a ValueError unless z is finite, and x = theta(z)
    from the float column of _FORMULAS (math.sin raises where the sine
    sigmoid's 2z overflows), so no step touches an array.  Every
    other call steps the array body.  It computes the span's drive w_in u_t
    in one stacked matmul, bit for bit the per-step product, into lin_out
    when given, adds W x_{t-1} onto each drive row in place (d + Wx is
    Wx + d bit for bit) and writes theta of that row into out[i] through
    one checked TransferFunction.__call__ per step.  Given a (k, 2) block
    [x v] of a state and its tangent, it takes W [x v] in one GEMM per
    step, adds the drive to column 0 alone and sets x = theta(lin) through
    that call and v = theta'(lin) W v, theta' unchecked from _FORMULAS.

    It owns the divergence rule: a state that leaves the finite range
    raises ValueError("states must stay finite") on either body, which
    trajectories pass on, twin traces report as "twin states must stay
    finite" and the Lyapunov estimate turns into its +inf sentinel.  Both
    bodies raise on a non-finite linear state, so an earlier state cannot
    leave the range without raising, and the last one is checked.
    """
    W, w_in, tf = res.W, res.w_in, res.tf
    floats = lin_out is None and x.ndim == 1 and res.k == res.n == 1
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            if floats:
                w, theta, isfinite, xf = float(W[0, 0]), _FORMULAS[tf.kind][2], math.isfinite, float(x[0])
                states = out[:, 0]  # storing one element costs a quarter of storing a row
                for i, d in enumerate((u[:, 0] * float(w_in[0, 0])).tolist()):
                    z = w * xf + d
                    if not isfinite(z):
                        raise ValueError("transfer function input must be finite")
                    xf = states[i] = theta(z)
                x = np.array([xf])
            else:
                drive_out = None if lin_out is None else lin_out[: len(u), :, None]
                lin = np.matmul(w_in, u[:, :, None], out=drive_out)[:, :, 0]
                if x.ndim == 1:
                    for i, row in enumerate(lin):
                        row += W @ x
                        x = tf(row, out=out[i])
                else:  # the tangent block [x v]
                    x, Wx, slope = x.copy(), np.empty_like(x), _FORMULAS[tf.kind][1]
                    for row in lin:
                        np.matmul(W, x, out=Wx)
                        row += Wx[:, 0]
                        tf(row, out=x[:, 0])
                        np.multiply(slope(row), Wx[:, 1], out=x[:, 1])
            finite = np.all(np.isfinite(x))
        except ValueError:  # a non-finite linear state met the transfer function
            finite = False
    if not finite:
        raise ValueError("states must stay finite")
    return x


def _norms(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of X - Y, by one rule at every k.

    sqrt(D.D) in one stacked matmul, bit for bit np.linalg.norm of the row
    where the squares are normal; math.hypot, which squares nothing, retakes
    each row below 1e-146 (a square may underflow) or infinite (one overflowed).
    """
    with np.errstate(over="ignore"):
        D = np.atleast_2d(X - Y)
        q = np.sqrt(np.matmul(D[:, None], D[:, :, None])[:, 0, 0])
    for i in np.flatnonzero((q < 1e-146) | np.isinf(q)).tolist():
        q[i] = math.hypot(*D[i].tolist())
    return q


def run_with_inputs(res: Reservoir, inputs: np.ndarray, x0=None) -> Trajectory:
    """Drive the reservoir with explicit input rows; inputs[i] produces states[i]."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[1] != res.n:
        raise ValueError(f"inputs must have {res.n} columns")
    x0 = _as_state(res, x0, "x0")
    _check_inputs(inputs)
    T = inputs.shape[0]
    states, linear = np.empty((T, res.k)), np.empty((T, res.k))
    _advance(res, inputs, x0, states, linear)
    return Trajectory(states=states, linear_states=linear)


def run(res: Reservoir, input_spec: InputSequence, x0, T: int) -> Trajectory:
    """Simulate T transitions from x0; exactly reproducible from its arguments.

    The spec must yield T+1 samples (u_0 is aligned with x0 and skipped),
    so file-backed inputs need at least T+1 rows.
    """
    if T < 1:
        raise ValueError("need T >= 1")
    u = generate_input(input_spec, T + 1, res.n)
    return run_with_inputs(res, u[1:], x0)


def _twin_trace(res, u_x, u_y, x0, y0, shared_from) -> ConvergenceTrace:
    # shared_from: first step index from which both copies see identical
    # inputs.  A collision at or after it is permanent: stepping stops there,
    # the rest of q stays zero, and it is floor_hit_at if some q before it is positive.
    T = u_x.shape[0]
    q = np.zeros(T)
    q[0] = _norms(x0, y0)[0]
    x, y = x0, y0
    X, Y = np.empty((_BLOCK, res.k)), np.empty((_BLOCK, res.k))
    t0, t1 = 0, 1
    while True:
        block = q[t0:t1]
        block[block <= ZERO_FLOOR] = 0.0
        hits = np.flatnonzero(block == 0.0) + t0
        hits = hits[hits >= shared_from]
        if hits.size:
            q[hits[0] + 1 :] = 0.0
            return ConvergenceTrace(q, int(hits[0]) if q[: hits[0]].any() else None)
        if t1 == T:
            return ConvergenceTrace(q)
        t0, t1 = t1, min(t1 + min(max(t1, _FIRST_BLOCK), _BLOCK), T)
        try:
            x = _advance(res, u_x[t0:t1], x, X)
            y = _advance(res, u_y[t0:t1], y, Y)
        except ValueError:
            raise ValueError("twin states must stay finite") from None
        q[t0:t1] = _norms(X[: t1 - t0], Y[: t1 - t0])


def convergence_trace(res: Reservoir, input_spec: InputSequence, x0, y0, T: int) -> ConvergenceTrace:
    """Distances between twin trajectories driven by one input realization."""
    x0 = _as_state(res, x0, "x0")
    y0 = _as_state(res, y0, "y0")
    u = generate_input(input_spec, T, res.n)
    return _twin_trace(res, u, u, x0, y0, 0)


def perturbation_experiment(
    res: Reservoir,
    base_input: InputSequence,
    perturb_at: int,
    delta_u,
    T: int,
    x0=None,
) -> ConvergenceTrace:
    """Twin copies from identical x0; one receives u + delta_u at one step.

    The trace is the distance history after the copies re-join on the shared
    input.  perturb_at indexes the input sample u_t; sample 0 is aligned
    with the initial state and never consumed, so perturb_at = 0 leaves both
    copies identical.
    """
    if not (0 <= perturb_at < T):
        raise ValueError("need 0 <= perturb_at < T")
    x0 = _as_state(res, x0, "x0")
    u = generate_input(base_input, T, res.n)
    delta = np.atleast_1d(np.asarray(delta_u, dtype=float))
    if delta.shape != (res.n,):
        raise ValueError(f"delta_u must have shape ({res.n},)")
    u_pert = u.copy()
    with np.errstate(over="ignore"):
        u_pert[perturb_at] += delta
    if not np.all(np.isfinite(u_pert[perturb_at])):
        raise ValueError(f"delta_u {delta.tolist()} at perturb_at={perturb_at} makes a non-finite input")
    return _twin_trace(res, u, u_pert, x0, x0.copy(), perturb_at + 1)


def write_trace_csv(path, trace: ConvergenceTrace) -> None:
    """Columns t,q with full-precision floats; deterministic byte-for-byte."""
    _write_csv(path, "t,q", trace.q, first=range(trace.q.size))


def write_states_csv(path, traj: Trajectory) -> None:
    T, k = traj.states.shape
    _write_csv(path, "t," + ",".join(f"x{i}" for i in range(k)), traj.states, first=range(1, T + 1))


# -- the alternating single-neuron family -----------------------------------

def make_alternating_neuron(b: float) -> Reservoir:
    """One-neuron sine-sigmoid net x_{t+1} = theta(-b x_t + (2-b) u_t).

    Under u_t = (-1)^t * a the -b and 2-b couplings sum the state and input
    contributions of x_t = (-1)^t * a to 2a at the linear stage, and
    theta(2a) = a - sin(4a)/4.  So x_t = (-1)^t * a is a period-2 orbit for
    every b only where a is a multiple of pi/4.  At odd multiples (pi/4 is
    figure 3's) it sits on unit-slope points of the transfer, its exponent
    is log b, and it attracts only for b < 1: b = 1 is the critical
    coupling.  At even multiples theta' = 0 there, and it is superstable
    (exponent -inf).  The (2-b) input weight is part of the family
    definition.
    """
    return Reservoir(W=[[-b]], w_in=[[2.0 - b]], tf=SINE_SIGMOID)


def alternating_orbit(amplitude: float = math.pi / 4) -> np.ndarray:
    """The states [a, -a] at even and odd t, the alternating neuron's period-2 orbit where there is one.

    They are an orbit of make_alternating_neuron(b) under Alternating(a)
    only where a is a multiple of pi/4, and attract only where its
    exponent is negative (see make_alternating_neuron).
    """
    return np.array([[amplitude], [-amplitude]])
