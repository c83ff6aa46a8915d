"""Input sequences, trajectory simulation, and twin-trajectory experiments.

Time indexing convention used throughout: a trajectory of horizon T holds
states x_1..x_T with

    x_t = theta(W x_{t-1} + w_in u_t),

the initial state x0 lives in the metadata, and the generated input sample
u_0 is aligned with x0 (it is never consumed by a transition).  This keeps
state and input phases locked: on the alternating-input attractor of the
single-neuron family below, x_t and u_t carry the same sign at every t.

Distances in convergence traces use the Euclidean norm.  Once twin states
collide (distance below 1e-300, or bitwise equality), the trace is floored
to exactly zero from that step on and the index is recorded.

Every simulation steps through one kernel, ``_stepper``: it rejects
non-finite inputs, then advances a state with a plain-float body (k = n = 1
twin traces under tanh or the sine sigmoid) or an array body (everything
else, including ``run_with_inputs`` and free-running Lyapunov runs at every
k).  The float body precomputes the drive as a list of floats
and runs the transfer's plain-float loop over it (``transfer._FLOAT_STEPS``),
which holds the formula in its body, so no step pays a Python call.  The
array body works in place: it computes a span's drive ``w_in u_t`` up front,
bit for bit the per-step product, in the linear-state rows when it keeps
them; each step adds ``W x`` onto its drive row and makes one checked
``TransferFunction`` call, writing into the output row.  Given a (k, B)
block of B states, it steps them at once, one GEMM per step; the
free-running Lyapunov pair uses this with B = 2.

The kernel owns the divergence rule: a state that leaves the finite range
raises ``ValueError("states must stay finite")`` on either body, which
trajectories pass on, twin traces report as ``"twin states must stay
finite"`` and the Lyapunov estimate turns into its +inf sentinel.  A
non-finite initial state is rejected by name (``x0 must be finite``) before
any step.  Twin traces and Lyapunov runs take distances with one row-norm
helper, ``_norms``: a block's distances in one stacked matmul, bit for bit
the per-row norm, and ``math.hypot`` where the squares overflow (a distance
above about 1.3e154).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .reservoir import Reservoir
from .transfer import _FLOAT_STEPS, SINE_SIGMOID, TANH

__all__ = [
    "Alternating",
    "IidSign",
    "Constant",
    "FileInput",
    "InputSequence",
    "Trajectory",
    "ConvergenceTrace",
    "generate_input",
    "step",
    "run",
    "run_with_inputs",
    "convergence_trace",
    "perturbation_experiment",
    "make_alternating_neuron",
    "alternating_orbit",
    "make_overtuned_neuron",
    "write_trace_csv",
    "write_states_csv",
]

ZERO_FLOOR = 1e-300
_BLOCK = 256  # twin-trace steps between collision and finiteness checks
_CSV_ROWS = 256  # CSV rows formatted by one % operation


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
    """Inputs read from a CSV file, one time step per row."""

    path: str


InputSequence = Union[Alternating, IidSign, Constant, FileInput]

# The period of the samples generate_input makes, by spec kind; the other
# kinds have none.
_PERIODS = {Alternating: 2, Constant: 1}


def generate_input(spec: InputSequence, T: int, n: int = 1) -> np.ndarray:
    """Materialize the first T input vectors as a (T, n) array.

    Deterministic given the spec (seeds included).  Scalar kinds are
    broadcast across the n input coordinates.
    """
    if T < 1:
        raise ValueError("need T >= 1")
    if isinstance(spec, Alternating):
        a, u = float(spec.amplitude), np.empty((T, n))
        u[0::2], u[1::2] = a, -a
        return u
    if isinstance(spec, IidSign):
        rng = np.random.default_rng(spec.seed)
        signs = rng.integers(0, 2, size=(T, n)) * 2.0 - 1.0
        return signs * spec.amplitude
    if isinstance(spec, Constant):
        return np.full((T, n), float(spec.value))
    if isinstance(spec, FileInput):
        try:
            data = np.loadtxt(spec.path, delimiter=",", ndmin=2)
        except OSError as exc:
            raise IOError(f"cannot read input file {spec.path!r}: {exc}") from exc
        except ValueError as exc:
            raise IOError(f"ill-formed input file {spec.path!r}: {exc}") from exc
        if data.shape[0] < T:
            raise IOError(f"input file {spec.path!r} has {data.shape[0]} rows, need {T}")
        if data.shape[1] != n:
            raise IOError(f"input file {spec.path!r} has {data.shape[1]} columns, need {n}")
        return data[:T]
    raise TypeError(f"unknown input spec {spec!r}")


@dataclass(frozen=True)
class Trajectory:
    """States x_1..x_T (T x k) and the linear states that produced them.

    states[i] == theta(linear_states[i]) elementwise, for every row.
    """

    states: np.ndarray
    linear_states: np.ndarray
    x0: np.ndarray


@dataclass(frozen=True)
class ConvergenceTrace:
    """Twin-trajectory distances q_t for t = 0..T-1 (q_0 from the initial pair)."""

    q: np.ndarray
    floor_hit_at: Optional[int] = None


def _as_state(res: Reservoir, x, name: str) -> np.ndarray:
    if x is None:
        return np.zeros(res.k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (res.k,):
        raise ValueError(f"state must have shape ({res.k},)")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} must be finite")
    return x


def step(res: Reservoir, x, u):
    """One update: returns (x_next, x_lin_next) with x_lin = W x + w_in u.

    No simulation goes through it; it is the plain statement of the update
    that the stepping-kernel tests compare ``_stepper`` against.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if x.shape != (res.k,):
        raise ValueError(f"state must have shape ({res.k},)")
    if u.shape != (res.n,):
        raise ValueError(f"input must have shape ({res.n},)")
    x_lin = res.W @ x + res.w_in @ u
    return res.tf(x_lin), x_lin


def _check_inputs(inputs: np.ndarray) -> None:
    if not np.all(np.isfinite(inputs)):
        raise ValueError("inputs must be finite")


def _stepper(res: Reservoir, inputs: np.ndarray, floats: bool):
    """Return advance(x, t0, t1, out=None, lin_out=None), the package's stepping loop.

    advance applies x_t = theta(W x_{t-1} + w_in u_t), u_t = inputs[t], for
    t0 <= t < t1 and returns the last state; with out it stores x_t in
    out[t - t0], with lin_out the linear states, and it writes nothing
    else.  It owns the divergence rule: a state that leaves the finite
    range raises ValueError("states must stay finite").  The bodies raise
    on a non-finite linear state, so an earlier state cannot leave the
    range without raising, and advance checks the last one.

    floats=True (k = n = 1 twin traces, which always pass out) picks the
    transfer's plain-float loop (``transfer._FLOAT_STEPS``) over the drive
    w_in u_t, precomputed as a list of floats, for the kinds that have one.
    Every other run steps the array body.  It computes the span's drive
    w_in u_t in one stacked matmul, into lin_out when given, adds
    W x_{t-1} onto each drive row in place (d + Wx is Wx + d bit for bit)
    and writes theta of that row into out[t - t0] through one checked
    TransferFunction.__call__ per step.  Given a (k, B) block x, it steps
    B states driven alike, one GEMM per step.
    """
    _check_inputs(inputs)
    W, w_in, tf = res.W, res.w_in, res.tf
    steps = _FLOAT_STEPS.get(tf.kind) if floats else None
    if steps is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite drive raises in the loop
            w, drive = float(W[0, 0]), (inputs[:, 0] * float(w_in[0, 0])).tolist()

        def body(x, t0, t1, out, lin_out):
            return np.array([steps(float(x[0]), w, drive[t0:t1], out)])

    else:

        def body(x, t0, t1, out, lin_out):
            # the drive w_in u_t for the whole span: one stacked matmul, bit for
            # bit the per-step product, written into lin_out when given
            drive_out = None if lin_out is None else lin_out[: t1 - t0, :, None]
            lin = np.matmul(w_in, inputs[t0:t1, :, None], out=drive_out)
            lin = lin[:, :, 0] if x.ndim == 1 else lin.repeat(x.shape[1], axis=2)
            for i, row in enumerate(lin):
                row += W @ x
                x = tf(row, out=None if out is None else out[i])
            return x

    def advance(x, t0, t1, out=None, lin_out=None):
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                x = body(x, t0, t1, out, lin_out)
                finite = np.all(np.isfinite(x))
            except ValueError:  # a non-finite linear state met the transfer function
                finite = False
        if not finite:
            raise ValueError("states must stay finite")
        return x

    return advance


def _norms(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of X - Y, bit for bit np.linalg.norm of the row.

    One coordinate takes abs, where squaring could underflow; more take
    sqrt(D.D) in one stacked matmul.  Where the squares overflow (a norm
    above about 1.3e154), math.hypot takes the norm without squaring.
    """
    with np.errstate(over="ignore"):
        D = np.atleast_2d(X - Y)
        q = np.abs(D[:, 0]) if D.shape[1] == 1 else np.sqrt(np.matmul(D[:, None], D[:, :, None])[:, 0, 0])
    for i in np.flatnonzero(np.isinf(q)).tolist():
        q[i] = math.hypot(*D[i].tolist())
    return q


def run_with_inputs(res: Reservoir, inputs: np.ndarray, x0=None) -> Trajectory:
    """Drive the reservoir with explicit input rows; inputs[i] produces states[i]."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    if inputs.shape[1] != res.n:
        raise ValueError(f"inputs must have {res.n} columns")
    x0 = _as_state(res, x0, "x0")
    T = inputs.shape[0]
    states, linear = np.empty((T, res.k)), np.empty((T, res.k))
    _stepper(res, inputs, floats=False)(x0, 0, T, states, linear)
    return Trajectory(states=states, linear_states=linear, x0=x0)


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
    # inputs.  A collision at or after it is permanent, so stepping stops
    # there and the rest of q stays zero.
    floats = res.k == res.n == 1
    advance_x, advance_y = (_stepper(res, u, floats) for u in (u_x, u_y))
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
            break
        if t1 == T:
            break
        t0, t1 = t1, min(t1 + _BLOCK, T)
        try:
            x = advance_x(x, t0, t1, X)
            y = advance_y(y, t0, t1, Y)
        except ValueError:
            raise ValueError("twin states must stay finite") from None
        q[t0:t1] = _norms(X[: t1 - t0], Y[: t1 - t0])
    positive = np.flatnonzero(q > 0.0)
    zeros = np.flatnonzero(q[positive[0] :] == 0.0) if positive.size else positive
    floor_at = int(positive[0] + zeros[0]) if zeros.size else None
    return ConvergenceTrace(q=q, floor_hit_at=floor_at)


def convergence_trace(res: Reservoir, input_spec: InputSequence, x0, y0, T: int) -> ConvergenceTrace:
    """Distances between twin trajectories driven by one input realization."""
    if T < 1:
        raise ValueError("need T >= 1")
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
    u_pert[perturb_at] += delta
    return _twin_trace(res, u, u_pert, x0, x0.copy(), perturb_at + 1)


# -- named single-neuron families ------------------------------------------

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


def make_overtuned_neuron(b: float) -> Reservoir:
    """One-neuron tanh net x_{t+1} = tanh(-b x_t + u_t) (unit input coupling)."""
    return Reservoir(W=[[-b]], w_in=[[1.0]], tf=TANH)


# -- CSV export --------------------------------------------------------------

def _write_rows(fh, t0: int, values: np.ndarray) -> None:
    """Rows "t,v_1,...,v_k" for t = t0, t0 + 1, ..., formatted _CSV_ROWS rows per % operation.

    t sits as an integral float in column 0 of a float block, and %d prints
    it as the int; the bytes are those of formatting each row on its own.
    Only one block of Python floats is alive at a time.
    """
    rows, k = values.shape
    line = "%d," + ",".join(["%.17g"] * k) + "\n"
    block = np.empty((_CSV_ROWS, k + 1))
    for i in range(0, rows, _CSV_ROWS):
        n = min(_CSV_ROWS, rows - i)
        block[:n, 0] = np.arange(t0 + i, t0 + i + n)
        block[:n, 1:] = values[i : i + n]
        fh.write((line * n) % tuple(block[:n].ravel().tolist()))


def write_trace_csv(path, trace: ConvergenceTrace) -> None:
    """Columns t,q with full-precision floats; deterministic byte-for-byte."""
    with open(path, "w", newline="") as fh:
        fh.write("t,q\n")
        _write_rows(fh, 0, trace.q[:, None])


def write_states_csv(path, traj: Trajectory) -> None:
    k = traj.states.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write("t," + ",".join(f"x{i}" for i in range(k)) + "\n")
        _write_rows(fh, 1, traj.states)
