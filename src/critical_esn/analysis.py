"""Quantitative analysis of reservoir dynamics.

Three tool families live here:

* Largest Lyapunov exponent of an input-driven run.  A free-running run
  renormalizes a tangent vector periodically (Benettin et al., Meccanica
  15 (1980) 9-20): state and tangent step as the two columns of one
  (k, 2) block, one GEMM per step, at every k.  A run pinned to a known
  periodic orbit (the unstable side of the coupling sweep, which a free-running reference leaves
  through rounding noise within ~37/ln(b) steps) takes the orbit's exponent
  in closed form instead: over one joint period N of the orbit and the
  input, (1/N) log rho(J_N ... J_1) with J_t = diag(theta'(W x_{t-1} +
  w_in u_t)) W (E. Ott, Chaos in Dynamical Systems, 2nd ed., 2002).  The
  orbit is checked first: theta of each of its N linear states must match
  the next orbit state to within the rounding of the sums that formed it.

* Decay-law classification of a convergence trace: straight-line fits of
  log q against t (exponential) and against log t (power law), decided by
  an r-squared margin.

* The critical coupling of the single-neuron map x -> theta(b x - a) with
  alternating drive: b* = min over z of B(z) = (z + a) / theta(z), where
  the antisymmetric period-2 orbit x = theta(b x - a) first appears, as a
  tangency of theta(b x - a) with y = x, marginally stable, |b theta'| = 1.
  A grid bisection from b = 1 and Newton's method on the tangency's linear
  state z = b x - a solve it to rounding.  Where B has no minimum (the
  sine sigmoid at a > 1/2, the identity at a > 0, any a < 0) it raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import ConvergenceTrace, InputSequence, _advance, _as_state
from .dynamics import _PERIODS, generate_input
from .reservoir import Reservoir, _write_csv
from .transfer import _FORMULAS, TransferFunction

__all__ = [
    "LyapunovResult",
    "SweepPoint",
    "DecayFit",
    "lyapunov_exponent",
    "lyapunov_sweep",
    "fit_decay",
    "find_critical_b",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class LyapunovResult:
    exponent: float
    T_used: int
    renorm_interval: int
    stderr: float


@dataclass(frozen=True)
class SweepPoint:
    b: float
    exponent: float  # the closed-form exponent, or NaN where the cell failed
    error: Optional[str] = None  # why the cell failed


def _as_orbit(reference_orbit) -> np.ndarray:
    orbit = np.atleast_2d(np.asarray(reference_orbit, dtype=float))
    if len(orbit) == 0:
        raise ValueError("reference orbit must have at least one state")
    if not np.all(np.isfinite(orbit)):
        raise ValueError("reference orbit must be finite")
    return orbit


def lyapunov_exponent(
    res: Reservoir,
    input_spec: InputSequence,
    T: int = 100_000,
    renorm_interval: int = 10,
    x0=None,
    reference_orbit=None,
) -> LyapunovResult:
    """Largest Lyapunov exponent (natural log per step) of the driven run.

    Free-running from x0: a tangent v = e_1 follows the state, v ->
    theta'(lin_t) W v, and is rescaled to norm 1 every renorm_interval
    steps (and after shorter spans wherever ||W||_F^renorm_interval could
    pass 1e300, so v cannot overflow); the exponent is the mean log-stretch
    per step.  A v that becomes exactly zero stays zero and gives -inf;
    divergence to non-finite state gives the +inf sentinel at the end of
    its block (T_used).  Both have stderr NaN.

    reference_orbit: optional (P, k) array of known periodic states, x_t =
    orbit[t mod P] (how one measures the exponent of an unstable orbit).
    The input spec must then have a period (Alternating, Constant).  Once
    _orbit_linear_states has checked the orbit over one joint period N =
    lcm(P, that period), the result is its exponent in closed form,
    (1/N) log rho(J_N ... J_1) with J_t = diag(theta'(lin_t)) W.  The
    product is rescaled after every factor and the logs of the scales are
    summed, so it neither overflows nor underflows: the result is finite
    unless the product is exactly zero (a zero slope, say), which gives
    -inf.  T_used is N and renorm_interval 1, the steps taken and the
    rescaling interval; stderr is 0.0.  The closed form needs no run
    length, so T and renorm_interval are checked as for a free run and
    then ignored; x0 contradicts the orbit, which fixes every state, so
    giving both raises ValueError.  So does a spec that has no period, a
    non-finite x0, reference_orbit or input, or an empty reference_orbit.
    """
    if renorm_interval < 1:
        raise ValueError("need renorm_interval >= 1")
    if T < 10 * renorm_interval:
        raise ValueError("need T >= 10 * renorm_interval")
    start = _as_state(res, x0, "x0")
    if reference_orbit is None:
        return _benettin(res, generate_input(input_spec, T + 1, res.n), start, T, renorm_interval)
    lin = _orbit_linear_states(res, input_spec, reference_orbit)
    if x0 is not None:
        raise ValueError("x0 does nothing with a reference orbit")
    N, scale = len(lin), float(np.max(np.abs(res.W)))
    if scale == 0.0:  # W = 0
        return LyapunovResult(-math.inf, N, 1, 0.0)
    W, product, log_size = res.W / scale, np.eye(res.k), N * math.log(scale)
    for slopes in res.tf.derivative(lin):  # |theta'| <= 1, so no entry of the product passes k
        product = (slopes[:, None] * W) @ product
        size = float(np.max(np.abs(product)))
        if size == 0.0:
            return LyapunovResult(-math.inf, N, 1, 0.0)
        product /= size
        log_size += math.log(size)
    rho = float(np.max(np.abs(np.linalg.eigvals(product))))
    exponent = (log_size + math.log(rho)) / N if rho > 0.0 else -math.inf
    return LyapunovResult(exponent, N, 1, 0.0)


def _orbit_linear_states(res: Reservoir, input_spec: InputSequence, reference_orbit) -> np.ndarray:
    """The (N, k) linear states lin_t = W x_{t-1} + w_in u_t, t = 1..N, of a checked orbit.

    x_t = orbit[t mod P] for an orbit of P states, and N = lcm(P, the
    period of input_spec's samples, dynamics._PERIODS), so only N + 1
    input samples are made.  Raises ValueError for a spec with no period,
    and unless every lin_t is finite and, in every coordinate,

        |theta(lin_t) - x_t| <= (k + n) eps ((1 + |theta'(lin_t)|) S_t + |x_t|)

    with S_t = |W| |x_{t-1}| + |w_in| |u_t| the size of the terms summed
    into lin_t.  (k + n) eps S_t bounds the rounding of those sums, here
    and in whatever computed the orbit; theta' carries it to theta, and
    the bare S_t and |x_t| cover the rounding of theta and of x_t.
    """
    orbit = _as_orbit(reference_orbit)
    if orbit.shape[1] != res.k:
        raise ValueError(f"reference orbit states must have {res.k} columns")
    period = _PERIODS.get(type(input_spec))
    if period is None:
        raise ValueError(f"a reference orbit needs a periodic input, not {type(input_spec).__name__}")
    N = math.lcm(len(orbit), period)
    u = generate_input(input_spec, N + 1, res.n)
    x = orbit[np.arange(N + 1) % len(orbit)]
    with np.errstate(over="ignore", invalid="ignore"):  # a state off the finite range fails the check
        lin = x[:-1] @ res.W.T + u[1:] @ res.w_in.T
        size = np.abs(x[:-1]) @ np.abs(res.W.T) + np.abs(u[1:]) @ np.abs(res.w_in.T)
        on_orbit = np.all(np.isfinite(lin)) and np.all(np.isfinite(size))
        if on_orbit:
            slack = (res.k + res.n) * np.finfo(float).eps * ((1.0 + np.abs(res.tf.derivative(lin))) * size + np.abs(x[1:]))
            on_orbit = np.all(np.abs(res.tf(lin) - x[1:]) <= slack)
    if not on_orbit:
        raise ValueError("reference orbit is not an orbit of the driven map")
    return lin


def _benettin(res, u, start, T, L) -> LyapunovResult:
    xv = np.column_stack([start, np.eye(res.k)[0]])  # the state and its unit tangent
    with np.errstate(over="ignore"):  # spans of m steps, ||W||_F^m < e^690 ~ 1e300, cannot overflow v
        size_W = float(np.linalg.norm(res.W))
    m = L if size_W <= 1.0 else max(1, int(690.0 / math.log(size_W)))
    T_used = T // L * L
    per_step = []  # each block's log-stretch per step: the exponent is their mean, with its standard error
    for t in range(L, T_used + 1, L):  # t: last step of the block
        stretch = 0.0
        for s in range(t - L, t, m):  # spans of at most m steps, rescaling v after each
            try:
                xv = _advance(res, u[s + 1 : min(s + m, t) + 1], xv)
            except ValueError:  # the run diverged
                return LyapunovResult(math.inf, t, L, math.nan)
            size = math.hypot(*xv[:, 1].tolist())
            if size > 0.0:
                xv[:, 1] /= size
                stretch += math.log(size)
            else:  # v stays zero from here on
                stretch = -math.inf
        per_step.append(stretch / L)
    if per_step[-1] == -math.inf:
        return LyapunovResult(-math.inf, T_used, L, math.nan)
    return LyapunovResult(float(np.mean(per_step)), T_used, L, float(np.std(per_step) / math.sqrt(len(per_step))))


def lyapunov_sweep(
    reservoir_factory: Callable[[float], Reservoir],
    input_spec: InputSequence,
    grid: Sequence[float],
    reference_orbit,
) -> list[SweepPoint]:
    """The closed-form exponent of reference_orbit at every grid point.

    Each cell is lyapunov_exponent(reservoir_factory(b), input_spec,
    reference_orbit=reference_orbit): the same known periodic states, pinned
    as in lyapunov_exponent.  An empty grid or a bad reference_orbit raises
    before any cell runs; a failed cell is flagged on its SweepPoint
    instead.  Results come in grid order.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    reference_orbit = _as_orbit(reference_orbit)

    def cell(b: float) -> SweepPoint:
        try:
            result = lyapunov_exponent(reservoir_factory(b), input_spec, reference_orbit=reference_orbit)
            return SweepPoint(b=b, exponent=result.exponent)
        except Exception as exc:  # noqa: BLE001 - cell failures are data
            return SweepPoint(b=b, exponent=math.nan, error=str(exc))

    return [cell(b) for b in grid]


def write_sweep_csv(path, points: Sequence[SweepPoint]) -> None:
    _write_csv(path, "b,lyapunov", [(pt.b, pt.exponent) for pt in points])


# -- decay-law classification -------------------------------------------------

@dataclass(frozen=True)
class DecayFit:
    law: str  # "exponential" | "power_law" | "none"
    exponent_exp: float  # b in q_t ~ exp(b t)
    exponent_pow: float  # a in q_t ~ t^a
    r2_semilog: float
    r2_loglog: float
    fit_window: tuple
    n_samples: int = 0


def _linfit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares slope and r^2 of y against x; r^2 = 0 for constant y."""
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 0.0 if ss_tot <= 1e-30 else max(0.0, 1.0 - ss_res / ss_tot)
    return float(coef[0]), r2


# Decision margin between the two r^2 values; avoids coin flips on short
# traces where both fits look equally straight.
R2_MARGIN = 0.02
POW_EXPONENT_FLOOR = -0.05


def fit_decay(trace: ConvergenceTrace, t_start: int = 10) -> DecayFit:
    """Classify a convergence trace as exponential, power-law, or neither.

    Fits log q against t and against log t over the strictly positive
    samples from t_start on; a trace is exactly zero from its floor_hit_at
    on, so that excludes everything at or after the zero floor.  Needs at
    least 20 usable samples; otherwise returns law "none" with zero r^2.
    """
    q = np.asarray(trace.q, dtype=float)
    t = np.arange(q.size)
    lo, hi = max(t_start, 1), q.size - 1
    mask = (t >= lo) & (q > 0)
    ts = t[mask].astype(float)
    qs = q[mask]
    if ts.size < 20:
        return DecayFit("none", math.nan, math.nan, 0.0, 0.0, (lo, hi), int(ts.size))
    log_q = np.log(qs)
    slope_t, r2_semi = _linfit(ts, log_q)
    slope_logt, r2_log = _linfit(np.log(ts), log_q)
    law = "none"
    if r2_log >= r2_semi + R2_MARGIN and slope_logt < POW_EXPONENT_FLOOR:
        law = "power_law"
    elif r2_semi >= r2_log + R2_MARGIN and slope_t < 0:
        law = "exponential"
    return DecayFit(law, slope_t, slope_logt, r2_semi, r2_log, (lo, hi), int(ts.size))


# -- critical coupling of the alternating-drive neuron ------------------------

_ORBIT_X_HI = 4.0  # the orbit search covers x in [0, _ORBIT_X_HI]
_ORBIT_GRID = np.linspace(0.0, _ORBIT_X_HI, 2001)
# (s, c) with theta(z) <= s z + c on z >= 0, for each kind: see find_critical_b
_AFFINE_BOUNDS = {"tanh": (0.0, 1.0), "sine_sigmoid": (0.5, 0.25), "linear": (1.0, 0.0)}


def _orbit_residual(tf: TransferFunction, b: float, amplitude: float) -> tuple[float, float]:
    """max over the x of _ORBIT_GRID of theta(b x - amplitude) - x, with its argmax."""
    h = tf(b * _ORBIT_GRID - amplitude) - _ORBIT_GRID
    i = int(np.argmax(h))
    return float(h[i]), float(_ORBIT_GRID[i])


def find_critical_b(tf: TransferFunction, input_amplitude: float) -> tuple[float, float]:
    """Critical coupling b* and orbit amplitude |x*| of x -> theta(b x - a), to rounding.

    The antisymmetric period-2 orbit x = theta(z) > 0, z = b x - a, exists
    exactly where b >= B(z) = (z + a) / theta(z), so b* = min B: there
    theta(b x - a) first touches y = x, and B' = 0 reads theta(z) =
    theta'(z) (z + a), that is |b* theta'(z)| = 1.  Each kind has
    theta(z) <= s z + c on z >= 0, (s, c) = _AFFINE_BOUNDS[kind].  Where
    a s > c, B > 1 / s for every z > 0 and tends to 1 / s; for a < 0, B
    tends to -inf as z -> 0+.  Either way B has no minimum (the sine
    sigmoid at a > 1/2, the identity at a > 0), and ValueError is raised.

    For a >= 0, theta(x - a) <= x on x >= 0, so the grid residual r(b) =
    max_x [theta(b x - a) - x] over 2001 points of x in [0, 4] has
    r(1) <= 0; and every tangency has b = 1 / theta'(z) >= 1.  So lo = 1,
    and hi doubles from 2, lo following, until r(hi) > 0 (ValueError naming
    the amplitude once 4 hi + a is not finite).  Bisection on the sign of
    r, r <= 0 counting as subcritical, narrows [lo, hi] to width 1e-6, with
    x the argmax at hi.  The grid holds every tangency: tanh orbits lie
    below x = 1, and for a <= 1/2 the sine sigmoid's minimum of B lies in
    its first trough, at x* = 1.37 to 1.43.

    Newton's method then solves the tangency in its linear state z = b x - a:
    G(z) = theta(z) - theta'(z) (z + a) = 0, and G'(z) = -theta''(z) (z + a).
    It starts from z = hi x - a at that argmax, or for tanh, whose root
    solves a = sinh(2 z) / 2 - z >= 2 z^3 / 3, from (3 a / 2)^(1/3) if less
    (near the pitchfork rounding in G leaves Newton nowhere to go), and stops
    once a step no longer shrinks or G' vanishes, within 100 steps.  Then
    |x*| = theta(z) and b* = B(z), which is 1 / theta'(z) at the root, but
    stationary there (B' = G / theta^2) and free of the rounding of
    1 - tanh^2 at large a; theta(z) <= 0 raises ValueError.

    With amplitude 0 and theta'(0) = 1 the tangency is the pitchfork at the
    origin, where G' vanishes with the root: the result is exactly (1.0, 0.0).
    """
    a = float(input_amplitude)
    s, c = _AFFINE_BOUNDS[tf.kind]
    if a < 0.0 or a * s > c:
        raise ValueError(f"{tf.kind} has no critical coupling at amplitude {a}")
    if a == 0.0 and tf.derivative(0.0) == 1.0:
        return 1.0, 0.0
    lo, hi = 1.0, 2.0
    while True:  # double hi until r(hi) > 0, keeping r(lo) <= 0
        if not math.isfinite(_ORBIT_X_HI * hi + a):
            raise ValueError(f"amplitude {a} is too large: b x - a overflows before the orbit search passes b*")
        r, x = _orbit_residual(tf, hi, a)
        if r > 0.0:
            break
        lo, hi = hi, 2.0 * hi
    for _ in range(200):  # halve to width 1e-6, keeping r(lo) <= 0 < r(hi) and x the argmax at hi
        if hi - lo <= 1e-6:
            break
        mid = 0.5 * (lo + hi)
        r, x_mid = _orbit_residual(tf, mid, a)
        if r > 0.0:
            hi, x = mid, x_mid
        else:
            lo = mid
    curvature, z, step = _FORMULAS[tf.kind][3], hi * x - a, math.inf
    if tf.kind == "tanh":  # a = sinh(2 z) / 2 - z >= 2 z^3 / 3 at the root
        z = min(z, math.cbrt(1.5 * a))
    for _ in range(100):
        slope_z = -float(curvature(z)) * (z + a)
        if slope_z == 0.0:
            break
        new_step = (tf(z) - tf.derivative(z) * (z + a)) / slope_z
        if not abs(new_step) < abs(step):
            break
        z, step = z - new_step, new_step
    x = float(tf(z))
    if not x > 0.0:
        raise ValueError(f"Newton's method left the orbit branch x > 0, at z={z:.6g}")
    return (z + a) / x, x
