"""Quantitative analysis of reservoir dynamics.

Three tool families live here:

* Largest Lyapunov exponent of an input-driven run.  A free-running run
  takes the standard two-trajectory method with periodic renormalization
  (Benettin et al., Meccanica 15 (1980) 9-20): the reference and its
  companion step as the two columns of one (k, 2) block, one GEMM per
  step, at every k.  A run pinned to a known periodic orbit (the unstable
  side of the coupling sweep, which a free-running reference leaves
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
  alternating drive: the parameter b* where the antisymmetric period-2
  orbit x = theta(b x - a) becomes marginally stable, |b theta'| = 1.
  Both conditions meet at a tangency of h_b(x) = theta(b x - a) - x, so
  b* is found by bisection on the sign of max_x h_b(x) over x in [0, 4];
  the inner maximum's first-order condition enforces marginal stability
  for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import ZERO_FLOOR, ConvergenceTrace, InputSequence, _as_state, _check_inputs, _norms, _stepper
from .dynamics import _PERIODS, generate_input
from .reservoir import Reservoir
from .transfer import TransferFunction

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
    exponent: float
    result: Optional[LyapunovResult]
    error: Optional[str] = None


def _as_orbit(reference_orbit) -> np.ndarray:
    orbit = np.atleast_2d(np.asarray(reference_orbit, dtype=float))
    if len(orbit) == 0:
        raise ValueError("reference orbit must have at least one state")
    if not np.all(np.isfinite(orbit)):
        raise ValueError("reference orbit must be finite")
    return orbit


def _check_run_length(T: int, renorm_interval: int, eps0: float) -> None:
    if renorm_interval < 1:
        raise ValueError("need renorm_interval >= 1")
    if T < 10 * renorm_interval:
        raise ValueError("need T >= 10 * renorm_interval")
    if not (0.0 < eps0 <= 1e-6):
        raise ValueError("need eps0 in (0, 1e-6]")


def lyapunov_exponent(
    res: Reservoir,
    input_spec: InputSequence,
    T: int = 100_000,
    renorm_interval: int = 10,
    eps0: float = 1e-9,
    x0=None,
    reference_orbit=None,
) -> LyapunovResult:
    """Largest Lyapunov exponent (natural log per step) of the driven run.

    Free-running from x0: a companion started eps0 away is renormalized
    back to separation eps0 every renorm_interval steps; the exponent is
    the mean log-stretch per step.  If the twins collide bitwise the
    separation is floored at 1e-300 for that block and re-injected, which
    drives the estimate strongly negative; divergence to non-finite state
    reports the +inf sentinel.  The reference and the companion step as one
    (k, 2) block, so the run carries GEMM rounding.

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
    length, so T, renorm_interval and eps0, which every call has, are
    checked as for a free run and then ignored; x0 contradicts the orbit,
    which fixes every state, so giving both raises ValueError.  So does a
    spec that has no period, a non-finite x0, reference_orbit or input, or
    an empty reference_orbit.
    """
    _check_run_length(T, renorm_interval, eps0)
    start = _as_state(res, x0, "x0")
    if reference_orbit is None:
        return _benettin(res, generate_input(input_spec, T + 1, res.n), start, T, renorm_interval, eps0)
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
    _check_inputs(u)
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


def _benettin(res, u, start, T, L, eps0) -> LyapunovResult:
    advance = _stepper(res, u, floats=False)
    x, e0 = start, np.eye(res.k)[0]
    y = x + eps0 * e0
    T_used = T // L * L
    dists = []
    for t in range(L, T_used + 1, L):  # t: last step of the block
        try:  # x and y step as the columns of one (k, 2) block
            x, y = advance(np.column_stack([x, y]), t - L + 1, t + 1).T
            d = float(_norms(y, x)[0])
        except ValueError:  # the run diverged
            d = math.inf
        if not math.isfinite(d):
            return LyapunovResult(math.inf, t, L, math.nan)
        dists.append(d)
        if d <= ZERO_FLOOR:
            y = x + eps0 * e0
        else:
            y = x + (y - x) * (eps0 / d)
    return _summary(_log_stretches(dists, eps0), T_used, L)


def _log_stretches(dists, eps0: float) -> np.ndarray:
    """Each block's log-stretch math.log(max(d, ZERO_FLOOR) / eps0).

    Where that quotient overflows (d above about 1.8e299 at eps0 = 1e-9) it
    is log(d) - log(eps0) instead, so every finite quotient keeps its bits.
    """
    d = np.maximum(dists, ZERO_FLOOR)
    with np.errstate(over="ignore"):
        ratio = d / eps0
    stretches = np.fromiter(map(math.log, ratio.tolist()), dtype=float, count=ratio.size)
    for i in np.flatnonzero(np.isinf(ratio)).tolist():
        stretches[i] = math.log(d[i]) - math.log(eps0)
    return stretches


def _summary(stretches: np.ndarray, T_used: int, L: int) -> LyapunovResult:
    """Mean log-stretch per step over the blocks, with its standard error."""
    per_step = stretches / L
    exponent = float(np.mean(per_step))
    stderr = float(np.std(per_step) / math.sqrt(len(per_step)))
    return LyapunovResult(exponent, T_used, L, stderr)


def lyapunov_sweep(
    reservoir_factory: Callable[[float], Reservoir],
    input_spec: InputSequence,
    grid: Sequence[float],
    T: int = 100_000,
    renorm_interval: int = 10,
    eps0: float = 1e-9,
    reference_orbit=None,
) -> list[SweepPoint]:
    """lyapunov_exponent per grid point, same input realization everywhere.

    reference_orbit, as in lyapunov_exponent, gives every cell the closed-form
    exponent of the same known periodic states.  A bad T, renorm_interval, eps0 or
    reference_orbit raises before any cell runs; a failed cell is flagged
    on its SweepPoint instead.  Results come in grid order.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must be non-empty")
    _check_run_length(T, renorm_interval, eps0)
    if reference_orbit is not None:
        reference_orbit = _as_orbit(reference_orbit)

    def cell(b: float) -> SweepPoint:
        try:
            result = lyapunov_exponent(
                reservoir_factory(b),
                input_spec,
                T=T,
                renorm_interval=renorm_interval,
                eps0=eps0,
                reference_orbit=reference_orbit,
            )
            return SweepPoint(b=b, exponent=result.exponent, result=result)
        except Exception as exc:  # noqa: BLE001 - cell failures are data
            return SweepPoint(b=b, exponent=math.nan, result=None, error=str(exc))

    return [cell(b) for b in grid]


def write_sweep_csv(path, points: Sequence[SweepPoint]) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("b,lyapunov\n")
        for pt in points:
            fh.write(f"{pt.b:.17g},{pt.exponent:.17g}\n")


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


def fit_decay(trace: ConvergenceTrace, t_start: int = 10, t_end: Optional[int] = None) -> DecayFit:
    """Classify a convergence trace as exponential, power-law, or neither.

    Fits log q against t and against log t over the strictly positive
    samples in [t_start, t_end], excluding everything at or after the zero
    floor.  Needs at least 20 usable samples; otherwise returns law "none"
    with zero r^2.
    """
    q = np.asarray(trace.q, dtype=float)
    t = np.arange(q.size)
    hi = q.size - 1 if t_end is None else min(t_end, q.size - 1)
    lo = max(t_start, 1)
    mask = (t >= lo) & (t <= hi) & (q > 0)
    if trace.floor_hit_at is not None:
        mask &= t < trace.floor_hit_at
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


def _golden_max(fun, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi] to width 1e-12; returns (x, fun(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > 1e-12:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    x = 0.5 * (a + b)
    return x, fun(x)


def _orbit_residual(tf: TransferFunction, b: float, amplitude: float) -> tuple[float, float]:
    """max over x in [0, _ORBIT_X_HI] of theta(b x - amplitude) - x, with its argmax.

    The interior maximum satisfies b theta'(b x - a) = 1 exactly, so when
    that derivative changes sign across the best grid cell the argmax is
    located by bisecting it (machine precision); golden section is the
    fallback.  A boundary maximum at x = 0 (the degenerate zero-amplitude
    case) is returned as-is.
    """
    xs = _ORBIT_GRID
    h = tf(b * xs - amplitude) - xs
    i = int(np.argmax(h[1:])) + 1  # best interior grid point
    lo = float(xs[i - 1])
    hi = float(xs[min(i + 1, xs.size - 1)])

    def slope(x: float) -> float:
        return b * tf.derivative(b * x - amplitude) - 1.0

    interior = slope(lo) > 0.0 >= slope(hi)
    if interior:
        while hi - lo > 1e-15:
            mid = 0.5 * (lo + hi)
            if slope(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
        h_star = float(tf(b * x_star - amplitude) - x_star)
    else:
        x_star, h_star = _golden_max(lambda x: tf(b * x - amplitude) - x, lo, hi)
    # x = 0 is a trivial fixed point whenever theta(-amplitude) = 0, so the
    # residual must still see the boundary; the reported orbit prefers the
    # interior stationary point when one exists (the near-tangency orbit).
    r = max(float(h_star), float(h[0]))
    if interior or h_star > h[0]:
        return r, float(x_star)
    return r, float(xs[0])


def find_critical_b(
    tf: TransferFunction,
    input_amplitude: float,
    bracket: tuple[float, float],
    tol: float = 1e-6,
) -> tuple[float, float]:
    """Critical coupling b* and orbit amplitude |x*| of x -> theta(b x - a).

    Solves simultaneously for the antisymmetric period-2 orbit
    x = theta(b x - a) and its marginal stability |b theta'(b x - a)| = 1:
    the two conditions meet where theta(b x - a) first touches the line y=x,
    so the residual r(b) = max_x [theta(b x - a) - x] changes sign at b*.
    Bisection on b; r <= 0 counts as subcritical.  The orbit search is
    restricted to x in [0, 4], adequate for bounded sigmoid-like transfer
    functions; an orbit located in the last grid cell before x = 4 is the
    search bound, not a tangency, and raises ValueError.

    With amplitude 0 the tangency degenerates to the origin: b* = 1 and
    the orbit amplitude is 0.
    """
    if tol <= 0:
        raise ValueError("need tol > 0")
    a = float(input_amplitude)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi):
        raise ValueError("need bracket lo < hi")
    r_lo, _ = _orbit_residual(tf, lo, a)
    r_hi, _ = _orbit_residual(tf, hi, a)
    if not (r_lo <= 0.0 < r_hi):
        raise ValueError(
            f"bracket does not straddle the critical coupling: r({lo})={r_lo:.3g}, r({hi})={r_hi:.3g}"
        )
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        r_mid, _ = _orbit_residual(tf, mid, a)
        if r_mid > 0.0:
            hi = mid
        else:
            lo = mid
    b_star = 0.5 * (lo + hi)
    _, x_star = _orbit_residual(tf, lo, a)
    if x_star >= _ORBIT_GRID[-2]:
        raise ValueError(f"orbit at x={x_star:.6g} is the edge of the search range [0, {_ORBIT_X_HI:g}]")
    return b_star, abs(x_star)
