"""Quantitative analysis of reservoir dynamics.

Three tool families live here:

* Largest Lyapunov exponent of an input-driven run, by the standard
  two-trajectory method with periodic renormalization (Benettin), plus a
  Jacobian-product variant for single neurons.  For measuring the exponent
  of a *known but unstable* periodic orbit (the supercritical side of the
  coupling sweep), the reference trajectory can be pinned to the orbit;
  a free-running reference would drift off the orbit through rounding
  noise within ~37/ln(b) steps and settle on a coexisting stable orbit,
  reporting that orbit's (negative) exponent instead.

* Decay-law classification of a convergence trace: straight-line fits of
  log q against t (exponential) and against log t (power law), decided by
  an r-squared margin.

* The critical coupling of the single-neuron map x -> theta(b x - a) with
  alternating drive: the parameter b* where the antisymmetric period-2
  orbit x = theta(b x - a) becomes marginally stable, |b theta'| = 1.
  Both conditions meet at a tangency of h_b(x) = theta(b x - a) - x, so
  b* is found by bisection on the sign of max_x h_b(x); the inner
  maximum's first-order condition enforces marginal stability for free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .contraction import _golden_max
from .dynamics import ConvergenceTrace, InputSequence, _as_state, _distance, _stepper, generate_input
from .reservoir import Reservoir
from .transfer import TransferFunction

__all__ = [
    "LyapunovResult",
    "SweepPoint",
    "DecayFit",
    "lyapunov_exponent",
    "lyapunov_sweep",
    "fit_decay",
    "decay_fit_to_dict",
    "find_critical_b",
    "write_sweep_csv",
]

_SEP_FLOOR = 1e-300


@dataclass(frozen=True)
class LyapunovResult:
    exponent: float
    T_used: int
    renorm_interval: int
    method: str
    stderr: float


@dataclass(frozen=True)
class SweepPoint:
    b: float
    exponent: float
    result: Optional[LyapunovResult]
    error: Optional[str] = None


def _prepare(res: Reservoir, x0, reference_orbit):
    orbit = None
    if reference_orbit is not None:
        orbit = np.atleast_2d(np.asarray(reference_orbit, dtype=float))
        if orbit.shape[1] != res.k:
            raise ValueError(f"reference orbit states must have {res.k} columns")
    start = orbit[0].copy() if x0 is None and orbit is not None else _as_state(res, x0)
    return start, orbit


def lyapunov_exponent(
    res: Reservoir,
    input_spec: InputSequence,
    T: int = 100_000,
    renorm_interval: int = 10,
    eps0: float = 1e-9,
    x0=None,
    method: str = "two_trajectory",
    reference_orbit=None,
) -> LyapunovResult:
    """Largest Lyapunov exponent (natural log per step) of the driven run.

    two_trajectory: a companion started eps0 away is renormalized back to
    separation eps0 every renorm_interval steps; the exponent is the mean
    log-stretch per step.  If the twins collide bitwise the separation is
    floored at 1e-300 for that block and re-injected, which drives the
    estimate strongly negative; divergence to non-finite state reports the
    +inf sentinel.

    jacobian_product (k = 1 only): mean of log|W theta'(x_lin_t)| along the
    reference trajectory; agrees with two_trajectory on smooth orbits and
    reports the same +inf sentinel on divergence.

    reference_orbit: optional (P, k) array of known periodic states; the
    reference then follows orbit[t mod P] exactly instead of free-running
    (how one measures the exponent of an unstable orbit).
    """
    if renorm_interval < 1:
        raise ValueError("need renorm_interval >= 1")
    if T < 10 * renorm_interval:
        raise ValueError("need T >= 10 * renorm_interval")
    if not (0.0 < eps0 <= 1e-6):
        raise ValueError("need eps0 in (0, 1e-6]")
    start, orbit = _prepare(res, x0, reference_orbit)
    u = generate_input(input_spec, T + 1, res.n)
    if method == "two_trajectory":
        return _benettin(res, u, start, orbit, T, renorm_interval, eps0)
    if method == "jacobian_product":
        if res.k != 1 or res.n != 1:
            raise ValueError("jacobian_product method is defined for k = n = 1")
        return _jacobian_product(res, u, start, orbit, T, renorm_interval)
    raise ValueError(f"unknown method {method!r}")


def _benettin(res, u, start, orbit, T, L, eps0) -> LyapunovResult:
    floats = res.k == res.n == 1
    advance = _stepper(res, u, floats)
    if floats:
        x, e0 = float(start[0]), 1.0
        orbit = None if orbit is None else orbit[:, 0].tolist()
    else:
        x, e0 = start, np.eye(res.k)[0]
    y = x + eps0 * e0
    T_used = T // L * L
    stretches = []
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for t in range(L, T_used + 1, L):  # t: last step of the block
            try:
                x = advance(x, t - L + 1, t + 1) if orbit is None else orbit[t % len(orbit)]
                y = advance(y, t - L + 1, t + 1)
                d = _distance(y - x)
            except ValueError:  # a non-finite state met the transfer function
                d = math.inf
            if not math.isfinite(d):
                return LyapunovResult(math.inf, t, L, "two_trajectory", math.nan)
            if d <= _SEP_FLOOR:
                stretches.append(math.log(_SEP_FLOOR / eps0))
                y = x + eps0 * e0
            else:
                stretches.append(math.log(d / eps0))
                y = x + (y - x) * (eps0 / d)
    per_step = np.asarray(stretches) / L
    exponent = float(np.mean(per_step))
    stderr = float(np.std(per_step) / math.sqrt(len(per_step)))
    return LyapunovResult(exponent, T_used, L, "two_trajectory", stderr)


def _jacobian_product(res, u, start, orbit, T, L) -> LyapunovResult:
    advance = _stepper(res, u, floats=True)
    w = float(res.W[0, 0])
    xs = np.empty(T + 1)  # x_0..x_T
    xs[0] = start[0]
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        try:
            if orbit is None:
                advance(float(start[0]), 1, T + 1, out=xs[1:])
            else:
                xs[1:] = orbit[np.arange(1, T + 1) % len(orbit), 0]
            x_lin = w * xs[:-1] + float(res.w_in[0, 0]) * u[1 : T + 1, 0]
            slopes = res.tf.derivative(x_lin)
        except ValueError:  # a non-finite state met the transfer function
            return LyapunovResult(math.inf, T, L, "jacobian_product", math.nan)
    logs = np.log(np.maximum(np.abs(w * slopes), _SEP_FLOOR))
    exponent = float(np.mean(logs))
    stderr = float(np.std(logs) / math.sqrt(T))
    return LyapunovResult(exponent, T, L, "jacobian_product", stderr)


def lyapunov_sweep(
    reservoir_factory: Callable[[float], Reservoir],
    input_spec: InputSequence,
    b_grid: Sequence[float],
    T: int = 100_000,
    renorm_interval: int = 10,
    eps0: float = 1e-9,
    orbit_factory: Optional[Callable[[float], np.ndarray]] = None,
    method: str = "two_trajectory",
) -> list[SweepPoint]:
    """One exponent per grid point, same input realization everywhere.

    Failed cells are flagged on their SweepPoint instead of aborting the
    sweep.  Results always come back in grid order.
    """
    b_grid = list(b_grid)
    if not b_grid:
        raise ValueError("b_grid must be non-empty")

    def cell(b: float) -> SweepPoint:
        try:
            res = reservoir_factory(b)
            orbit = orbit_factory(b) if orbit_factory is not None else None
            result = lyapunov_exponent(
                res,
                input_spec,
                T=T,
                renorm_interval=renorm_interval,
                eps0=eps0,
                method=method,
                reference_orbit=orbit,
            )
            return SweepPoint(b=b, exponent=result.exponent, result=result)
        except Exception as exc:  # noqa: BLE001 - cell failures are data
            return SweepPoint(b=b, exponent=math.nan, result=None, error=str(exc))

    return [cell(b) for b in b_grid]


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


def decay_fit_to_dict(fit: DecayFit) -> dict:
    def clean(v):
        return None if isinstance(v, float) and not math.isfinite(v) else v

    return {
        "law": fit.law,
        "exponent_exp": clean(fit.exponent_exp),
        "exponent_pow": clean(fit.exponent_pow),
        "r2_semilog": fit.r2_semilog,
        "r2_loglog": fit.r2_loglog,
        "fit_window": list(fit.fit_window),
        "n_samples": fit.n_samples,
    }


# -- critical coupling of the alternating-drive neuron ------------------------

def _orbit_residual(tf: TransferFunction, b: float, amplitude: float, x_hi: float) -> tuple[float, float]:
    """max over x in [0, x_hi] of theta(b x - amplitude) - x, with its argmax.

    The interior maximum satisfies b theta'(b x - a) = 1 exactly, so when
    that derivative changes sign across the best grid cell the argmax is
    located by bisecting it (machine precision); golden section is the
    fallback.  A boundary maximum at x = 0 (the degenerate zero-amplitude
    case) is returned as-is.
    """
    xs = np.linspace(0.0, x_hi, 2001)
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
    x_hi: float = 4.0,
) -> tuple[float, float]:
    """Critical coupling b* and orbit amplitude |x*| of x -> theta(b x - a).

    Solves simultaneously for the antisymmetric period-2 orbit
    x = theta(b x - a) and its marginal stability |b theta'(b x - a)| = 1:
    the two conditions meet where theta(b x - a) first touches the line y=x,
    so the residual r(b) = max_x [theta(b x - a) - x] changes sign at b*.
    Bisection on b; r <= 0 counts as subcritical.  The orbit search is
    restricted to x in [0, x_hi], adequate for bounded sigmoid-like
    transfer functions.

    With amplitude 0 the tangency degenerates to the origin: b* = 1 and
    the orbit amplitude is 0.
    """
    if tol <= 0:
        raise ValueError("need tol > 0")
    a = float(input_amplitude)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (lo < hi):
        raise ValueError("need bracket lo < hi")
    r_lo, _ = _orbit_residual(tf, lo, a, x_hi)
    r_hi, _ = _orbit_residual(tf, hi, a, x_hi)
    if not (r_lo <= 0.0 < r_hi):
        raise ValueError(
            f"bracket does not straddle the critical coupling: r({lo})={r_lo:.3g}, r({hi})={r_hi:.3g}"
        )
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        r_mid, _ = _orbit_residual(tf, mid, a, x_hi)
        if r_mid > 0.0:
            hi = mid
        else:
            lo = mid
    b_star = 0.5 * (lo + hi)
    _, x_star = _orbit_residual(tf, lo, a, x_hi)
    return b_star, abs(x_star)
