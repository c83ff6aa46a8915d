"""Weak-contraction machinery: cover functions, covering sequences, bounds.

The object of interest is the piecewise cover

    phi(z) = 1 - eta * z^kappa     for z <  gamma
             1 - eta * gamma^kappa for z >= gamma

which upper-bounds the squared per-step contraction factor of a
boundary-spectrum network.  For tanh and the sine sigmoid the parameters
eta = 1/48, gamma = 1/2, kappa = 2 work for a single neuron, and a
k-neuron network is covered by the same function with its argument
rescaled by 1/k^2 (:func:`phi_k`); one scalar check with the tangent
cover :func:`phi_tangent` implies that cover for every k at once.

Everything in this module is a pure function.  Each check takes the cover
parameters ``p`` and reports its worst margin with a ``status``.  Two are
proved: the dominance of the covering sequence by its closed form
(Bernoulli's inequality, see :func:`verify_dominance`), whose report only
tabulates the bound, and the cover function's shape facts, which reduce
to one inequality on (eta, gamma, kappa) (:func:`check_phi_properties`).
Every other check is "sampled", evaluated on a grid or a simulated run,
and says nothing between its points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .transfer import TransferFunction

__all__ = [
    "CoverParams",
    "VerificationReport",
    "phi",
    "phi_k",
    "phi_tangent",
    "omega",
    "verify_cover_inequality",
    "check_phi_properties",
    "q_star",
    "verify_dominance",
    "tau_bound",
    "audit_step_inequality",
]

PASS_SLACK = 1e-12
_COVER_CELLS = 1 << 14  # (delta, zeta) cells per omega evaluation in _worst_zeta


@dataclass(frozen=True)
class CoverParams:
    """Parameters (eta, gamma, kappa) of the cover function.

    The default instance is the single-neuron certificate; a k-neuron
    network uses it through :func:`phi_k`.
    """

    eta: float = 1.0 / 48.0
    gamma: float = 0.5
    kappa: float = 2.0

    def __post_init__(self):
        if not (0.0 < self.eta < 1.0):
            raise ValueError("need 0 < eta < 1")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError("need 0 < gamma < 1")
        if self.kappa < 1.0:
            raise ValueError("need kappa >= 1")


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a verification; passed <=> worst_margin >= -1e-12.

    status is "proved" when the inequality holds everywhere by an argument
    and the margins only tabulate it, "sampled" when it was checked only at
    the n_checked points.
    """

    passed: bool
    worst_margin: float
    worst_point: tuple
    grid_spec: str
    n_checked: int = 0  # points evaluated
    status: str = "sampled"


def _report(
    margins: np.ndarray, points: np.ndarray, grid_spec: str, n_checked: int | None = None, status: str = "sampled"
) -> VerificationReport:
    """Report on margins[i] >= 0, evaluated at points[i] (a scalar or a row); n_checked defaults to their count."""
    if margins.size == 0:
        raise ValueError(f"no points to check: {grid_spec}")
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return VerificationReport(
        passed=bool(worst >= -PASS_SLACK),
        worst_margin=worst,
        worst_point=tuple(np.atleast_1d(points[i]).tolist()),
        grid_spec=grid_spec,
        n_checked=int(margins.size if n_checked is None else n_checked),
        status=status,
    )


def phi(z, p: CoverParams = CoverParams()):
    """Cover value at z >= 0 (scalar or array)."""
    scalar = np.ndim(z) == 0
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("phi argument must be nonnegative")
    clamp = 1.0 - p.eta * p.gamma**p.kappa
    out = np.where(z < p.gamma, 1.0 - p.eta * np.minimum(z, p.gamma) ** p.kappa, clamp)  # no overflow past gamma
    return float(out) if scalar else out


def phi_k(z, n_neurons: int, base: CoverParams = CoverParams()):
    """k-neuron cover phi_k(z) = phi(z / k^2) with the one-neuron parameters."""
    if n_neurons < 1:
        raise ValueError("need n_neurons >= 1")
    return phi(np.asarray(z, dtype=float) / (n_neurons * n_neurons), base)


def phi_tangent(z, p: CoverParams = CoverParams()):
    """g(z) / z at z >= 0, where g is z phi(z) below gamma and its tangent line at gamma past it.

    Below gamma this is phi(z), bit for bit; past it, it is
    1 - (kappa+1) eta gamma^kappa + kappa eta gamma^(kappa+1) / z, which is
    phi(z) - kappa eta gamma^kappa (1 - gamma/z), computed so.  So
    g(z) <= z phi(z), and g is concave: g'' = -kappa (kappa+1) eta
    z^(kappa-1) <= 0 below gamma, g is linear past it, and g' is continuous.
    With z_i = Delta_i^2 and x = sum_i z_i for k neurons, the one scalar
    check omega(delta, zeta) <= phi_tangent(delta^2) and Jensen's inequality
    then give sum_i (theta(zeta_i + Delta_i) - theta(zeta_i))^2
    <= sum_i g(z_i) <= k g(x/k) <= x phi(x/k) <= x phi_k(x) for every k
    (phi is non-increasing).
    """
    below = phi(z, p)  # rejects z < 0
    z = np.asarray(z, dtype=float)
    clamp = 1.0 - p.eta * p.gamma**p.kappa  # phi past gamma, bit for bit
    out = np.where(z < p.gamma, below, clamp - p.kappa * p.eta * p.gamma**p.kappa * (1.0 - p.gamma / np.maximum(z, p.gamma)))
    return float(out) if np.ndim(z) == 0 else out


def omega(tf: TransferFunction, delta, zeta):
    """Squared secant ratio ((theta(delta+zeta) - theta(zeta)) / delta)^2.

    This is the quantity the cover must dominate: its max over zeta is the
    worst squared contraction of a unit perturbation of size delta.
    """
    scalar = np.ndim(delta) == 0 and np.ndim(zeta) == 0
    delta = np.asarray(delta, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if np.any(delta <= 0):
        raise ValueError("need delta > 0")
    ratio = (tf(delta + zeta) - tf(zeta)) / delta
    out = ratio * ratio
    return float(out) if scalar else out


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi (to the nearest step)."""
    if not (step > 0 and hi >= lo):
        raise ValueError(f"grid needs step > 0 and hi >= lo, got ({lo}, {hi}, {step})")
    try:
        return lo + step * np.arange(int(round((hi - lo) / step)) + 1)
    except (MemoryError, OverflowError, ValueError) as exc:  # too many to count, or for numpy to build
        raise ValueError(f"grid ({lo}, {hi}, {step}) has too many points to count") from exc


def _cover_grid(delta_grid: tuple, zeta_grid: tuple) -> tuple:
    """The delta > 0 and zeta points of a cover grid and its spec; ValueError past the transfers' finite domain."""
    deltas = _grid(*delta_grid)
    deltas = deltas[deltas > 0]
    zetas = _grid(*zeta_grid)
    spec = f"delta in ({delta_grid[0]},{delta_grid[1]}] step {delta_grid[2]}, zeta in [{zeta_grid[0]},{zeta_grid[1]}] step {zeta_grid[2]}"
    reach, limit = float(np.max(deltas, initial=0.0)) + float(np.max(np.abs(zetas))), np.finfo(float).max / 2
    if reach > limit:  # the sine sigmoid doubles its argument, so theta(delta + zeta) is NaN past limit
        raise ValueError(f"{spec}: |delta| + |zeta| reaches {reach:g}, past the transfers' finite domain {limit:g}")
    return deltas, zetas, spec


def _worst_zeta(tf: TransferFunction, delta_grid: tuple, zeta_grid: tuple) -> np.ndarray:
    """For each delta > 0 of the grid, the first grid zeta that maximises omega; no cover enters, so one scan serves every cover."""
    deltas, zetas, _ = _cover_grid(delta_grid, zeta_grid)
    worst_zeta = np.empty(deltas.size)
    block = max(1, _COVER_CELLS // zetas.size)  # delta rows per omega evaluation
    for i in range(0, deltas.size, block):
        rows = omega(tf, deltas[i : i + block, None], zetas)
        worst_zeta[i : i + block] = zetas[np.argmax(rows, axis=1)]
    return worst_zeta


def verify_cover_inequality(
    tf: TransferFunction,
    p: CoverParams = CoverParams(),
    delta_grid: tuple = (0.0, 4.0, 1e-2),
    zeta_grid: tuple = (-4.0, 4.0, 1e-2),
    *,
    cover=phi,
    worst_zeta: np.ndarray | None = None,
) -> VerificationReport:
    """Check cover(delta^2, p) >= omega(delta, zeta) on the full (delta, zeta) grid.

    cover is phi, the one-neuron cover, or phi_tangent, whose check
    implies the phi_k cover for every k.  Both pass for tanh and the sine
    sigmoid with the default parameters; the linear transfer fails
    everywhere (omega is identically 1).

    worst_zeta, when given, is _worst_zeta(tf, delta_grid, zeta_grid), one
    entry per delta > 0, scanned once by a caller that checks several
    covers on the same grid; without it the scan is made here.
    """
    deltas, zetas, spec = _cover_grid(delta_grid, zeta_grid)
    if worst_zeta is None:
        worst_zeta = _worst_zeta(tf, delta_grid, zeta_grid)
    elif np.shape(worst_zeta) != deltas.shape:
        raise ValueError(f"worst_zeta must have one entry per delta > 0, shape {deltas.shape}, got {np.shape(worst_zeta)}")
    with np.errstate(over="ignore"):  # both covers are finite at an overflowed square: phi clamps, gamma / inf is 0
        margins = cover(deltas * deltas, p) - omega(tf, deltas, worst_zeta)
    points = np.column_stack([deltas, worst_zeta])
    return _report(margins, points, spec, n_checked=deltas.size * zetas.size)


def check_phi_properties(p: CoverParams = CoverParams()) -> VerificationReport:
    """Prove the three cover-function facts the contraction argument uses.

    phi <= 1 and phi is non-increasing for every eta > 0: z^kappa does not
    decrease for kappa >= 1, and the clamp is phi's value at gamma.
    z phi(z) is continuous; past gamma it grows with slope
    1 - eta gamma^kappa > 0 (eta, gamma < 1), and below gamma its slope
    1 - eta (kappa + 1) z^kappa is least as z -> gamma.  So it is
    non-decreasing iff eta (kappa + 1) gamma^kappa <= 1, and the report's
    one margin is 1 - eta (kappa + 1) gamma^kappa, at z = gamma.
    """
    margin = 1.0 - p.eta * (p.kappa + 1.0) * p.gamma**p.kappa
    spec = "eta (kappa+1) gamma^kappa <= 1; phi <= 1 and non-increasing for eta > 0"
    return _report(np.array([margin]), np.array([p.gamma]), spec, status="proved")


# -- the scalar covering sequence -------------------------------------------

def q_star(t, q0: float, p: CoverParams = CoverParams()):
    """Closed-form covering value [ (eta/kappa) t + q0^(-kappa) ]^(-1/kappa)."""
    if q0 <= 0:
        raise ValueError("need q0 > 0")
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("need t >= 0")
    try:
        start = float(q0) ** (-p.kappa)
    except OverflowError:
        raise ValueError(f"q0^(-kappa) overflows a float at q0={q0!r}, kappa={p.kappa!r}") from None
    val = ((p.eta / p.kappa) * t + start) ** (-1.0 / p.kappa)
    val = np.where(t == 0.0, q0, val)
    return float(val) if scalar else val


def verify_dominance(q0: float, p: CoverParams = CoverParams(), T: int = 100000) -> VerificationReport:
    """Prove q_t <= q_star(t) for every t; tabulate the gap for t <= T.

    q_t is the covering recursion q_{t+1} = q_t (1 - eta q_t^kappa).  With x = eta q_t^kappa in [0, 1), Bernoulli's inequality
    (1 - x)^(-kappa) >= 1 + kappa x gives q_{t+1}^(-kappa) >= q_t^(-kappa)
    + kappa eta, so q_t <= B(t) = (kappa eta t + q0^(-kappa))^(-1/kappa),
    and B(t) <= q_star(t) because kappa eta >= eta / kappa for kappa >= 1
    (CoverParams rejects kappa < 1).  x stays below 1 because q_t never
    exceeds q0 and eta q0^kappa < 1 for every accepted input: CoverParams
    forces 0 < eta < 1 and q0 must lie in (0, 1].  The report's margins are
    q_star(t) - B(t) at t = 0..T, with B(0) = q0 exactly.
    """
    if not (0.0 < q0 <= 1.0):
        raise ValueError("need q0 in (0, 1]")
    if T < 1:
        raise ValueError("need T >= 1")
    ts = np.arange(T + 1)
    cover = q_star(ts, q0, p)
    bound = (p.kappa * p.eta * ts + q0 ** (-p.kappa)) ** (-1.0 / p.kappa)
    bound[0] = q0
    return _report(cover - bound, ts, f"t in [0,{T}], q0={q0}", status="proved")


def tau_bound(
    epsilon: float,
    d0: float,
    regime: str,
    p: CoverParams = CoverParams(),
    S: float | None = None,
) -> float:
    """Upper bound on the time for twin distance to contract below epsilon.

    regime:
      * "subcritical"   - largest singular value S < 1:
                          (log eps - log d0) / log S
      * "critical_far"  - boundary spectrum, squared distance above gamma:
                          (2 log eps - 2 log d0) / log(1 - eta gamma^kappa)
      * "critical_near" - boundary spectrum, squared distance below gamma:
                          (kappa/eta) (eps^(-2 kappa) - q0^(-kappa)),
                          with q0 = d0^2; clamped at 0 when eps >= d0.
    """
    if epsilon <= 0 or d0 <= 0:
        raise ValueError("need epsilon > 0 and d0 > 0")
    if regime == "subcritical":
        if S is None or not (0.0 < S < 1.0):
            raise ValueError("subcritical regime needs S in (0, 1)")
        if epsilon >= d0:
            raise ValueError("need epsilon < d0")
        return (math.log(epsilon) - math.log(d0)) / math.log(S)
    if regime == "critical_far":
        if epsilon >= d0:
            raise ValueError("need epsilon < d0")
        rate = math.log(1.0 - p.eta * p.gamma**p.kappa)
        return (2.0 * math.log(epsilon) - 2.0 * math.log(d0)) / rate
    if regime == "critical_near":
        if epsilon * epsilon >= p.gamma:
            raise ValueError("near regime needs epsilon^2 < gamma")
        q0 = d0 * d0
        raw = (p.kappa / p.eta) * (epsilon ** (-2.0 * p.kappa) - q0 ** (-p.kappa))
        return max(raw, 0.0)
    raise ValueError(f"unknown regime {regime!r}")


def audit_step_inequality(
    res, input_spec, x0, y0, T: int, p: CoverParams = CoverParams()
) -> VerificationReport:
    """Per-step audit q_{t+1}^2 <= q_t^2 phi_k(q_t^2) on a simulated twin run.

    Uses phi_k on the one-neuron parameters p with the reservoir's own
    neuron count.  This is the contraction certificate that makes a
    boundary-spectrum network forget: every simulated step of a
    unit-singular-value reservoir with a covered transfer function must
    respect it (up to 1e-12 float slack).
    """
    from .dynamics import convergence_trace

    trace = convergence_trace(res, input_spec, x0, y0, T)
    q2 = trace.q**2
    bound = q2 * phi_k(q2, res.k, p)
    margins = bound[:-1] - q2[1:]
    spec = f"T={T}, k={res.k}, tf={res.tf.kind}, input={input_spec!r}"
    return _report(margins, np.arange(margins.size), spec)
