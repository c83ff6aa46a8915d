"""Weak-contraction machinery: cover functions, covering sequences, bounds.

The object of interest is the piecewise cover

    phi(z) = 1 - eta * z^kappa     for z <  gamma
             1 - eta * gamma^kappa for z >= gamma

which upper-bounds the squared per-step contraction factor of a
boundary-spectrum network.  For tanh and the sine sigmoid the parameters
eta = 1/48, gamma = 1/2, kappa = 2 work for a single neuron, and a
k-neuron network is covered by the same function with its argument
rescaled by 1/k^2 (:func:`phi_k`).  The literal k-neuron parameter set
eta = 1/(48 k^2) is available via :meth:`CoverParams.for_network`; both
are valid covers and the audits here use the rescaled-argument form.

Everything in this module is a pure function; grid verifications report
their worst margin instead of proving anything symbolically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .transfer import TransferFunction

__all__ = [
    "CoverParams",
    "VerificationReport",
    "phi",
    "phi_k",
    "omega",
    "omega_max_zeta",
    "verify_cover_inequality",
    "verify_cover_inequality_vec",
    "check_phi_properties",
    "iterate_q",
    "q_star",
    "verify_dominance",
    "tau_bound",
    "audit_step_inequality",
]

PASS_SLACK = 1e-12


@dataclass(frozen=True)
class CoverParams:
    """Parameters (eta, gamma, kappa) of the cover function.

    The default instance is the single-neuron certificate; for a k-neuron
    network :meth:`for_network` gives eta = 1/(48 k^2).
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

    @classmethod
    def for_network(cls, n_neurons: int) -> "CoverParams":
        if n_neurons < 1:
            raise ValueError("need n_neurons >= 1")
        return cls(eta=1.0 / (48.0 * n_neurons * n_neurons))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a grid/sweep verification; passed <=> worst_margin >= -1e-12."""

    passed: bool
    worst_margin: float
    worst_point: tuple
    grid_spec: str
    n_checked: int = 0  # points evaluated


def _report(margins: np.ndarray, points: np.ndarray, grid_spec: str) -> VerificationReport:
    """Report on margins[i] >= 0, evaluated at points[i] (a scalar or a row)."""
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return VerificationReport(
        passed=bool(worst >= -PASS_SLACK),
        worst_margin=worst,
        worst_point=tuple(np.atleast_1d(points[i]).tolist()),
        grid_spec=grid_spec,
        n_checked=int(margins.size),
    )


def phi(z, p: CoverParams = CoverParams()):
    """Cover value at z >= 0 (scalar or array)."""
    scalar = np.ndim(z) == 0
    z = np.asarray(z, dtype=float)
    if np.any(z < 0):
        raise ValueError("phi argument must be nonnegative")
    clamp = 1.0 - p.eta * p.gamma**p.kappa
    out = np.where(z < p.gamma, 1.0 - p.eta * z**p.kappa, clamp)
    return float(out) if scalar else out


def phi_k(z, n_neurons: int, base: CoverParams = CoverParams()):
    """k-neuron cover phi_k(z) = phi(z / k^2) with the one-neuron parameters."""
    if n_neurons < 1:
        raise ValueError("need n_neurons >= 1")
    return phi(np.asarray(z, dtype=float) / (n_neurons * n_neurons), base)


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


def _golden_max(fun, lo: float, hi: float, xtol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns (x, fun(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while (b - a) > xtol:
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


def omega_max_zeta(
    tf: TransferFunction,
    delta: float,
    zeta_lo: float = -4.0,
    zeta_hi: float = 4.0,
    n_grid: int = 1601,
) -> tuple[float, float]:
    """(max over zeta of omega, argmax), by coarse grid plus golden refinement.

    The worst base point of a perturbation of size delta: the paper's
    quantity behind the cover inequality.  The certificates scan the whole
    zeta grid instead; this refined maximum shows where the worst case
    sits: [zeta, zeta + delta] centred on a unit-slope point.
    """
    if delta <= 0:
        raise ValueError("need delta > 0")
    zs = np.linspace(zeta_lo, zeta_hi, n_grid)
    vals = omega(tf, delta, zs)
    i = int(np.argmax(vals))
    a = zs[max(i - 1, 0)]
    b = zs[min(i + 1, n_grid - 1)]
    z_star, v_star = _golden_max(lambda z: omega(tf, delta, z), a, b)
    if vals[i] > v_star:
        z_star, v_star = float(zs[i]), float(vals[i])
    return v_star, z_star


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi (to the nearest step)."""
    if not (step > 0 and hi >= lo):
        raise ValueError(f"grid needs step > 0 and hi >= lo, got ({lo}, {hi}, {step})")
    n = int(round((hi - lo) / step))
    return lo + step * np.arange(n + 1)


def verify_cover_inequality(
    tf: TransferFunction,
    p: CoverParams = CoverParams(),
    delta_grid: tuple = (0.0, 4.0, 1e-2),
    zeta_grid: tuple = (-4.0, 4.0, 1e-2),
) -> VerificationReport:
    """Check phi(delta^2) >= omega(delta, zeta) on the full (delta, zeta) grid.

    Passes for tanh and the sine sigmoid with the default parameters; the
    linear transfer fails everywhere (omega is identically 1).  For the
    tailored kind this is an empirical check only.
    """
    deltas = _grid(*delta_grid)
    deltas = deltas[deltas > 0]
    zetas = _grid(*zeta_grid)
    theta_z = tf(zetas)
    margins = np.empty(deltas.size)
    worst_zeta = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        ratio = (tf(d + zetas) - theta_z) / d
        w = ratio * ratio
        j = int(np.argmax(w))
        margins[i] = phi(d * d, p) - w[j]
        worst_zeta[i] = zetas[j]
    points = np.column_stack([deltas, worst_zeta])
    spec = f"delta in ({delta_grid[0]},{delta_grid[1]}] step {delta_grid[2]}, zeta in [{zeta_grid[0]},{zeta_grid[1]}] step {zeta_grid[2]}"
    return replace(_report(margins, points, spec), n_checked=deltas.size * zetas.size)


def verify_cover_inequality_vec(
    tf: TransferFunction,
    n_neurons: int,
    n_samples: int = 20000,
    seed: int = 0,
    delta_scale: float = 2.0,
    zeta_scale: float = 4.0,
) -> VerificationReport:
    """Sampled vector form of the cover inequality for an n-neuron state.

    Draws perturbation vectors Delta and base points zeta, and checks

        sum_i (theta(zeta_i + Delta_i) - theta(zeta_i))^2
            <= (sum_i Delta_i^2) * phi_k(sum_i Delta_i^2, n).
    """
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(-delta_scale, delta_scale, size=(n_samples, n_neurons))
    zetas = rng.uniform(-zeta_scale, zeta_scale, size=(n_samples, n_neurons))
    after = tf(zetas + deltas) - tf(zetas)
    lhs = np.sum(after * after, axis=1)
    x = np.sum(deltas * deltas, axis=1)
    rhs = x * phi_k(x, n_neurons)
    return _report(rhs - lhs, x, f"{n_samples} seeded vector samples, n={n_neurons}")


def check_phi_properties(
    p: CoverParams = CoverParams(), z_hi: float = 4.0, n_grid: int = 4001
) -> VerificationReport:
    """Grid check of the three cover-function facts the contraction argument uses.

    phi <= 1; phi is non-increasing; z * phi(z) is non-decreasing.
    """
    zs = np.linspace(0.0, z_hi, n_grid)
    ph = phi(zs, p)
    m1 = 1.0 - ph
    m2 = -np.diff(ph)
    m3 = np.diff(zs * ph)
    margins = np.concatenate([m1, m2, m3])
    points = np.concatenate([zs, zs[1:], zs[1:]])
    return _report(margins, points, f"z in [0,{z_hi}], {n_grid} points")


# -- the scalar covering sequence -------------------------------------------

def iterate_q(q0: float, p: CoverParams = CoverParams(), T: int = 1000) -> np.ndarray:
    """The T+1 values q_0..q_T of q_{t+1} = q_t (1 - eta q_t^kappa).

    Positive and strictly decreasing for q0 in (0, 1]; q0 = 0 is the
    trivial fixed point.  Combinations with eta * q0^kappa >= 1 would leave
    the regime where the recursion contracts and are rejected.
    """
    if not (0.0 <= q0 <= 1.0):
        raise ValueError("need q0 in [0, 1]")
    if p.eta * q0**p.kappa >= 1.0:
        raise ValueError("need eta * q0^kappa < 1")
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


def q_star(t, q0: float, p: CoverParams = CoverParams()):
    """Closed-form covering value [ (eta/kappa) t + q0^(-kappa) ]^(-1/kappa)."""
    if q0 <= 0:
        raise ValueError("need q0 > 0")
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("need t >= 0")
    val = ((p.eta / p.kappa) * t + q0 ** (-p.kappa)) ** (-1.0 / p.kappa)
    val = np.where(t == 0.0, q0, val)
    return float(val) if scalar else val


def verify_dominance(q0: float, p: CoverParams = CoverParams(), T: int = 100000) -> VerificationReport:
    """Check q_star(t) >= q_t for all t <= T; reports the minimum gap."""
    qs = iterate_q(q0, p, T)
    ts = np.arange(T + 1)
    cover = q_star(ts, q0, p)
    return _report(cover - qs, ts, f"t in [0,{T}], q0={q0}")


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


def audit_step_inequality(res, input_spec, x0, y0, T: int) -> VerificationReport:
    """Per-step audit q_{t+1}^2 <= q_t^2 phi_k(q_t^2) on a simulated twin run.

    Uses phi_k with the reservoir's own neuron count.  This is the
    contraction certificate that makes a boundary-spectrum network forget:
    every simulated step of a unit-singular-value reservoir with a covered
    transfer function must respect it (up to 1e-12 float slack).
    """
    from .dynamics import convergence_trace

    trace = convergence_trace(res, input_spec, x0, y0, T)
    q2 = trace.q**2
    bound = q2 * phi_k(q2, res.k)
    margins = bound[:-1] - q2[1:]
    spec = f"T={T}, k={res.k}, tf={res.tf.kind}, input={input_spec!r}"
    return _report(margins, np.arange(margins.size), spec)
