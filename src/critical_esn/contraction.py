"""Weak-contraction machinery: cover functions, covering sequences, bounds.

The object of interest is the piecewise cover

    phi(z) = 1 - eta * z^kappa     for z <  gamma
             1 - eta * gamma^kappa for z >= gamma

which upper-bounds the squared per-step contraction factor of a
boundary-spectrum network.  For tanh and the sine sigmoid the parameters
eta = 1/48, gamma = 1/2, kappa = 2 work for a single neuron, and a
k-neuron network is covered by the same function with its argument
rescaled by 1/k^2 (:func:`phi_k`).

Everything in this module is a pure function.  Each check takes the cover
parameters ``p`` and reports its worst margin with a ``status``: the
dominance of the covering sequence by its closed form is proved
(Bernoulli's inequality, see :func:`verify_dominance`), and its report
only tabulates the bound; every other check is "sampled", evaluated on a
grid or on seeded samples whose ranges are the fixed module constants
below, and says nothing between its points.
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
_VEC_DELTA_SCALE, _VEC_ZETA_SCALE = 2.0, 4.0  # sampled |Delta_i|, |zeta_i| bounds of the vector check
_PHI_Z_HI, _PHI_POINTS = 4.0, 4001  # check_phi_properties' grid of z in [0, hi]


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


def _report(margins: np.ndarray, points: np.ndarray, grid_spec: str) -> VerificationReport:
    """Report on margins[i] >= 0, evaluated at points[i] (a scalar or a row)."""
    if margins.size == 0:
        raise ValueError(f"no points to check: {grid_spec}")
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


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ... up to hi (to the nearest step)."""
    if not (step > 0 and hi >= lo):
        raise ValueError(f"grid needs step > 0 and hi >= lo, got ({lo}, {hi}, {step})")
    n = (hi - lo) / step
    if not math.isfinite(n):
        raise ValueError(f"grid ({lo}, {hi}, {step}) has too many points to count")
    return lo + step * np.arange(int(round(n)) + 1)


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
    worst = np.empty(deltas.size)
    worst_zeta = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        ratio = (tf(d + zetas) - theta_z) / d
        w = ratio * ratio
        j = int(np.argmax(w))
        worst[i] = w[j]
        worst_zeta[i] = zetas[j]
    margins = phi(deltas * deltas, p) - worst
    points = np.column_stack([deltas, worst_zeta])
    spec = f"delta in ({delta_grid[0]},{delta_grid[1]}] step {delta_grid[2]}, zeta in [{zeta_grid[0]},{zeta_grid[1]}] step {zeta_grid[2]}"
    return replace(_report(margins, points, spec), n_checked=deltas.size * zetas.size)


def verify_cover_inequality_vec(
    tf: TransferFunction,
    n_neurons: int,
    n_samples: int = 20000,
    seed: int = 0,
    p: CoverParams = CoverParams(),
) -> VerificationReport:
    """Sampled vector form of the cover inequality for an n-neuron state.

    Draws perturbation vectors Delta in [-2, 2]^n and base points zeta in
    [-4, 4]^n, and checks

        sum_i (theta(zeta_i + Delta_i) - theta(zeta_i))^2
            <= (sum_i Delta_i^2) * phi_k(sum_i Delta_i^2, n)

    with phi_k built on the one-neuron parameters p.
    """
    rng = np.random.default_rng(seed)
    deltas = rng.uniform(-_VEC_DELTA_SCALE, _VEC_DELTA_SCALE, size=(n_samples, n_neurons))
    zetas = rng.uniform(-_VEC_ZETA_SCALE, _VEC_ZETA_SCALE, size=(n_samples, n_neurons))
    after = tf(zetas + deltas) - tf(zetas)
    lhs = np.sum(after * after, axis=1)
    x = np.sum(deltas * deltas, axis=1)
    rhs = x * phi_k(x, n_neurons, p)
    return _report(rhs - lhs, x, f"{n_samples} seeded vector samples, n={n_neurons}")


def check_phi_properties(p: CoverParams = CoverParams()) -> VerificationReport:
    """Grid check of the three cover-function facts the contraction argument uses.

    phi <= 1; phi is non-increasing; z * phi(z) is non-decreasing; on
    4001 points of z in [0, 4].
    """
    zs = np.linspace(0.0, _PHI_Z_HI, _PHI_POINTS)
    ph = phi(zs, p)
    m1 = 1.0 - ph
    m2 = -np.diff(ph)
    m3 = np.diff(zs * ph)
    margins = np.concatenate([m1, m2, m3])
    points = np.concatenate([zs, zs[1:], zs[1:]])
    return _report(margins, points, f"z in [0,{_PHI_Z_HI}], {_PHI_POINTS} points")


# -- the scalar covering sequence -------------------------------------------

def _check_sequence(q0: float, T: int) -> None:
    if not (0.0 <= q0 <= 1.0):
        raise ValueError("need q0 in [0, 1]")
    if T < 1:
        raise ValueError("need T >= 1")


def iterate_q(q0: float, p: CoverParams = CoverParams(), T: int = 1000) -> np.ndarray:
    """The T+1 values q_0..q_T of q_{t+1} = q_t (1 - eta q_t^kappa).

    Positive and strictly decreasing for q0 in (0, 1]; q0 = 0 is the
    trivial fixed point.  No certificate iterates it; it is the plain
    statement of the recursion that the dominance tests compare the closed
    forms against.
    """
    _check_sequence(q0, T)
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
    """Prove q_t <= q_star(t) for every t; tabulate the gap for t <= T.

    With x = eta q_t^kappa in [0, 1), Bernoulli's inequality
    (1 - x)^(-kappa) >= 1 + kappa x gives q_{t+1}^(-kappa) >= q_t^(-kappa)
    + kappa eta, so q_t <= B(t) = (kappa eta t + q0^(-kappa))^(-1/kappa),
    and B(t) <= q_star(t) because kappa eta >= eta / kappa for kappa >= 1
    (CoverParams rejects kappa < 1).  x stays below 1 because q_t never
    exceeds q0 and eta q0^kappa < 1 for every accepted input: CoverParams
    forces 0 < eta < 1 and q0 must lie in [0, 1].  The report's margins are
    q_star(t) - B(t) at t = 0..T, with B(0) = q0 exactly.
    """
    _check_sequence(q0, T)
    ts = np.arange(T + 1)
    cover = q_star(ts, q0, p)
    bound = (p.kappa * p.eta * ts + q0 ** (-p.kappa)) ** (-1.0 / p.kappa)
    bound[0] = q0
    return replace(_report(cover - bound, ts, f"t in [0,{T}], q0={q0}"), status="proved")


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
