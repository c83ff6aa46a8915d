"""Quantitative analysis of reservoir dynamics.

Three tool families live here:

* Largest Lyapunov exponent of an input-driven run, by the standard
  two-trajectory method with periodic renormalization (Benettin et al.,
  Meccanica 15 (1980) 9-20).  A free-running reference and its companion
  step as the two columns of one (k, 2) block, one GEMM per step, at every
  k.  For measuring the exponent of a *known but unstable* periodic orbit
  (the supercritical side of the coupling sweep), the reference trajectory
  can be pinned to the orbit; a free-running reference would drift off the
  orbit through rounding noise within ~37/ln(b) steps and settle on a
  coexisting stable orbit, reporting that orbit's (negative) exponent
  instead.  A pinned one-neuron run (k = 1, any n) has no Python loop
  over steps: its blocks depend on each other only through the sign of
  the companion's restart, so both candidate companions of a block step
  as one row of an (m, 2) array.  A block's candidates are fixed by its
  start reference, its L input rows and its end reference; when these
  repeat with a period p from block 1 on, as on figure 3's period-2 orbit
  under alternating drive, only blocks 0..p step (m = p + 1), otherwise
  every block does (m = T/L).  The chain of restart signs is a prefix scan
  over maps of {+1, -1}, taken in closed form; the chosen candidates
  repeat with period 2p from block 1 + p on, so it is walked over the
  first 1 + 3p blocks and tiled.  Each distinct chosen distance is logged
  once.  So a periodic run costs one compare of the inputs against
  themselves p blocks later, L array steps on p + 1 rows and an O(T/L)
  gather of the per-block stretches for their mean; otherwise the run
  costs L array steps on T/L rows plus O(T/L) vectorised bookkeeping.
  The per-block loop costs one checked array step per time step.  Against
  that loop, on a 2-core x86-64 host, stepping every block at once was
  faster at every run length measured (T/L from 10, the shortest allowed,
  to 1000; L in {1, 10, 100}; i.i.d. and alternating drive) but one:
  L = 1, T/L = 10 under alternating drive, 0.29 vs 0.25 ms.

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
from .dynamics import generate_input
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


def _prepare(res: Reservoir, x0, reference_orbit):
    orbit = None
    if reference_orbit is not None:
        orbit = _as_orbit(reference_orbit)
        if orbit.shape[1] != res.k:
            raise ValueError(f"reference orbit states must have {res.k} columns")
    start = orbit[0].copy() if x0 is None and orbit is not None else _as_state(res, x0, "x0")
    return start, orbit


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

    A companion started eps0 away is renormalized back to separation eps0
    every renorm_interval steps; the exponent is the mean log-stretch per
    step.  If the twins collide bitwise the separation is floored at
    1e-300 for that block and re-injected, which drives the estimate
    strongly negative; divergence to non-finite state reports the +inf
    sentinel.  A free-running run steps the reference and the companion as
    one (k, 2) block, so it carries GEMM rounding.

    reference_orbit: optional (P, k) array of known periodic states; the
    reference then follows orbit[t mod P] exactly instead of free-running
    (how one measures the exponent of an unstable orbit).  At k = 1 a
    pinned run steps each distinct block once (see the module docstring) and
    restarts the companion at x +/- eps0 rather than at
    x + (y - x) eps0/|y - x|.  The two differ by at most one ulp of eps0,
    which rounds away whenever |x| >> eps0, so on figure 3's orbit
    (|x| = pi/4) the result is bit-identical to the per-block loop's.  A
    non-finite x0, reference_orbit or input, or an empty reference_orbit,
    raises ValueError.
    """
    _check_run_length(T, renorm_interval, eps0)
    start, orbit = _prepare(res, x0, reference_orbit)
    u = generate_input(input_spec, T + 1, res.n)
    return _benettin(res, u, start, orbit, T, renorm_interval, eps0)


def _benettin(res, u, start, orbit, T, L, eps0) -> LyapunovResult:
    if orbit is not None and res.k == 1:
        return _benettin_pinned_neuron(res, u, start, orbit, T, L, eps0)
    advance = _stepper(res, u, floats=False)
    x, e0 = start, np.eye(res.k)[0]
    y = x + eps0 * e0
    T_used = T // L * L
    dists = []
    for t in range(L, T_used + 1, L):  # t: last step of the block
        try:
            if orbit is None:  # x and y step as the columns of one (k, 2) block
                x, y = advance(np.column_stack([x, y]), t - L + 1, t + 1).T
            else:
                x = orbit[t % len(orbit)]
                y = advance(y, t - L + 1, t + 1)
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


def _benettin_pinned_neuron(res, u, start, orbit, T, L, eps0) -> LyapunovResult:
    """_benettin for k = 1 with a pinned reference: each distinct block steps once.

    The reference at each block boundary is orbit[t mod P], and a block's
    companion starts at x + s eps0: s = +1 at the start and after a floor
    hit, otherwise the sign of y - x at the end of the previous block.  So
    a block's two candidate outcomes depend only on its key (see
    _key_period), and with key period p only blocks 0..p step, as the rows
    of a (p + 1, 2) array: column 0 is s = +1, column 1 s = -1.
    _chosen_cells picks the candidate each block ran, and each distinct
    chosen distance is logged once.  A candidate whose linear state left
    the finite range at any step counts as non-finite; the transfer runs
    unchecked because a candidate not chosen may diverge.
    """
    _check_inputs(u)
    blocks = T // L
    T_used = blocks * L
    ref = orbit[np.arange(0, T_used + 1, L) % len(orbit), 0]  # the reference at every block boundary
    ref[0] = start[0]  # block 0 starts from x0 when one is given
    p = _key_period(u[1 : T_used + 1].reshape(blocks, -1), ref)
    drive = np.matmul(res.w_in, u[1 : (p + 1) * L + 1, :, None]).reshape(p + 1, L)
    Y = ref[: p + 1, None] + np.array([eps0, -eps0])
    w, finite = float(res.W[0, 0]), np.ones(Y.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is reported below
        for i in range(L):
            Y *= w
            Y += drive[:, i, None]
            finite &= np.isfinite(Y)
            res.tf._theta(Y, out=Y)
        diff = Y - ref[1 : p + 2, None]
    D = np.abs(diff)
    # each candidate's successor column: 0 (s = +1) after a floor hit or
    # y > x, 1 (s = -1) after y < x, 2 when it left the finite range
    succ = ((diff < 0.0) & (D > ZERO_FLOOR)).astype(np.uint8)
    succ[~(finite & np.isfinite(D))] = 2
    cell = _chosen_cells(succ, blocks)
    diverged = np.flatnonzero(succ.ravel()[cell] == 2)
    if diverged.size:
        return LyapunovResult(math.inf, (int(diverged[0]) + 1) * L, L, math.nan)
    ran = np.zeros(2 * p + 2, dtype=bool)
    ran[cell] = True
    stretches = np.zeros(2 * p + 2)
    stretches[ran] = _log_stretches(D.ravel()[ran], eps0)
    return _summary(stretches[cell], T_used, L)


def _key_period(inputs: np.ndarray, ref: np.ndarray) -> int:
    """The period p of the block keys from block 1 on, or blocks - 1 if they have none.

    Block j's key is its inputs[j] (the L input rows that drive it), its
    start reference ref[j] and its end reference ref[j + 1], compared by
    their bits so that +0.0 and -0.0 never merge.  Equal inputs give equal
    drives, so blocks with equal keys have equal candidates.  Block 0 is
    never compared, as it may start from x0.  p + 1 is the first block
    j >= 2 whose key is block 1's, searched in windows that grow fourfold,
    and the period holds when the inputs and references from block 1 + p
    on equal those p blocks earlier.
    """
    blocks = len(inputs)
    U, r = inputs.view(np.uint64), ref.view(np.uint64)
    lo = 2
    while lo < blocks:
        hi = min(blocks, 4 * lo)
        hits = (U[lo:hi] == U[1]).all(axis=1) & (r[lo:hi] == r[1]) & (r[lo + 1 : hi + 1] == r[2])
        if hits.any():
            p = lo + int(hits.argmax()) - 1
            if np.array_equal(U[1 + p :], U[1:-p]) and np.array_equal(r[1 + p :], r[1:-p]):
                return p
            break
        lo = hi
    return blocks - 1


def _chosen_cells(succ: np.ndarray, blocks: int) -> np.ndarray:
    """The candidate each block ran, as an index 2 row + column into succ.ravel().

    succ holds the successor columns of the p + 1 distinct rows: block 0
    is row 0 and block j >= 1 row 1 + (j - 1) mod p.  Each p-block stretch
    from block 1 on maps its start column alike, by a reset, a keep or a
    swap, so from block 1 + p on the cells repeat with period 2p.
    _sign_chain walks the first 1 + 3p blocks, which hold the first
    divergence if there is one, and the rest repeat their last 2p cells.
    """
    p = len(succ) - 1
    row = np.arange(-1, min(blocks, 1 + 3 * p) - 1) % p + 1
    row[0] = 0
    cell = 2 * row + _sign_chain(succ[row])
    tail = np.tile(cell[1 + p :], -(-(blocks - 1 - p) // (2 * p)))
    return np.concatenate([cell[: 1 + p], tail[: blocks - 1 - p]])


def _sign_chain(succ: np.ndarray) -> np.ndarray:
    """The column each block starts from, given every block's (blocks, 2) successor columns.

    Block 0 starts from column 0 and block j + 1 from succ[j, c_j].  Read
    with 2 (a non-finite candidate) as 0, each block's map of {0, 1}
    either resets the column (both successors equal), keeps it or swaps it,
    so c_{j+1} is the value of the last reset at or before j, XOR the
    parity of the swaps since.  Up to the first block whose chosen
    successor is 2 this is the sequential walk; the caller stops there.
    """
    f0, f1 = succ[:, 0] & 1, succ[:, 1] & 1
    parity = np.bitwise_xor.accumulate(f0 & ~f1)  # of the swaps in blocks 0..j
    last = np.maximum.accumulate(np.where(f0 == f1, np.arange(1, len(succ) + 1), 0))  # 1 + the last reset, 0 if none
    after = np.insert(f0 ^ parity, 0, 0)[last] ^ parity  # the column after block j
    return np.insert(after[:-1], 0, 0)


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
    """Two-trajectory exponent per grid point, same input realization everywhere.

    reference_orbit, as in lyapunov_exponent, pins every cell's reference
    to the same known periodic states.  A bad T, renorm_interval, eps0 or
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
