"""Admissible transfer functions, their derivatives, and their unit-slope points.

All transfer functions here are monotonically increasing with derivative in
[0, 1], i.e. Lipschitz with constant 1.  The isolated points where the
derivative equals exactly 1 (inflection points of the curve) are the
"epi-critical points" (ECPs); they are where a network operating at the
spectral boundary can hold information without exponential decay.

Four kinds are provided:

* ``tanh``          - the standard sigmoid; single ECP at 0.
* ``sine_sigmoid``  - ``0.5*x - 0.25*sin(2*x)``; ECPs at ``(n + 1/2)*pi``,
                      all lying on the line ``y = x/2``.
* ``tailored``      - piecewise shifted-tanh segments anchored at a given
                      list of ECPs, falling back to plain tanh away from
                      the anchors.  Continuity across piece switches is
                      *not* guaranteed; see :func:`continuity_defect`.
* ``linear``        - the identity.  Slope is 1 everywhere, so there are
                      no isolated ECPs; included as the canonical
                      counterexample that never contracts.

Each fixed kind's formulas live in one row of the table ``_FORMULAS``:
theta on arrays and theta' on arrays.  The tanh and the sine sigmoid also
have a plain-float stepping loop (``_FLOAT_STEPS``), which
``dynamics._advance`` runs where it can serve the call.
``__call__`` and ``derivative`` check their input is finite and read
their column; ``__call__(x, out=)`` is that check followed by
``_theta(arr, out=None)``, the unchecked evaluation, which writes
theta(x), bit for bit, into ``out`` and returns it.  The finite check
counts the entries that ``np.isfinite`` passes against the size: exact,
free of BLAS, and it warns about nothing whatever the entries.  A
tailored piece is tanh shifted to its anchor, so its derivative is the
tanh row's at the shifted point, and its unit-slope points come in closed form: every anchor, plus
0 when no anchor lies within ``_ANCHOR_RADIUS`` of it (the plain-tanh
piece then owns 0).

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TransferFunction",
    "TANH",
    "SINE_SIGMOID",
    "LINEAR",
    "tailored",
    "continuity_defect",
]


def _tanh_steps(x, w, drive, out):
    # math.tanh(inf) is 1.0, so the linear state is checked as the array body checks it
    tanh, isfinite = math.tanh, math.isfinite
    for i, d in enumerate(drive):
        z = w * x + d
        if not isfinite(z):
            raise ValueError("transfer function input must be finite")
        x = out[i] = tanh(z)
    return x


def _sine_sigmoid_steps(x, w, drive, out):
    sin = math.sin
    for i, d in enumerate(drive):
        z = w * x + d
        x = out[i] = 0.5 * z - 0.25 * sin(2.0 * z)
    return x


# Each fixed kind's formulas: (theta on arrays, theta' on arrays).  theta on
# arrays takes out= like a ufunc.
_FORMULAS = {
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2),
    "sine_sigmoid": (
        lambda x, out=None: np.subtract(0.5 * x, 0.25 * np.sin(2.0 * x), out=out),
        lambda x: 0.5 - 0.5 * np.cos(2.0 * x),
    ),
    "linear": (np.positive, np.ones_like),
}
# The plain-float stepping loops, by kind: steps(x, w, drive, out) sets
# x_t = theta(w x_{t-1} + d_t) for each float d_t in drive, stores x_t in
# out[t] and returns the last x_t.  A non-finite linear state raises
# ValueError, as in the checked array call: the tanh loop checks it and
# math.sin raises on it.
_FLOAT_STEPS = {"tanh": _tanh_steps, "sine_sigmoid": _sine_sigmoid_steps}
_KINDS = (*_FORMULAS, "tailored")

# Tailored pieces: an anchor owns the points within this distance of it.
_ANCHOR_RADIUS = 1.0
_DEFECT_POINTS = 20001  # continuity_defect's grid size


def _check_finite(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("transfer function input must be finite")
    return arr


@dataclass(frozen=True)
class TransferFunction:
    """Immutable descriptor of a scalar transfer function theta(.).

    ``params`` is only used by the ``tailored`` kind, where it holds the
    ordered anchor points of the shifted-tanh pieces.
    """

    kind: str
    params: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown transfer kind {self.kind!r}")
        anchors = tuple(sorted(float(p) for p in self.params))
        if self.kind == "tailored":
            if not anchors:
                raise ValueError("tailored transfer needs at least one anchor")
            if len(set(anchors)) != len(anchors):
                raise ValueError("tailored anchors must be distinct")
            if not all(map(math.isfinite, anchors)):
                raise ValueError("tailored anchors must be finite")
        elif anchors:
            raise ValueError(f"kind {self.kind!r} takes no params")
        object.__setattr__(self, "params", anchors)

    def _piece(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tailored kind's owned mask and each point's pivot (its nearest anchor).

        An anchor owns the points within _ANCHOR_RADIUS of it; ties go to the
        smaller anchor (searchsorted-left makes the left candidate win ties).
        """
        anchors = np.asarray(self.params)
        idx = np.searchsorted(anchors, x)
        left = anchors[np.clip(idx - 1, 0, len(anchors) - 1)]
        right = anchors[np.clip(idx, 0, len(anchors) - 1)]
        d_left, d_right = np.abs(x - left), np.abs(x - right)
        owned = np.minimum(d_left, d_right) <= _ANCHOR_RADIUS
        return owned, np.where(d_left <= d_right, left, right)

    # -- evaluation --------------------------------------------------------
    def __call__(self, x, out=None):
        """Evaluate theta(x); scalar in, scalar out (arrays pass through).

        With out, theta(x) is written into out, which is returned.
        """
        arr = _check_finite(x)
        scalar = out is None and arr.ndim == 0
        out = self._theta(arr, out)
        return float(out) if scalar else out

    def _theta(self, arr: np.ndarray, out=None) -> np.ndarray:
        """theta of a float array, unchecked, written into out when given.

        Non-finite entries give whatever the formula gives; callers that
        let them through run under ``np.errstate`` and judge the result.
        """
        if self.kind != "tailored":
            return _FORMULAS[self.kind][0](arr, out=out)
        owned, pivot = self._piece(arr)
        theta = np.where(owned, np.tanh(arr - pivot) + np.tanh(pivot), np.tanh(arr))
        if out is None:
            return theta
        out[...] = theta
        return out

    def derivative(self, x):
        """Analytic derivative theta'(x)."""
        arr = _check_finite(x)
        scalar = arr.ndim == 0
        if self.kind == "tailored":
            owned, pivot = self._piece(arr)
            out = _FORMULAS["tanh"][1](np.where(owned, arr - pivot, arr))
        else:
            out = _FORMULAS[self.kind][1](arr)
        return float(out) if scalar else out

    # -- epi-critical points ------------------------------------------------
    def epi_critical_points(self, lo: float, hi: float) -> list[float]:
        """All points in [lo, hi] where theta' equals 1, sorted ascending.

        Raises for the linear kind: its slope is 1 everywhere, so there is
        no isolated set to report.
        """
        if not (lo < hi):
            raise ValueError("need lo < hi")
        if self.kind == "linear":
            raise ValueError("linear transfer has slope 1 everywhere; no isolated unit-slope points")
        if self.kind == "tanh":
            return [0.0] if lo <= 0.0 <= hi else []
        if self.kind == "sine_sigmoid":
            # theta'(x) = 0.5 - 0.5*cos(2x) = 1  <=>  x = (n + 1/2)*pi
            n_lo = math.ceil(lo / math.pi - 0.5)
            n_hi = math.floor(hi / math.pi - 0.5)
            return [(n + 0.5) * math.pi for n in range(n_lo, n_hi + 1)]
        # Each anchor owns itself and its piece has slope exactly 1 there;
        # 0 is the plain-tanh unit-slope point unless an anchor owns it.
        points = list(self.params)
        if min(map(abs, self.params)) > _ANCHOR_RADIUS:
            points.append(0.0)
        return sorted(p for p in points if lo <= p <= hi)

    def max_slope_estimate(self, lo: float, hi: float, n_grid: int) -> float:
        """Max secant slope |dtheta/dx| over a uniform grid (Lipschitz audit)."""
        if not (lo < hi):
            raise ValueError("need lo < hi")
        if n_grid < 2:
            raise ValueError("need n_grid >= 2")
        xs = np.linspace(lo, hi, n_grid)
        ys = self(xs)
        return float(np.max(np.abs(np.diff(ys) / np.diff(xs))))


TANH = TransferFunction("tanh")
SINE_SIGMOID = TransferFunction("sine_sigmoid")
LINEAR = TransferFunction("linear")


def tailored(anchors) -> TransferFunction:
    """Shifted-tanh transfer with unit-slope anchors at the given points."""
    return TransferFunction("tailored", tuple(anchors))


def continuity_defect(tf: TransferFunction, lo: float, hi: float) -> float:
    """Worst jump evidence on a 20001-point grid of [lo, hi]: max of |delta theta| - |delta x|.

    All kinds here are 1-Lipschitz within a piece, so any positive excess
    of a secant over the grid spacing flags a discontinuity at a piece
    boundary of a tailored transfer.  Near 0 for continuous functions.
    """
    xs = np.linspace(lo, hi, _DEFECT_POINTS)
    ys = tf(xs)
    excess = np.abs(np.diff(ys)) - np.abs(np.diff(xs))
    return float(np.max(excess))
