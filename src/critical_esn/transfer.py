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

_KINDS = ("tanh", "sine_sigmoid", "tailored", "linear")

# Tailored pieces: an anchor owns the points within this distance of it.
_ANCHOR_RADIUS = 1.0


def _check_finite(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
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
        elif anchors:
            raise ValueError(f"kind {self.kind!r} takes no params")
        object.__setattr__(self, "params", anchors)

    # -- piece assignment for the tailored kind ---------------------------
    def _nearest_anchor(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index of the owning anchor per point, and a mask of owned points.

        Ownership: nearest anchor within _ANCHOR_RADIUS; ties go to the
        smaller anchor (searchsorted-left makes the left candidate win ties).
        """
        anchors = np.asarray(self.params)
        idx = np.searchsorted(anchors, x)
        left = np.clip(idx - 1, 0, len(anchors) - 1)
        right = np.clip(idx, 0, len(anchors) - 1)
        d_left = np.abs(x - anchors[left])
        d_right = np.abs(x - anchors[right])
        best = np.where(d_left <= d_right, left, right)
        owned = np.minimum(d_left, d_right) <= _ANCHOR_RADIUS
        return best, owned

    # -- evaluation --------------------------------------------------------
    def __call__(self, x):
        """Evaluate theta(x); scalar in, scalar out (arrays pass through)."""
        scalar = np.ndim(x) == 0
        arr = _check_finite(x)
        if self.kind == "tanh":
            out = np.tanh(arr)
        elif self.kind == "sine_sigmoid":
            out = 0.5 * arr - 0.25 * np.sin(2.0 * arr)
        elif self.kind == "linear":
            out = arr.copy()
        else:
            anchors = np.asarray(self.params)
            best, owned = self._nearest_anchor(arr)
            pivot = anchors[best]
            out = np.where(owned, np.tanh(arr - pivot) + np.tanh(pivot), np.tanh(arr))
        return float(out) if scalar else out

    def derivative(self, x):
        """Analytic derivative theta'(x)."""
        scalar = np.ndim(x) == 0
        arr = _check_finite(x)
        if self.kind == "tanh":
            out = 1.0 - np.tanh(arr) ** 2
        elif self.kind == "sine_sigmoid":
            out = 0.5 - 0.5 * np.cos(2.0 * arr)
        elif self.kind == "linear":
            out = np.ones_like(arr)
        else:
            best, owned = self._nearest_anchor(arr)
            pivot = np.asarray(self.params)[best]
            shifted = np.where(owned, arr - pivot, arr)
            out = 1.0 - np.tanh(shifted) ** 2
        return float(out) if scalar else out

    # -- scalar fast paths (math module, no ndarray overhead) --------------
    def scalar_fn(self):
        """A plain-float theta for tight simulation loops.

        The tailored kind evaluates through ``__call__``, so the anchor
        ownership rule lives in ``_nearest_anchor`` alone.
        """
        if self.kind == "tanh":
            return math.tanh
        if self.kind == "sine_sigmoid":
            return lambda x: 0.5 * x - 0.25 * math.sin(2.0 * x)
        if self.kind == "linear":
            return lambda x: x
        return lambda x: float(self(x))

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
        return self._tailored_ecps(lo, hi)

    def _tailored_ecps(self, lo: float, hi: float) -> list[float]:
        # Anchors are unit-slope points of their own piece by construction;
        # Newton on theta'(x) - 1 polishes them (terminates immediately when
        # already exact).  0 is a candidate when the plain-tanh piece owns it.
        df = self.derivative
        f2 = lambda x, h=1e-6: (df(x + h) - df(x - h)) / (2 * h)
        seeds = list(self.params)
        nearest = min(self.params, key=lambda a: (abs(a), a))
        if abs(nearest) > _ANCHOR_RADIUS:
            seeds.append(0.0)
        found = []
        for seed in seeds:
            x = seed
            for _ in range(50):
                g = df(x) - 1.0
                if abs(g) <= 1e-12:
                    break
                slope = f2(x)
                if slope == 0.0:
                    break
                x -= g / slope
            if abs(df(x) - 1.0) <= 1e-12 and lo <= x <= hi:
                found.append(x)
        return sorted(found)

    def max_slope_estimate(self, lo: float, hi: float, n_grid: int) -> float:
        """Max secant slope |dtheta/dx| over a uniform grid (Lipschitz audit)."""
        if not (lo < hi):
            raise ValueError("need lo < hi")
        if n_grid < 2:
            raise ValueError("need n_grid >= 2")
        xs = np.linspace(lo, hi, n_grid)
        ys = self(xs)
        return float(np.max(np.abs(np.diff(ys) / np.diff(xs))))

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @staticmethod
    def from_dict(d: dict) -> "TransferFunction":
        return TransferFunction(d["kind"], tuple(d.get("params", ())))


TANH = TransferFunction("tanh")
SINE_SIGMOID = TransferFunction("sine_sigmoid")
LINEAR = TransferFunction("linear")


def tailored(anchors) -> TransferFunction:
    """Shifted-tanh transfer with unit-slope anchors at the given points."""
    return TransferFunction("tailored", tuple(anchors))


def continuity_defect(tf: TransferFunction, lo: float, hi: float, n_grid: int = 20001) -> float:
    """Worst jump evidence on a grid: max of |delta theta| - |delta x|.

    All kinds here are 1-Lipschitz within a piece, so any positive excess
    of a secant over the grid spacing flags a discontinuity at a piece
    boundary of a tailored transfer.  Near 0 for continuous functions.
    """
    xs = np.linspace(lo, hi, n_grid)
    ys = tf(xs)
    excess = np.abs(np.diff(ys)) - np.abs(np.diff(xs))
    return float(np.max(excess))
