"""Admissible transfer functions, their derivatives, and their unit-slope points.

All transfer functions here are monotonically increasing with derivative in
[0, 1], i.e. Lipschitz with constant 1.  The isolated points where the
derivative equals exactly 1 (inflection points of the curve) are the
"epi-critical points" (ECPs); they are where a network operating at the
spectral boundary can hold information without exponential decay.

Three kinds are provided:

* ``tanh``          - the standard sigmoid; single ECP at 0.
* ``sine_sigmoid``  - ``0.5*x - 0.25*sin(2*x)``; ECPs at ``(n + 1/2)*pi``,
                      all lying on the line ``y = x/2``.
* ``linear``        - the identity.  Slope is 1 everywhere, so there are
                      no isolated ECPs; included as the canonical
                      counterexample that never contracts.

Each kind's formulas live in one row of the table ``_FORMULAS``, four
to a row: theta on arrays, theta' on arrays, theta on a Python float and
theta'' on arrays.  The module holds formulas only; all stepping lives in
``dynamics._advance``, whose plain-float loop evaluates the third column,
and ``analysis.find_critical_b`` reads the fourth.  ``_COVERED`` names the
kinds the S = 1 theorem covers.
``__call__`` and ``derivative`` check their input is finite and read
their column; ``__call__(x, out=)`` is that check followed by
``_theta(arr, out=None)``, the unchecked evaluation, which writes
theta(x), bit for bit, into ``out`` and returns it.  The finite check
counts the entries that ``np.isfinite`` passes against the size: exact,
free of BLAS, and it warns about nothing whatever the entries.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "TransferFunction",
    "TANH",
    "SINE_SIGMOID",
    "LINEAR",
]


def _sine_sigmoid(x, out=None):
    # 0.25*(y - sin y) with y = 2x is 0.5x - 0.25 sin 2x bit for bit: 0.5x = 0.25y
    # and 0.25 sin y are exact scalings, and y - sin y is 0 wherever it would be
    # subnormal (sin y == y for |y| < 2.6e-8).
    y = np.multiply(x, 2.0, out=out)
    return np.multiply(np.subtract(y, np.sin(y), out=out), 0.25, out=out)


# Each kind's formulas: (theta on arrays, theta' on arrays, theta on a
# float, theta'' on arrays).  theta on arrays takes out= like a ufunc;
# theta on a float is the body of dynamics._advance's plain-float loop.
_FORMULAS = {
    "tanh": (np.tanh, lambda x: 1.0 - np.tanh(x) ** 2, math.tanh, lambda x: -2.0 * np.tanh(x) * (1.0 - np.tanh(x) ** 2)),
    "sine_sigmoid": (
        _sine_sigmoid, lambda x: 0.5 - 0.5 * np.cos(2.0 * x), lambda z: 0.5 * z - 0.25 * math.sin(2.0 * z), lambda x: np.sin(2.0 * x)
    ),
    "linear": (np.positive, np.ones_like, float, np.zeros_like),
}
# The kinds the paper's S = 1 theorem covers: acceptance criterion 5
# certifies their cover inequality and shows that the linear kind fails it.
_COVERED = ("tanh", "sine_sigmoid")


def _check_finite(x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise ValueError("transfer function input must be finite")
    return arr


@dataclass(frozen=True)
class TransferFunction:
    """Immutable descriptor of a scalar transfer function theta(.), named by its kind."""

    kind: str

    def __post_init__(self):
        if self.kind not in _FORMULAS:
            raise ValueError(f"unknown transfer kind {self.kind!r}")

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
        return _FORMULAS[self.kind][0](arr, out=out)

    def derivative(self, x):
        """Analytic derivative theta'(x)."""
        arr = _check_finite(x)
        out = _FORMULAS[self.kind][1](arr)
        return float(out) if arr.ndim == 0 else out

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
        # sine sigmoid: theta'(x) = 0.5 - 0.5*cos(2x) = 1  <=>  x = (n + 1/2)*pi
        n_lo = math.ceil(lo / math.pi - 0.5)
        n_hi = math.floor(hi / math.pi - 0.5)
        return [(n + 0.5) * math.pi for n in range(n_lo, n_hi + 1)]


TANH = TransferFunction("tanh")
SINE_SIGMOID = TransferFunction("sine_sigmoid")
LINEAR = TransferFunction("linear")
