"""Reservoir construction and spectral analysis of the recurrent weights.

The interesting regime is the spectral boundary: a normal matrix whose
largest singular value and largest absolute eigenvalue are both exactly 1.
Orthogonal matrices realize that boundary without any numerical tuning, so
they are the constructive choice here.

Two classic spectral checks are exposed through :func:`check_esc`:

* C1 (necessary):   max |eigenvalue| < 1
* C2 (sufficient):  max singular value < 1

plus a flag for sitting on the boundary itself, and whether the
boundary case is covered by the contraction argument for the given
transfer function (tanh and the sine sigmoid are; the identity is not).

The package's one CSV writer and one CSV parser live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transfer import _COVERED, TANH, TransferFunction

__all__ = [
    "Reservoir",
    "SpectralSummary",
    "EscVerdict",
    "make_orthogonal_reservoir",
    "scale_to_spectrum",
    "spectral_summary",
    "check_esc",
    "save_matrix_csv",
    "load_matrix_csv",
]

_ESC_TOL = 1e-9  # check_esc's margin around the spectral boundary
_CSV_ROWS = 256  # CSV rows formatted by one % operation


def _square_matrix(W) -> np.ndarray:
    """W as a finite, non-empty square float matrix, or ValueError."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("W must be square")
    if W.size == 0:
        raise ValueError("W must be non-empty")
    if not np.all(np.isfinite(W)):
        raise ValueError("W must be finite")
    return W


@dataclass(frozen=True)
class Reservoir:
    """Fixed recurrent weights W (k x k), input weights w_in (k x n), transfer."""

    W: np.ndarray
    w_in: np.ndarray
    tf: TransferFunction

    def __post_init__(self):
        W = _square_matrix(self.W)
        w_in = np.atleast_2d(np.asarray(self.w_in, dtype=float))
        if w_in.shape[0] != W.shape[0]:
            raise ValueError("w_in must have k rows")
        if not np.all(np.isfinite(w_in)):
            raise ValueError("w_in must be finite")
        W.setflags(write=False)
        w_in.setflags(write=False)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "w_in", w_in)

    @property
    def k(self) -> int:
        return self.W.shape[0]

    @property
    def n(self) -> int:
        return self.w_in.shape[1]


@dataclass(frozen=True)
class SpectralSummary:
    max_abs_eigenvalue: float
    max_singular_value: float
    is_normal: bool
    singular_values: tuple  # descending


@dataclass(frozen=True)
class EscVerdict:
    """check_esc's spectral verdict.

    covered_by_theorem: W is on the critical boundary (S = 1) and the
    transfer is tanh or the sine sigmoid, the kinds the paper's S = 1
    theorem covers through its cover phi (CoverParams' defaults), whose
    inequality contraction.verify_cover_inequality checks for both
    (acceptance criterion 5).  The linear kind is never covered.
    """

    c1_necessary: bool
    c2_sufficient: bool
    critical_boundary: bool
    covered_by_theorem: bool


def make_orthogonal_reservoir(k: int, n: int, input_scale: float, seed: int) -> Reservoir:
    """Reservoir with an orthogonal (hence normal, boundary-spectrum) W.

    W comes from the QR factorization of a seeded Gaussian matrix with the
    usual sign fix on diag(R); every singular value and |eigenvalue| is
    exactly 1.  w_in entries are i.i.d. uniform on [-input_scale, input_scale].
    Deterministic in the seed.  Transfer defaults to tanh; swap via
    dataclasses.replace for other kinds.
    """
    if k <= 0 or n <= 0:
        raise ValueError("need k >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((k, k))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    try:
        w_in = rng.uniform(-input_scale, input_scale, size=(k, n))
    except OverflowError:  # the range 2 |input_scale| overflows
        raise ValueError(f"input_scale {input_scale!r} is too large to draw uniform input weights") from None
    return Reservoir(W=q, w_in=w_in, tf=TANH)


def scale_to_spectrum(W: np.ndarray, target: float, mode: str = "singular") -> np.ndarray:
    """Uniformly rescale W so its max singular value (or max |eig|) hits target."""
    W = _square_matrix(W)
    if target <= 0:
        raise ValueError("target must be positive")
    if mode == "singular":
        current = float(np.linalg.svd(W, compute_uv=False)[0])
    elif mode == "eigen":
        current = float(np.max(np.abs(np.linalg.eigvals(W))))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if current == 0.0:
        raise ValueError("zero spectrum cannot be rescaled to a positive target")
    return W * (target / current)


def spectral_summary(W: np.ndarray) -> SpectralSummary:
    """Eigen/singular spectrum plus a normality test (W W^T == W^T W)."""
    W = _square_matrix(W)
    svals = np.linalg.svd(W, compute_uv=False)
    eigs = np.linalg.eigvals(W)
    wmax = float(np.max(np.abs(W)))
    commutator = W @ W.T - W.T @ W
    residual = float(np.max(np.abs(commutator)))
    is_normal = residual <= 1e-9 * (1.0 + wmax * wmax)
    return SpectralSummary(
        max_abs_eigenvalue=float(np.max(np.abs(eigs))),
        max_singular_value=float(svals[0]),
        is_normal=bool(is_normal),
        singular_values=tuple(float(s) for s in svals),
    )


def check_esc(reservoir: Reservoir) -> EscVerdict:
    """Spectral echo-state verdict for a reservoir.

    Strict inequalities are certified with a 1e-9 margin (inside 1 - 1e-9);
    within 1e-9 of the boundary the matrix counts as critical instead, so
    critical_boundary and c2_sufficient are mutually exclusive by
    construction.
    """
    s = spectral_summary(reservoir.W)
    critical = (
        abs(s.max_singular_value - 1.0) <= _ESC_TOL
        and abs(s.max_abs_eigenvalue - 1.0) <= _ESC_TOL
    )
    c1 = s.max_abs_eigenvalue < 1.0 - _ESC_TOL
    c2 = s.max_singular_value < 1.0 - _ESC_TOL
    covered = critical and reservoir.tf.kind in _COVERED
    return EscVerdict(
        c1_necessary=bool(c1),
        c2_sufficient=bool(c2),
        critical_boundary=bool(critical),
        covered_by_theorem=bool(covered),
    )


# -- the CSV format ----------------------------------------------------------

def _write_csv(path, header: str, values, first=None, total=None) -> None:
    """Write the header line, a line per row of values led by first[i] if given, then "total,<total>" if given.

    Every number prints as %.17g, an integral float (t, a delay) as %d
    prints it.  _CSV_ROWS rows are formatted per % operation from one float
    block, and first may be a range, so nothing row-count sized is made.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    lead = int(first is not None)
    rows, m = values.shape
    line = ",".join(["%.17g"] * (lead + m)) + "\n"
    block = np.empty((_CSV_ROWS, lead + m))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for i in range(0, rows, _CSV_ROWS):
            n = min(_CSV_ROWS, rows - i)
            if lead:
                block[:n, 0] = first[i : i + n]
            block[:n, lead:] = values[i : i + n]
            fh.write((line * n) % tuple(block[:n].ravel().tolist()))
        if total is not None:
            fh.write("total,%.17g\n" % total)


def _read_csv(path) -> tuple[list, np.ndarray]:
    """The '#' comment lines of a CSV file and its other non-blank lines as a 2-D float array, or ValueError."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        raise ValueError("no data lines")
    return [ln for ln in lines if ln.startswith("#")], np.loadtxt(body, delimiter=",", ndmin=2)


def save_matrix_csv(path, W: np.ndarray) -> None:
    """Row-major CSV with a '# rows,cols' comment header."""
    W = np.atleast_2d(np.asarray(W, dtype=float))
    _write_csv(path, f"# {W.shape[0]},{W.shape[1]}", W)


def load_matrix_csv(path) -> np.ndarray:
    """The matrix of a CSV file, checked against its '# rows,cols' header where it has one."""
    header, out = _read_csv(path)
    if header:
        try:
            r, c = (int(v) for v in header[0].lstrip("#").split(","))
        except ValueError as exc:
            raise ValueError(f"bad matrix header {header[0]!r}") from exc
        if out.shape != (r, c):
            raise ValueError(f"matrix body {out.shape} does not match header ({r},{c})")
    return out
