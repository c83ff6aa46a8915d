"""Linear readout training and the delay-reconstruction memory benchmark."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import run_with_inputs
from .reservoir import Reservoir, _write_csv

__all__ = [
    "ReadoutModel",
    "McResult",
    "fit_readout",
    "predict",
    "memory_capacity",
    "write_mc_csv",
]

_DELAY_BLOCK = 8  # delays per readout solve; 16 changes most scores' last bits at the mc defaults (k = 8) and adds to peak memory
_RUN_ROWS = 1024  # steps per run_with_inputs call, so the whole run's states never coexist


@dataclass(frozen=True)
class ReadoutModel:
    w_out: np.ndarray  # (m, k); predict(model, X) is X @ w_out.T


def _normal_matrix(X: np.ndarray, ridge: float) -> np.ndarray:
    """X.T @ X + ridge * I; with ridge = 0, raise if it is singular."""
    k = X.shape[1]
    G = X.T @ X
    if ridge > 0:
        G = G + ridge * np.eye(k)
    elif np.linalg.matrix_rank(G) < k:
        raise np.linalg.LinAlgError(
            "normal matrix is singular; refit with ridge > 0"
        )
    return G


def fit_readout(
    states: np.ndarray, targets: np.ndarray, ridge: float = 0.0, *, normal: np.ndarray | None = None
) -> ReadoutModel:
    """Solve the (optionally ridge-regularized) normal equations.

    states is (T, k), targets is (T,) or (T, m).  With ridge = 0 this is
    plain linear regression and requires a well-conditioned state matrix;
    a singular one raises with advice to use ridge > 0.

    normal, when given, is the (k, k) matrix states.T @ states + ridge * I,
    formed (and, for ridge = 0, checked) once by a caller that fits many
    targets on the same states; without it the matrix is formed here.
    The model holds the weights only: the training residual is
    predict(model, states) - targets.
    """
    X = np.atleast_2d(np.asarray(states, dtype=float))
    Y = np.asarray(targets, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] != Y.shape[0]:
        raise ValueError("states and targets must have the same number of rows")
    if not ridge >= 0:
        raise ValueError("ridge must be nonnegative")
    k = X.shape[1]
    if normal is not None and np.shape(normal) != (k, k):
        raise ValueError(f"normal matrix must be ({k}, {k}), got {np.shape(normal)}")
    G = _normal_matrix(X, ridge) if normal is None else normal
    return ReadoutModel(np.linalg.solve(G, X.T @ Y).T)


def predict(model: ReadoutModel, states: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(states, dtype=float))
    if X.shape[1] != model.w_out.shape[1]:
        raise ValueError(
            f"states have {X.shape[1]} columns, readout expects {model.w_out.shape[1]}"
        )
    return X @ model.w_out.T


@dataclass(frozen=True)
class McResult:
    mc_total: float
    per_delay: tuple  # ((delay, score), ...)


def _squared_correlation(a: np.ndarray, b: np.ndarray) -> float:
    a = a - np.mean(a)
    b = b - np.mean(b)
    va = float(np.dot(a, a))
    vb = float(np.dot(b, b))
    if va <= 0.0 or vb <= 0.0:
        return 0.0
    c = float(np.dot(a, b))
    return (c * c) / (va * vb)


def memory_capacity(
    res: Reservoir,
    input_amplitude: float,
    max_delay: int,
    T: int,
    washout: int = 200,
    ridge: float = 1e-8,
    seed: int = 0,
) -> McResult:
    """Sum over delays of held-out squared correlation for delay reconstruction.

    Drives the reservoir with i.i.d. uniform input on [-amplitude, amplitude]
    (seeded), trains one readout per delay d = 1..max_delay to reconstruct
    u_{t-d}, and scores each on the chronologically later half of the run.
    The total is bounded by the number of neurons.  The readouts fit the
    drive scaled by a power of two to below 1 in magnitude.  The scaling is
    exact and a squared correlation is invariant to it, so every score
    keeps its bits wherever nothing overflowed, and a drive of size 1e80,
    whose correlation products would overflow, still scores.  The states
    are scaled likewise, the largest into [0.5, 1), so the absolute ridge
    weighs the same at any state size, and X.T @ X does not overflow at
    1e200; states already there keep their bits.  The run steps
    ``_RUN_ROWS`` inputs per run_with_inputs call and keeps only the states
    the readouts fit, those from max(washout, max_delay) on; they are bit
    for bit the states of one call over all T inputs.

    Each delay is still its own least-squares problem, but the delays are
    fitted ``_DELAY_BLOCK`` at a time: one multi-target ``fit_readout`` and
    one ``predict`` per block.  A block stacks its delays' training targets
    alone, and each delay is scored against its own contiguous test slice
    of the drive.  Every block has the same training states, so
    the normal matrix (and, for ridge = 0, its singularity check) is formed
    once per run and handed to each block's fit; the scores are bit for bit
    those of blocks that each form it.  They agree with one-delay-at-a-time
    fits to a few ulps (the GEMM and the multi-column solve sum in another
    order than GEMV).
    """
    if max_delay < 1:
        raise ValueError("need max_delay >= 1")
    if not ridge >= 0:
        raise ValueError("ridge must be nonnegative")
    if washout < 0:
        raise ValueError("washout must be nonnegative")
    t_start = max(washout, max_delay)
    n_rows = T - t_start
    if n_rows < 2 * (res.k + 10):
        raise ValueError(
            f"T too small: {T} leaves {n_rows} usable rows after washout/delay; "
            f"need at least {2 * (res.k + 10)}"
        )
    rng = np.random.default_rng(seed)
    try:
        u = rng.uniform(-input_amplitude, input_amplitude, size=(T, res.n))
    except OverflowError:  # the range 2 |input_amplitude| overflows
        raise ValueError(f"input_amplitude {input_amplitude!r} is too large to draw uniform inputs") from None
    X, x = np.empty((n_rows, res.k)), None  # only the rows the readouts fit
    for t0 in range(0, T, _RUN_ROWS):
        states = run_with_inputs(res, u[t0 : t0 + _RUN_ROWS], x0=x).states
        x, t1 = states[-1], t0 + len(states)
        if t1 > t_start:
            lo = max(t0, t_start)
            X[lo - t_start : t1 - t_start] = states[lo - t0 :]
    np.ldexp(X, -math.frexp(max(X.max(), -X.min()))[1], out=X)  # in place: a copy would add its size to peak memory
    split = n_rows // 2
    X_train, X_test = X[:split], X[split:]
    G = _normal_matrix(X_train, ridge)
    drive = np.ldexp(u[:, 0], -math.frexp(input_amplitude)[1])
    scores = []
    for first in range(1, max_delay + 1, _DELAY_BLOCK):
        delays = range(first, min(first + _DELAY_BLOCK, max_delay + 1))
        targets = np.stack([drive[t_start - d : t_start - d + split] for d in delays], axis=1)
        pred = predict(fit_readout(X_train, targets, ridge=ridge, normal=G), X_test)
        scores.extend(
            (d, _squared_correlation(pred[:, j], drive[t_start - d + split : T - d]))
            for j, d in enumerate(delays)
        )
    total = float(sum(s for _, s in scores))
    return McResult(mc_total=total, per_delay=tuple(scores))


def write_mc_csv(path, result: McResult) -> None:
    """Columns delay,score plus a final totals row."""
    _write_csv(path, "delay,score", result.per_delay, total=result.mc_total)
