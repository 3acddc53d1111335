"""The subspace predictor: output prediction from a behavior data matrix or
an orthonormal behavior basis.

Given a partitioned matrix X and a context b = (u_ini, u, y_ini), the
predicted future output is  y_future_rows(X) @ pinv(context_rows(X)) @ b.
The prediction depends only on the column space of X, not on the particular
spanning matrix, as long as the context rows have full column rank; that
invariance is the core property exercised by the test suite.  Every
prediction goes through one map per matrix, factored by one SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._linalg import svd
from .errors import RankDeficientError
from .grassmann import BehaviorBasis
from .hankel import PartitionedMatrix, stacked_data_matrix
from .lti import Trajectory

__all__ = [
    "PredictionContext",
    "Prediction",
    "pseudoinverse",
    "subspace_predict",
    "predict_from_subspace",
    "one_step",
    "rolling_one_step",
    "context_windows",
]


@dataclass(frozen=True, eq=False)
class _PredictionMap:
    """``matrix`` = future_rows @ pinv(context_rows), plus the retained rank
    and smallest singular value of the one SVD it is built from.  Singular
    values at or below the shared cutoff are dropped, which truncates a
    rank-deficient block.  Without future rows the map is the pseudoinverse.
    """

    matrix: np.ndarray
    rank: int
    sigma_min: float

    @classmethod
    def factor(cls, context_rows, future_rows=None):
        U, svals, Vt, rank = svd(context_rows, vectors=True)
        if rank == 0:
            pinv, sigma_min = np.zeros(np.shape(context_rows)[::-1]), 0.0
        else:
            inv = np.zeros_like(svals)
            inv[:rank] = 1.0 / svals[:rank]
            pinv, sigma_min = (Vt.T * inv) @ U.T, float(svals[-1])
        return cls(pinv if future_rows is None else future_rows @ pinv, rank, sigma_min)

    def predict(self, contexts: np.ndarray) -> np.ndarray:
        """Predictions for one context (len b,) or a stack (..., len b); each
        row is bit-identical to its context's alone, unlike contexts @ matrix.T."""
        return (self.matrix @ contexts[..., None])[..., 0]

    def prediction(self, ctx: PredictionContext) -> Prediction:
        return Prediction(self.predict(ctx.b), self.sigma_min, self.rank, ctx.p)


def _prediction_map(X: PartitionedMatrix | BehaviorBasis) -> _PredictionMap:
    return _PredictionMap.factor(X.context_block, X.y_future)


def _full_rank_map(U: BehaviorBasis) -> _PredictionMap:
    """The map of a basis, rejecting context rows without full column rank."""
    pred_map = _prediction_map(U)
    if pred_map.rank < U.r:
        raise RankDeficientError(
            f"context rows of the basis are rank deficient: rank {pred_map.rank} "
            f"for {U.r} columns, sigma_min = {pred_map.sigma_min:.3e}"
        )
    return pred_map


def pseudoinverse(M) -> np.ndarray:
    """Moore-Penrose inverse via SVD.

    Singular values at or below the shared rank cutoff of `_linalg.svd` are
    treated as zero.  A zero matrix maps to a zero matrix.
    """
    return _PredictionMap.factor(M).matrix


@dataclass(frozen=True, eq=False)
class PredictionContext:
    """The vector b = (u_ini, u, y_ini) together with its window dimensions.

    ``u_ini`` has length m*Tini, ``u`` length m*Tf, ``y_ini`` length p*Tini,
    and every entry is finite.
    """

    u_ini: np.ndarray
    u: np.ndarray
    y_ini: np.ndarray
    m: int
    p: int
    Tini: int
    Tf: int

    def __post_init__(self):
        if min(self.m, self.p, self.Tini, self.Tf) < 1:
            raise ValueError(
                f"dims must be positive, got (m={self.m}, p={self.p}, "
                f"Tini={self.Tini}, Tf={self.Tf})"
            )
        for name, value, expected in (
            ("u_ini", self.u_ini, self.m * self.Tini),
            ("u", self.u, self.m * self.Tf),
            ("y_ini", self.y_ini, self.p * self.Tini),
        ):
            arr = np.asarray(value, dtype=float).reshape(-1).copy()
            if arr.shape[0] != expected:
                raise ValueError(f"{name} has length {arr.shape[0]}, expected {expected}")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def b(self) -> np.ndarray:
        """The stacked context vector, length m*Tini + m*Tf + p*Tini."""
        return np.concatenate([self.u_ini, self.u, self.y_ini])

    @classmethod
    def from_windows(cls, u_past, u_future, y_past) -> "PredictionContext":
        """Build from time-major windows of shapes (Tini, m), (Tf, m), (Tini, p)."""
        u_past = np.atleast_2d(np.asarray(u_past, dtype=float))
        u_future = np.atleast_2d(np.asarray(u_future, dtype=float))
        y_past = np.atleast_2d(np.asarray(y_past, dtype=float))
        if u_past.shape[1] != u_future.shape[1]:
            raise ValueError(
                f"input widths differ between windows: {u_past.shape[1]} vs {u_future.shape[1]}"
            )
        if u_past.shape[0] != y_past.shape[0]:
            raise ValueError(
                f"past windows differ in length: {u_past.shape[0]} vs {y_past.shape[0]}"
            )
        return cls(
            u_ini=u_past.reshape(-1),
            u=u_future.reshape(-1),
            y_ini=y_past.reshape(-1),
            m=u_past.shape[1],
            p=y_past.shape[1],
            Tini=u_past.shape[0],
            Tf=u_future.shape[0],
        )


@dataclass(frozen=True, eq=False)
class Prediction:
    """Predicted future output of length p*Tf, with solver diagnostics."""

    y_pred: np.ndarray
    sigma_min: float
    effective_rank: int
    p: int


def _check_dims(X, dims: tuple[int, int, int, int]) -> None:
    if X.dims != dims:
        raise ValueError(
            "matrix dims (m={}, p={}, Tini={}, Tf={}) do not match "
            "context dims (m={}, p={}, Tini={}, Tf={})".format(*X.dims, *dims)
        )


def subspace_predict(X: PartitionedMatrix, ctx: PredictionContext) -> Prediction:
    """Apply the subspace predictor for an arbitrary partitioned data matrix.

    The map is linear in the context and defined for any b, whether or not
    (u_ini, y_ini) is a genuine trajectory window.  Rank-deficient context
    rows are truncated at the shared cutoff.
    """
    _check_dims(X, (ctx.m, ctx.p, ctx.Tini, ctx.Tf))
    return _prediction_map(X).prediction(ctx)


def predict_from_subspace(U: BehaviorBasis, ctx: PredictionContext) -> Prediction:
    """Apply the subspace predictor to an orthonormal behavior basis.

    Requires the context rows of the basis to have full column rank; the
    prediction then agrees with `subspace_predict` on any full-rank matrix
    spanning the same subspace.  The rank check and the map share one SVD.
    """
    _check_dims(U.basis, (ctx.m, ctx.p, ctx.Tini, ctx.Tf))
    return _full_rank_map(U).prediction(ctx)


def one_step(pred: Prediction) -> np.ndarray:
    """First predicted output vector (the first p entries of y_pred)."""
    return pred.y_pred[: pred.p]


def _context_matrix(measured: Trajectory, Tini: int, Tf: int) -> np.ndarray:
    """The context of every sliding window, shape (T - Tini - Tf + 1, len b):
    row i, the context at t = Tini + i, is column i of the trajectory's own
    data matrix without its future-output rows."""
    data = stacked_data_matrix(measured.inputs, measured.outputs, Tini, Tf)
    return np.ascontiguousarray(data.context_block.T)


def context_windows(
    measured: Trajectory, Tini: int, Tf: int
) -> Iterator[tuple[int, PredictionContext]]:
    """Sliding windows (t, context) over a measured trajectory, one view per
    row of the stacked context matrix that `rolling_one_step` predicts from.

    t runs from Tini through T - Tf inclusive, the last step for which the
    future input window still fits inside the data.
    """
    m, p = measured.m, measured.p
    for t, b in enumerate(_context_matrix(measured, Tini, Tf), start=Tini):
        u_ini, u, y_ini = np.split(b, [m * Tini, m * (Tini + Tf)])
        yield t, PredictionContext(u_ini, u, y_ini, m, p, Tini, Tf)


def rolling_one_step(
    U: BehaviorBasis, measured: Trajectory, Tini: int, Tf: int
) -> np.ndarray:
    """One-step predictions over every sliding window of a measured
    trajectory; shape (T - Tini - Tf + 1, p).

    The basis's map is factored once and applied to every window; each row
    equals ``one_step(predict_from_subspace(U, ctx))`` for that window.
    """
    contexts = _context_matrix(measured, Tini, Tf)
    _check_dims(U.basis, (measured.m, measured.p, Tini, Tf))
    return _full_rank_map(U).predict(contexts)[:, : measured.p]
