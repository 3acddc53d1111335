"""The subspace predictor: output prediction from a behavior data matrix or
an orthonormal behavior basis.

Given a partitioned matrix X and a context b = (u_ini, u, y_ini), the
predicted future output is  y_future_rows(X) @ pinv(context_rows(X)) @ b.
The prediction depends only on the column space of X, not on the particular
spanning matrix, as long as the context rows have full column rank; that
invariance is the core property exercised by the test suite.  Every
prediction goes through one map per matrix: for an orthonormal basis from
its output Gram matrix by `_linalg.member_predictions`, read as a one-piece
family, when its guard admits it, and otherwise from one SVD of the context
rows by `_linalg.prediction_map`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ._linalg import EPS, QuadraticForms, member_predictions, prediction_map
from .errors import RankDeficientError
from .grassmann import BehaviorBasis
from .hankel import PartitionedMatrix, _windows
from .lti import Trajectory, _count, _frozen

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


def _basis_map(context_rows, future_rows, gram_defect=None) -> tuple[np.ndarray, int, float]:
    """The map of a basis's context rows C and future rows Yf, with its rank
    and sigma_min, refusing context rows without full column rank: the one
    rank rule of the library's basis maps and a declined sweep member's.

    Given the basis's Gram defect d = ||U'U - I||_F, the basis is read by
    `_linalg.member_predictions` as the one-piece family [Yf Yf'], [C Yf']
    at weight 1.0, for every future row, and the map is its result
    transposed, contiguous for `_apply`.  The guard's numerator is d + q eps
    for a basis of q rows: the defect moves C'C off I - Yf'Yf by about d,
    and each entry of Yf Yf', an inner product of r <= q terms, rounds by
    about r eps, an estimate of the change in lambda_max(K) as in
    `Geodesic.forms`.  One piece at weight 1.0 is Yf Yf' bit for bit (1.0 x
    is exact and nothing is added), so the sum adds no rounding to that.
    When the guard declines, or without a Gram defect,
    `_linalg.prediction_map` maps by one SVD of the context rows."""
    if gram_defect is not None:
        q = len(context_rows) + len(future_rows)
        forms = QuadraticForms(
            [future_rows @ future_rows.T], [context_rows @ future_rows.T], gram_defect + q * EPS
        )
        routed = member_predictions(forms, (1.0,), len(future_rows))
        if routed is not None:
            return np.ascontiguousarray(routed[0].T), context_rows.shape[1], routed[1]
    matrix, rank, sigma_min = prediction_map(context_rows, future_rows)
    if rank < context_rows.shape[1]:
        raise RankDeficientError(
            f"context rows of the basis are rank deficient: rank {rank} "
            f"for {context_rows.shape[1]} columns, sigma_min = {sigma_min:.3e}"
        )
    return matrix, rank, sigma_min


def _apply(matrix: np.ndarray, contexts: np.ndarray) -> np.ndarray:
    """Predictions for one context (len b,) or a stack (..., len b); each row
    is bit-identical to its context's alone, unlike contexts @ matrix.T."""
    return (matrix @ contexts[..., None])[..., 0]


def pseudoinverse(M) -> np.ndarray:
    """Moore-Penrose inverse via SVD.

    ``M`` is read by `lti._frozen` before the SVD, as a 2-D matrix with
    no empty dimension.  Singular values at or
    below the shared rank cutoff of `_linalg.svd` are treated as zero.  A
    zero matrix maps to a zero matrix.
    """
    return prediction_map(_frozen(M, "M", (None, None)))[0]


@dataclass(frozen=True, eq=False)
class PredictionContext:
    """The vector b = (u_ini, u, y_ini) together with its window dimensions.

    ``u_ini`` has length m*Tini, ``u`` length m*Tf, ``y_ini`` length p*Tini.
    Each block is read by `lti._frozen` into a private read-only copy with
    every entry a finite real number, a bool among numbers refused: a 1-D
    vector of its length, or its (steps, channels) window, such as
    (Tini, m) for ``u_ini``, which is stacked time-major.
    Any other shape is refused by name, the (channels, steps) transpose
    included; only a square window (steps == channels) cannot be told from
    its transpose.  Each dim is read first, with `lti._count`, so a float
    or bool dim raises TypeError, a dim below 1 is refused by name and a numpy
    integer is stored as an int.
    """

    u_ini: np.ndarray
    u: np.ndarray
    y_ini: np.ndarray
    m: int
    p: int
    Tini: int
    Tf: int

    def __post_init__(self):
        for name in ("m", "p", "Tini", "Tf"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        for name, value, steps, channels in (
            ("u_ini", self.u_ini, self.Tini, self.m),
            ("u", self.u, self.Tf, self.m),
            ("y_ini", self.y_ini, self.Tini, self.p),
        ):
            block = _frozen(value, name, (steps * channels,), window=(steps, channels))
            object.__setattr__(self, name, block)

    @property
    def b(self) -> np.ndarray:
        """The stacked context vector, length m*Tini + m*Tf + p*Tini."""
        return np.concatenate([self.u_ini, self.u, self.y_ini])


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
    matrix, rank, sigma_min = prediction_map(X.context_block, X.y_future)
    return Prediction(_apply(matrix, ctx.b), sigma_min, rank, ctx.p)


def predict_from_subspace(U: BehaviorBasis, ctx: PredictionContext) -> Prediction:
    """Apply the subspace predictor to an orthonormal behavior basis.

    Requires the context rows of the basis to have full column rank; the
    prediction then agrees with `subspace_predict` on any full-rank matrix
    spanning the same subspace.  The rank check and the map share one
    factorization.
    """
    _check_dims(U, (ctx.m, ctx.p, ctx.Tini, ctx.Tf))
    matrix, rank, sigma_min = _basis_map(U.context_block, U.y_future, U.gram_defect)
    return Prediction(_apply(matrix, ctx.b), sigma_min, rank, ctx.p)


def one_step(pred: Prediction) -> np.ndarray:
    """First predicted output vector (the first p entries of y_pred)."""
    return pred.y_pred[: pred.p]


def _context_matrix(measured: Trajectory, Tini: int, Tf: int) -> np.ndarray:
    """The context of every sliding window, shape (T - Tini - Tf + 1, len b):
    row i, the context at t = Tini + i, is input window i of `_windows` at
    depth Tini+Tf, then output window i cut to its first Tini steps."""
    Tini, Tf = _count(Tini, "Tini"), _count(Tf, "Tf")
    u, y = (_windows(z, Tini + Tf, "Tini+Tf") for z in (measured.inputs, measured.outputs))
    return np.hstack([u, y[:, : measured.p * Tini]])


def context_windows(
    measured: Trajectory, Tini: int, Tf: int
) -> Iterator[tuple[int, PredictionContext]]:
    """Sliding windows (t, context) over a measured trajectory, one view per
    row of the context matrix that `rolling_one_step` predicts from.

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
    _check_dims(U, (measured.m, measured.p, Tini, Tf))
    matrix = _basis_map(U.context_block, U.y_future, U.gram_defect)[0]
    return _apply(matrix, _context_matrix(measured, Tini, Tf))[:, : U.p]
