"""Prediction-error bounds under subspace perturbation.

All bounds are conditional: each one is certified only while the perturbation
distance stays inside its validity region, and requests outside that region
raise HypothesisViolationError instead of returning an extrapolated number.

The closed forms share the constant (1 + sqrt(5))/2 coming from the
perturbation theory of the pseudoinverse, and the factor sqrt(2) relating the
Frobenius gap of optimally aligned bases to the chordal distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import spectral_norm, svd
from .errors import HypothesisViolationError, RankDeficientError
from .hankel import PartitionedMatrix
from .predictor import _PredictionMap

__all__ = [
    "gamma",
    "lipschitz_bound",
    "one_step_bound",
    "FirstBoundTerms",
    "first_error_bound",
    "first_error_bound_terms",
    "pinv_perturbation_bound",
    "weyl_check",
]

_PINV_PERTURBATION_CONST = (1.0 + np.sqrt(5.0)) / 2.0
_HALF_INV_SQRT2 = 1.0 / (2.0 * np.sqrt(2.0))


def gamma(alpha: float, beta: float) -> float:
    """The observability-to-gain ratio min(1, beta) / alpha.

    ``alpha`` is the largest singular value of the full-horizon trajectory
    generation matrix, ``beta`` a positive lower bound on the smallest
    singular value of its past-window counterpart; both must be finite.  The
    ratio lower-bounds the smallest singular value of the context rows of
    any orthonormal behavior basis, and is the ``gamma`` of
    `lipschitz_bound`.  ``alpha`` is at least 1 because of the identity
    block (see `gain_bound`), so the ratio never exceeds 1; a smaller
    ``alpha`` would widen the certified region and is rejected.
    """
    if not alpha >= 1:
        raise ValueError(f"alpha must be at least 1, got {alpha}")
    if not np.isfinite([alpha, beta]).all():
        raise ValueError(f"alpha and beta must be finite, got alpha={alpha}, beta={beta}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return min(1.0, beta) / alpha


def _certified_bound(s: float, norm_Uyf1: float, kappa: float, b_norm: float, name: str) -> float:
    """(2(1+sqrt(5)) * norm_Uyf1 / s^2 + 1/s) * sqrt(2) * kappa * b_norm, valid
    while kappa <= s / (2 sqrt(2)); ``name`` names s in the messages.  Every
    argument must be finite, s positive and the others nonnegative."""
    if not np.isfinite([s, norm_Uyf1, kappa, b_norm]).all():
        raise ValueError("all bound inputs must be finite")
    if s <= 0:
        raise ValueError(f"{name} must be positive, got {s}")
    for arg, value in (("norm_Uyf1", norm_Uyf1), ("kappa", kappa), ("b_norm", b_norm)):
        if value < 0:
            raise ValueError(f"{arg} must be nonnegative, got {value}")
    limit = s * _HALF_INV_SQRT2
    if kappa > limit:
        raise HypothesisViolationError(
            f"bound hypothesis violated: kappa = {kappa:.6g} exceeds "
            f"{name}/(2*sqrt(2)) = {limit:.6g}"
        )
    coeff = 2.0 * (1.0 + np.sqrt(5.0)) * norm_Uyf1 / s**2 + 1.0 / s
    return float(coeff * np.sqrt(2.0) * kappa * b_norm)


def lipschitz_bound(gamma: float, kappa: float, b_norm: float) -> float:
    """Representation-free prediction-error bound.

    Returns (2(1+sqrt(5))/gamma^2 + 1/gamma) * sqrt(2) * kappa * b_norm,
    valid while kappa <= gamma / (2 sqrt(2)).  ``gamma`` is the ratio
    ``gamma(alpha, beta)`` and must lie in (0, 1]; ``kappa`` is the chordal
    distance between the true and approximate behavior subspaces, ``b_norm``
    the Euclidean norm of the prediction context.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return _certified_bound(gamma, 1.0, kappa, b_norm, "gamma")


def one_step_bound(
    sigma_min_Mhat: float, norm_Uyf1: float, kappa: float, b_norm: float
) -> float:
    """Fully computable bound on the first predicted output's error.

    Returns
    (2(1+sqrt(5)) * norm_Uyf1 / sigma^2 + 1/sigma) * sqrt(2) * kappa * b_norm
    with sigma the smallest singular value of the approximate basis's context
    rows and norm_Uyf1 the spectral norm of the first output block-row of its
    future-output rows.  Valid while kappa <= sigma / (2 sqrt(2)).  Every
    argument must be finite.
    """
    return _certified_bound(sigma_min_Mhat, norm_Uyf1, kappa, b_norm, "sigma_min_Mhat")


@dataclass(frozen=True)
class FirstBoundTerms:
    """Both lines of the matrix-norm error bound.

    ``submatrix_value`` uses the Frobenius gap of the future-output rows
    only; ``full_value`` relaxes it to the gap of the whole matrices and is
    therefore never smaller.  ``direction`` records which side's future-output
    spectral norm multiplied the pseudoinverse difference.
    """

    submatrix_value: float
    full_value: float
    direction: str


def first_error_bound_terms(
    Hhat: PartitionedMatrix,
    H: PartitionedMatrix,
    b_norm: float,
    direction: str = "approx",
) -> FirstBoundTerms:
    """Matrix-norm bound on the prediction difference between two data
    matrices, scaled by the context norm.

    ``direction='approx'`` pairs the approximate future-output norm with the
    true pseudoinverse norm; ``'truth'`` swaps the roles.  Both directions
    are valid bounds.  Requires both context blocks to have full column rank.
    """
    if Hhat.data.shape != H.data.shape or Hhat.dims != H.dims:
        raise ValueError(
            f"matrices are not comparable: shapes {Hhat.data.shape} vs {H.data.shape}, "
            f"dims {Hhat.dims} vs {H.dims}"
        )
    if direction not in ("approx", "truth"):
        raise ValueError(f"direction must be 'approx' or 'truth', got {direction!r}")
    if b_norm < 0:
        raise ValueError(f"b_norm must be nonnegative, got {b_norm}")
    pinvs = []
    for name, X in (("approximate", Hhat), ("true", H)):
        pred_map = _PredictionMap.factor(X.context_block)
        if pred_map.rank < X.r:
            raise RankDeficientError(f"{name} context block is not of full column rank")
        pinvs.append(pred_map.matrix)
    pinv_hat, pinv = pinvs
    pinv_gap = spectral_norm(pinv_hat - pinv)
    if direction == "approx":
        lead, tail = spectral_norm(Hhat.y_future), spectral_norm(pinv)
    else:
        lead, tail = spectral_norm(H.y_future), spectral_norm(pinv_hat)
    yf_gap = float(np.linalg.norm(Hhat.y_future - H.y_future))
    full_gap = float(np.linalg.norm(Hhat.data - H.data))
    return FirstBoundTerms(
        submatrix_value=float((lead * pinv_gap + yf_gap * tail) * b_norm),
        full_value=float((lead * pinv_gap + full_gap * tail) * b_norm),
        direction=direction,
    )


def first_error_bound(Hhat: PartitionedMatrix, H: PartitionedMatrix, b_norm: float) -> float:
    """The relaxed (whole-matrix Frobenius gap) line of the matrix-norm bound."""
    return first_error_bound_terms(Hhat, H, b_norm).full_value


def pinv_perturbation_bound(Mhat, M) -> float:
    """Upper bound on the spectral gap between two pseudoinverses:
    (1+sqrt(5))/2 * max(||pinv(Mhat)||^2, ||pinv(M)||^2) * ||Mhat - M||_2.

    Requires both matrices to have full column rank.
    """
    Mhat = np.asarray(Mhat, dtype=float)
    M = np.asarray(M, dtype=float)
    if Mhat.shape != M.shape:
        raise ValueError(f"shapes differ: {Mhat.shape} vs {M.shape}")
    smins = []
    for name, mat in (("Mhat", Mhat), ("M", M)):
        _, svals, _, rank = svd(mat)
        if rank < mat.shape[1]:
            raise RankDeficientError(f"{name} is not of full column rank")
        smins.append(float(svals[-1]))
    smin_hat, smin = smins
    worst = max(1.0 / smin_hat**2, 1.0 / smin**2)
    return float(_PINV_PERTURBATION_CONST * worst * spectral_norm(Mhat - M))


def weyl_check(Mhat, M) -> bool:
    """Self-test primitive: the smallest singular values of two same-shape
    matrices never differ by more than the spectral norm of their gap
    (up to 1e-10 slack).  Always true; exposed for verification."""
    Mhat = np.asarray(Mhat, dtype=float)
    M = np.asarray(M, dtype=float)
    if Mhat.shape != M.shape:
        raise ValueError(f"shapes differ: {Mhat.shape} vs {M.shape}")
    smin_hat, smin = (float(svd(mat)[1][-1]) for mat in (Mhat, M))
    return abs(smin_hat - smin) <= spectral_norm(Mhat - M) + 1e-10
