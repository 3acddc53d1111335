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
    "BoundInputs",
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
    singular value of its past-window counterpart.  The ratio lower-bounds
    the smallest singular value of the context rows of any orthonormal
    behavior basis.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    return min(1.0, beta) / alpha


@dataclass(frozen=True)
class BoundInputs:
    """Ingredients of the representation-free Lipschitz bound.

    ``gamma`` always equals min(1, beta) / alpha; use the classmethods to
    construct consistent instances.  ``kappa`` is the chordal distance
    between the true and approximate behavior subspaces, ``b_norm`` the
    Euclidean norm of the prediction context.
    """

    alpha: float
    beta: float
    gamma: float
    kappa: float
    b_norm: float

    def __post_init__(self):
        if not all(np.isfinite([self.alpha, self.beta, self.gamma, self.kappa, self.b_norm])):
            raise ValueError("all bound inputs must be finite")
        if self.gamma != min(1.0, self.beta) / self.alpha:
            raise ValueError(
                f"gamma={self.gamma} is not min(1, beta)/alpha = "
                f"{min(1.0, self.beta) / self.alpha}"
            )
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if self.b_norm < 0:
            raise ValueError(f"b_norm must be nonnegative, got {self.b_norm}")

    @classmethod
    def from_singular_values(
        cls, alpha: float, beta: float, kappa: float, b_norm: float
    ) -> "BoundInputs":
        return cls(alpha=alpha, beta=beta, gamma=gamma(alpha, beta), kappa=kappa, b_norm=b_norm)

    @classmethod
    def from_gamma(cls, gamma_value: float, kappa: float, b_norm: float) -> "BoundInputs":
        """Encode a directly supplied ratio.  Valid ratios never exceed 1
        because the gain constant is at least 1."""
        if not 0 < gamma_value <= 1:
            raise ValueError(f"gamma must lie in (0, 1], got {gamma_value}")
        return cls(alpha=1.0, beta=gamma_value, gamma=gamma_value, kappa=kappa, b_norm=b_norm)


def lipschitz_bound(inp: BoundInputs) -> float:
    """Representation-free prediction-error bound.

    Returns (2(1+sqrt(5))/gamma^2 + 1/gamma) * sqrt(2) * kappa * b_norm,
    valid while kappa <= gamma / (2 sqrt(2)).
    """
    limit = inp.gamma * _HALF_INV_SQRT2
    if inp.kappa > limit:
        raise HypothesisViolationError(
            f"bound hypothesis violated: kappa = {inp.kappa:.6g} exceeds "
            f"gamma/(2*sqrt(2)) = {limit:.6g}"
        )
    g = inp.gamma
    coeff = 2.0 * (1.0 + np.sqrt(5.0)) / g**2 + 1.0 / g
    return float(coeff * np.sqrt(2.0) * inp.kappa * inp.b_norm)


def one_step_bound(
    sigma_min_Mhat: float, norm_Uyf1: float, kappa: float, b_norm: float
) -> float:
    """Fully computable bound on the first predicted output's error.

    Returns
    (2(1+sqrt(5)) * norm_Uyf1 / sigma^2 + 1/sigma) * sqrt(2) * kappa * b_norm
    with sigma the smallest singular value of the approximate basis's context
    rows and norm_Uyf1 the spectral norm of the first output block-row of its
    future-output rows.  Valid while kappa <= sigma / (2 sqrt(2)).
    """
    if sigma_min_Mhat <= 0:
        raise ValueError(f"sigma_min_Mhat must be positive, got {sigma_min_Mhat}")
    if norm_Uyf1 < 0:
        raise ValueError(f"norm_Uyf1 must be nonnegative, got {norm_Uyf1}")
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if b_norm < 0:
        raise ValueError(f"b_norm must be nonnegative, got {b_norm}")
    limit = sigma_min_Mhat * _HALF_INV_SQRT2
    if kappa > limit:
        raise HypothesisViolationError(
            f"bound hypothesis violated: kappa = {kappa:.6g} exceeds "
            f"sigma_min_Mhat/(2*sqrt(2)) = {limit:.6g}"
        )
    s = sigma_min_Mhat
    coeff = 2.0 * (1.0 + np.sqrt(5.0)) * norm_Uyf1 / s**2 + 1.0 / s
    return float(coeff * np.sqrt(2.0) * kappa * b_norm)


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
