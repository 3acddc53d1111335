"""Prediction-error bounds under subspace perturbation.

All bounds are conditional: each one is certified only while the perturbation
distance stays inside its validity region, and requests outside that region
raise HypothesisViolationError instead of returning an extrapolated number.

The closed forms share the constant (1 + sqrt(5))/2 coming from the
perturbation theory of the pseudoinverse, and the factor sqrt(2) relating the
Frobenius gap of optimally aligned bases to the chordal distance.
"""

from __future__ import annotations

import numpy as np

from .errors import HypothesisViolationError

__all__ = ["gamma", "lipschitz_bound", "one_step_bound"]

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
