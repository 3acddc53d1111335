"""The library's factorizations and its numerical-rank convention.

Every SVD in the library goes through `svd`, and every rank decision uses
its relative cutoff: a singular value counts toward the rank when it exceeds
``max(rows, cols) * machine_eps * sigma_max``.  A caller that needs only to
know whether the rank reaches some ``least``, with the leading ``least``
singular vectors, passes it to `svd`, which then tries its Gram route
(`_gram_svd`) first: `eigh` of the smaller Gram matrix, M M' or M'M.
`full_row_rank` asks only whether a matrix's rank is its row count, and
tries a certificate first (`_cholesky_certificate`): one Cholesky
factorization of the same Gram matrix, shifted down by its rounding
bound.  Each answers only in the clear case, where its error estimates
put the rank at ``least`` or more (and the vectors within tolerance);
otherwise the SVD runs and decides, so every refusal comes from the SVD.
`prediction_map` builds the prediction map of a matrix's rows by one SVD.
`member_predictions` reads a member of a family of orthonormal bases whose
output Gram matrix and context cross product are weighted sums of fixed
pieces (`QuadraticForms`), as the geodesic sweep's are, while its guard
admits the member, and returns None otherwise, for the caller's own route.
A single basis is such a family with one piece at weight 1.0, so it is the
one place that reads sigma_min^2 = 1 - lambda_max(K) from an output Gram
matrix K and applies the guard.
`spectral_norm` takes
sigma_max from a Gram eigenvalue; it and the Gram route share one
scaling and orientation rule, `_scaled_gram`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

EPS = float(np.finfo(np.float64).eps)

# member_predictions' relative error is about error / sigma_min^2, for the
# numerator ``error`` that QuadraticForms carries: rounding and a Gram defect
# d perturb I - K by about that much (q eps + d for a basis of q rows), and
# (I - K)^-1 amplifies it by 1 / sigma_min^2.  At sigma_min = 0.035 the
# error grew from 6e-13 at d = 2e-14 to 4e-10 at d = 2.5e-11, and on bases
# built from a CS decomposition it reached 0.3 of the estimate.  A basis may
# carry d up to 1e-10, so the identity runs only while the estimate is at
# most IDENTITY_ERROR_TOL: the map then stays within about 3e-10 of the SVD
# map, relative, well inside the 1e-8 that the benchmark's lstsq reference
# checks.  The benchmark inputs reach at most 1.3e-10.
IDENTITY_ERROR_TOL = 1e-9


def svd(matrix, vectors: bool = False, least: int = 0):
    """Thin SVD of ``matrix`` as ``(U, s, Vt, rank)``, with ``rank`` under the
    shared cutoff (0 for an empty or zero matrix).  ``U`` and ``Vt`` are None
    unless ``vectors``; without them only the singular values are computed.

    With ``vectors`` and ``least`` >= 1 the caller asks only whether the
    rank reaches ``least``, for the leading ``least`` columns of U and,
    when ``matrix`` has at least as many rows as columns, for all of Vt.
    The Gram route runs first, and when its estimates clear the case (see
    `_gram_svd`) it returns ``(U[:, :least], s[:least], Vt, least)``, with
    ``Vt`` None for a matrix with fewer rows than columns.  Otherwise this
    SVD runs, so a rank below ``least`` is always the SVD's finding.  A
    caller that needs only to know whether the rank is full asks
    `full_row_rank` instead."""
    if vectors and least >= 1:
        routed = _gram_svd(matrix, least)
        if routed is not None:
            return routed
    matrix = np.asarray(matrix, dtype=float)
    if vectors:
        U, s, Vt = np.linalg.svd(matrix, full_matrices=False)
    else:
        U, s, Vt = None, np.linalg.svd(matrix, compute_uv=False), None
    rank = int(np.count_nonzero(s > max(matrix.shape) * EPS * s[0])) if s.size else 0
    return U, s, Vt, rank


def _gram_svd(matrix, least):
    """The Gram route of `svd`: its result, vectors included, from the
    eigendecomposition of the smaller Gram matrix G of ``matrix`` M (see
    `_scaled_gram`), or None outside the clear case that its estimates
    show.

    G's eigenvalues are the squared singular values lambda_i = sigma_i^2.
    Forming G moves each by at most about gamma_cols * || |M| ||_2^2, at
    most rows * cols * eps * lambda_1 since || |M| ||_2^2 is at most
    min(rows, cols) * lambda_1, and `eigh` adds a few
    min(rows, cols) * eps * lambda_1.  So the rank is taken to reach
    ``least`` once lambda_least clears error = rows * cols * eps * lambda_1,
    an estimate of that bound up to its small constant: the SVD's cutoff,
    max(rows, cols) * eps * sigma_1 on sigma, lies far below it, and on the
    benchmark's inputs it is at most 2.1e-11 relative against a
    lambda_least of 1.57e-4 or more.  The eigenvectors of the leading
    ``least`` eigenvalues are accurate to about
    eps * lambda_1 / (lambda_least - lambda_least+1) (LAPACK Users' Guide,
    section 4.7), with lambda_least+1 = 0 past the last, and the route
    answers only while that estimate is at most IDENTITY_ERROR_TOL.  For a
    wide M they are U; for a tall or square M they are V, the full
    eigenbasis gives Vt, and U's leading columns are M V / sigma, whose
    orthonormality the factorization's residual degrades by about
    eps * lambda_1 / lambda_least.  So that U is measured, and the route
    answers only while ||U'U - I||_F is at most
    max(rows, cols) * least * eps, about the rounding of an SVD's U over
    its least x least Gram matrix: a U near the basis tolerance would
    leave a geodesic drawn from it no room under that tolerance.  On the
    first ten draws from each benchmark input the measured value is at
    most a third of that limit."""
    matrix = np.asarray(matrix, dtype=float)
    if not 1 <= least <= min(matrix.shape):
        return None
    routed = _scaled_gram(matrix)
    if routed is None:
        return None
    scaled, scale, gram, wide = routed
    lam, V = np.linalg.eigh(gram)
    lam, V = lam[::-1], V[:, ::-1]
    if not lam[least - 1] > matrix.size * EPS * lam[0]:  # NaN fails too
        return None
    sigma = np.sqrt(lam[:least])
    gap = lam[least - 1] - (lam[least] if least < len(lam) else 0.0)
    if not EPS * lam[0] <= IDENTITY_ERROR_TOL * gap:
        return None
    if wide:
        return V[:, :least], sigma / scale, None, least
    U = (scaled @ V[:, :least]) / sigma
    if not np.linalg.norm(U.T @ U - np.eye(least)) <= max(matrix.shape) * least * EPS:
        return None
    return U, sigma / scale, V.T, least


def full_row_rank(matrix) -> bool:
    """Whether ``matrix`` has rank equal to its row count under the shared
    cutoff.  A matrix with no more rows than columns first tries
    `_cholesky_certificate`, which proves a clear full rank; in every
    other case the SVD decides, so every False is the SVD's finding."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape[0] <= matrix.shape[1] and _cholesky_certificate(matrix):
        return True
    return svd(matrix)[3] == matrix.shape[0]


def _cholesky_certificate(matrix) -> bool:
    """True when one Cholesky factorization proves that the 2-D float
    array ``matrix`` M has full rank n = min(rows, cols) in the clear case
    of `_gram_svd`: lambda_n > rows * cols * eps * lambda_1, for lambda_i
    the eigenvalues of M's smaller Gram matrix G (see `_scaled_gram`).
    False declines and proves nothing, as for a zero or non-finite M.

    t = ||G||_inf bounds lambda_1 in O(n^2), and G's diagonal is shifted
    down, in place, by s = (rows * cols + 2 n (n + 1)) * eps * t.  A
    Cholesky factorization that runs to completion on a symmetric n x n A
    is exact for some A + dA with ||dA||_2 at most about
    n (n + 1) eps / 2 * ||A||_2 (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.3), and A + dA is positive
    definite.  With A = G - s I, ||A||_2 <= t + s, so
    lambda_n > s - n (n + 1) eps (t + s) > rows * cols * eps * t, which is
    at least the clear case's bound; a non-positive pivot raises
    LinAlgError and declines.  The estimate that `_gram_svd` compares is
    far above the SVD's own cutoff, so a certified matrix has full rank by
    the SVD too."""
    routed = _scaled_gram(matrix)
    if routed is None:
        return False
    gram = routed[2]
    n = len(gram)
    t = float(np.abs(gram).sum(axis=1).max())  # ||G||_inf >= lambda_1 for a symmetric G
    gram.flat[:: n + 1] -= (matrix.size + 2 * n * (n + 1)) * EPS * t
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


def _scaled_gram(matrix):
    """``(scaled, scale, gram, wide)`` for the 2-D float array ``matrix`` M:
    ``scaled`` is M times ``scale``, a power of two that brings its largest
    magnitude into [0.5, 1) exactly, so that its squares neither overflow
    nor underflow, and ``gram`` the smaller Gram matrix of ``scaled``,
    scaled scaled' when M is ``wide`` (fewer rows than columns) and
    scaled' scaled otherwise.  None when M has no nonzero entry or a
    non-finite one."""
    peak = float(np.abs(matrix).max(initial=0.0))
    if not 0.0 < peak < np.inf:
        return None
    scale = math.ldexp(1.0, -math.frexp(peak)[1])
    scaled = matrix * scale
    wide = matrix.shape[0] < matrix.shape[1]
    return scaled, scale, (scaled @ scaled.T if wide else scaled.T @ scaled), wide


def prediction_map(context_rows, future_rows=None):
    """``(future_rows @ pinv(context_rows), rank, sigma_min)`` by one SVD of
    the context rows, with their rank and sigma_min their r-th singular
    value for r columns, which is 0 when they have fewer rows than columns;
    without ``future_rows`` the map is the pseudoinverse itself.  Singular
    values at or below the shared cutoff are dropped, which truncates a
    rank-deficient block."""
    U, svals, Vt, rank = svd(context_rows, vectors=True)
    if rank == 0:
        pinv, sigma_min = np.zeros(np.shape(context_rows)[::-1]), 0.0
    else:
        inv = np.zeros_like(svals)
        inv[:rank] = 1.0 / svals[:rank]
        pinv = (Vt.T * inv) @ U.T
        height, width = np.shape(context_rows)
        sigma_min = float(svals[-1]) if height >= width else 0.0  # wide rows: sigma_cols is 0
    return (pinv if future_rows is None else future_rows @ pinv), rank, sigma_min


class QuadraticForms(NamedTuple):
    """The pieces of a family of orthonormal bases [C; Y], with context rows
    C and future rows Y: for a member's weights w, its output Gram matrix
    K = Y Y' is the sum over j of w_j ``grams[j]`` and the cross product
    A C Y' with the stacked contexts A the sum of w_j ``crosses[j]``.
    ``error``, the numerator of `member_predictions`' guard, estimates how
    far I - K, as the pieces assemble it, lies from C'C for any member: the
    members' Gram defect plus the rounding of K.  The code that forms the
    pieces sets it, `Geodesic.forms` for a geodesic sweep and
    `predictor._basis_map` for one basis, each with its own derivation."""

    # four arrays each rather than one stacked array, whose copy would be
    # large enough to be mapped and faulted in afresh per sweep
    grams: list[np.ndarray]  # (f, f) for f future rows
    crosses: list[np.ndarray]  # (contexts, f)
    error: float


def member_predictions(forms: QuadraticForms, weights, rows: int):
    """``(predictions, sigma_min, norm_first)`` of the member of ``forms``
    with ``weights``: the first ``rows`` of the map applied to every stacked
    context, sigma_min of its context rows and ||Y[:rows]||_2; or None when
    the guard declines the member, before any solve.

    U'U = I makes C'C = I - Y'Y, so with K = sum w_j grams[j],
    sigma_min^2 = 1 - lambda_max(K) by one `eigvalsh`, and by the
    push-through identity the map is (I - K)^-1 Y C'.  The guard admits the
    member only while the error estimate ``forms.error`` / sigma_min^2 is
    at most IDENTITY_ERROR_TOL (a NaN declines), which excludes context
    rows without full column rank.  One solve of (I - K) X = E_rows, with
    E_rows the first ``rows`` columns of I, gives the predictions
    (sum w_j crosses[j]) X, and
    ||Y[:rows]||_2 = sqrt(lambda_max(K[:rows, :rows])) takes one more
    `eigvalsh` unless ``rows`` is all of K, whose lambda_max the guard has
    already read."""
    grams, crosses, error = forms
    gram = _weighted(weights, grams)
    top = float(np.linalg.eigvalsh(gram).max())
    gap = 1.0 - top
    if not error <= IDENTITY_ERROR_TOL * gap:
        return None
    X = np.linalg.solve(np.eye(len(gram)) - gram, np.eye(len(gram), rows))
    if rows < len(gram):
        top = float(np.linalg.eigvalsh(gram[:rows, :rows])[-1])
    return _weighted(weights, crosses) @ X, math.sqrt(gap), math.sqrt(max(0.0, top))


def _weighted(weights, pieces):
    """sum w_j pieces[j], term by term in order: elementwise, so its bits
    do not depend on how the arrays lie in memory."""
    total = weights[0] * pieces[0]
    for weight, piece in zip(weights[1:], pieces[1:]):
        total += weight * piece
    return total


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value of ``matrix`` (0 for an empty one), without an
    SVD: the root of lambda_max of its smaller Gram matrix (see
    `_scaled_gram`), by `eigvalsh`.  lambda_max is perfectly conditioned, so
    this is accurate to a few eps relative.  An inf or nan entry gives its
    own magnitude, inf or nan."""
    matrix = np.asarray(matrix, dtype=float)
    routed = _scaled_gram(matrix)
    if routed is None:
        return float(np.abs(matrix).max(initial=0.0))
    _, scale, gram, _ = routed
    return float(np.sqrt(np.linalg.eigvalsh(gram)[-1])) / scale
