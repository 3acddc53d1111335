"""The one SVD call site and its numerical-rank convention.

Every factorization in the library goes through `svd`, and every rank
decision uses its relative cutoff: a singular value counts toward the rank
when it exceeds ``max(rows, cols) * machine_eps * sigma_max``.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)


def svd(matrix, vectors: bool = False):
    """Thin SVD of ``matrix`` as ``(U, s, Vt, rank)``, with ``rank`` under the
    shared cutoff (0 for an empty or zero matrix).  ``U`` and ``Vt`` are None
    unless ``vectors``; without them only the singular values are computed."""
    matrix = np.asarray(matrix, dtype=float)
    if vectors:
        U, s, Vt = np.linalg.svd(matrix, full_matrices=False)
    else:
        U, s, Vt = None, np.linalg.svd(matrix, compute_uv=False), None
    rank = int(np.count_nonzero(s > max(matrix.shape) * EPS * s[0])) if s.size else 0
    return U, s, Vt, rank


def numerical_rank(matrix: np.ndarray) -> int:
    """Rank of ``matrix`` under the shared singular-value cutoff."""
    return svd(matrix)[3]


def spectral_norm(matrix: np.ndarray) -> float:
    """Largest singular value of ``matrix`` (0 for an empty one)."""
    return float(svd(matrix)[1].max(initial=0.0))
