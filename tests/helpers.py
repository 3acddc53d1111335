"""Shared generators for randomized tests, and the proof-chain lemmas of the
bounds (the matrix-norm bound, the pseudoinverse perturbation bound and
Weyl's inequality), kept here as oracles for the certified bounds."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from subpred import NoiseSpec, StateSpaceModel
from subpred._linalg import spectral_norm, svd
from subpred.errors import RankDeficientError
from subpred.grassmann import BehaviorBasis
from subpred.hankel import PartitionedMatrix
from subpred.predictor import _PredictionMap

_PINV_PERTURBATION_CONST = (1.0 + np.sqrt(5.0)) / 2.0


def random_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def conditioned_invertible(rng: np.random.Generator, d: int, cond: float) -> np.ndarray:
    """Random invertible d x d matrix with condition number exactly ``cond``."""
    if d == 1:
        return np.array([[1.0]])
    svals = np.geomspace(np.sqrt(cond), 1.0 / np.sqrt(cond), d)
    return random_orthogonal(rng, d) * svals @ random_orthogonal(rng, d)


def _ctrb(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def _obsv(A: np.ndarray, C: np.ndarray) -> np.ndarray:
    n = A.shape[0]
    blocks = [C]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ A)
    return np.vstack(blocks)


def random_model(
    rng: np.random.Generator,
    n: int | None = None,
    m: int | None = None,
    p: int | None = None,
    spectral_radius: float = 0.95,
) -> StateSpaceModel:
    """Random stable model, redrawn until observable and controllable."""
    n = n if n is not None else int(rng.integers(1, 5))
    m = m if m is not None else int(rng.integers(1, 3))
    p = p if p is not None else int(rng.integers(1, 3))
    while True:
        A = rng.standard_normal((n, n))
        radius = max(abs(np.linalg.eigvals(A)))
        if radius > 0:
            A *= spectral_radius * rng.uniform(0.5, 1.0) / radius
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, m))
        if np.linalg.matrix_rank(_ctrb(A, B)) == n and np.linalg.matrix_rank(_obsv(A, C)) == n:
            return StateSpaceModel(A=A, B=B, C=C, D=D)


def simulate_reference(
    model: StateSpaceModel, u: np.ndarray, x0=None, noise: NoiseSpec = NoiseSpec()
) -> tuple[np.ndarray, np.ndarray]:
    """Per-step simulation oracle: output, noise and state update in one loop,
    with one ``rng.standard_normal(p)`` draw per step.  Returns (states, outputs)."""
    rng = np.random.default_rng(noise.seed) if noise.kind == "relative-gaussian" else None
    states = np.empty((len(u) + 1, model.n))
    outputs = np.empty((len(u), model.p))
    states[0] = np.zeros(model.n) if x0 is None else x0
    for t in range(len(u)):
        y_clean = model.C @ states[t] + model.D @ u[t]
        if rng is not None:
            scale = np.sqrt(noise.sigma) * np.linalg.norm(y_clean)
            outputs[t] = y_clean + scale * rng.standard_normal(model.p)
        else:
            outputs[t] = y_clean
        states[t + 1] = model.A @ states[t] + model.B @ u[t]
    return states, outputs


def unobservable_model(n: int = 2, m: int = 1) -> StateSpaceModel:
    """Diagonal model with a repeated mode seen through one coordinate only,
    unobservable for every window length."""
    A = 0.5 * np.eye(n)
    B = np.ones((n, m))
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return StateSpaceModel(A=A, B=B, C=C, D=np.zeros((1, m)))


def random_basis(
    rng: np.random.Generator,
    dims: tuple[int, int, int, int],
    r: int,
) -> BehaviorBasis:
    """Random point on the Grassmannian, wrapped with the given partition."""
    m, p, Tini, Tf = dims
    q = (m + p) * (Tini + Tf)
    Q, _ = np.linalg.qr(rng.standard_normal((q, r)))
    return BehaviorBasis(PartitionedMatrix(data=Q, m=m, p=p, Tini=Tini, Tf=Tf))


def trial_rows(blocks) -> list[tuple]:
    """The rows of ``trials.csv`` built from the member blocks' columns, in
    ``TrialBlock._fields`` order, with Python floats from the error and bound
    columns and None as the bound of an uncertified member."""
    rows = []
    for b in blocks:
        bounds = [None] * len(b.t) if b.bound is None else b.bound.tolist()
        rows += [
            (b.n, b.kappa, t, error, bound, b.sigma_min_Mhat)
            for t, error, bound in zip(b.t, b.prediction_error.tolist(), bounds)
        ]
    return rows


def write_csv_reference(path, header, rows) -> None:
    """The csv module's writer, the byte oracle for ``trials.csv``: floats in
    ``repr`` form, ``None`` as an empty field, lines ended by a bare newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    if not (np.isfinite(b_norm) and b_norm >= 0):
        raise ValueError(f"b_norm must be finite and nonnegative, got {b_norm}")
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
