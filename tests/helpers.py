"""Shared generators for randomized tests, the proof-chain lemmas of the
bounds (the matrix-norm bound, the pseudoinverse perturbation bound and
Weyl's inequality), kept here as oracles for the certified bounds, and the
principal angles and Procrustes alignment of two bases, kept here as
oracles for the chordal distance and the alignment step of the proof."""

from __future__ import annotations

import csv
import functools
import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from subpred import NoiseSpec, StateSpaceModel, load_config, simulate, stacked_data_matrix
from subpred._linalg import prediction_map, spectral_norm, svd
from subpred.errors import RankDeficientError
from subpred.grassmann import BehaviorBasis, _check_comparable
from subpred.hankel import PartitionedMatrix, persistently_exciting_input

_PINV_PERTURBATION_CONST = (1.0 + np.sqrt(5.0)) / 2.0

# Largest relative gap, in a prediction map and in sigma_min, between the
# Gram route and the SVD route on bases with sigma_min >= 0.03, and between
# a sweep member mapped from the rows of its blend and the same member built
# as a basis; the benchmark inputs showed at most 1e-12 (sigma_min 0.024).
MAP_RTOL = 1e-11


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
    rng = np.random.default_rng(noise.seed) if noise.sigma > 0 else None
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


def hankel_reference(z, depth: int) -> np.ndarray:
    """Per-lag Hankel oracle: block row i of the (d*depth, T-depth+1)
    result is z[i : i + T - depth + 1].T for a (T, d) array ``z``."""
    z = np.asarray(z, dtype=float)
    cols = len(z) - depth + 1
    out = np.empty((z.shape[1] * depth, cols))
    for i in range(depth):
        out[i * z.shape[1] : (i + 1) * z.shape[1], :] = z[i : i + cols].T
    return out


def unobservable_model(n: int = 2, m: int = 1) -> StateSpaceModel:
    """Diagonal model with a repeated mode seen through one coordinate only,
    unobservable for every window length."""
    A = 0.5 * np.eye(n)
    B = np.ones((n, m))
    C = np.zeros((1, n))
    C[0, 0] = 1.0
    return StateSpaceModel(A=A, B=B, C=C, D=np.zeros((1, m)))


@functools.cache
def _bench_workloads():
    """bench/workloads.py, loaded as a module: the benchmark's inputs and the
    repo's one model-file writer."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def benchmark_config(workload: str, seed: int, directory):
    """The configuration that the benchmark runs for ``workload`` at
    ``seed``, read from the model and configuration files that
    bench/workloads.py writes into ``directory``."""
    return load_config(_bench_workloads().write_inputs(workload, seed, Path(directory))[0])


def format_model(model) -> str:
    """The text of a model file for ``model``, any object with matrices A,
    B, C and D, written by bench/workloads.py's ``format_model``, which
    takes n, m and p from the shapes of B and C."""
    return _bench_workloads().format_model({key: getattr(model, key) for key in "ABCD"})


def offline_data(config) -> tuple[PartitionedMatrix, int]:
    """The offline data matrix that `experiment.prepare` builds for
    ``config``, with the basis rank r = m(Tini + Tf) + n it takes."""
    model, L = config.model, config.Tini + config.Tf
    u = persistently_exciting_input(model.m, config.T, order=model.n + L, seed=config.seed_data)
    offline = simulate(model, u, noise=NoiseSpec.relative_gaussian(config.sigma, config.seed_noise))
    data = stacked_data_matrix(offline.inputs, offline.outputs, config.Tini, config.Tf)
    return data, model.m * L + model.n


def random_basis(
    rng: np.random.Generator,
    dims: tuple[int, int, int, int],
    r: int,
) -> BehaviorBasis:
    """Random point on the Grassmannian, wrapped with the given partition."""
    m, p, Tini, Tf = dims
    q = (m + p) * (Tini + Tf)
    Q, _ = np.linalg.qr(rng.standard_normal((q, r)))
    return BehaviorBasis(data=Q, m=m, p=p, Tini=Tini, Tf=Tf)


def single_angle_member(rng: np.random.Generator, U: BehaviorBasis, kappa: float) -> BehaviorBasis:
    """A basis at chordal distance ``kappa`` <= 1 from ``U`` with one nonzero
    principal angle, asin(kappa): a random unit direction of span U rotated
    by that angle toward a random unit direction of its orthogonal
    complement, the rest of span U kept."""
    A = U.matrix @ random_orthogonal(rng, U.r)  # column 0: a random unit direction of span U
    away = rng.standard_normal(U.q)
    for _ in range(2):  # project twice, so that rounding leaves no component in span U
        away -= U.matrix @ (U.matrix.T @ away)
    A[:, 0] = A[:, 0] * np.sqrt((1.0 - kappa) * (1.0 + kappa)) + away / np.linalg.norm(away) * kappa
    return BehaviorBasis(A, *U.dims)


def cs_basis(
    rng: np.random.Generator,
    dims: tuple[int, int, int, int],
    r: int,
    sigma_min: float,
    gram_defect: float = 0.0,
) -> BehaviorBasis:
    """Random basis built from a CS decomposition, U = [P1 C; P2 S] V', whose
    context rows have smallest singular value ``sigma_min``.  With
    ``gram_defect`` > 0 its last column is stretched by 1 + gram_defect / 2,
    which gives ||U'U - I||_F about ``gram_defect`` and leaves every
    prediction unchanged (a column scaling keeps the span)."""
    m, p, Tini, Tf = dims
    q = (m + p) * (Tini + Tf)
    a, b = q - p * Tf, p * Tf
    k = min(r, b)
    cosines = np.ones(r)
    cosines[:k] = np.linspace(sigma_min, 1.0, k, endpoint=False)
    sines = np.sqrt(1.0 - cosines[:k] ** 2)
    V = random_orthogonal(rng, r)
    data = np.vstack([
        random_orthogonal(rng, a)[:, :r] * cosines @ V.T,
        random_orthogonal(rng, b)[:, :k] * sines @ V[:, :k].T,
    ])
    data[:, -1] *= 1.0 + gram_defect / 2
    return BehaviorBasis(data=data, m=m, p=p, Tini=Tini, Tf=Tf)


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
        pinv, rank, _ = prediction_map(X.context_block)
        if rank < X.r:
            raise RankDeficientError(f"{name} context block is not of full column rank")
        pinvs.append(pinv)
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


@dataclass(frozen=True, eq=False)
class PrincipalAngles:
    """Canonical angles between two equal-rank subspaces.

    ``angles`` is nondecreasing in [0, pi/2]; ``cosines`` (nonincreasing) and
    ``sines`` (nondecreasing) are aligned index-wise with ``angles``.
    """

    angles: np.ndarray
    cosines: np.ndarray
    sines: np.ndarray


def _sines(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sines (ascending) of the principal angles between the column spans of
    two orthonormal matrices: the singular values of B's component outside
    span A."""
    return np.clip(svd(B - A @ (A.T @ B))[1][::-1], 0.0, 1.0)


def principal_angles(U: BehaviorBasis, V: BehaviorBasis) -> PrincipalAngles:
    """Principal angles between two equal-rank behavior subspaces.

    Each angle is recovered from its (cosine, sine) pair via arctan2, which is
    accurate at both ends of [0, pi/2].
    """
    _check_comparable(U, V)
    A, B = U.matrix, V.matrix
    cosines = np.clip(svd(A.T @ B)[1], 0.0, 1.0)
    sines = _sines(A, B)
    angles = np.arctan2(sines, cosines)
    return PrincipalAngles(angles=angles, cosines=cosines, sines=sines)


def align_basis(U: BehaviorBasis, Uhat: BehaviorBasis) -> BehaviorBasis:
    """Rotate ``Uhat`` by the orthogonal matrix that brings it closest to
    ``U`` in Frobenius norm (the orthogonal Procrustes minimizer).

    The rotated basis spans the same subspace as ``Uhat``; the achieved gap
    satisfies ||U - aligned||_F^2 = 2r - 2*sum(cos(theta_i)) and is at most
    sqrt(2) times the chordal distance.
    """
    _check_comparable(U, Uhat)
    P, _, Qt, _ = svd(U.matrix.T @ Uhat.matrix, vectors=True)
    rotation = Qt.T @ P.T
    return BehaviorBasis(Uhat.matrix @ rotation, *Uhat.dims)
