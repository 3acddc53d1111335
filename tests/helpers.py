"""Shared generators for randomized tests."""

from __future__ import annotations

import csv

import numpy as np

from subpred import NoiseSpec, StateSpaceModel
from subpred.grassmann import BehaviorBasis
from subpred.hankel import PartitionedMatrix


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
