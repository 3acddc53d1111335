"""Hankel data matrices, persistency of excitation, and the block-partitioned
stacked data matrix consumed by the subspace predictor.

The canonical row order of a partitioned data matrix is
(past inputs, future inputs, past outputs, future outputs).  Stacking the
depth-L input Hankel on top of the depth-L output Hankel already produces
this order, because within each signal the first block rows are the past
window; no row permutation is needed and none is applied.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from ._kv import finite_floats
from ._linalg import numerical_rank
from .errors import ConvergenceError
from .lti import Trajectory

__all__ = [
    "PartitionedMatrix",
    "hankel",
    "is_persistently_exciting",
    "persistently_exciting_input",
    "stacked_data_matrix",
    "save_trajectory",
    "load_trajectory",
]


@dataclass(frozen=True, eq=False)
class PartitionedMatrix:
    """A ((m+p)(Tini+Tf), r) matrix of finite entries with the canonical
    block-row partition.

    Block views are pure slices of ``data``: stacking
    (u_past, u_future, y_past, y_future) reproduces ``data`` exactly.
    ``Tini`` or ``Tf`` may be zero for payloads that only need the ambient
    space (e.g. distance computations); the predictor requires both positive.
    """

    data: np.ndarray
    m: int
    p: int
    Tini: int
    Tf: int

    def __post_init__(self):
        data = np.array(self.data, dtype=float, order="C")  # private copy, safe to freeze
        if data.ndim != 2:
            raise ValueError(f"data must be 2-dimensional, got shape {data.shape}")
        if not np.isfinite(data).all():
            raise ValueError("data has non-finite entries")
        if min(self.m, self.p) < 1 or min(self.Tini, self.Tf) < 0 or self.Tini + self.Tf < 1:
            raise ValueError(
                f"invalid dims (m={self.m}, p={self.p}, Tini={self.Tini}, Tf={self.Tf})"
            )
        q = (self.m + self.p) * (self.Tini + self.Tf)
        if data.shape[0] != q:
            raise ValueError(
                f"data has {data.shape[0]} rows, expected (m+p)(Tini+Tf) = {q} "
                f"for dims (m={self.m}, p={self.p}, Tini={self.Tini}, Tf={self.Tf})"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def q(self) -> int:
        return self.data.shape[0]

    @property
    def r(self) -> int:
        return self.data.shape[1]

    @property
    def L(self) -> int:
        return self.Tini + self.Tf

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return (self.m, self.p, self.Tini, self.Tf)

    @property
    def u_past(self) -> np.ndarray:
        return self.data[: self.m * self.Tini]

    @property
    def u_future(self) -> np.ndarray:
        return self.data[self.m * self.Tini : self.m * self.L]

    @property
    def y_past(self) -> np.ndarray:
        return self.data[self.m * self.L : self.m * self.L + self.p * self.Tini]

    @property
    def y_future(self) -> np.ndarray:
        return self.data[self.m * self.L + self.p * self.Tini :]

    @property
    def context_block(self) -> np.ndarray:
        """Rows paired with the context vector (u_ini, u, y_ini): everything
        except the future-output rows."""
        return self.data[: self.q - self.p * self.Tf]

    def with_data(self, data: np.ndarray) -> "PartitionedMatrix":
        """Same partition, new matrix."""
        return PartitionedMatrix(data=data, m=self.m, p=self.p, Tini=self.Tini, Tf=self.Tf)


def hankel(z, depth: int) -> np.ndarray:
    """Hankel matrix of the given depth for a vector sequence.

    ``z`` has shape (T, d) (or (T,) for scalars); column j of the result
    stacks z(j), z(j+1), ..., z(j+depth-1), giving shape (d*depth, T-depth+1).
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 1:
        z = z.reshape(-1, 1)
    if z.ndim != 2:
        raise ValueError(f"sequence must have shape (T, d), got {z.shape}")
    T, d = z.shape
    if not 1 <= depth <= T:
        raise ValueError(f"depth {depth} out of range for a sequence of length {T}")
    cols = T - depth + 1
    out = np.empty((d * depth, cols))
    for i in range(depth):
        out[i * d : (i + 1) * d, :] = z[i : i + cols].T
    return out


def is_persistently_exciting(u, order: int) -> bool:
    """True iff the depth-``order`` Hankel matrix of ``u`` has full row rank."""
    u = np.asarray(u, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    H = hankel(u, order)
    return numerical_rank(H) == u.shape[1] * order


def persistently_exciting_input(
    m: int, T: int, order: int, seed: int, max_retries: int = 10
) -> np.ndarray:
    """Draw an i.i.d. standard-normal input of shape (T, m) that is
    persistently exciting of the given order, retrying with offset seeds."""
    for attempt in range(max_retries):
        u = np.random.default_rng(seed + attempt).standard_normal((T, m))
        if is_persistently_exciting(u, order):
            return u
    raise ConvergenceError(
        f"failed to draw a persistently exciting input of order {order} "
        f"(m={m}, T={T}) after {max_retries} attempts"
    )


def stacked_data_matrix(u_data, y_data, Tini: int, Tf: int) -> PartitionedMatrix:
    """Stack the depth-(Tini+Tf) input and output Hankel matrices of an
    offline trajectory into a partitioned data matrix.

    The result has T - (Tini+Tf) + 1 columns, one per sliding window.
    """
    u = np.asarray(u_data, dtype=float)
    y = np.asarray(y_data, dtype=float)
    if u.ndim == 1:
        u = u.reshape(-1, 1)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    if len(u) != len(y):
        raise ValueError(f"input and output sequences differ in length: {len(u)} vs {len(y)}")
    if min(Tini, Tf) < 1:
        raise ValueError(f"Tini and Tf must be positive, got ({Tini}, {Tf})")
    L = Tini + Tf
    if len(u) < L:
        raise ValueError(f"sequence length {len(u)} is shorter than Tini+Tf = {L}")
    data = np.vstack([hankel(u, L), hankel(y, L)])
    return PartitionedMatrix(data=data, m=u.shape[1], p=y.shape[1], Tini=Tini, Tf=Tf)


# ---------------------------------------------------------------------------
# Trajectory files: CSV with header t,u_0..u_{m-1},y_0..y_{p-1}
# ---------------------------------------------------------------------------


def _header(m: int, p: int) -> list[str]:
    return ["t"] + [f"u_{i}" for i in range(m)] + [f"y_{i}" for i in range(p)]


def save_trajectory(path, trajectory: Trajectory) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_header(trajectory.m, trajectory.p))
        for t in range(trajectory.length):
            row = [str(t)]
            row += [repr(float(v)) for v in trajectory.inputs[t]]
            row += [repr(float(v)) for v in trajectory.outputs[t]]
            writer.writerow(row)


def load_trajectory(path, m: int, p: int) -> Trajectory:
    """Read a trajectory CSV, validating the column layout against (m, p)."""
    expected = _header(m, p)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ValueError(
                f"{path}: header {header} does not match declared (m={m}, p={p}); "
                f"expected {expected}"
            )
        inputs, outputs = [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 1 + m + p:
                raise ValueError(
                    f"{path}:{lineno}: expected {1 + m + p} columns, got {len(row)}"
                )
            values = finite_floats(row[1:], f"{path}:{lineno}")
            inputs.append(values[:m])
            outputs.append(values[m:])
    if not inputs:
        raise ValueError(f"{path}: no data rows")
    return Trajectory(inputs=np.array(inputs), outputs=np.array(outputs))
