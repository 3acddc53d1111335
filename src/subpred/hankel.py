"""Hankel data matrices, persistency of excitation, and the block-partitioned
stacked data matrix consumed by the subspace predictor.

The canonical row order of a partitioned data matrix is
(past inputs, future inputs, past outputs, future outputs).  Stacking the
depth-L input Hankel on top of the depth-L output Hankel already produces
this order, because within each signal the first block rows are the past
window; no row permutation is needed and none is applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import full_row_rank
from .errors import ConvergenceError
from .lti import _count, _frozen, _seed

__all__ = [
    "PartitionedMatrix",
    "hankel",
    "is_persistently_exciting",
    "persistently_exciting_input",
    "stacked_data_matrix",
]


@dataclass(frozen=True, eq=False)
class PartitionedMatrix:
    """A ((m+p)(Tini+Tf), r) matrix of finite entries with the canonical
    block-row partition.

    Construction reads each dim with `lti._count`, so a float or bool dim
    raises TypeError, a dim below 1 is refused by name and a numpy integer is
    stored as an int, and then keeps a private read-only copy of ``data``
    from `lti._frozen`, with (m+p)(Tini+Tf) rows and at least one column.  Block views are pure slices of the data:
    stacking (u_past, u_future, y_past, y_future) reproduces ``data``
    exactly.  An orthonormal one is a
    `grassmann.BehaviorBasis`, a subclass, so a basis goes wherever a
    PartitionedMatrix does.
    """

    data: np.ndarray
    m: int
    p: int
    Tini: int
    Tf: int

    def __post_init__(self):
        for name in ("m", "p", "Tini", "Tf"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        q = (self.m + self.p) * (self.Tini + self.Tf)
        object.__setattr__(self, "data", _frozen(self.data, "data", (q, None)))

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


def _windows(z: np.ndarray, depth: int, what: str = "depth") -> np.ndarray:
    """The one window cut: row j is z(j), ..., z(j+depth-1) of the frozen
    (T, d) array ``z``, stacked time-major, a read-only (T-depth+1, d*depth)
    view from one sliding_window_view.  A T below ``depth``, named by
    ``what``, is refused."""
    T, d = z.shape
    if T < depth:
        raise ValueError(f"sequence length {T} is shorter than {what} = {depth}")
    cut = np.lib.stride_tricks.sliding_window_view(z, depth, axis=0)
    return cut.transpose(0, 2, 1).reshape(T - depth + 1, d * depth)


def hankel(z, depth: int) -> np.ndarray:
    """Hankel matrix of the given depth for a vector sequence: ``depth`` is
    read by `lti._count`, then the (T, d) array ``z`` by `lti._frozen`, and
    column j is window j of `_windows`, giving a C-ordered matrix of shape
    (d*depth, T-depth+1)."""
    depth = _count(depth, "depth")
    return _windows(_frozen(z, "z", (None, None)), depth).T.copy()


def is_persistently_exciting(u, order: int) -> bool:
    """True iff the depth-``order`` Hankel matrix of the (T, m) array ``u``,
    read once by `lti._frozen`, and then ``order`` by `lti._count`, before
    any factorization, has full row rank.  The rank comes from
    `_linalg.full_row_rank`: a certificate, one Cholesky factorization of
    the smaller Gram matrix shifted down by its rounding bound, settles a
    clear full row rank, and the SVD decides every other case, so only the
    SVD returns False."""
    u = _frozen(u, "u", (None, None))
    return full_row_rank(_windows(u, _count(order, "order"), "order").T.copy())


_PE_ATTEMPTS = 10


def persistently_exciting_input(m: int, T: int, order: int, seed: int) -> np.ndarray:
    """Draw an i.i.d. standard-normal input of shape (T, m) that is
    persistently exciting of the given order from the seeds seed, seed + 1,
    ..., giving up with ConvergenceError after ``_PE_ATTEMPTS`` draws.

    The depth-``order`` Hankel matrix has m * order rows and T - order + 1
    columns, so no draw can have full row rank when T < (m + 1) * order - 1;
    such a T raises ValueError, naming that minimum, before any draw.
    ``m``, ``T`` and ``order`` are read by `lti._count` and ``seed`` by
    `lti._seed`: a float or a bool raises TypeError, and a count below 1
    or a negative seed ValueError."""
    m, T, order = _count(m, "m"), _count(T, "T"), _count(order, "order")
    seed = _seed(seed)
    shortest = (m + 1) * order - 1
    if T < shortest:
        raise ValueError(
            f"length T={T} is too short for an input persistently exciting of order "
            f"{order} with m={m} channels: T must be at least (m+1)*order - 1 = {shortest}"
        )
    for attempt in range(_PE_ATTEMPTS):
        u = np.random.default_rng(seed + attempt).standard_normal((T, m))
        if is_persistently_exciting(u, order):
            return u
    raise ConvergenceError(
        f"failed to draw a persistently exciting input of order {order} "
        f"(m={m}, T={T}) after {_PE_ATTEMPTS} attempts"
    )


def stacked_data_matrix(u_data, y_data, Tini: int, Tf: int) -> PartitionedMatrix:
    """Stack the depth-(Tini+Tf) input and output Hankel matrices of an
    offline trajectory into a partitioned data matrix.

    The result has T - (Tini+Tf) + 1 columns, one per window of `_windows`.
    ``Tini`` and ``Tf`` are read by `lti._count`, then the (T, m)
    ``u_data`` and (T, p) ``y_data`` once each by `lti._frozen`.
    """
    Tini, Tf = _count(Tini, "Tini"), _count(Tf, "Tf")
    u = _frozen(u_data, "u_data", (None, None))
    y = _frozen(y_data, "y_data", (len(u), None))
    data = np.vstack([_windows(z, Tini + Tf, "Tini+Tf").T for z in (u, y)])
    return PartitionedMatrix(data=data, m=u.shape[1], p=y.shape[1], Tini=Tini, Tf=Tf)
