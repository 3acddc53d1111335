"""Subspace geometry for behavior spaces: orthonormal bases, principal
angles, chordal distance, Procrustes alignment, and perturbed subspaces at a
prescribed distance along a geodesic whose k moving principal angles are
equal, so the subspace at a distance is one blend of two matrices.

Angles are computed from two SVDs: cosines from the product of the bases,
sines from the projection of one basis onto the orthogonal complement of the
other.  The sine route keeps full accuracy for nearly identical subspaces,
where arccos of a cosine loses half the significant digits.  A distance needs
only the 2-norm of the sines, which is the Frobenius norm of that projection,
so it is evaluated without any SVD and checked against the projection taken
the other way, of the first basis off the second.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._kv import finite_floats
from ._linalg import svd
from .errors import ConvergenceError, RankDeficientError
from .hankel import PartitionedMatrix

__all__ = [
    "BehaviorBasis",
    "PrincipalAngles",
    "orthonormal_basis",
    "principal_angles",
    "chordal_distance",
    "align_basis",
    "check_distance",
    "Geodesic",
    "perturb_subspace",
    "save_basis",
    "load_basis",
]

ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class PrincipalAngles:
    """Canonical angles between two equal-rank subspaces.

    ``angles`` is nondecreasing in [0, pi/2]; ``cosines`` (nonincreasing) and
    ``sines`` (nondecreasing) are aligned index-wise with ``angles``.
    """

    angles: np.ndarray
    cosines: np.ndarray
    sines: np.ndarray


@dataclass(frozen=True, eq=False)
class BehaviorBasis(PartitionedMatrix):
    """An orthonormal spanning matrix of a behavior subspace: a
    PartitionedMatrix, built as ``BehaviorBasis(data, m, p, Tini, Tf)``, whose
    columns are orthonormal to within ``ORTHONORMALITY_TOL`` in Frobenius
    norm.  Construction runs the PartitionedMatrix checks (private read-only
    copy, finite entries, dims), rejects anything looser than that
    tolerance, and keeps the measured defect ||U'U - I||_F as
    ``gram_defect``.  ``matrix`` is ``data``.  A basis with r columns in
    ambient dimension q represents a point on the Grassmannian of
    r-dimensional subspaces of R^q.
    """

    gram_defect: float = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        mat = self.data
        if mat.shape[1] > mat.shape[0]:
            raise ValueError(f"rank {mat.shape[1]} exceeds ambient dimension {mat.shape[0]}")
        gram_defect = np.linalg.norm(mat.T @ mat - np.eye(mat.shape[1]))
        if not gram_defect <= ORTHONORMALITY_TOL:  # NaN fails too
            raise ValueError(
                f"columns are not orthonormal: ||U'U - I||_F = {gram_defect:.3e}"
            )
        object.__setattr__(self, "gram_defect", float(gram_defect))

    @property
    def matrix(self) -> np.ndarray:
        return self.data


def orthonormal_basis(X: PartitionedMatrix, r: int) -> BehaviorBasis:
    """Top-r left singular vectors of a data matrix, as a BehaviorBasis.

    The returned columns span the best rank-r approximation of the column
    space of ``X``.  Rejects the request when the r-th singular value falls
    under the shared rank cutoff, i.e. when r exceeds the numerical rank.
    """
    if not 1 <= r <= min(X.q, X.r):
        raise ValueError(f"rank r={r} out of range for a {X.q}x{X.r} matrix")
    U, svals, _, rank = svd(X.data, vectors=True)
    if rank < r:
        raise RankDeficientError(
            f"requested rank r={r} exceeds the numerical rank: "
            f"sigma_{r} = {svals[r - 1]:.3e} is below the cutoff"
        )
    return BehaviorBasis(np.ascontiguousarray(U[:, :r]), *X.dims)


def _check_comparable(U: BehaviorBasis, V: BehaviorBasis) -> None:
    if U.q != V.q:
        raise ValueError(f"ambient dimensions differ: {U.q} vs {V.q}")
    if U.r != V.r:
        raise ValueError(f"subspace ranks differ: {U.r} vs {V.r}")


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


def chordal_distance(U: BehaviorBasis, V: BehaviorBasis) -> float:
    """Chordal distance: the root of the sum of squared principal-angle sines.

    The sines are the singular values of R = V - U(U'V), the component of V
    outside span U, so the distance is ||R||_F and needs no SVD.  Internally
    cross-checked against the swapped residual ||U - V(U'V)'||_F, the
    component of U outside span V: for orthonormal bases both equal
    sqrt(r - ||U'V||_F^2), and disagreement beyond 1e-10 signals a
    numerical inconsistency and raises.  The value lies in [0, sqrt(r)] and
    does not depend on the choice of orthonormal bases.
    """
    _check_comparable(U, V)
    A, B = U.matrix, V.matrix
    M = A.T @ B
    return _cross_checked(float(np.linalg.norm(B - A @ M)), float(np.linalg.norm(A - B @ M.T)))


def _cross_checked(d: float, swapped: float) -> float:
    """``d``, once it agrees with the swapped residual norm to 1e-10;
    ArithmeticError otherwise."""
    if abs(d - swapped) > 1e-10:
        raise ArithmeticError(
            f"chordal distance formulas disagree: residual norm gives {d!r}, "
            f"swapped residual norm gives {swapped!r}"
        )
    return d


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


def check_distance(q: int, r: int, kappa: float) -> None:
    """Reject a target chordal distance that no rank-r subspace of R^q can
    lie at from another: ``kappa`` must be finite and in [0, sqrt(k)], with
    k = min(r, q - r) the number of principal angles that the complement of
    dimension q - r leaves room to be nonzero."""
    if not np.isfinite(kappa):
        raise ValueError(f"kappa={kappa} is not a finite number")
    largest = math.sqrt(min(r, q - r))
    if not 0 <= kappa <= largest:
        raise ValueError(
            f"kappa={kappa} unreachable: out of range [0, sqrt(min(r, q-r))] = "
            f"[0, {largest:.6g}] for subspaces of rank {r} in dimension {q}"
        )


# The last draw from each live basis, as (seed, start, heading), keyed weakly
# by the BehaviorBasis object.  A basis is frozen over a private read-only
# copy of its data, so a stored draw is bit for bit a fresh one.  A value
# holds no Geodesic, whose origin would keep its key alive.
_DRAWS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class Geodesic:
    """A Grassmann geodesic leaving ``origin`` in a fixed tangent direction
    (Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 1998), whose
    k = min(r, q - r) nonzero singular values are equal.

    ``start`` is an orthonormal basis of the origin and ``heading`` holds k
    orthonormal columns orthogonal to it.  The member at chordal distance
    kappa is ``start`` with its first k columns replaced by the blend
    start[:, :k] c + heading s, where s = kappa / sqrt(k) and
    c = sqrt(1 - s^2); the other r - k columns stay.  Its k moving principal
    angles from the origin all equal asin(s) and the rest are 0, so its
    distance is sqrt(k) s = kappa, for every kappa up to sqrt(k), the
    largest distance `check_distance` admits.  The textbook form
    U V cos(t Theta) + W sin(t Theta) gives the same subspace at
    sin(t pi/2) = s.  The arrays are read-only, so one geodesic can serve
    concurrent callers.
    """

    origin: BehaviorBasis
    start: np.ndarray  # (q, r), orthonormal, spans the origin
    heading: np.ndarray  # (q, k), orthonormal, orthogonal to start

    @classmethod
    def draw(cls, U: BehaviorBasis, seed: int) -> "Geodesic":
        """The geodesic in a random tangent direction: a standard normal
        q x r draw from the integer ``seed``, projected onto the orthogonal
        complement of span U and factored by one SVD, W S V'.  ``start`` is
        U V and ``heading`` the first k columns of W.  Raises
        ConvergenceError when the projected draw has numerical rank below
        k = min(r, q - r) or its heading is not orthogonal to span U to
        within ``ORTHONORMALITY_TOL``, and TypeError when ``seed`` is not an
        integer.

        The factorization is reused per live basis and seed: the arrays of
        the last seed drawn from ``U`` are kept while ``U`` is alive, so a
        second draw from the same basis object and seed makes no SVD and
        returns the bits of a fresh draw."""
        seed = operator.index(seed)  # None or a Generator would not repeat
        stored = _DRAWS.get(U)
        if stored is not None and stored[0] == seed:
            return cls(U, *stored[1:])
        rng = np.random.default_rng(seed)
        base = U.matrix
        direction = rng.standard_normal((U.q, U.r))
        direction -= base @ (base.T @ direction)
        W, _, Vt, rank = svd(direction, vectors=True)
        k = min(U.r, U.q - U.r)
        if rank < k:
            raise ConvergenceError(
                f"tangent direction drawn from seed={seed} has rank {rank}, below {k}"
            )
        heading = np.ascontiguousarray(W[:, :k])
        # The rank is relative to the projected draw itself, so a draw inside
        # span U, which projects to rounding error, passes it; the blend needs
        # a heading orthogonal to U, so that is measured.
        leak = float(np.linalg.norm(base.T @ heading))
        if not leak <= ORTHONORMALITY_TOL:
            raise ConvergenceError(
                f"tangent direction drawn from seed={seed} is not orthogonal to the basis: "
                f"||U'W||_F = {leak:.3e}"
            )
        arrays = (base @ Vt.T, heading)
        for arr in arrays:
            arr.flags.writeable = False
        _DRAWS[U] = (seed, *arrays)
        return cls(U, *arrays)

    def member(self, kappa: float) -> tuple[BehaviorBasis, float]:
        """The subspace at chordal distance ``kappa`` from the origin, with
        its distance as measured by `chordal_distance`; ``kappa = 0`` is the
        origin itself.  Raises ValueError for a target no subspace can reach.

        The measurement verifies the closed form: a miss beyond
        1e-6 * max(1, kappa) raises ConvergenceError.
        """
        check_distance(self.origin.q, self.origin.r, kappa)
        if kappa == 0:
            perturbed = self.origin
        else:
            perturbed = BehaviorBasis(self.blend(kappa), *self.origin.dims)
        return perturbed, _on_target(kappa, chordal_distance(self.origin, perturbed))

    def blend(self, kappa: float) -> np.ndarray:
        """The matrix of the member at ``kappa``, unchecked: a new copy of
        ``start`` whose first k columns are start[:, :k] c + heading s."""
        k = self.heading.shape[1]
        s = kappa / math.sqrt(k)  # at most 1: check_distance caps kappa at sqrt(k)
        data = self.start.copy()
        data[:, :k] = self.start[:, :k] * math.sqrt((1 - s) * (1 + s)) + self.heading * s
        return data


def _on_target(kappa: float, measured: float) -> float:
    """``measured``, once it lies within 1e-6 * max(1, kappa) of the target
    ``kappa``; ConvergenceError otherwise."""
    if not abs(measured - kappa) <= 1e-6 * max(1.0, kappa):
        raise ConvergenceError(f"member for kappa={kappa} measures distance {measured!r}")
    return measured


def perturb_subspace(U: BehaviorBasis, kappa: float, seed: int) -> BehaviorBasis:
    """A random subspace at chordal distance ``kappa`` from ``U``.

    The member at ``kappa`` of the geodesic drawn from ``seed`` (see
    `Geodesic`): its k = min(r, q - r) principal angles from ``U`` all equal
    asin(kappa / sqrt(k)), and its distance is verified by one measurement
    to |d - kappa| <= 1e-6 * max(1, kappa).  The columns are the geodesic's
    blend of two orthonormal matrices, a basis that is not rotated towards
    ``U``.  ``kappa = 0`` returns ``U`` itself.  Deterministic for a fixed
    seed.  The direction's factorization is reused per live basis and seed
    (see `Geodesic.draw`), so calls at several distances on one (basis,
    seed) make one SVD between them.  The measured distance is dropped, so
    a caller that reports it would have to measure it again; it should call
    ``Geodesic.draw(U, seed).member(kappa)`` instead, which returns the same
    basis together with its measured distance.  The experiment sweep calls
    neither: it maps each member's `Geodesic.blend` directly and measures
    its distance from blocks that are fixed per geodesic.
    """
    return Geodesic.draw(U, seed).member(kappa)[0]


# ---------------------------------------------------------------------------
# Basis files: one header line '# m=<m> p=<p> Tini=<Tini> Tf=<Tf> r=<r>'
# followed by q comma-separated rows of r entries.
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^#\s*m=(\d+)\s+p=(\d+)\s+Tini=(\d+)\s+Tf=(\d+)\s+r=(\d+)\s*$"
)


def save_basis(path, basis: BehaviorBasis) -> None:
    m, p, Tini, Tf = basis.dims
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# m={m} p={p} Tini={Tini} Tf={Tf} r={basis.r}\n")
        for row in basis.matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_basis(path) -> BehaviorBasis:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        match = _HEADER_RE.match(header.strip())
        if match is None:
            raise ValueError(
                f"{path}:1: expected header '# m=<m> p=<p> Tini=<Tini> Tf=<Tf> r=<r>', "
                f"got {header.strip()!r}"
            )
        m, p, Tini, Tf, r = (int(g) for g in match.groups())
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            entries = line.strip().split(",")
            if len(entries) != r:
                raise ValueError(f"{path}:{lineno}: expected {r} entries, got {len(entries)}")
            rows.append(finite_floats(entries, f"{path}:{lineno}"))
    q = (m + p) * (Tini + Tf)
    if len(rows) != q:
        raise ValueError(f"{path}: expected {q} data rows for the declared dims, got {len(rows)}")
    return BehaviorBasis(np.array(rows), m, p, Tini, Tf)
