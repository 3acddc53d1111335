"""Subspace geometry for behavior spaces: orthonormal bases, principal
angles, chordal distance, Procrustes alignment, and perturbed subspaces at a
prescribed distance along a geodesic whose distance is known in closed form.

Angles are computed from two SVDs: cosines from the product of the bases,
sines from the projection of one basis onto the orthogonal complement of the
other.  The sine route keeps full accuracy for nearly identical subspaces,
where arccos of a cosine loses half the significant digits.  A distance needs
only the 2-norm of the sines, which is the Frobenius norm of that projection,
so it is evaluated without any SVD and checked against the projection taken
the other way, of the first basis off the second.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
class BehaviorBasis:
    """An orthonormal spanning matrix of a behavior subspace.

    Wraps a PartitionedMatrix whose columns are orthonormal to within
    ``ORTHONORMALITY_TOL`` in Frobenius norm; construction rejects anything
    looser.  A basis with r columns in ambient dimension q represents a point
    on the Grassmannian of r-dimensional subspaces of R^q.
    """

    basis: PartitionedMatrix

    def __post_init__(self):
        mat = self.basis.data
        if mat.shape[1] > mat.shape[0]:
            raise ValueError(f"rank {mat.shape[1]} exceeds ambient dimension {mat.shape[0]}")
        gram_defect = np.linalg.norm(mat.T @ mat - np.eye(mat.shape[1]))
        if not gram_defect <= ORTHONORMALITY_TOL:  # NaN fails too
            raise ValueError(
                f"columns are not orthonormal: ||U'U - I||_F = {gram_defect:.3e}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.basis.data

    @property
    def q(self) -> int:
        return self.basis.q

    @property
    def r(self) -> int:
        return self.basis.r

    @property
    def dims(self) -> tuple[int, int, int, int]:
        return self.basis.dims

    @property
    def context_block(self) -> np.ndarray:
        return self.basis.context_block

    @property
    def y_future(self) -> np.ndarray:
        return self.basis.y_future


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
    return BehaviorBasis(X.with_data(np.ascontiguousarray(U[:, :r])))


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
    d = float(np.linalg.norm(B - A @ M))
    swapped = float(np.linalg.norm(A - B @ M.T))
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
    return BehaviorBasis(Uhat.basis.with_data(Uhat.matrix @ rotation))


def check_distance(q: int, r: int, kappa: float) -> None:
    """Reject a target chordal distance that no rank-r subspace of R^q can
    lie at from another: ``kappa`` must be finite, in [0, sqrt(r)), and at
    most sqrt(min(r, q - r)), the largest distance that the complement of
    dimension q - r leaves room for."""
    if kappa < 0 or kappa > np.sqrt(r) * (1 - 1e-6):
        raise ValueError(f"kappa={kappa} out of range [0, sqrt(r))")
    if not np.isfinite(kappa):
        raise ValueError(f"kappa={kappa} is not a finite number")
    reachable = np.sqrt(min(r, q - r))
    if kappa > reachable:
        raise ValueError(
            f"kappa={kappa} unreachable: at most sqrt(min(r, q-r)) = {reachable:.6g} "
            f"for subspaces of rank {r} in dimension {q}"
        )


@dataclass(frozen=True, eq=False)
class Geodesic:
    """A Grassmann geodesic leaving ``origin`` in a fixed tangent direction
    (Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 1998):

        U(t) = U V cos(t*Theta) + W sin(t*Theta),   t in [0, 1],

    with W orthonormal and orthogonal to span U, and angle rates Theta
    scaled so the largest is pi/2.  U(t) has orthonormal columns; the
    textbook form multiplies it by V' on the right, which changes the basis
    but not the subspace, so it is left out.  The principal angles between
    U and U(t) are exactly t*Theta, so the chordal distance
    ||sin(t*Theta)||_2 is known in closed form and rises monotonically in t.
    Finding the member at a target distance is then a scalar solve; building
    it is a column scaling of two matrices.  The arrays are read-only, so
    one geodesic can serve concurrent callers.
    """

    origin: BehaviorBasis
    start: np.ndarray  # U V, (q, r), orthonormal, spans the origin
    heading: np.ndarray  # W, (q, r), orthonormal, orthogonal to start where rates > 0
    rates: np.ndarray  # Theta, (r,), nonincreasing, rates[0] = pi/2

    @classmethod
    def draw(cls, U: BehaviorBasis, seed: int) -> "Geodesic":
        """The geodesic in a random tangent direction: a standard normal
        q x r draw from ``seed``, projected onto the orthogonal complement of
        span U and orthonormalized by one SVD."""
        rng = np.random.default_rng(seed)
        base = U.matrix
        direction = rng.standard_normal((U.q, U.r))
        direction -= base @ (base.T @ direction)
        W, svals, Vt, _ = svd(direction, vectors=True)
        # A basis spanning the whole space leaves a zero direction; its
        # geodesic only ever serves kappa = 0.
        rates = (np.pi / 2) * (svals / max(svals[0], np.finfo(float).tiny))
        arrays = (base @ Vt.T, W, rates)
        for arr in arrays:
            arr.flags.writeable = False
        return cls(U, *arrays)

    def distance(self, t: float) -> float:
        """Chordal distance from the origin to the point at step ``t``."""
        return float(np.linalg.norm(np.sin(t * self.rates)))

    def reaches(self, kappa: float) -> bool:
        """Whether the end point lies at ``kappa`` or beyond, within the
        member tolerance 1e-6 * max(1, kappa)."""
        return self.distance(1.0) + 1e-6 * max(1.0, kappa) >= kappa

    def step(self, kappa: float) -> float:
        """The step t in [0, 1] whose distance is closest to ``kappa``.

        Bisects the monotone closed form until the bracket holds two
        adjacent floats, so t is exact to rounding.  Raises ValueError for a
        target no subspace can reach and ConvergenceError for one beyond
        this geodesic's end point.
        """
        check_distance(self.origin.q, self.origin.r, kappa)
        if not self.reaches(kappa):
            raise ConvergenceError(
                f"drawn geodesic reaches distance {self.distance(1.0):.6g} at full step, "
                f"short of the requested kappa={kappa}"
            )
        lo, hi = 0.0, 1.0
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if self.distance(mid) < kappa:
                lo = mid
            else:
                hi = mid
        return lo if kappa - self.distance(lo) <= self.distance(hi) - kappa else hi

    def point(self, t: float) -> BehaviorBasis:
        """The subspace at step ``t``, spanned by the orthonormal columns
        U V cos(t*Theta) + W sin(t*Theta)."""
        angle = t * self.rates
        data = self.start * np.cos(angle) + self.heading * np.sin(angle)
        return BehaviorBasis(self.origin.basis.with_data(data))

    def member(self, kappa: float) -> tuple[BehaviorBasis, float]:
        """The subspace at chordal distance ``kappa`` from the origin, with
        its distance as measured by `chordal_distance`.

        The measurement verifies the closed form: a miss beyond
        1e-6 * max(1, kappa) raises ConvergenceError.
        """
        perturbed = self.origin if kappa == 0 else self.point(self.step(kappa))
        measured = chordal_distance(self.origin, perturbed)
        if not abs(measured - kappa) <= 1e-6 * max(1.0, kappa):
            raise ConvergenceError(
                f"member for kappa={kappa} measures distance {measured!r}"
            )
        return perturbed, measured


def perturb_subspace(U: BehaviorBasis, kappa: float, seed: int) -> BehaviorBasis:
    """A random subspace at chordal distance ``kappa`` from ``U``.

    The member at ``kappa`` of the geodesic drawn from ``seed`` (see
    `Geodesic`): its distance is solved in closed form, exact to rounding,
    and verified by one measurement to |d - kappa| <= 1e-6 * max(1, kappa).
    The columns are the geodesic's `point` at the solved step, an orthonormal
    basis that is not rotated towards ``U``.  ``kappa = 0`` returns ``U``
    itself.  Deterministic for a fixed seed.
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
    matrix = PartitionedMatrix(data=np.array(rows), m=m, p=p, Tini=Tini, Tf=Tf)
    return BehaviorBasis(matrix)
