"""Subspace geometry for behavior spaces: orthonormal bases, chordal
distance, and perturbed subspaces at a prescribed distance along a geodesic
whose k moving principal angles are equal, so the subspace at a distance is
one blend of two matrices.

The chordal distance is the 2-norm of the principal-angle sines, which is
the Frobenius norm of the projection of one basis onto the orthogonal
complement of the other, so it is evaluated without any SVD and checked
against the projection taken the other way, of the first basis off the
second.  A geodesic member's two norms are quadratic forms in its blend
coefficients, whose blocks the geodesic forms once when it is drawn, so
every member is measured without being built; so are its output Gram
matrix and its cross product with given contexts, whose pieces
`Geodesic.forms` forms once for a sweep.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass, field

import numpy as np

from ._kv import floats, named
from ._linalg import EPS, QuadraticForms, svd
from .errors import ConvergenceError, RankDeficientError
from .hankel import PartitionedMatrix
from .lti import _count, _real, _seed

__all__ = [
    "BehaviorBasis",
    "orthonormal_basis",
    "chordal_distance",
    "check_distance",
    "Geodesic",
    "perturb_subspace",
    "save_basis",
    "load_basis",
]

ORTHONORMALITY_TOL = 1e-10


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
    space of ``X``.  They come from `_linalg.svd`'s Gram route, the
    eigenvectors of the smaller Gram matrix, when its estimates clear the
    rank and their subspace and, for a tall ``X``, their measured
    orthonormality passes, and from the SVD otherwise; the
    two agree to rounding, 3.4e-12 entrywise on the benchmark's inputs.
    Each column's sign makes its largest-magnitude entry positive, on
    either route, so the geodesic that a seed draws from the basis does not
    depend on the route.  Rejects the request when the r-th singular value
    falls under the shared rank cutoff, i.e. when r exceeds the numerical
    rank; only the SVD makes that finding.  ``r`` is read by `lti._count`
    and checked against min(q, columns) first.
    """
    r = _count(r, "r")
    if r > min(X.q, X.r):
        raise ValueError(f"rank r={r} out of range for a {X.q}x{X.r} matrix")
    U, svals, _, rank = svd(X.data, vectors=True, least=r)
    if rank < r:
        raise RankDeficientError(
            f"requested rank r={r} exceeds the numerical rank: "
            f"sigma_{r} = {svals[r - 1]:.3e} is below the cutoff"
        )
    U = U[:, :r]
    peaks = U[np.abs(U).argmax(axis=0), range(r)]
    return BehaviorBasis(U * np.copysign(1.0, peaks), *X.dims)


def _check_comparable(U: BehaviorBasis, V: BehaviorBasis) -> None:
    if U.q != V.q:
        raise ValueError(f"ambient dimensions differ: {U.q} vs {V.q}")
    if U.r != V.r:
        raise ValueError(f"subspace ranks differ: {U.r} vs {V.r}")


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


def check_distance(q: int, r: int, kappa: float) -> None:
    """Reject a target chordal distance that no rank-r subspace of R^q can
    lie at from another: ``r`` must be in 1..q, and ``kappa``, read by
    `lti._real`, in [0, sqrt(k)], with k = min(r, q - r) the number of
    principal angles that the complement of dimension q - r leaves room to
    be nonzero."""
    if not 1 <= r <= q:
        raise ValueError(f"rank r={r} out of range for ambient dimension q={q}")
    kappa = _real(kappa, "kappa")
    largest = math.sqrt(min(r, q - r))
    if not 0 <= kappa <= largest:
        raise ValueError(
            f"kappa={kappa} unreachable: out of range [0, sqrt(min(r, q-r))] = "
            f"[0, {largest:.6g}] for subspaces of rank {r} in dimension {q}"
        )


# The last draw from each live basis, as (seed, start, heading, squares,
# defect), keyed weakly by the BehaviorBasis object.  A basis is frozen over a
# private read-only copy of its data, so a stored draw is bit for bit a fresh
# one.  A value holds no Geodesic, whose origin would keep its key alive.
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
    sin(t pi/2) = s.

    The rows of ``squares`` hold the member's squared distance and squared
    swapped residual, the two norms `chordal_distance` compares, as
    quadratic forms in (c, s) weighted by `weights`, (1, c^2, s^2, cs);
    `measure` reads them, and `forms` builds the member's prediction
    pieces with the same weights.  ``defect`` bounds every member's Gram
    defect.  The arrays are read-only, so one geodesic can serve concurrent
    callers.
    """

    origin: BehaviorBasis
    start: np.ndarray  # (q, r), orthonormal, spans the origin
    heading: np.ndarray  # (q, k), orthonormal, orthogonal to start
    squares: np.ndarray  # (2, 4)
    defect: float

    @classmethod
    def draw(cls, U: BehaviorBasis, seed: int) -> "Geodesic":
        """The geodesic in a random tangent direction: a standard normal
        q x r draw from the integer ``seed``, projected onto the orthogonal
        complement of span U and factored as W S V', with
        k = min(r, q - r), by one `_linalg.svd` call that asks whether the
        rank reaches k.  ``start`` is U V and ``heading`` the first k
        columns of W.  `svd` picks the route: the eigenbasis V of the r x r
        Gram matrix and W = M V / S on the leading k, when its estimates
        clear them and W's measured orthonormality passes, and one SVD
        otherwise.  Raises ConvergenceError when the projected draw has
        numerical rank below k, the SVD's finding, or when ``defect``,
        which bounds every member's Gram defect, exceeds
        ``ORTHONORMALITY_TOL``.

        A ``defect`` past the tolerance is not factored again by the SVD,
        since the other route would not change the verdict.
        defect^2 = ||Es||^2 + 2 ||Eh||^2 + ||Ehh||^2 (see `_blocks`), and
        up to rounding only Ehh = H'H - I depends on the route: Es is the
        basis's own Gram defect turned by V, and Eh = H'S is rounding on
        either route.  A Gram-route W has ||W'W - I||_F at most
        max(q, r) k eps (6.6e-12 on the benchmark's sweep-mimo), and
        removing an Ehh that small moves a ``defect`` near 1e-10 by about
        ||Ehh||^2 / 2e-10, 2e-13 at most.  So the SVD could turn a refusal
        around only for a basis whose own Gram defect lies within about
        2e-13 of 1e-10, which only a basis file can hold.  ``seed`` is read
        by `lti._seed`: a float or a bool raises TypeError and a negative
        seed ValueError.

        The factorization is reused per live basis and seed: the fields of
        the last seed drawn from ``U`` are kept while ``U`` is alive, so a
        second draw from the same basis object and seed factors nothing
        and returns the bits of a fresh draw."""
        seed = _seed(seed)  # None or a Generator would not repeat
        stored = _DRAWS.get(U)
        if stored is not None and stored[0] == seed:
            return cls(U, *stored[1:])
        rng = np.random.default_rng(seed)
        base = U.matrix
        direction = rng.standard_normal((U.q, U.r))
        direction -= base @ (base.T @ direction)
        k = min(U.r, U.q - U.r)
        W, _, Vt, rank = svd(direction, vectors=True, least=k)
        if rank < k:
            raise ConvergenceError(
                f"tangent direction drawn from seed={seed} has rank {rank}, below {k}"
            )
        # W = M V / S carries M's rounding-sized span-U part scaled by 1/S,
        # so a small singular value leaves W[:, :k] orthogonal to U to only
        # ~eps/S: project it once more, which moves its Gram matrix by just
        # the square of that part
        heading = W[:, :k] - base @ (base.T @ W[:, :k])
        start = base @ Vt.T
        squares, defect = _blocks(base, start, heading)
        if not defect <= ORTHONORMALITY_TOL:
            # The rank is relative to the projected draw itself, so a draw
            # inside span U, which projects to rounding error, passes it;
            # W then lies mostly in span U, so the projected heading is far
            # from orthonormal and ``defect``, which holds ||H'H - I||_F,
            # fails it here.  NaN fails too.
            raise ConvergenceError(
                f"tangent direction drawn from seed={seed} is not orthogonal to the basis: "
                f"member Gram defect bound {defect:.3e} exceeds {ORTHONORMALITY_TOL:.0e}"
            )
        for arr in (start, heading, squares):
            arr.flags.writeable = False
        _DRAWS[U] = (seed, start, heading, squares, defect)
        return cls(U, start, heading, squares, defect)

    def member(self, kappa: float) -> tuple[BehaviorBasis, float]:
        """The subspace at chordal distance ``kappa`` from the origin, with
        its distance from `measure`; ``kappa = 0`` is the origin itself.
        Raises ValueError for a target no subspace can reach."""
        check_distance(self.origin.q, self.origin.r, kappa)
        if kappa == 0:
            perturbed = self.origin
        else:
            perturbed = BehaviorBasis(self.blend(kappa), *self.origin.dims)
        return perturbed, self.measure(kappa)

    def measure(self, kappa: float) -> float:
        """The chordal distance of the member at a reachable ``kappa`` from
        the origin, read from ``squares``.  It is checked as
        `chordal_distance` checks its value, against the swapped residual
        to 1e-10 (ArithmeticError), and then against the closed form: a miss
        beyond 1e-6 * max(1, kappa) raises ConvergenceError."""
        d, swapped = (math.sqrt(max(0.0, x)) for x in self.squares @ self.weights(kappa))
        measured = _cross_checked(d, swapped)
        if not abs(measured - kappa) <= 1e-6 * max(1.0, kappa):
            raise ConvergenceError(f"member for kappa={kappa} measures distance {measured!r}")
        return measured

    def blend(self, kappa: float) -> np.ndarray:
        """The matrix of the member at ``kappa``, unchecked: a new copy of
        ``start`` whose first k columns are start[:, :k] c + heading s."""
        k = self.heading.shape[1]
        s, c = self._coefficients(kappa)
        data = self.start.copy()
        data[:, :k] = self.start[:, :k] * c + self.heading * s
        return data

    def weights(self, kappa: float) -> np.ndarray:
        """The weights (1, c^2, s^2, cs) of the blocks of ``squares`` and of
        `forms` for the member at ``kappa``, unchecked."""
        s, c = self._coefficients(kappa)
        return np.array([1.0, c * c, s * s, c * s])

    def forms(self, contexts: np.ndarray) -> QuadraticForms:
        """The pieces of every member's output Gram matrix and of its cross
        product with ``contexts``, one context per row, formed once: the
        member's map, sigma_min and ||Y[:p]||_2 are then read at its
        `weights` (see `_linalg.member_predictions`).

        Split ``start`` at column k into S1 and S2, and the rows of S1, S2
        and ``heading`` H into context rows C1, C2, Ch and the last p Tf,
        the future rows Y1, Y2, Yh.  The member's future rows are
        Y = [c Y1 + s Yh, Y2], so
        Y Y' = Y2Y2' + c^2 Y1Y1' + s^2 YhYh' + cs (Y1Yh' + YhY1'), and with
        A. = contexts C. its context rows give contexts C = [c A1 + s Ah, A2],
        whose product with Y' has the same four pieces in (A, Y).

        The forms' ``error`` is ``defect`` + (q + r + 7) eps: the basis
        route's estimate d + q eps (see `predictor._basis_map`) with the
        pieces' own rounding added.  Entry (i, j) of a piece rounds by at
        most gamma_{r+1} times the sum of its products' magnitudes (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 3.5),
        and each weight (one product of c and s), its product with the
        piece and the three additions add gamma_5.  For the weights
        (1, c^2, s^2, cs) the products' magnitudes sum to z_i . z_j, with
        z_i the rows of [|c| |Y1| + |s| |Yh|, |Y2|], whose norms
        Cauchy-Schwarz bounds by (c^2 + s^2)^(1/2) (1 + defect).  So the
        assembled K lies within gamma_{r+6} (1 + 3 defect) <= (r + 7) eps of
        Y Y' entry by entry.  That entrywise bound estimates the change in
        lambda_max(K), on the same footing as the q eps term, which
        estimates the rounding of forming Y Y' directly by the same
        entrywise rule.  Neither is a bound on that change: with f future
        rows the error E bounds it only by ||E||_2 <= f ||E||_max (Weyl's
        inequality and a row sum bound), which a certified sigma_min would
        have to carry.  So its guard is stricter than a single basis's."""
        origin, k = self.origin, self.heading.shape[1]
        split = origin.q - origin.p * origin.Tf
        Y1, Y2 = np.split(self.start[split:], [k], axis=1)
        A1, A2 = np.split(contexts @ self.start[:split], [k], axis=1)
        Yh, Ah = self.heading[split:], contexts @ self.heading[:split]
        M = Y1 @ Yh.T
        grams = [Y2 @ Y2.T, Y1 @ Y1.T, Yh @ Yh.T, M + M.T]
        crosses = [A2 @ Y2.T, A1 @ Y1.T, Ah @ Yh.T, A1 @ Yh.T + Ah @ Y1.T]
        return QuadraticForms(grams, crosses, self.defect + (origin.q + origin.r + 7) * EPS)

    def _coefficients(self, kappa: float) -> tuple[float, float]:
        """(s, c) at ``kappa``: s <= 1 as `check_distance` caps kappa at
        sqrt(k), and s = 0 when k = 0, whose one member is the origin."""
        k = self.heading.shape[1]
        s = kappa / math.sqrt(k) if k else 0.0
        return s, math.sqrt((1 - s) * (1 + s))


def _blocks(origin: np.ndarray, start: np.ndarray, heading: np.ndarray) -> tuple[np.ndarray, float]:
    """``squares`` and ``defect`` of the geodesic from ``origin`` U with
    ``start`` S = [S1 S2], split at column k, and ``heading`` H.  The member
    B = [c S1 + s H, S2] has distance ||(I - UU')B||_F, and
    (I - UU')B = [c P1 + s Hp, P2] with P = (I - UU')S and Hp = (I - UU')H
    formed here once: its square is a sum of squares and a rounding-sized
    cross term, which does not cancel at small kappa the way
    r - ||U'B||_F^2 does.  The swapped residual is the component of S
    outside span B, S - B(S'B)'.  In the coordinates of Q = [S H] it is
    [s^2 I 0; 0 0; -cs I 0] - [c Z; E2; s Z], where E1, E2 and Eh are the
    row blocks of (Q'Q - I)[:, :r] and Z = c E1 + s Eh; the cross terms
    cancel, leaving s^2 k + ||Z||^2 + ||E2||^2.  Reading Q as orthonormal
    scales that norm by at most 1 +- ||Q'Q - I||_2.  Q is never formed:
    each product is taken of S and H apart.

    ``defect`` is ||Q'Q - I||_F + 6 eps sqrt(k): the member is Q T with
    ||T||_2^2 = c^2 + s^2, and 6 eps sqrt(k) covers c^2 + s^2 - 1 (at most
    3 eps per column) and the rounding of the blend (at most
    2 sqrt(2) eps sqrt(k)); `Geodesic.draw` refuses one past
    ``ORTHONORMALITY_TOL``."""
    r, k = start.shape[1], heading.shape[1]
    P1, P2 = np.split(start - origin @ (origin.T @ start), [k], axis=1)
    Hp = heading - origin @ (origin.T @ heading)
    distance = [np.vdot(P2, P2), np.vdot(P1, P1), np.vdot(Hp, Hp), 2 * np.vdot(P1, Hp)]
    # Q'Q - I = [S'S - I, S'H; H'S, H'H - I]: E1 and E2 are the rows of
    # S'S - I, and Eh = H'S
    Es, Ehh, Eh = start.T @ start, heading.T @ heading, heading.T @ start
    Es.flat[:: r + 1] -= 1.0
    Ehh.flat[:: k + 1] -= 1.0
    E1, E2 = Es[:k], Es[k:]
    swapped = [np.vdot(E2, E2), np.vdot(E1, E1), k + np.vdot(Eh, Eh), 2 * np.vdot(E1, Eh)]
    defect = math.sqrt(np.vdot(Es, Es) + 2 * np.vdot(Eh, Eh) + np.vdot(Ehh, Ehh))
    return np.array([distance, swapped]), defect + 6 * EPS * math.sqrt(k)


def perturb_subspace(U: BehaviorBasis, kappa: float, seed: int) -> BehaviorBasis:
    """A random subspace at chordal distance ``kappa`` from ``U``.

    The member at ``kappa`` of the geodesic drawn from ``seed`` (see
    `Geodesic`): its k = min(r, q - r) principal angles from ``U`` all equal
    asin(kappa / sqrt(k)), and its distance is verified by `Geodesic.measure`
    to |d - kappa| <= 1e-6 * max(1, kappa).  The columns are the geodesic's
    blend of two orthonormal matrices, a basis that is not rotated towards
    ``U``.  ``kappa = 0`` returns ``U`` itself.  Deterministic for a fixed
    seed.  The direction's factorization is reused per live basis and seed
    (see `Geodesic.draw`), so calls at several distances on one (basis,
    seed) factor the direction once between them.  The measured distance
    is dropped; a caller that reports it should call
    ``Geodesic.draw(U, seed).member(kappa)`` instead, which returns the
    same basis together with its measured distance.
    """
    return Geodesic.draw(U, seed).member(kappa)[0]


# ---------------------------------------------------------------------------
# Basis files: one header line '# m=<m> p=<p> Tini=<Tini> Tf=<Tf> r=<r>',
# each count at least 1, followed by q comma-separated rows of r entries.
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^#\s*m=(?P<m>\d+)\s+p=(?P<p>\d+)\s+Tini=(?P<Tini>\d+)\s+Tf=(?P<Tf>\d+)\s+r=(?P<r>\d+)\s*$"
)


def save_basis(path, basis: BehaviorBasis) -> None:
    m, p, Tini, Tf = basis.dims
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# m={m} p={p} Tini={Tini} Tf={Tf} r={basis.r}\n")
        for row in basis.matrix:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def load_basis(path) -> BehaviorBasis:
    """Read a basis file: the header and each row's entry count are checked
    here, and `BehaviorBasis`, named by the file, checks the rest."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        match = _HEADER_RE.match(header.strip())
        if match is None:
            raise ValueError(
                f"{path}:1: expected header '# m=<m> p=<p> Tini=<Tini> Tf=<Tf> r=<r>', "
                f"got {header.strip()!r}"
            )
        m, p, Tini, Tf, r = (_count(int(v), f"{path}:1: {k}") for k, v in match.groupdict().items())
        rows = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            entries = line.strip().split(",")
            if len(entries) != r:
                raise ValueError(f"{path}:{lineno}: expected {r} entries, got {len(entries)}")
            rows.append(floats(entries, f"{path}:{lineno}"))
    with named(path):
        return BehaviorBasis(rows or np.zeros((0, r)), m, p, Tini, Tf)
