"""Discrete-time LTI systems: simulation, the trajectory generation matrix
whose image is the set of all length-L input/output trajectories, and the
two singular-value constants consumed by the robustness bounds: the gain of
the length-L generator and the observability degree over the past window.

A model evolves as ``x(t+1) = A x(t) + B u(t)``, ``y(t) = C x(t) + D u(t)``.
Every module reads its input here, one reader per kind: arrays by
`_frozen`, counts by `_count`, seeds by `_seed` and real numbers by `_real`.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from ._kv import floats, integer, named, read_pairs
from ._linalg import spectral_norm, svd

__all__ = [
    "StateSpaceModel",
    "NoiseSpec",
    "Trajectory",
    "simulate",
    "trajectory_generation_matrix",
    "observability_degree",
    "gain_bound",
    "parse_model",
    "load_model",
]


def _frozen(value, name: str, shape: tuple, *, window: tuple | None = None) -> np.ndarray:
    """A private read-only C-ordered float copy of ``value``, checked by
    name, every entry finite.  ``shape`` gives the size of each dimension,
    None for any size, and no dimension may be empty: a (rows, cols)
    matrix, a (steps, channels) time series or a (length,) vector.  With a
    (steps, channels) ``window`` a vector of length steps * channels may
    also come as that window, which it stacks time-major.  Every other shape
    is refused, the (channels, steps) transpose included; only a square
    window cannot be told from its transpose.  ``value`` is converted once
    and read by `_real`'s rule: a bool, string, bytes or complex array, or a
    bool among numbers in a list, which `_refuse_bools` finds by type,
    raises TypeError by name, an object array is read entry by entry by
    `_real`, which names the first entry it refuses, a non-finite entry
    raises ValueError naming the first's index, and a ragged list numpy's
    ValueError prefixed by ``name``."""
    try:
        arr = np.array(value, order="C")
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    if arr.dtype.kind == "O":
        # an object array, or an integer beyond the float range that numpy
        # keeps as an object, is read entry by entry
        reals = np.empty(arr.shape)
        for index, entry in np.ndenumerate(arr):
            reals[index] = _real(entry, f"{name}{list(index)}")
        arr = reals
    elif arr.dtype.kind in "iuf" and isinstance(value, (list, tuple)):
        # numpy reads a bool among numbers in a list as 1.0 or 0.0
        _refuse_bools(value, name, [])
    kind = arr.dtype.kind
    if kind not in "iuf":
        kinds = {"b": "a bool", "U": "a string", "S": "a bytes", "c": "a complex"}
        raise TypeError(f"{name} must hold real numbers, got {kinds.get(kind, f'a {arr.dtype}')} array")
    arr = arr.astype(float, copy=False)
    if arr.shape == window:
        arr = arr.reshape(-1)
    if arr.ndim != len(shape):
        shapes = f"{len(shape)}-dimensional" + ("" if window is None else f" or of shape {window}")
        raise ValueError(f"{name} must be {shapes}, got shape {arr.shape}")
    for size, want, axis in zip(arr.shape, shape, ("rows", "columns") if arr.ndim == 2 else ("entries",)):
        if size < 1 or want is not None and size != want:
            raise ValueError(f"{name} has {size} {axis}, expected {'at least 1' if want is None else want}")
    if not np.isfinite(arr).all():
        first = np.argwhere(~np.isfinite(arr))[0].tolist()
        raise ValueError(f"{name} has non-finite entries: {name}{first} is {arr[tuple(first)]}")
    arr.flags.writeable = False
    return arr


def _refuse_bools(entries, name: str, index: list) -> None:
    """`_real`'s TypeError, by its index, for the first bool (``np.bool_``
    too) in the nested lists, tuples and arrays ``entries``, found from the
    Python types of the entries; a level of floats and ints passes whole."""
    if set(map(type, entries)) <= {float, int}:
        return
    for i, entry in enumerate(entries):
        entry = entry.tolist() if isinstance(entry, np.ndarray) and entry.ndim else entry
        if isinstance(entry, (list, tuple)):
            _refuse_bools(entry, name, [*index, i])
        elif isinstance(entry, (bool, np.bool_)):
            _real(entry, f"{name}{[*index, i]}")


def _index(value, name: str) -> int:
    """``value`` read with `operator.index`, so a float raises TypeError,
    and a bool, which it would read as 0 or 1, raises TypeError by name."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value}")
    return operator.index(value)


def _seed(value, name: str = "seed") -> int:
    """``value`` read by `_index`, so a float or a bool raises TypeError,
    and rejected by name when negative."""
    seed = _index(value, name)
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")
    return seed


def _count(value, name: str) -> int:
    """A dimension, window length, count or index: ``value`` read by
    `_index`, so a float or a bool raises TypeError, and refused below 1."""
    count = _index(value, name)
    if count < 1:
        raise ValueError(f"{name} must be positive, got {count}")
    return count


def _real(value, name: str) -> float:
    """``value`` as a Python float.  A bool (``np.bool_`` too) or a
    non-`numbers.Real`, such as a string, raises TypeError by name, and NaN
    or +-inf ValueError by name, as does an integer beyond the float range,
    read as +-inf; each caller checks its own range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError:
        real = math.inf if value > 0 else -math.inf
    if not math.isfinite(real):
        raise ValueError(f"{name} must be finite, got {real}")
    return real


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Matrices (A, B, C, D) of a discrete-time LTI system.

    A is n x n, B is n x m, C is p x n, D is p x m, each given 2-D, as a
    model file gives it, and read by `_frozen` against the sizes the
    matrices before it give, so a scalar or flat matrix, an empty dimension,
    a bool among numbers and a non-finite entry are rejected by name.
    Instances are immutable; the stored arrays are private read-only
    copies.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = _frozen(self.A, "A", (None, None))
        n = len(A)
        if A.shape[1] != n:
            raise ValueError(f"A must be square, got shape {A.shape}")
        B = _frozen(self.B, "B", (n, None))
        C = _frozen(self.C, "C", (None, n))
        D = _frozen(self.D, "D", (len(C), B.shape[1]))
        for name, value in zip("ABCD", (A, B, C, D)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class NoiseSpec:
    """Output-noise description for `simulate`.

    With ``sigma`` > 0, each step t gets a draw from
    N(0, sigma * ||y_t||^2 * I_p) where y_t is the noise-free output, so
    ``sigma`` acts as a noise-to-signal ratio; ``sigma`` = 0 adds nothing.
    Draws come from a seeded NumPy PCG64 generator, so outputs are
    bit-reproducible across platforms.  ``sigma`` is read by `_real` and
    ``seed`` by `_seed`, so a bool raises TypeError, as does a float seed,
    and a negative sigma or seed raises ValueError.
    """

    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        sigma = _real(self.sigma, "sigma")
        if sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {sigma}")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "seed", _seed(self.seed))

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls()

    @classmethod
    def relative_gaussian(cls, sigma: float, seed: int) -> "NoiseSpec":
        return cls(sigma=sigma, seed=seed)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Paired input/output sequences over a horizon, rows indexed by time.

    ``inputs`` is (T, m), ``outputs`` is (T, p): a trajectory of the
    behavior, which holds no states.  Each is read by `_frozen` into a
    private read-only copy, so a flat array, a wrong length, no sample, no
    channel or a non-finite entry is rejected by name.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        inputs = _frozen(self.inputs, "inputs", (None, None))
        outputs = _frozen(self.outputs, "outputs", (len(inputs), None))
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    @property
    def p(self) -> int:
        return self.outputs.shape[1]


def simulate(
    model: StateSpaceModel,
    inputs,
    x0=None,
    noise: NoiseSpec = NoiseSpec(),
) -> Trajectory:
    """Run the state recursion over the given input sequence.

    Parameters
    ----------
    model : StateSpaceModel
    inputs : array-like, shape (T, m)
        Input sequence of finite numbers, read by `_frozen`, so a flat
        array or one of no step is refused by name.
    x0 : array-like, shape (n,), optional
        Finite initial state, a 1-D vector of length n; any other shape,
        (n, 1) or a scalar included, is refused by name.  Defaults to the
        zero vector.
    noise : NoiseSpec
        Output disturbance.  With ``sigma`` > 0 the step-t output
        is y_t + sqrt(sigma) * ||y_t|| * z_t, y_t the noise-free output, z one
        (T, p) normal draw from ``default_rng(seed)``, the same stream as T
        draws of size p.  The scale stays finite while y_t is; same seed, same outputs.

    Returns
    -------
    Trajectory
        The inputs and outputs, length T; the states stay local.
    """
    u = _frozen(inputs, "inputs", (None, model.m))
    T = len(u)
    x = np.zeros(model.n) if x0 is None else _frozen(x0, "x0", (model.n,))

    states = np.empty((T + 1, model.n))
    states[0] = x
    # A diverging model overflows to inf/NaN; that is checked once below.
    with np.errstate(over="ignore", invalid="ignore"):
        # Stacked matvecs, equal to the per-step B @ u[t] bit for bit.
        Bu = (model.B @ u[:, :, None])[..., 0]
        # Each step written into its own row by np.dot, which skips matmul's
        # ufunc dispatch: equal to A @ x + b bit for bit.
        A, rows = model.A, list(states)
        for x, x_next, b in zip(rows, rows[1:], Bu):
            np.dot(A, x, out=x_next)
            x_next += b
        outputs = (model.C @ states[:-1, :, None])[..., 0] + (model.D @ u[:, :, None])[..., 0]
        if noise.sigma > 0:
            # Equal to np.linalg.norm(y_t) bit for bit; norm(axis=1) and einsum are not for p >= 3.
            norms = np.sqrt(outputs[:, None, :] @ outputs[:, :, None])[:, 0]
            # ||y_t||^2 overflows once ||y_t|| passes ~1e154: rescale those rows by max|y_t|.
            big = np.isinf(norms[:, 0]) & np.isfinite(outputs).all(axis=1)
            peak = np.abs(outputs[big]).max(axis=1, keepdims=True)
            norms[big] = peak * np.linalg.norm(outputs[big] / peak, axis=1, keepdims=True)
            draws = np.random.default_rng(noise.seed).standard_normal((T, model.p))
            outputs = outputs + np.sqrt(noise.sigma) * norms * draws
    finite = np.isfinite(outputs).all(axis=1) & np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"simulation diverged: non-finite output or state from step t={int(np.argmin(finite))}"
        )
    return Trajectory(inputs=u, outputs=outputs)


def trajectory_generation_matrix(model: StateSpaceModel, L: int) -> np.ndarray:
    """Block matrix [[0, I_mL], [O_L, T_L]]; shape ((m+p)L, n + mL).

    O_L stacks C, CA, ..., CA^(L-1), the extended observability matrix.
    T_L is the lower block Toeplitz matrix of Markov parameters: block
    (i, j) is D when i = j, C (A^(i-j-1) B) when i > j, and zero above the
    diagonal.  Its columns generate every length-L trajectory of the model:
    the stacked input/output Hankel matrix of any trajectory equals this
    matrix applied to the stacked [initial states; input Hankel].  ``L`` is
    read by `_count`.
    """
    L = _count(L, "horizon L")
    n, m, p = model.n, model.m, model.p
    out = np.zeros(((m + p) * L, n + m * L))
    out[: m * L, n:] = np.eye(m * L)
    observe, reach, markov = model.C, model.B, [model.D]
    for i in range(L):  # output block row i: C A^i, then markov[i], ..., markov[0] = D
        rows = slice(m * L + i * p, m * L + (i + 1) * p)
        out[rows, : n + (i + 1) * m] = np.hstack([observe, *markov[::-1]])
        markov.append(model.C @ reach)
        observe, reach = observe @ model.A, model.A @ reach
    return out


def observability_degree(model: StateSpaceModel, Tini: int) -> float:
    """Smallest singular value of the length-Tini trajectory generation matrix.

    This is the tightest admissible lower bound on the quantitative
    observability constant.  The value is snapped to exactly 0.0 when it falls
    under the shared rank cutoff, which happens precisely when the
    observability matrix over Tini steps loses rank.
    """
    _, svals, _, rank = svd(trajectory_generation_matrix(model, Tini))
    return float(svals[-1]) if rank == svals.size else 0.0


def gain_bound(model: StateSpaceModel, L: int) -> float:
    """Largest singular value of the length-L trajectory generation matrix.

    Always at least 1 because of the identity block.
    """
    return spectral_norm(trajectory_generation_matrix(model, L))


# ---------------------------------------------------------------------------
# Model files
#
# Grammar (one 'key = value' per line, '#' comments, blank lines ignored):
#
#   n = 2              integer dimensions, all three required
#   m = 1
#   p = 1
#   A = 0.8 0.2 ; 0.1 0.9     rows separated by ';', entries by whitespace
#   B = 0.3 ; 0.7
#   C = 1 1
#   D = 0
#
# Matrices are given row-major; every row must have the same entry count
# (ragged rows are rejected) and shapes must match the declared dimensions.
# ---------------------------------------------------------------------------

_MODEL_KEYS = ("n", "m", "p", "A", "B", "C", "D")


def _parse_matrix(text: str, name: str) -> list[list[float]]:
    parsed = []
    for i, row in enumerate(r.strip() for r in text.split(";")):
        entries = floats(row.split(), f"matrix {name}, row {i + 1}")
        if not entries:
            raise ValueError(f"matrix {name}, row {i + 1} is empty")
        if parsed and len(entries) != len(parsed[0]):
            raise ValueError(
                f"matrix {name} is ragged: row {i + 1} has {len(entries)} entries, "
                f"row 1 has {len(parsed[0])}"
            )
        parsed.append(entries)
    return parsed


def parse_model(text: str, source: str = "<string>") -> StateSpaceModel:
    """Parse the plain-text model format documented above; `read_pairs`
    checks its keys, `_count` reads n, m and p, and `StateSpaceModel` checks
    the matrices, which must give the declared n, m and p; every error
    names ``source``."""
    pairs = read_pairs(text, source, required=_MODEL_KEYS)
    with named(source):
        declared = tuple(_count(integer(pairs[key], key), key) for key in "nmp")
        model = StateSpaceModel(*(_parse_matrix(pairs[key], key) for key in "ABCD"))
        built = (model.n, model.m, model.p)
        if built != declared:
            raise ValueError(f"the matrices give (n, m, p) = {built}, declared {declared}")
    return model


def load_model(path) -> StateSpaceModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), source=str(path))

