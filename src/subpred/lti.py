"""Discrete-time LTI systems: simulation and the structured matrices behind
restricted-behavior subspaces.

A model evolves as ``x(t+1) = A x(t) + B u(t)``, ``y(t) = C x(t) + D u(t)``.
The module builds the extended observability matrix, the lower block Toeplitz
matrix of Markov parameters, and the trajectory generation matrix whose image
is the set of all length-L input/output trajectories.  It also computes the
two singular-value constants consumed by the robustness bounds: the gain of
the length-L generator and the observability degree over the past window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kv import finite_floats, integer, read_pairs
from ._linalg import spectral_norm, svd

__all__ = [
    "StateSpaceModel",
    "NoiseSpec",
    "Trajectory",
    "simulate",
    "observability_matrix",
    "toeplitz_matrix",
    "trajectory_generation_matrix",
    "observability_degree",
    "gain_bound",
    "parse_model",
    "load_model",
    "format_model",
]


def _as_matrix(value, rows: int | None, cols: int | None, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        if rows is None or cols is None:
            raise ValueError(f"{name} given as a scalar but its dimensions are unknown")
        arr = np.full((rows, cols), float(arr))
    elif arr.ndim == 1:
        if cols == 1:
            arr = arr.reshape(-1, 1)
        elif rows == 1:
            arr = arr.reshape(1, -1)
        else:
            raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    elif arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise ValueError(f"{name} has {arr.shape[0]} rows, expected {rows}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} has {arr.shape[1]} columns, expected {cols}")
    arr = np.array(arr, dtype=float, order="C")  # private copy, safe to freeze
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    """Matrices (A, B, C, D) of a discrete-time LTI system.

    A is n x n, B is n x m, C is p x n, D is p x m.  Scalars and vectors are
    promoted to the implied matrix shape where unambiguous.  Instances are
    immutable; the stored arrays are read-only.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, None, None, "A")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if n < 1:
            raise ValueError("state dimension n must be at least 1")
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B.reshape(-1, 1)
        B = _as_matrix(B, n, None, "B")
        m = B.shape[1]
        C = np.asarray(self.C, dtype=float)
        if C.ndim == 1:
            C = C.reshape(-1, n)
        C = _as_matrix(C, None, n, "C")
        p = C.shape[0]
        D = _as_matrix(self.D, p, m, "D")
        if m < 1 or p < 1:
            raise ValueError(f"input/output dimensions must be at least 1, got m={m}, p={p}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)

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

    ``relative-gaussian`` adds, at each step t, a draw from
    N(0, sigma * ||y_t||^2 * I_p) where y_t is the noise-free output, so
    ``sigma`` acts as a noise-to-signal ratio.  Draws come from a seeded
    NumPy PCG64 generator, so outputs are bit-reproducible across platforms.
    """

    kind: str = "none"
    sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("none", "relative-gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls(kind="none")

    @classmethod
    def relative_gaussian(cls, sigma: float, seed: int) -> "NoiseSpec":
        return cls(kind="relative-gaussian", sigma=float(sigma), seed=int(seed))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Paired input/output sequences over a horizon, rows indexed by time.

    ``inputs`` is (T, m), ``outputs`` is (T, p); ``states`` is (T+1, n) when
    the generating simulation recorded them.
    """

    inputs: np.ndarray
    outputs: np.ndarray
    states: np.ndarray | None = None

    def __post_init__(self):
        inputs = _as_matrix(self.inputs, None, None, "inputs")
        outputs = _as_matrix(self.outputs, None, None, "outputs")
        if len(inputs) != len(outputs):
            raise ValueError(
                f"inputs and outputs must have equal length, got {len(inputs)} and {len(outputs)}"
            )
        if len(inputs) < 1:
            raise ValueError("a trajectory must contain at least one sample")
        states = self.states
        if states is not None:
            states = _as_matrix(states, len(inputs) + 1, None, "states")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "states", states)

    @property
    def length(self) -> int:
        return len(self.inputs)

    @property
    def m(self) -> int:
        return self.inputs.shape[1]

    @property
    def p(self) -> int:
        return self.outputs.shape[1]


def _time_major(values, width: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        if width != 1:
            raise ValueError(f"{name} is 1-dimensional but {width} channels are expected")
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{name} must have shape (T, {width}), got {arr.shape}")
    return arr


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
        Input sequence; a flat array is accepted when m = 1.
    x0 : array-like, shape (n,), optional
        Initial state; defaults to the zero vector.
    noise : NoiseSpec
        Output disturbance.  With kind ``relative-gaussian`` the step-t output
        is y_t + eta_t with eta_t ~ N(0, sigma * ||y_t||^2 * I_p), y_t the
        noise-free output.  Fixed seed implies identical outputs across runs.

    Returns
    -------
    Trajectory
        With states recorded, length T.
    """
    u = _time_major(inputs, model.m, "inputs")
    T = len(u)
    if T < 1:
        raise ValueError("inputs must contain at least one sample")
    if x0 is None:
        x = np.zeros(model.n)
    else:
        x = np.asarray(x0, dtype=float).reshape(-1)
        if x.shape[0] != model.n:
            raise ValueError(f"x0 has length {x.shape[0]}, expected state dimension n={model.n}")

    rng = None
    if noise.kind == "relative-gaussian":
        rng = np.random.default_rng(noise.seed)

    states = np.empty((T + 1, model.n))
    outputs = np.empty((T, model.p))
    states[0] = x
    # A diverging model overflows to inf/NaN; that is checked once below.
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(T):
            y_clean = model.C @ states[t] + model.D @ u[t]
            if rng is not None:
                scale = np.sqrt(noise.sigma) * np.linalg.norm(y_clean)
                outputs[t] = y_clean + scale * rng.standard_normal(model.p)
            else:
                outputs[t] = y_clean
            states[t + 1] = model.A @ states[t] + model.B @ u[t]
    finite = np.isfinite(outputs).all(axis=1) & np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        raise ValueError(
            f"simulation diverged: non-finite output or state from step t={int(np.argmin(finite))}"
        )
    return Trajectory(inputs=u, outputs=outputs, states=states)


def observability_matrix(model: StateSpaceModel, k: int) -> np.ndarray:
    """Stack of C, CA, ..., CA^(k-1); shape (p*k, n)."""
    if k < 1:
        raise ValueError(f"window length k must be positive, got {k}")
    blocks = [model.C]
    for _ in range(k - 1):
        blocks.append(blocks[-1] @ model.A)
    return np.vstack(blocks)


def toeplitz_matrix(model: StateSpaceModel, k: int) -> np.ndarray:
    """Lower block Toeplitz matrix of Markov parameters; shape (p*k, m*k).

    Block (i, j) is D when i = j, C A^(i-j-1) B when i > j, and zero above
    the diagonal.
    """
    if k < 1:
        raise ValueError(f"window length k must be positive, got {k}")
    p, m = model.p, model.m
    markov = [model.D]
    reach = model.B
    for _ in range(k - 1):
        markov.append(model.C @ reach)
        reach = model.A @ reach
    out = np.zeros((p * k, m * k))
    for i in range(k):
        for j in range(i + 1):
            out[i * p : (i + 1) * p, j * m : (j + 1) * m] = markov[i - j]
    return out


def trajectory_generation_matrix(model: StateSpaceModel, L: int) -> np.ndarray:
    """Block matrix [[0, I_mL], [O_L, T_L]]; shape ((m+p)L, n + mL).

    Its columns generate every length-L trajectory of the model: the stacked
    input/output Hankel matrix of any trajectory equals this matrix applied to
    the stacked [initial states; input Hankel].
    """
    if L < 1:
        raise ValueError(f"horizon L must be positive, got {L}")
    n, m, p = model.n, model.m, model.p
    out = np.zeros(((m + p) * L, n + m * L))
    out[: m * L, n:] = np.eye(m * L)
    out[m * L :, :n] = observability_matrix(model, L)
    out[m * L :, n:] = toeplitz_matrix(model, L)
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


def _parse_matrix(text: str, rows: int, cols: int, name: str, source: str) -> np.ndarray:
    row_texts = [r.strip() for r in text.split(";")]
    parsed = []
    width = None
    for i, row in enumerate(row_texts):
        entries = finite_floats(row.split(), f"{source}: matrix {name}, row {i + 1}")
        if not entries:
            raise ValueError(f"{source}: matrix {name}, row {i + 1} is empty")
        if width is None:
            width = len(entries)
        elif len(entries) != width:
            raise ValueError(
                f"{source}: matrix {name} is ragged: row {i + 1} has {len(entries)} entries, "
                f"row 1 has {width}"
            )
        parsed.append(entries)
    arr = np.array(parsed, dtype=float)
    if arr.shape != (rows, cols):
        raise ValueError(
            f"{source}: matrix {name} has shape {arr.shape}, expected ({rows}, {cols})"
        )
    return arr


def parse_model(text: str, source: str = "<string>") -> StateSpaceModel:
    """Parse the plain-text model format documented above."""
    pairs = read_pairs(text, source)
    missing = [k for k in _MODEL_KEYS if k not in pairs]
    if missing:
        raise ValueError(f"{source}: missing keys: {', '.join(missing)}")
    unknown = [k for k in pairs if k not in _MODEL_KEYS]
    if unknown:
        raise ValueError(f"{source}: unknown keys: {', '.join(sorted(unknown))}")
    dims = {}
    for key in ("n", "m", "p"):
        dims[key] = integer(pairs[key], f"{source}: {key}")
        if dims[key] < 1:
            raise ValueError(f"{source}: {key} must be positive, got {dims[key]}")
    n, m, p = dims["n"], dims["m"], dims["p"]
    A = _parse_matrix(pairs["A"], n, n, "A", source)
    B = _parse_matrix(pairs["B"], n, m, "B", source)
    C = _parse_matrix(pairs["C"], p, n, "C", source)
    D = _parse_matrix(pairs["D"], p, m, "D", source)
    return StateSpaceModel(A=A, B=B, C=C, D=D)


def load_model(path) -> StateSpaceModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), source=str(path))


def format_model(model: StateSpaceModel) -> str:
    """Serialize a model in the plain-text format accepted by `parse_model`."""

    def rows(mat: np.ndarray) -> str:
        return " ; ".join(" ".join(repr(float(v)) for v in row) for row in mat)

    return (
        f"n = {model.n}\n"
        f"m = {model.m}\n"
        f"p = {model.p}\n"
        f"A = {rows(model.A)}\n"
        f"B = {rows(model.B)}\n"
        f"C = {rows(model.C)}\n"
        f"D = {rows(model.D)}\n"
    )
