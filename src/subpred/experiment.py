"""End-to-end perturbation experiment: offline basis construction, a family
of perturbed behavior subspaces, rolling one-step prediction, and CSV output.

The perturbed family is nested: one tangent direction is drawn from
``seed_perturb``, factored once per sweep into a `Geodesic`, and every
member sits on that geodesic at its own target distance.  The geodesic's
moving principal angles are equal, so it reaches every target that the
configuration admits, and a member is one blend of two matrices.  This
makes the average error a smooth, near-linear function of the distance, as
opposed to independent per-member directions whose direction-dependent
sensitivity scatters the trend.

A member moves in only its two blend coefficients, so its output Gram
matrix and its cross product with the stacked contexts are quadratic forms
in them, whose pieces `prepare` forms once (`Geodesic.forms`).  `_member`
reads a member's predictions, sigma_min and first-block norm from those
pieces at its weights, with no member basis and no q x r blend, and
`run_trial` its distance from `Geodesic.measure`, which reads the
quadratic forms that the geodesic forms when it is drawn.  The guard on
those pieces reads the geodesic's one bound on every member's Gram defect,
checked by `Geodesic.draw`.  The baseline is the kappa = 0 member, read by
`_member` on the same route, so a kappa = 0 member's errors are exactly 0.

Seeds are split into three independent streams (offline/online data input,
measurement noise, perturbation direction).  The online streams use the
corresponding seed plus ``ONLINE_SEED_OFFSET`` so they never collide with the
offline draws.  Every output is a pure function of the configuration and
the numerical libraries, so repeated runs on one numpy/BLAS build at one
BLAS thread count are byte-identical.  Another thread count can round the
offline factorizations differently (the Gram matrices and their `eigh`,
or the SVD where the guard leaves them to it), and with them every
member's last digits.
A member's ``kappa`` is bit for bit the one `Geodesic.member` returns.  Its
predictions, and the baseline's, agree with the library path
(`perturb_subspace`, `predict_from_subspace`, `rolling_one_step`) to
rounding, not bit for bit.  A declined member, the baseline included, is
mapped from its blend's rows by ``_basis_map(context_rows,
future_rows[:p])``: given no Gram defect, `predictor._basis_map` skips the
Gram route that the library's bases take through the same guard, and maps
by one SVD that refuses rank-deficient context rows as the library does.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._kv import floats, integer, named, read_pairs
from ._linalg import QuadraticForms, member_predictions, spectral_norm
from .bounds import one_step_bound
from .errors import HypothesisViolationError
from .grassmann import Geodesic, check_distance, orthonormal_basis
from .hankel import persistently_exciting_input, stacked_data_matrix
from .lti import NoiseSpec, StateSpaceModel, Trajectory, load_model, simulate
from .lti import _count, _frozen, _real, _seed
from .predictor import _apply, _basis_map, _context_matrix

__all__ = [
    "ExperimentConfig",
    "TrialBlock",
    "SummaryRecord",
    "SingleRecord",
    "ExperimentWorkspace",
    "default_model",
    "load_config",
    "prepare",
    "run_trial",
    "run_experiment",
    "run_single",
]

logger = logging.getLogger(__name__)

ONLINE_SEED_OFFSET = 101


def default_model() -> StateSpaceModel:
    """The bundled two-state single-input single-output example system."""
    return StateSpaceModel(
        A=[[0.8, 0.2], [0.1, 0.9]],
        B=[[0.3], [0.7]],
        C=[[1.0, 1.0]],
        D=[[0.0]],
    )


_CONFIG_LENGTH_KEYS = ("Tini", "Tf", "T", "T_sim", "N")
_CONFIG_SEED_KEYS = ("seed_data", "seed_noise", "seed_perturb")
_CONFIG_INT_KEYS = (*_CONFIG_LENGTH_KEYS, *_CONFIG_SEED_KEYS)


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of a perturbation sweep.  Defaults reproduce the bundled
    experiment: length-30 offline data, 50-step online run, 100 perturbations
    with distances evenly spaced up to 0.9, noise-to-signal ratio 0.02.
    ``kappa_grid``, explicit targets, is given instead of ``N`` and
    ``kappa_max`` (ValueError with either); it sets N to its length, and
    accepts an N of that length, so `dataclasses.replace` works.  The grid
    is read by `lti._frozen` as a 1-D vector of at least one entry, so a
    string, an empty, ragged or 2-D grid, a bool, string or complex entry
    and a non-finite or negative target are refused by name.
    The lengths and N are read by `lti._count`, the seeds by `lti._seed` and
    ``sigma`` and ``kappa_max`` by `lti._real`, so a bool raises TypeError
    naming its key, as does a float length or seed, and ValueError names a
    length or N below 1, a negative seed or sigma, a kappa_max of 0 or less,
    and a non-finite sigma or kappa_max."""

    model: StateSpaceModel
    Tini: int = 4
    Tf: int = 4
    T: int = 30
    T_sim: int = 50
    N: int | None = None  # 100 without kappa_grid
    sigma: float = 0.02
    kappa_max: float | None = None  # 0.9 without kappa_grid
    kappa_grid: tuple[float, ...] | None = None
    seed_data: int = 0
    seed_noise: int = 1
    seed_perturb: int = 3
    output_dir: str = "out"

    def __post_init__(self):
        if self.kappa_grid is not None:
            grid = tuple(_frozen(self.kappa_grid, "kappa_grid", (None,)).tolist())
            if self.N is not None and _count(self.N, "N") == len(grid):
                object.__setattr__(self, "N", None)  # the resolved count, as from replace()
            given = [key for key in ("N", "kappa_max") if getattr(self, key) is not None]
            if given:
                raise ValueError(
                    f"kappa_grid is given together with {' and '.join(given)}: "
                    "give it instead of N and kappa_max"
                )
            if min(grid) < 0:
                raise ValueError(f"kappa_grid values must be nonnegative, got {grid}")
            object.__setattr__(self, "kappa_grid", grid)
            object.__setattr__(self, "N", len(grid))
        else:
            object.__setattr__(self, "N", 100 if self.N is None else self.N)
            kappa_max = 0.9 if self.kappa_max is None else self.kappa_max
            object.__setattr__(self, "kappa_max", _real(kappa_max, "kappa_max"))
        for key in _CONFIG_LENGTH_KEYS:
            object.__setattr__(self, key, _count(getattr(self, key), key))
        for key in _CONFIG_SEED_KEYS:
            object.__setattr__(self, key, _seed(getattr(self, key), key))
        L = self.Tini + self.Tf
        if self.T < L:
            raise ValueError(f"offline length T={self.T} is shorter than Tini+Tf={L}")
        if self.T_sim < L:
            raise ValueError(f"online length T_sim={self.T_sim} is shorter than Tini+Tf={L}")
        object.__setattr__(self, "sigma", _real(self.sigma, "sigma"))
        if self.sigma < 0:
            raise ValueError(f"sigma must be nonnegative, got {self.sigma}")
        if self.kappa_grid is None and self.kappa_max <= 0:
            raise ValueError(f"kappa_max must be positive, got {self.kappa_max}")
        # Every target must be reachable from a basis of rank r = mL+n in
        # dimension q = (m+p)L, checked before any simulation runs.
        m, p, n = self.model.m, self.model.p, self.model.n
        q, r = (m + p) * L, m * L + n
        for kappa in self.kappas:
            check_distance(q, r, kappa)

    @cached_property
    def kappas(self) -> tuple[float, ...]:
        """Target distances, one per trial: the explicit grid when given,
        otherwise N points evenly spaced on (0, kappa_max].  Built once."""
        if self.kappa_grid is not None:
            return self.kappa_grid
        return tuple(self.kappa_max * (i + 1) / self.N for i in range(self.N))


_CONFIG_FLOAT_KEYS = ("sigma", "kappa_max")
_CONFIG_KEYS = (*_CONFIG_INT_KEYS, *_CONFIG_FLOAT_KEYS, "kappa_grid", "model", "output_dir")


def load_config(path) -> ExperimentConfig:
    """Read a key-value configuration file.

    Recognized keys: model (path to a model file), Tini, Tf, T, T_sim, N,
    sigma, kappa_max, kappa_grid (comma-separated, given instead of N and
    kappa_max), seed_data, seed_noise, seed_perturb, output_dir.  Missing
    keys fall back to the defaults; relative paths are resolved against the
    config file's directory.  Every ValueError names the file, and every key
    not recognized here is named before any value is parsed.
    """
    path = Path(path)
    pairs = read_pairs(path.read_text(encoding="utf-8"), source=str(path), optional=_CONFIG_KEYS)
    kwargs: dict = {}
    for key, raw in pairs.items():
        if key in _CONFIG_INT_KEYS:
            kwargs[key] = integer(raw, f"{path}: {key}")
        elif key in _CONFIG_FLOAT_KEYS:
            (kwargs[key],) = floats([raw], f"{path}: {key}")
        elif key == "kappa_grid":
            kwargs[key] = tuple(floats(raw.split(","), f"{path}: {key}"))
        elif key == "model":
            kwargs[key] = load_model(_resolve(path.parent, raw))
        else:  # output_dir
            kwargs[key] = str(_resolve(path.parent, raw))
    kwargs.setdefault("model", default_model())
    with named(path):
        return ExperimentConfig(**kwargs)


def _resolve(base: Path, raw: str) -> Path:
    p = Path(raw)
    return p if p.is_absolute() else base / p


class TrialBlock(NamedTuple):
    """One member's rows of ``trials.csv`` as columns, whose header is
    ``TrialBlock._fields``: ``n``, ``kappa`` and ``sigma_min_Mhat`` are the
    member's scalars, ``t`` the workspace's steps, one per window,
    ``prediction_error`` the error column and ``bound`` the bound column, or
    None when the member is not certified."""

    n: int
    kappa: float
    t: tuple[int, ...]
    prediction_error: np.ndarray
    bound: np.ndarray | None
    sigma_min_Mhat: float


class SummaryRecord(NamedTuple):
    """Per-perturbation averages over the rolling window: ``n`` and then a
    row of ``summary.csv``, which leaves ``n`` to the row order."""

    n: int
    kappa: float
    avg_error: float
    avg_bound: float | None


class SingleRecord(NamedTuple):
    """One time step of a single-perturbation trace; ``baseline`` and
    ``perturbed`` hold one prediction per output channel."""

    t: int
    baseline: np.ndarray
    perturbed: np.ndarray
    error: float
    bound: float | None


@dataclass(frozen=True, eq=False)
class ExperimentWorkspace:
    """Everything shared by the trials of one configuration: the geodesic the
    perturbed family lies on, whose ``origin`` is the baseline basis from
    offline data, the measured online trajectory, the sliding contexts, the
    geodesic's pieces on them, and the baseline one-step predictions."""

    config: ExperimentConfig
    geodesic: Geodesic
    measured: Trajectory
    steps: tuple[int, ...]
    context_matrix: np.ndarray  # (steps, len(b)) stacked context vectors
    b_norms: np.ndarray
    forms: QuadraticForms  # the geodesic's pieces on context_matrix
    baseline: np.ndarray  # (steps, p) one-step predictions of the baseline


def prepare(config: ExperimentConfig) -> ExperimentWorkspace:
    """Run the offline and online stages shared by every trial.  The online
    contexts are stacked once, and the geodesic's pieces on them are formed
    once (`Geodesic.forms`).  The baseline predictions are the kappa = 0
    member's, read by `_member` as every member's are, so a declined
    baseline takes one SVD of its blend's context rows, and context rows
    without full column rank raise RankDeficientError before any member
    is read."""
    model = config.model
    L = config.Tini + config.Tf
    r = model.m * L + model.n

    u_offline = persistently_exciting_input(
        model.m, config.T, order=model.n + L, seed=config.seed_data
    )
    offline = simulate(
        model, u_offline, noise=NoiseSpec.relative_gaussian(config.sigma, config.seed_noise)
    )
    data = stacked_data_matrix(offline.inputs, offline.outputs, config.Tini, config.Tf)
    geodesic = Geodesic.draw(orthonormal_basis(data, r), config.seed_perturb)

    u_online = np.random.default_rng(config.seed_data + ONLINE_SEED_OFFSET).standard_normal(
        (config.T_sim, model.m)
    )
    measured = simulate(
        model,
        u_online,
        noise=NoiseSpec.relative_gaussian(config.sigma, config.seed_noise + ONLINE_SEED_OFFSET),
    )

    context_matrix = _context_matrix(measured, config.Tini, config.Tf)
    forms = geodesic.forms(context_matrix)
    baseline = _member(geodesic, forms, context_matrix, 0.0)[0]
    return ExperimentWorkspace(
        config=config,
        geodesic=geodesic,
        measured=measured,
        steps=tuple(range(config.Tini, config.T_sim - config.Tf + 1)),
        context_matrix=context_matrix,
        b_norms=np.linalg.norm(context_matrix, axis=1),
        forms=forms,
        baseline=baseline,
    )


@dataclass(frozen=True, eq=False)
class TrialOutput:
    block: TrialBlock
    predictions: np.ndarray  # (steps, p) one-step predictions of the member


def _check_index(config: ExperimentConfig, n: int) -> int:
    """``n`` read by `lti._count`, TypeError for a float or a bool and
    ValueError below 1, and refused above N."""
    n = _count(n, "trial index n")
    if n > config.N:
        raise ValueError(f"trial index n={n} out of range 1..{config.N}")
    return n


def _member(geodesic: Geodesic, forms: QuadraticForms, contexts: np.ndarray, kappa: float):
    """``(predictions, sigma_min, ||Yf[:p]||_2)`` of the member of ``geodesic``
    at target ``kappa``, the baseline at 0: one row of p one-step predictions
    per row of ``contexts``, and Yf its future-output rows.

    They are read from ``forms``, the geodesic's pieces on these contexts, at
    the member's `Geodesic.weights`, by `_linalg.member_predictions`.  When
    its guard declines, the member's `Geodesic.blend` is split into context
    and future rows and `predictor._basis_map` maps the first p future rows
    by one SVD of the context rows, with no Gram defect (any exact map gives
    the same predictor, so its one-piece read of nearly the declined K is
    not tried), refusing context rows without full column rank;
    `spectral_norm` takes their norm."""
    p = geodesic.origin.p
    routed = member_predictions(forms, geodesic.weights(kappa), p)
    if routed is not None:
        return routed
    data = geodesic.blend(kappa)
    context_rows, future_rows = np.split(data, [len(data) - p * geodesic.origin.Tf])
    matrix, _, sigma_min = _basis_map(context_rows, future_rows[:p])
    return _apply(matrix, contexts), sigma_min, spectral_norm(future_rows[:p])


def run_trial(workspace: ExperimentWorkspace, n: int) -> TrialOutput:
    """Evaluate perturbation index n (1-based) of the configured family.

    Member n lies at target distance kappas[n-1] along the shared geodesic
    drawn from seed_perturb; its reported kappa is the distance that
    `Geodesic.measure` reads and checks.  `_member` reads the member from
    the workspace's pieces, with no member basis.
    """
    config = workspace.config
    n = _check_index(config, n)
    target = config.kappas[n - 1]
    kappa = workspace.geodesic.measure(target)
    predictions, sigma_min, norm_first = _member(
        workspace.geodesic, workspace.forms, workspace.context_matrix, target
    )
    errors = np.linalg.norm(predictions - workspace.baseline, axis=1)
    try:
        bounds = one_step_bound(sigma_min, norm_first, kappa, 1.0) * workspace.b_norms
    except HypothesisViolationError:
        bounds = None
    else:
        for i in np.flatnonzero(bounds < errors):
            logger.warning(
                "trial n=%d, t=%d: bound %.6g below observed error %.6g",
                n, workspace.steps[i], bounds[i], errors[i],
            )
    return TrialOutput(
        block=TrialBlock(n, kappa, workspace.steps, errors, bounds, sigma_min),
        predictions=predictions,
    )


def run_experiment(config: ExperimentConfig) -> tuple[list[TrialBlock], list[SummaryRecord]]:
    """Run every trial of the sweep, in trial order, and write ``trials.csv``
    and ``summary.csv`` to the configured output directory.

    Returns one block and one summary per member; only these are kept, so a
    member's predictions are freed as the sweep goes on.  A
    summary holds the means of its block's error and bound columns, its
    ``avg_bound`` None when the block's ``bound`` is."""
    workspace = prepare(config)
    blocks, summaries = [], []
    for n in range(1, config.N + 1):
        b = run_trial(workspace, n).block
        avg_bound = None if b.bound is None else float(np.mean(b.bound))
        blocks.append(b)
        summaries.append(SummaryRecord(n, b.kappa, float(np.mean(b.prediction_error)), avg_bound))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trials_csv(out_dir / "trials.csv", blocks)
    write_summary_csv(out_dir / "summary.csv", summaries)
    return blocks, summaries


def run_single(config: ExperimentConfig, n: int) -> tuple[list[SingleRecord], float]:
    """Trace one perturbation: per-step baseline and perturbed one-step
    predictions, their gap, and the computable bound where it is certified.

    Writes ``single_<n>.csv`` to the configured output directory, with
    columns t,baseline,perturbed,error,bound (output channels are expanded
    to baseline_i/perturbed_i when p > 1).
    Returns the records and the measured chordal distance.  An ``n`` that
    is not an integer, a bool included, raises TypeError, and one outside
    1..N ValueError, before any simulation runs.
    """
    n = _check_index(config, n)
    workspace = prepare(config)
    out = run_trial(workspace, n)
    block = out.block
    bounds = repeat(None) if block.bound is None else block.bound.tolist()
    records = list(map(SingleRecord, block.t, workspace.baseline, out.predictions,
                       block.prediction_error.tolist(), bounds))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    p = config.model.p
    channels = [""] if p == 1 else [f"_{i}" for i in range(p)]
    columns = [f"{name}{c}" for name in ("baseline", "perturbed") for c in channels]
    rows = (
        [rec.t, *rec.baseline.tolist(), *rec.perturbed.tolist(), rec.error, rec.bound]
        for rec in records
    )
    _write_csv(out_dir / f"single_{n}.csv", ["t", *columns, "error", "bound"], rows)
    return records, out.block.kappa


def write_trials_csv(path, blocks: list[TrialBlock]) -> None:
    """Write the rows of ``blocks`` with the bytes of ``_write_csv``, a block
    and a column at a time, without a record per row.

    The ``"{t},"`` cells are made once per distinct steps tuple.  A block's
    head ``"{n},{kappa!r},"`` and tail ``",{sigma_min!r}\\n"`` (``",,..."``
    when it has no bound) are formatted once, and its text is assembled in
    one list by extended-slice assignment: the t cells, the error column's
    ``repr`` pass, for a certified block ``","`` and the bound column's
    ``repr`` pass, and the separator tail + head, the last one cut back to
    the tail.  Each block is one ``write``, so only one block's text is held
    at a time.  The benchmark times this writer and ``write_summary_csv`` as
    spans of their own."""
    steps = None
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TrialBlock._fields) + "\n")
        for b in blocks:
            if b.t is not steps:
                steps, t_cells = b.t, [f"{t}," for t in b.t]
            rows = len(t_cells)
            if not rows:
                continue
            head, tail = f"{b.n},{b.kappa!r},", f",{b.sigma_min_Mhat!r}\n"
            columns = [t_cells, map(repr, b.prediction_error.tolist())]
            if b.bound is None:
                tail = "," + tail
            else:
                columns += [repeat(",", rows), map(repr, b.bound.tolist())]
            width = len(columns) + 1
            parts = [tail + head] * (width * rows)
            for i, column in enumerate(columns):
                parts[i::width] = column
            parts[-1] = tail
            fh.write(head + "".join(parts))


def write_summary_csv(path, summaries: list[SummaryRecord]) -> None:
    _write_csv(path, SummaryRecord._fields[1:], (rec[1:] for rec in summaries))


def _write_csv(path: Path, header, rows) -> None:
    """Write ``header`` and ``rows`` by the cell rule of ``write_trials_csv``:
    a float by ``repr``, None as an empty field and an int by ``str``, the
    bytes that the csv module writes for such rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in [header, *rows]:
            cells = ("" if v is None else repr(v) if isinstance(v, float) else str(v) for v in row)
            fh.write(",".join(cells) + "\n")
