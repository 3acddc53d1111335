"""End-to-end perturbation experiment: offline basis construction, a family
of perturbed behavior subspaces, rolling one-step prediction, and CSV output.

The perturbed family is nested: one tangent direction is drawn from
``seed_perturb``, factored once per sweep into a `Geodesic`, and every
member sits on that geodesic at its own target distance.  This makes the
average error a smooth, near-linear function of the distance, as opposed to
independent per-member directions whose direction-dependent sensitivity
scatters the trend.

Seeds are split into three independent streams (offline/online data input,
measurement noise, perturbation direction).  The online streams use the
corresponding seed plus ``ONLINE_SEED_OFFSET`` so they never collide with the
offline draws.  Every output is a pure function of the configuration, so
repeated runs are byte-identical.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._kv import finite_floats, integer, read_pairs
from ._linalg import spectral_norm
from .bounds import one_step_bound
from .errors import HypothesisViolationError
from .grassmann import BehaviorBasis, Geodesic, check_distance, orthonormal_basis
from .hankel import persistently_exciting_input, stacked_data_matrix
from .lti import NoiseSpec, StateSpaceModel, Trajectory, load_model, simulate
from .predictor import _context_matrix, _full_rank_map, _prediction_map

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


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration of a perturbation sweep.  Defaults reproduce the bundled
    experiment: length-30 offline data, 50-step online run, 100 perturbations
    with distances evenly spaced up to 0.9, noise-to-signal ratio 0.02."""

    model: StateSpaceModel
    Tini: int = 4
    Tf: int = 4
    T: int = 30
    T_sim: int = 50
    N: int = 100
    sigma: float = 0.02
    kappa_max: float = 0.9
    kappa_grid: tuple[float, ...] | None = None
    seed_data: int = 0
    seed_noise: int = 1
    seed_perturb: int = 3
    output_dir: str = "out"

    def __post_init__(self):
        if min(self.Tini, self.Tf) < 1:
            raise ValueError(f"Tini and Tf must be positive, got ({self.Tini}, {self.Tf})")
        L = self.Tini + self.Tf
        if self.T < L:
            raise ValueError(f"offline length T={self.T} is shorter than Tini+Tf={L}")
        if self.T_sim < L:
            raise ValueError(f"online length T_sim={self.T_sim} is shorter than Tini+Tf={L}")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and nonnegative, got {self.sigma}")
        if self.kappa_grid is not None:
            grid = tuple(float(k) for k in self.kappa_grid)
            if not grid:
                raise ValueError("kappa_grid must not be empty")
            if not all(math.isfinite(k) and k >= 0 for k in grid):
                raise ValueError(f"kappa_grid values must be finite and nonnegative, got {grid}")
            object.__setattr__(self, "kappa_grid", grid)
            object.__setattr__(self, "N", len(grid))
        else:
            if self.N < 1:
                raise ValueError(f"N must be at least 1, got {self.N}")
            if not (math.isfinite(self.kappa_max) and self.kappa_max > 0):
                raise ValueError(f"kappa_max must be finite and positive, got {self.kappa_max}")
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


_CONFIG_INT_KEYS = ("Tini", "Tf", "T", "T_sim", "N", "seed_data", "seed_noise", "seed_perturb")
_CONFIG_FLOAT_KEYS = ("sigma", "kappa_max")


def load_config(path) -> ExperimentConfig:
    """Read a key-value configuration file.

    Recognized keys: model (path to a model file), Tini, Tf, T, T_sim, N,
    sigma, kappa_max, kappa_grid (comma-separated), seed_data, seed_noise,
    seed_perturb, output_dir.  Missing keys fall back to the defaults;
    relative paths are resolved against the config file's directory.
    """
    path = Path(path)
    pairs = read_pairs(path.read_text(encoding="utf-8"), source=str(path))
    kwargs: dict = {}
    for key, raw in pairs.items():
        if key in _CONFIG_INT_KEYS:
            kwargs[key] = integer(raw, f"{path}: {key}")
        elif key in _CONFIG_FLOAT_KEYS:
            (kwargs[key],) = finite_floats([raw], f"{path}: {key}")
        elif key == "kappa_grid":
            kwargs[key] = tuple(finite_floats(raw.split(","), f"{path}: {key}"))
        elif key == "model":
            kwargs[key] = load_model(_resolve(path.parent, raw))
        elif key == "output_dir":
            kwargs[key] = str(_resolve(path.parent, raw))
        else:
            raise ValueError(f"{path}: unknown configuration key {key!r}")
    kwargs.setdefault("model", default_model())
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
    """Everything shared by the trials of one configuration: the baseline
    basis from offline data, the geodesic the perturbed family lies on, the
    measured online trajectory, the sliding contexts, and the baseline
    one-step predictions."""

    config: ExperimentConfig
    basis: BehaviorBasis
    geodesic: Geodesic
    measured: Trajectory
    steps: tuple[int, ...]
    context_matrix: np.ndarray  # (steps, len(b)) stacked context vectors
    b_norms: np.ndarray
    baseline: np.ndarray  # (steps, p) one-step predictions of the baseline


def prepare(config: ExperimentConfig) -> ExperimentWorkspace:
    """Run the offline and online stages shared by every trial.  Like
    `rolling_one_step`, it raises RankDeficientError when the baseline
    basis's context rows lack full column rank."""
    model = config.model
    L = config.Tini + config.Tf
    r = model.m * L + model.n

    u_offline = persistently_exciting_input(
        model.m, config.T, order=model.n + L, seed=config.seed_data
    )
    offline = simulate(
        model, u_offline, noise=_noise(config.sigma, config.seed_noise)
    )
    data = stacked_data_matrix(offline.inputs, offline.outputs, config.Tini, config.Tf)
    basis = orthonormal_basis(data, r)
    geodesic = Geodesic.draw(basis, config.seed_perturb)
    target = max(config.kappas)
    if not geodesic.reaches(target):
        raise ValueError(
            f"kappa={target} unreachable: the geodesic drawn from seed_perturb="
            f"{config.seed_perturb} reaches distance {geodesic.distance(1.0):.6g} at full step"
        )

    u_online = np.random.default_rng(config.seed_data + ONLINE_SEED_OFFSET).standard_normal(
        (config.T_sim, model.m)
    )
    measured = simulate(
        model, u_online, noise=_noise(config.sigma, config.seed_noise + ONLINE_SEED_OFFSET)
    )

    context_matrix = _context_matrix(measured, config.Tini, config.Tf)
    b_norms = np.linalg.norm(context_matrix, axis=1)
    baseline = _full_rank_map(basis).predict(context_matrix)[:, : model.p]
    return ExperimentWorkspace(
        config=config,
        basis=basis,
        geodesic=geodesic,
        measured=measured,
        steps=tuple(range(config.Tini, config.T_sim - config.Tf + 1)),
        context_matrix=context_matrix,
        b_norms=b_norms,
        baseline=baseline,
    )


def _noise(sigma: float, seed: int) -> NoiseSpec:
    if sigma == 0:
        return NoiseSpec.none()
    return NoiseSpec.relative_gaussian(sigma, seed)


@dataclass(frozen=True, eq=False)
class TrialOutput:
    block: TrialBlock
    basis: BehaviorBasis
    predictions: np.ndarray  # (steps, p) one-step predictions of the member


def run_trial(workspace: ExperimentWorkspace, n: int) -> TrialOutput:
    """Evaluate perturbation index n (1-based) of the configured family.

    Member n lies at target distance kappas[n-1] along the shared geodesic
    drawn from seed_perturb; its reported kappa is the measured distance.
    """
    config = workspace.config
    if not 1 <= n <= config.N:
        raise ValueError(f"trial index n={n} out of range 1..{config.N}")
    target = config.kappas[n - 1]
    perturbed, kappa = workspace.geodesic.member(target)
    pred_map = _prediction_map(perturbed)  # one SVD: the map and its sigma_min
    predictions = pred_map.predict(workspace.context_matrix)[:, : config.model.p]
    sigma_min, norm_first = pred_map.sigma_min, spectral_norm(perturbed.y_future[: config.model.p])
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
        basis=perturbed,
        predictions=predictions,
    )


def run_experiment(
    config: ExperimentConfig, write: bool = True
) -> tuple[list[TrialBlock], list[SummaryRecord]]:
    """Run every trial of the sweep, in trial order, and (optionally) write
    ``trials.csv`` and ``summary.csv`` to the configured output directory.

    Returns one block and one summary per member; only these are kept, so a
    member's basis and predictions are freed as the sweep goes on.  A
    summary holds the means of its block's error and bound columns, its
    ``avg_bound`` None when the block's ``bound`` is."""
    workspace = prepare(config)
    blocks, summaries = [], []
    for n in range(1, config.N + 1):
        b = run_trial(workspace, n).block
        avg_bound = None if b.bound is None else float(np.mean(b.bound))
        blocks.append(b)
        summaries.append(SummaryRecord(n, b.kappa, float(np.mean(b.prediction_error)), avg_bound))
    if write:
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trials_csv(out_dir / "trials.csv", blocks)
        write_summary_csv(out_dir / "summary.csv", summaries)
    return blocks, summaries


def run_single(
    config: ExperimentConfig, n: int, write: bool = True
) -> tuple[list[SingleRecord], float]:
    """Trace one perturbation: per-step baseline and perturbed one-step
    predictions, their gap, and the computable bound where it is certified.

    Writes ``single_<n>.csv`` with columns t,baseline,perturbed,error,bound
    (output channels are expanded to baseline_i/perturbed_i when p > 1).
    Returns the records and the measured chordal distance.
    """
    workspace = prepare(config)
    out = run_trial(workspace, n)
    block = out.block
    bounds = repeat(None) if block.bound is None else block.bound.tolist()
    records = list(map(SingleRecord, block.t, workspace.baseline, out.predictions,
                       block.prediction_error.tolist(), bounds))
    if write:
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


# The two sweep files keep named writers: the benchmark (bench/) times them
# as the per-layer spans experiment.write_trials_csv and write_summary_csv.
# trials.csv has one row per member and window and a member is one
# TrialBlock, so its writer formats a block's scalars once and fills the rows
# from the block's columns; the short files go through _write_csv.


def write_trials_csv(path, blocks: list[TrialBlock]) -> None:
    """Write the rows of ``blocks`` with the bytes of ``_write_csv``, one
    block at a time, without building a record per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(TrialBlock._fields) + "\n")
        for b in blocks:
            columns = [b.t, b.prediction_error.tolist()]
            bound = ""
            if b.bound is not None:
                columns.append(b.bound.tolist())
                bound = "{!r}"
            row = f"{b.n},{b.kappa!r},{{}},{{!r}},{bound},{b.sigma_min_Mhat!r}\n".format
            fh.write("".join(map(row, *columns)))


def write_summary_csv(path, summaries: list[SummaryRecord]) -> None:
    _write_csv(path, SummaryRecord._fields[1:], (rec[1:] for rec in summaries))


def _write_csv(path: Path, header, rows) -> None:
    """Write ``header`` and ``rows`` with the csv module, which writes floats
    in their shortest round-trip (``repr``) form and ``None`` as an empty
    field.  ``write_trials_csv`` reproduces these bytes without it."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
