"""Correctness gate for benchmark outputs, evaluated outside the timed region.

The gate uses numpy only and recomputes what it checks independently of
subpred: window contexts, least-squares predictions, chordal distances,
smallest singular values, one-step bounds and per-member averages.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

TRIALS_HEADER = ["n", "kappa", "t", "prediction_error", "bound", "sigma_min_Mhat"]
SUMMARY_HEADER = ["kappa", "avg_error", "avg_bound"]
PREDICTION_RTOL = 1e-8
DISTANCE_AGREEMENT = 1e-10


def kappa_tolerance(kappa: float) -> float:
    """Accuracy the perturbation family promises for a target distance."""
    return 1e-6 * max(1.0, kappa)


@dataclass
class GateResult:
    problems: list[str] = field(default_factory=list)
    kappa_err_max: float = 0.0
    bound_violations: int = 0
    rows: int = 0
    csv_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def _check_kappas(result: GateResult, measured, targets) -> None:
    for n, (kappa, target) in enumerate(zip(measured, targets), start=1):
        err = abs(kappa - target)
        result.kappa_err_max = max(result.kappa_err_max, err)
        if not err <= kappa_tolerance(target):
            result.problems.append(f"member {n}: kappa {kappa!r} misses target {target!r}")


def check_sweep(out_dir: Path, data, Tini: int, Tf: int, targets) -> GateResult:
    """Check ``trials.csv`` and ``summary.csv`` of a sweep.

    ``data`` holds the sweep's members (baseline first) and its measured
    trajectory.  Beyond the layout and the target distances, every row's
    kappa, prediction_error, sigma_min_Mhat and bound is recomputed with
    numpy from those members, and every summary row must be the mean of its
    member's trial rows."""
    result = GateResult()
    trials, summary = out_dir / "trials.csv", out_dir / "summary.csv"
    result.csv_bytes = trials.stat().st_size + summary.stat().st_size
    contexts = context_vectors(data["inputs"], data["outputs"], Tini, Tf)
    steps = list(range(Tini, Tini + len(contexts)))
    values = []
    with open(trials, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != TRIALS_HEADER:
            result.problems.append(f"trials.csv header {header} != {TRIALS_HEADER}")
            return result
        expected = ((n, t) for n in range(1, len(targets) + 1) for t in steps)
        for row in reader:
            result.rows += 1
            want = next(expected, None)
            if len(row) != len(TRIALS_HEADER):
                result.problems.append(f"trials.csv row {result.rows}: {len(row)} fields")
                return result
            n, t = int(row[0]), int(row[2])
            if (n, t) != want:
                result.problems.append(f"trials.csv row {result.rows}: (n, t) = {(n, t)}, expected {want}")
                return result
            values.append([float(field) if field else np.nan for field in row[1:2] + row[3:]])
    if result.rows != len(targets) * len(steps):
        result.problems.append(
            f"trials.csv has {result.rows} rows, expected {len(targets)} x {len(steps)}"
        )
        return result
    # Per member and window: kappa, prediction_error, bound, sigma_min_Mhat.
    table = np.array(values).reshape(len(targets), len(steps), 4)
    if len(data["members"]) != len(targets) + 1:
        result.problems.append(f"{len(data['members'])} members, expected {len(targets) + 1}")
        return result
    for n, member in enumerate(table, start=1):
        if np.any(member[:, 0] != member[0, 0]):
            result.problems.append(f"trials.csv: kappa differs within member {n}")
    kappas = table[:, 0, 0]
    _check_kappas(result, kappas, targets)
    _check_trial_values(result, table, data["members"], contexts, data["outputs"].shape[1])
    result.bound_violations = int(np.count_nonzero(table[:, :, 2] < table[:, :, 1]))
    _check_summary(result, summary, table)
    return result


def _check_trial_values(result: GateResult, table, members, contexts, p: int) -> None:
    """Recompute every trial value from the members with numpy."""
    q_context = contexts.shape[1]
    base = members[0]
    baseline = _predictions(base, contexts, q_context, p)
    scale = np.maximum(np.linalg.norm(baseline, axis=1), np.finfo(float).tiny)
    b_norms = np.linalg.norm(contexts, axis=1)
    for n, (rows, basis) in enumerate(zip(table, members[1:]), start=1):
        kappa, errors, bounds, sigma = rows[0, 0], rows[:, 1], rows[:, 2], rows[:, 3]
        distance = _distance(base, basis)
        if abs(kappa - distance) > DISTANCE_AGREEMENT:
            result.problems.append(f"member {n}: reported kappa {kappa!r}, recomputed {distance!r}")
        want_errors = np.linalg.norm(_predictions(basis, contexts, q_context, p) - baseline, axis=1)
        bad = np.abs(errors - want_errors) > PREDICTION_RTOL * np.maximum(want_errors, scale)
        if bad.any():
            result.problems.append(
                f"member {n}: {int(bad.sum())} prediction errors differ from the lstsq reference"
            )
        want_sigma = np.linalg.svd(basis[:q_context], compute_uv=False)[-1]
        if np.any(np.abs(sigma - want_sigma) > PREDICTION_RTOL * want_sigma):
            result.problems.append(f"member {n}: sigma_min_Mhat differs from {want_sigma!r}")
        limit = want_sigma / (2.0 * np.sqrt(2.0))
        if np.isnan(bounds).all():
            if kappa <= limit * (1 - PREDICTION_RTOL):
                result.problems.append(f"member {n}: no bound although kappa {kappa!r} <= {limit!r}")
            continue
        if np.isnan(bounds).any() or kappa > limit * (1 + PREDICTION_RTOL):
            result.problems.append(f"member {n}: bounds given although kappa {kappa!r} > {limit!r}")
            continue
        norm_first = np.linalg.norm(basis[q_context:q_context + p], ord=2)
        unit = (2.0 * (1.0 + np.sqrt(5.0)) * norm_first / want_sigma**2 + 1.0 / want_sigma) * np.sqrt(2.0) * kappa
        want_bounds = unit * b_norms
        if np.any(np.abs(bounds - want_bounds) > PREDICTION_RTOL * want_bounds):
            result.problems.append(f"member {n}: bounds differ from the one-step bound formula")


def _check_summary(result: GateResult, summary: Path, table) -> None:
    with open(summary, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != SUMMARY_HEADER:
        result.problems.append(f"summary.csv header {rows[:1]} != {SUMMARY_HEADER}")
        return
    if len(rows) - 1 != len(table):
        result.problems.append(f"summary.csv has {len(rows) - 1} rows, expected {len(table)}")
        return
    for n, (row, member) in enumerate(zip(rows[1:], table), start=1):
        got = np.array([float(field) if field else np.nan for field in row])
        want = np.array([member[0, 0], np.mean(member[:, 1]), np.mean(member[:, 2])])
        if not np.allclose(got, want, rtol=PREDICTION_RTOL, atol=0.0, equal_nan=True):
            result.problems.append(f"summary.csv row {n}: {row} is not the mean of member {n}'s rows")


def _distance(base, basis) -> float:
    """Chordal distance between the column spans of two orthonormal bases."""
    return float(np.linalg.norm(basis - base @ (base.T @ basis)))


def _predictions(basis, contexts, q_context: int, p: int) -> np.ndarray:
    """One-step predictions ``y_future_1 @ lstsq(context_block, b)`` of a
    basis for every context vector."""
    coeffs = np.linalg.lstsq(basis[:q_context], contexts.T, rcond=None)[0]
    return (basis[q_context:q_context + p] @ coeffs).T


def context_vectors(inputs: np.ndarray, outputs: np.ndarray, Tini: int, Tf: int) -> np.ndarray:
    """Stacked (u_ini, u, y_ini) for every window t = Tini .. T - Tf."""
    rows = []
    for t in range(Tini, len(inputs) - Tf + 1):
        rows.append(np.concatenate([
            inputs[t - Tini:t].ravel(), inputs[t:t + Tf].ravel(), outputs[t - Tini:t].ravel(),
        ]))
    return np.array(rows)


def check_rolling(data, Tini: int, Tf: int, targets) -> GateResult:
    """Check rolling one-step predictions of every member against
    ``y_future_1 @ lstsq(context_block, b)``, the measured distances against
    the targets, and each certified bound against the observed error."""
    result = GateResult()
    members, predictions = data["members"], data["predictions"]
    inputs, outputs = data["inputs"], data["outputs"]
    m, p = inputs.shape[1], outputs.shape[1]
    q_context = (m + p) * (Tini + Tf) - p * Tf
    contexts = context_vectors(inputs, outputs, Tini, Tf)
    expected_shape = (len(targets) + 1, len(contexts), p)
    result.rows = int(np.prod(predictions.shape[:2]))
    if predictions.shape != expected_shape:
        result.problems.append(f"predictions have shape {predictions.shape}, expected {expected_shape}")
        return result
    for k, basis in enumerate(members):
        reference = _predictions(basis, contexts, q_context, p)
        gap = np.linalg.norm(predictions[k] - reference, axis=1)
        bad = gap > PREDICTION_RTOL * np.linalg.norm(reference, axis=1)
        if bad.any():
            worst = int(np.argmax(gap))
            result.problems.append(
                f"member {k}: {int(bad.sum())} predictions differ from the lstsq reference "
                f"(largest gap {gap[worst]:.3e} at window {worst})"
            )
    base = members[0]
    independent = [_distance(base, U) for U in members[1:]]
    for n, (kappa, check) in enumerate(zip(data["kappas"], independent), start=1):
        if abs(kappa - check) > DISTANCE_AGREEMENT:
            result.problems.append(f"member {n}: reported kappa {kappa!r}, recomputed {check!r}")
    _check_kappas(result, data["kappas"], targets)
    b_norms = np.linalg.norm(contexts, axis=1)
    for n, unit_bound in enumerate(data["unit_bounds"], start=1):
        if np.isnan(unit_bound):
            continue
        errors = np.linalg.norm(predictions[n] - predictions[0], axis=1)
        result.bound_violations += int(np.count_nonzero(unit_bound * b_norms < errors))
    return result
