"""Self-tests of the benchmark: input generation, correctness gate, tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json

import numpy as np
import pytest

import gate
from tracer import LAYERS, OUTSIDE, Tracer
from workloads import ROOT, WORKLOADS, random_model, sweep_kappas, use_source_tree, workload_model, write_inputs

use_source_tree()

from subpred.experiment import ExperimentConfig, default_model, load_config, run_experiment  # noqa: E402


def _rank(matrix: np.ndarray) -> int:
    return int(np.linalg.matrix_rank(matrix))


@pytest.mark.parametrize("dims", [spec["model"] for spec in WORKLOADS.values() if isinstance(spec["model"], dict)])
@pytest.mark.parametrize("seed", range(10))
def test_model_is_deterministic_stable_controllable_observable(dims, seed):
    first = random_model(np.random.default_rng(seed), **dims)
    second = random_model(np.random.default_rng(seed), **dims)
    for key in "ABCD":
        np.testing.assert_array_equal(first[key], second[key])
    A, B, C = first["A"], first["B"], first["C"]
    n = A.shape[0]
    assert max(abs(np.linalg.eigvals(A))) < 1
    assert _rank(np.hstack([np.linalg.matrix_power(A, k) @ B for k in range(n)])) == n
    assert _rank(np.vstack([C @ np.linalg.matrix_power(A, k) for k in range(n)])) == n


@pytest.mark.parametrize("name", WORKLOADS)
def test_written_inputs_fix_every_value(tmp_path, name):
    path, config = write_inputs(name, 3, tmp_path)
    parsed = load_config(path)
    model = workload_model(name, 3)
    for key in "ABCD":
        np.testing.assert_array_equal(getattr(parsed.model, key), model[key])
    assert parsed.kappas == sweep_kappas(config)
    for key, value in config.items():
        assert getattr(parsed, key) == value, key
    written = {line.split("=")[0].strip() for line in path.read_text(encoding="utf-8").splitlines()}
    assert written >= {"model", "Tini", "Tf", "T", "T_sim", "sigma", "seed_data", "seed_noise", "seed_perturb"}


@pytest.fixture
def sweep(tmp_path):
    worker = importlib.import_module("worker")
    # The two smaller distances are certified by the one-step bound, the
    # largest is not.
    config = ExperimentConfig(model=default_model(), T_sim=30, kappa_grid=(0.001, 0.01, 0.5),
                              output_dir=str(tmp_path))
    run_experiment(config)
    return tmp_path, worker._sweep_reference(config), config


def _check(sweep):
    out, data, config = sweep
    return gate.check_sweep(out, data, config.Tini, config.Tf, config.kappas)


def _rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(edit(lines)), encoding="utf-8")


def _edit_field(path, line, column, edit):
    def change(lines):
        fields = lines[line].rstrip("\n").split(",")
        fields[column] = edit(fields[column])
        lines[line] = ",".join(fields) + "\n"
        return lines

    _rewrite(path, change)


def test_gate_accepts_a_real_sweep(sweep):
    out, data, config = sweep
    result = _check(sweep)
    assert result.ok, result.problems
    assert result.rows == config.N * (config.T_sim - config.Tini - config.Tf + 1)
    assert result.kappa_err_max <= 1e-6
    trials = (out / "trials.csv").read_text(encoding="utf-8").splitlines()
    assert trials[1].split(",")[4] and not trials[-1].split(",")[4], "fixture must mix certified and uncertified members"


def test_gate_rejects_a_moved_kappa(sweep):
    out = sweep[0]
    _edit_field(out / "trials.csv", 5, 1, lambda v: repr(float(v) + 1e-3))
    assert not _check(sweep).ok


# Columns of trials.csv: n, kappa, t, prediction_error, bound, sigma_min_Mhat.
@pytest.mark.parametrize("column, problem", [(3, "prediction errors differ"), (4, "bounds differ"),
                                             (5, "sigma_min_Mhat differs")])
def test_gate_rejects_a_changed_trial_value(sweep, column, problem):
    out = sweep[0]
    _edit_field(out / "trials.csv", 5, column, lambda v: repr(float(v) * (1 + 1e-4)))
    problems = _check(sweep).problems
    assert any(problem in text for text in problems), problems


def test_gate_rejects_a_dropped_bound(sweep):
    out = sweep[0]
    _edit_field(out / "trials.csv", 5, 4, lambda v: "")
    assert not _check(sweep).ok


@pytest.mark.parametrize("column", [1, 2], ids=["avg_error", "avg_bound"])
def test_gate_rejects_a_summary_that_is_not_the_mean(sweep, column):
    out = sweep[0]
    _edit_field(out / "summary.csv", 1, column, lambda v: repr(float(v) * (1 + 1e-6)))
    assert not _check(sweep).ok


def test_gate_rejects_swapped_members(sweep):
    out, data, config = sweep
    members = data["members"].copy()
    members[[1, 2]] = members[[2, 1]]
    assert not gate.check_sweep(out, {**data, "members": members}, config.Tini, config.Tf, config.kappas).ok


@pytest.mark.parametrize("row", ["first", "middle", "last"])
def test_gate_rejects_a_missing_row(sweep, row):
    out, _, config = sweep
    rows = config.N * (config.T_sim - config.Tini - config.Tf + 1)
    index = {"first": 1, "middle": rows // 2, "last": rows}[row]
    _rewrite(out / "trials.csv", lambda lines: lines[:index] + lines[index + 1:])
    assert not _check(sweep).ok


def test_gate_rejects_a_changed_header(sweep):
    out = sweep[0]
    _rewrite(out / "trials.csv", lambda lines: ["n,kappa,t,error,bound,sigma_min_Mhat\n"] + lines[1:])
    assert not _check(sweep).ok


@pytest.fixture
def rolling(tmp_path):
    worker = importlib.import_module("worker")
    config = ExperimentConfig(
        model=default_model(), Tini=4, Tf=4, T=30, T_sim=60, kappa_grid=(0.01, 0.05),
        output_dir=str(tmp_path),
    )
    return worker._rolling(config), config


def test_rolling_gate_accepts_real_predictions(rolling):
    data, config = rolling
    result = gate.check_rolling(data, config.Tini, config.Tf, config.kappas)
    assert result.ok, result.problems
    assert result.bound_violations == 0


def test_rolling_gate_rejects_a_perturbed_prediction(rolling):
    data, config = rolling
    data["predictions"][1, 10] *= 1 + 1e-6
    assert not gate.check_rolling(data, config.Tini, config.Tf, config.kappas).ok


def _traced_counts(config) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        run_experiment(config)
    finally:
        tracer.uninstall()
    return {name: (st.calls, st.svd_calls, st.svd_flops) for name, st in tracer.stats.items()}


def test_traced_counts_repeat_and_tracer_uninstalls(tmp_path):
    import subpred.grassmann

    original = subpred.grassmann.perturb_subspace
    config = ExperimentConfig(model=default_model(), T_sim=30, N=4, output_dir=str(tmp_path))
    first, second = _traced_counts(config), _traced_counts(config)
    assert first == second
    assert first["grassmann.perturb_subspace"][0] == config.N
    assert first["grassmann.perturb_subspace"][1] > 0
    assert subpred.grassmann.perturb_subspace is original
    assert importlib.import_module("subpred.experiment").perturb_subspace is original


def test_per_layer_names_resolve():
    """Every per-layer metric of BENCHMARK.json names an aggregate the run
    computes or a key of a span over a public function of a layer module."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    aggregates = {"bounds.uncertified", "bounds.bound_violations", "grassmann.kappa_err_max",
                  "experiment.csv_bytes", "experiment.records", "trace.run_s", "trace.overhead_s",
                  f"{OUTSIDE}.share"}
    aggregates |= {f"{layer}.{key}" for layer in LAYERS for key in ("self_s", "share", "svd_calls")}
    keys = {"s", "self_s", "p50_s", "p90_s", "calls", "svd_calls", "svd_flops"}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in aggregates:
            continue
        layer, function, key = name.split(".")
        module = importlib.import_module(f"subpred.{layer}")
        assert callable(getattr(module, function)) and key in keys, name


def test_host_speed_cancels_out_of_timings():
    """A repetition timed together with its slowdown reads the same whether
    the host runs fast or slow at that moment."""
    from run import _at_nominal_speed

    fast = [{"run_s": 0.5, "slowdown": 1.0}, {"run_s": 0.6, "slowdown": 1.0}]
    slow = [{"run_s": 0.5 * 1.4, "slowdown": 1.4}, {"run_s": 0.6 * 1.7, "slowdown": 1.7}]
    assert _at_nominal_speed(fast, "run_s") == pytest.approx(0.55)
    assert _at_nominal_speed(slow, "run_s") == pytest.approx(0.55)


@pytest.mark.parametrize("name", [*WORKLOADS, "setup"])
def test_reference_kernels_exist(name):
    from reference import KERNELS, slowdown
    from workloads import SETUP_REFERENCE

    weights = SETUP_REFERENCE if name == "setup" else WORKLOADS[name]["reference"]
    assert set(weights) <= set(KERNELS)
    assert 0 < slowdown(weights) < 100
