"""Benchmark for subpred: perturbation sweeps and rolling prediction.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

A run writes the workload's input files for the seed, repeats the workload
in a fresh interpreter for S seconds while it samples set-up in further
fresh interpreters, checks its outputs and prints every metric with its
unit and sample count.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload untraced and traced.
The exit code is 0 only when every repetition passed the correctness gate.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child interpreter.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
from tracer import LAYERS, OUTSIDE  # noqa: E402
from workloads import ROOT, WORKLOADS, sweep_kappas, use_source_tree, write_inputs  # noqa: E402

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
RECORD = HERE / "record.json"
WORK_ROOT = ROOT / ".bench_run"
CHILD_TIMEOUT_S = 150


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="run length; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_source_tree()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        ok = True
        for name in WORKLOADS:
            for trace in (0, 1):
                ok &= run(spec, name, args.seed, args.seconds, trace)
        return 0 if ok else 1
    return 0 if run(spec, args.workload, args.seed, args.seconds, args.trace) else 1


def run(spec: dict, name: str, seed: int, seconds: float, trace: int) -> bool:
    """One measured run; prints the report and the result line."""
    work = WORK_ROOT / f"{name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        measured = _measure(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    values = measured["metrics"]
    if trace:
        # A span the workload never entered reads 0.
        metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(f"== {name} seed={seed} trace={trace} seconds={seconds:g} threads={THREADS} jobs=1")
    for problem in measured["problems"]:
        print(f"FAILED {problem}")
    samples = measured["samples"]
    for metric, entry in metrics.items():
        print(f"{metric:<45} {entry['value']:<24.6g} {entry['unit']:<8} n={samples.get(metric, 1)}")
    info = [(key, values[key], unit, samples[key]) for key, unit in RAW_KEYS.items()]
    info += [("failed_share", measured["failed"] / measured["attempted"], "share", measured["attempted"]),
            ("kappa_err_max", measured["kappa_err_max"], "chordal", 1)]
    for metric, value, unit, n in info:
        print(f"{metric:<45} {value:<24.6g} {unit:<8} n={n}")
    if trace:
        shares = ", ".join(f"{layer} {measured['metrics'][f'{layer}.share']:.1%}" for layer in (*LAYERS, OUTSIDE))
        print(f"layer share of traced run_s: {shares}")
    print(_hash_line(name, seed, measured["hash"]))
    correct = not measured["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }), flush=True)
    return correct


def _hash_line(name: str, seed: int, digest: str | None) -> str:
    recorded = None
    if RECORD.is_file():
        record = json.loads(RECORD.read_text(encoding="utf-8"))
        recorded = record.get("output_sha256", {}).get(name, {}).get(str(seed))
    if recorded is None:
        note = "no recorded hash for this seed"
    elif recorded == digest:
        note = "matches the recorded hash"
    else:
        note = f"DIFFERS from the recorded hash {recorded}: outputs changed"
    return f"output sha256 {digest} ({note})"


def _measure(name: str, seed: int, seconds: float, trace: int, work: Path) -> dict:
    config_path, config = write_inputs(name, seed, work)
    result_path = work / "result.json"
    child = subprocess.run(
        [sys.executable, str(WORKER), "--workload", name, "--config", str(config_path),
         "--budget", repr(float(seconds)), "--trace", str(trace), "--result", str(result_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if child.returncode != 0 or not result_path.is_file():
        sys.stderr.write(child.stderr)
        raise RuntimeError(f"worker exited with {child.returncode}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    reps = result["reps"]
    problems = [f"repetition {i}: {rep['error']}" for i, rep in enumerate(reps) if not rep["ok"]]

    targets = sweep_kappas(config)
    out = work / "out"
    if WORKLOADS[name]["kind"] == "sweep" and (out / "members.npz").is_file():
        with np.load(out / "members.npz") as data:
            checked = gate.check_sweep(out, data, config["Tini"], config["Tf"], targets)
    elif (out / "rolling.npz").is_file():
        with np.load(out / "rolling.npz") as data:
            checked = gate.check_rolling(data, config["Tini"], config["Tf"], targets)
    else:
        checked = gate.GateResult(problems=["no output was written"])
    problems += checked.problems
    if checked.bound_violations:
        problems.append(f"{checked.bound_violations} certified bounds below the observed error")

    hashes = {rep["hash"] for rep in reps if rep["ok"]}
    if len(hashes) > 1:
        problems.append(f"repetitions produced {len(hashes)} different outputs")
    digest = reps[-1]["hash"]
    failed = sum(1 for rep in reps if not rep["ok"] or rep["hash"] != digest)
    if problems:
        failed = len(reps)

    untraced = [rep for rep in reps if rep["ok"] and not rep["traced"]]
    run_s = _at_nominal_speed(untraced, "run_s")
    wall = [rep["run_s"] for rep in untraced]
    metrics = {
        "setup_s": _at_nominal_speed(result["setup"], "setup_s"),
        "run_s": run_s,
        "predictions_per_s": result["predictions_per_rep"] / run_s,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
        "setup_wall_s": statistics.median(sample["setup_s"] for sample in result["setup"]),
        "run_best_wall_s": min(wall, default=float("nan")),
        "run_median_wall_s": statistics.median(wall) if wall else float("nan"),
        "slowdown": statistics.median(rep["slowdown"] for rep in reps),
    }
    samples = {"setup_s": len(result["setup"]), "run_s": len(untraced), "predictions_per_s": len(untraced),
               "setup_wall_s": len(result["setup"]), "run_best_wall_s": len(untraced),
               "run_median_wall_s": len(untraced), "slowdown": len(reps)}
    if trace and not result["traced"]:
        problems.append("no traced repetition ran")
    elif trace:
        traced_reps = [rep for rep in reps if rep["traced"]]
        traced_s = [rep["run_s"] for rep in traced_reps]
        layer, counts_problem = _layer_metrics(result["traced"], traced_s, checked)
        layer["trace.run_s"] = _at_nominal_speed(traced_reps, "run_s")
        layer["trace.overhead_s"] = layer["trace.run_s"] - run_s
        if counts_problem:
            problems.append(counts_problem)
        metrics.update(layer)
        samples.update({key: len(traced_s) for key in layer if key.endswith(("_s", ".s", ".share"))})
    return {
        "metrics": metrics,
        "samples": samples,
        "problems": problems,
        "attempted": len(reps),
        "failed": failed,
        "hash": digest,
        "kappa_err_max": checked.kappa_err_max,
    }


# Raw wall-clock figures and the host's slowdown, printed next to the
# metrics but not reported in the result line.
RAW_KEYS = {"setup_wall_s": "s", "run_best_wall_s": "s", "run_median_wall_s": "s", "slowdown": "x"}


def _at_nominal_speed(samples: list[dict], key: str) -> float:
    """Median over samples of ``key`` divided by the slowdown the reference
    kernels measured with it: seconds at the quiet-period speed of the host.
    The shared host's speed drifts by tens of percent within minutes; the
    kernels slow with it, so the quotient keeps what the program costs."""
    if not samples:
        return float("nan")
    return statistics.median(sample[key] / sample["slowdown"] for sample in samples)


COUNT_KEYS = ("calls", "svd_calls", "svd_flops")
TIME_KEYS = ("s", "self_s", "p50_s", "p90_s")


def _layer_metrics(traced: list[dict], traced_s: list[float], checked) -> tuple[dict, str | None]:
    """Per-layer metrics: times and shares are medians over the traced
    repetitions, counts come from the first one and must repeat in every
    other.  A layer's share is its spans' self time over the repetition's
    run_s; ``bench`` is the rest, time outside every span."""
    counts = [{(span, key): st[key] for span, st in rep.items() for key in COUNT_KEYS} for rep in traced]
    problem = None
    if any(c != counts[0] for c in counts[1:]):
        problem = "span or SVD counts differ between traced repetitions"

    per_rep = []
    for rep, rep_s in zip(traced, traced_s):
        values = {f"{span}.{key}": st[key] for span, st in rep.items() for key in TIME_KEYS}
        for layer in LAYERS:
            self_s = sum(st["self_s"] for span, st in rep.items() if span.startswith(f"{layer}."))
            values[f"{layer}.self_s"] = self_s
            values[f"{layer}.share"] = self_s / rep_s
        values[f"{OUTSIDE}.share"] = 1.0 - sum(values[f"{layer}.share"] for layer in LAYERS)
        per_rep.append(values)
    out = {key: statistics.median(values.get(key, 0.0) for values in per_rep)
           for key in set().union(*per_rep)}

    first = traced[0]
    for span, st in first.items():
        out.update({f"{span}.{key}": st[key] for key in COUNT_KEYS})
    for layer in LAYERS:
        out[f"{layer}.svd_calls"] = sum(st["svd_calls"] for span, st in first.items() if span.startswith(f"{layer}."))
    out["bounds.uncertified"] = first.get("bounds.one_step_bound", {}).get("errors", {}).get(
        "HypothesisViolationError", 0)
    out["grassmann.kappa_err_max"] = checked.kappa_err_max
    out["bounds.bound_violations"] = checked.bound_violations
    out["experiment.csv_bytes"] = checked.csv_bytes
    out["experiment.records"] = checked.rows if checked.csv_bytes else 0
    return out, problem


if __name__ == "__main__":
    raise SystemExit(main())
