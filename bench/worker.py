"""One workload run in a fresh interpreter.

    python3 bench/worker.py --setup-only --config CFG
        imports subpred, parses the input files and prints the monotonic
        clock reading at which that finished;
    python3 bench/worker.py --workload NAME --config CFG --budget S --trace 0|1 --result OUT
        repeats the workload until S seconds have passed and writes the
        per-repetition timings, output hashes, peak memory and set-up
        samples to OUT.

Set-up samples are ``--setup-only`` children started between repetitions,
spread evenly over the run, so a burst of load from elsewhere on the host
skews few of them.  Every repetition is preceded by one pass of the
workload's reference kernels (``reference.py``), and every set-up sample is
enclosed by two passes; the slowdown they measure is stored with it.  The
interpreter and its set-up children stay on one CPU, the one the passes
time.

With ``--trace 1`` the first half of the budget runs untraced and the second
half traced, so the result also carries the tracing overhead.  BLAS thread
counts are set by the caller through the environment, before numpy loads.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time

from workloads import use_source_tree

use_source_tree()

from subpred import cli, experiment  # noqa: E402  (import time is measured set-up)

MIN_UNTRACED = {0: 3, 1: 1}
MIN_TRACED = 2
SETUP_SAMPLES = 20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--budget", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    config = experiment.load_config(args.config)
    if args.setup_only:
        print(repr(time.monotonic()))
        return 0
    return _measure(args, config)


def _measure(args, config) -> int:
    # Imported here so that set-up samples load nothing beyond subpred.
    import hashlib
    import json
    import resource
    import traceback
    from pathlib import Path

    import numpy as np

    from reference import slowdown
    from tracer import Tracer
    from workloads import WORKLOADS

    _pin_to_one_cpu()
    kind = WORKLOADS[args.workload]["kind"]
    reference = WORKLOADS[args.workload]["reference"]
    out_dir = Path(config.output_dir)
    argv = ["experiment", "--config", args.config, "--jobs", "1"]
    start = time.perf_counter()
    reps, traced, setup = [], [], []
    last = None

    def sample_setup_when_due():
        while len(setup) < SETUP_SAMPLES and time.perf_counter() >= start + args.budget * len(setup) / SETUP_SAMPLES:
            setup.append(_setup_sample(args.config))

    def one_rep(tracer):
        nonlocal last
        sample_setup_when_due()
        rep = {"traced": tracer is not None, "ok": True, "error": None, "hash": None,
               "slowdown": slowdown(reference)}
        if tracer is not None:
            tracer.install()
        t0 = time.perf_counter()
        try:
            if kind == "sweep":
                code = cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"behave experiment exited with {code}")
            else:
                last = _rolling(config)
        except Exception:
            rep["ok"] = False
            rep["error"] = traceback.format_exc()
        rep["run_s"] = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            traced.append(_snapshot(tracer))
        if rep["ok"]:
            digest = hashlib.sha256()
            if kind == "sweep":
                for name in ("trials.csv", "summary.csv"):
                    digest.update((out_dir / name).read_bytes())
            else:
                for key in ("predictions", "kappas", "unit_bounds"):
                    digest.update(np.ascontiguousarray(last[key]).tobytes())
            rep["hash"] = digest.hexdigest()
        reps.append(rep)

    def keep_going(done: int, minimum: int, until: float) -> bool:
        # A failed repetition fails the run; repeating it adds nothing.
        return all(rep["ok"] for rep in reps) and (done < minimum or time.perf_counter() < until)

    untraced_until = start + (args.budget / 2 if args.trace else args.budget)
    while keep_going(len(reps), MIN_UNTRACED[args.trace], untraced_until):
        one_rep(None)
    while args.trace and keep_going(len(traced), MIN_TRACED, start + args.budget):
        one_rep(Tracer())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_SAMPLES:
        setup.append(_setup_sample(args.config))

    # Inputs of the correctness gate, written outside the timed region.
    if kind == "rolling" and last is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        np.savez(out_dir / "rolling.npz", **last)
    elif kind == "sweep" and all(rep["ok"] for rep in reps):
        np.savez(out_dir / "members.npz", **_sweep_reference(config))
    Path(args.result).write_text(json.dumps({
        "reps": reps,
        "traced": traced,
        "peak_rss_kb": peak_rss_kb,
        "setup": setup,
        "predictions_per_rep": _predictions(kind, config),
    }), encoding="utf-8")
    return 0


def _pin_to_one_cpu() -> None:
    """Keep this interpreter, and the set-up children it starts, on one CPU,
    so that the reference passes time the core the measured work runs on.
    Where affinity cannot be set, the work runs unpinned."""
    import os

    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _setup_sample(config_path: str) -> dict:
    """Seconds from starting a fresh interpreter to the end of importing
    subpred and parsing the input files, with the mean of the slowdowns
    measured just before and just after it."""
    from reference import slowdown
    from workloads import SETUP_REFERENCE

    before = slowdown(SETUP_REFERENCE)
    started = time.monotonic()
    child = subprocess.run(
        [sys.executable, __file__, "--setup-only", "--config", config_path],
        capture_output=True, text=True, timeout=60, check=True,
    )
    setup_s = float(child.stdout.split()[-1]) - started
    return {"setup_s": setup_s, "slowdown": (before + slowdown(SETUP_REFERENCE)) / 2}


def _predictions(kind: str, config) -> int:
    windows = config.T_sim - config.Tini - config.Tf + 1
    members = config.N + 1 if kind == "rolling" else config.N
    return members * windows


def _snapshot(tracer) -> dict:
    import numpy as np

    return {
        name: {
            "calls": st.calls,
            "s": st.s,
            "self_s": st.self_s,
            "svd_calls": st.svd_calls,
            "svd_flops": st.svd_flops,
            "p50_s": float(np.percentile(st.durations, 50)) if st.durations else 0.0,
            "p90_s": float(np.percentile(st.durations, 90)) if st.durations else 0.0,
            "errors": dict(st.errors),
        }
        for name, st in tracer.stats.items()
    }


def _modules():
    import importlib

    # The package namespace re-exports functions under the names of some
    # modules (subpred.hankel is a function), so load the modules directly.
    return [importlib.import_module(f"subpred.{name}")
            for name in ("bounds", "errors", "grassmann", "hankel", "lti", "predictor")]


def _members(config):
    """The library path up to prediction: the offline basis, the perturbed
    members at the configured distances and the measured online trajectory,
    built with the public functions of subpred from the configured seeds.
    Returns (members, measured) with the baseline basis first."""
    import numpy as np

    _, _, grassmann, hankel, lti, _ = _modules()
    model, Tini, Tf = config.model, config.Tini, config.Tf
    L = Tini + Tf

    def noise(seed):
        return lti.NoiseSpec.relative_gaussian(config.sigma, seed) if config.sigma else lti.NoiseSpec.none()

    u = hankel.persistently_exciting_input(model.m, config.T, order=model.n + L, seed=config.seed_data)
    offline = lti.simulate(model, u, noise=noise(config.seed_noise))
    data = hankel.stacked_data_matrix(offline.inputs, offline.outputs, Tini, Tf)
    basis = grassmann.orthonormal_basis(data, model.m * L + model.n)
    members = [basis] + [
        grassmann.perturb_subspace(basis, kappa, seed=config.seed_perturb) for kappa in config.kappas
    ]
    online = np.random.default_rng(config.seed_data + experiment.ONLINE_SEED_OFFSET)
    measured = lti.simulate(
        model,
        online.standard_normal((config.T_sim, model.m)),
        noise=noise(config.seed_noise + experiment.ONLINE_SEED_OFFSET),
    )
    return members, measured


def _sweep_reference(config) -> dict:
    """What the sweep gate recomputes the trial rows from: the members of
    the sweep and its measured trajectory."""
    import numpy as np

    members, measured = _members(config)
    return {
        "members": np.stack([U.matrix for U in members]),
        "inputs": measured.inputs,
        "outputs": measured.outputs,
    }


def _rolling(config) -> dict:
    """The library path: offline basis, baseline plus perturbed members,
    rolling one-step prediction for each, and the certified one-step bound
    per member (NaN when kappa is outside its validity region)."""
    import numpy as np

    bounds, errors, grassmann, _, _, predictor = _modules()
    members, measured = _members(config)
    basis = members[0]
    predictions = np.stack([predictor.rolling_one_step(U, measured, config.Tini, config.Tf) for U in members])
    kappas, unit_bounds = [], []
    for U in members[1:]:
        kappa = grassmann.chordal_distance(basis, U)
        sigma_min = float(np.linalg.svd(U.context_block, compute_uv=False)[-1])
        norm_first = float(np.linalg.svd(U.y_future[: config.model.p], compute_uv=False)[0])
        try:
            unit_bounds.append(bounds.one_step_bound(sigma_min, norm_first, kappa, 1.0))
        except errors.HypothesisViolationError:
            unit_bounds.append(np.nan)
        kappas.append(kappa)
    return {
        "members": np.stack([U.matrix for U in members]),
        "inputs": measured.inputs,
        "outputs": measured.outputs,
        "predictions": predictions,
        "kappas": np.array(kappas),
        "unit_bounds": np.array(unit_bounds),
    }


if __name__ == "__main__":
    raise SystemExit(main())
