"""Run-to-run spread of the end-to-end metrics over many seeds.

    python3 bench/prove.py [--seeds 1-10] [--record]

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed, for the
``run_seconds`` of BENCHMARK.json, exactly as a benchmark driver would, and
prints for every end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile spread as a
share of the median, next to the metric's bound.  A metric is steady when
its spread is below a third of its bound; the exit code is 0 only when every
metric on every workload is steady.  With
``--record`` it also runs every workload traced once and writes
``bench/record.json``: the environment, the spreads, the layer shares and
the sha256 of every run's outputs, which ``run.py`` compares against later.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited with {child.returncode}:\n"
                           f"{child.stdout}\n{child.stderr}")
    digest = next(line.split()[2] for line in lines if line.startswith("output sha256"))
    return json.loads(lines[-1]), digest


def environment(seconds: int) -> dict:
    import numpy as np

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "jobs": 1,
        "run_seconds": seconds,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    seconds = spec["run_seconds"]
    record_path = HERE / "record.json"
    previous = json.loads(record_path.read_text(encoding="utf-8")) if record_path.is_file() else {}
    record = {"environment": environment(seconds), "seeds": seeds,
              "spread": {}, "layer_share": {}, "output_sha256": {}}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        hashes = record["output_sha256"][workload] = {}
        for seed in seeds:
            result, hashes[str(seed)] = _run(workload, seed, seconds, 0)
            recorded = previous.get("output_sha256", {}).get(workload, {}).get(str(seed))
            if recorded not in (None, hashes[str(seed)]):
                print(f"{workload} seed {seed}: outputs differ from the recorded hash", flush=True)
            if not result["correct"] or result["failed"]:
                raise RuntimeError(f"{workload} seed {seed} failed its correctness gate")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        record["spread"][workload] = {}
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3
            steady &= ok
            record["spread"][workload][metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"],
                "values": vals}
            print(f"{workload:<16} {metric['name']:<18} median {med:<12.6g} q1 {q1:<12.6g} "
                  f"q3 {q3:<12.6g} spread {spread:7.2%} bound {metric['bound']:.2f} "
                  f"{'ok' if ok else 'WIDE'}", flush=True)
        if args.record:
            traced, _ = _run(workload, seeds[0], seconds, 1)
            record["layer_share"][workload] = {
                name[: -len(".share")]: entry["value"]
                for name, entry in traced["metrics"].items() if name.endswith(".share")}
    if args.record:
        record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
