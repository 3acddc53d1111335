"""Seeded inputs for the subpred benchmark.

A workload seed becomes a model file and a configuration file in the plain
``key = value`` formats that ``subpred.experiment.load_config`` reads.  The
program under test sees only those files, never the seed.

Workload sizes are fixed here and every configuration key is written to the
file, so no default of the program under test shapes a workload.  Run length
does not change the sizes, so every run of a workload does the same amount
of work per repetition.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The two-state single-input single-output example that subpred bundles,
# copied here so that a change of the bundled model cannot change the
# workload.
TWO_STATE_MODEL = {
    "A": np.array([[0.8, 0.2], [0.1, 0.9]]),
    "B": np.array([[0.3], [0.7]]),
    "C": np.array([[1.0, 1.0]]),
    "D": np.array([[0.0]]),
}

# Offset between the workload seed and the perturbation-direction seed, so
# the model draw and the direction draw never share a generator state.
PERTURB_SEED_OFFSET = 7919

WORKLOADS = {
    # Scale L of the roadmap: 45 SVDs per member inside the perturbation
    # bisection dominate; CSV output is small.
    "sweep-mimo": {
        "kind": "sweep",
        "reference": {"svd_large": 1.0},
        "model": {"n": 12, "m": 4, "p": 4},
        "config": {"Tini": 16, "Tf": 16, "T": 400, "T_sim": 100, "N": 4, "kappa_max": 0.9,
                   "sigma": 0.02},
    },
    # The bundled two-state model and the bundled configuration with a long
    # online trajectory: about 25k trial rows, so record assembly and CSV
    # writing dominate and perturbation runs on small SISO matrices.
    "sweep-longrun": {
        "kind": "sweep",
        "reference": {"csv": 1.0},
        "model": "two-state",
        "config": {"Tini": 4, "Tf": 4, "T": 30, "T_sim": 1000, "N": 25, "kappa_max": 0.9,
                   "sigma": 0.02},
    },
    # Scale M of the roadmap through the library path: rolling one-step
    # prediction over a long measured trajectory for the baseline and a few
    # perturbed members; two SVDs per window per member dominate.
    "rolling-predict": {
        "kind": "rolling",
        "reference": {"svd_small": 1.0},
        "model": {"n": 8, "m": 3, "p": 3},
        "config": {"Tini": 10, "Tf": 10, "T": 200, "T_sim": 150, "sigma": 0.02,
                   "kappa_grid": (0.02, 0.05, 0.1)},
    },
}


# Reference kernels (see reference.py) that set-up samples are paired
# with: starting an interpreter and importing is interpreted Python and
# loading of compiled libraries.
SETUP_REFERENCE = {"svd_small": 0.5, "csv": 0.5}


def use_source_tree() -> None:
    """Import ``subpred`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "subpred" / "__init__.py").is_file():
        raise FileNotFoundError(f"no subpred package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _controllability(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    blocks = [B]
    for _ in range(A.shape[0] - 1):
        blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def random_model(rng: np.random.Generator, n: int, m: int, p: int,
                 spectral_radius: float = 0.95) -> dict[str, np.ndarray]:
    """Stable model with a random spectral radius in [0.5, 1] times
    ``spectral_radius``, redrawn until controllable and observable."""
    while True:
        A = rng.standard_normal((n, n))
        radius = max(abs(np.linalg.eigvals(A)))
        if radius > 0:
            A *= spectral_radius * rng.uniform(0.5, 1.0) / radius
        B = rng.standard_normal((n, m))
        C = rng.standard_normal((p, n))
        D = rng.standard_normal((p, m))
        if (np.linalg.matrix_rank(_controllability(A, B)) == n
                and np.linalg.matrix_rank(_controllability(A.T, C.T)) == n):
            return {"A": A, "B": B, "C": C, "D": D}


def format_model(model: dict[str, np.ndarray]) -> str:
    def rows(mat: np.ndarray) -> str:
        return " ; ".join(" ".join(repr(float(v)) for v in row) for row in mat)

    n, m = model["B"].shape
    p = model["C"].shape[0]
    lines = [f"n = {n}", f"m = {m}", f"p = {p}"]
    lines += [f"{key} = {rows(model[key])}" for key in ("A", "B", "C", "D")]
    return "\n".join(lines) + "\n"


def sweep_kappas(config: dict) -> tuple[float, ...]:
    """Target distances of a configuration, computed the way the
    configuration file format defines them."""
    if "kappa_grid" in config:
        return tuple(float(k) for k in config["kappa_grid"])
    N, kappa_max = config["N"], config["kappa_max"]
    return tuple(kappa_max * (i + 1) / N for i in range(N))


def _seeds(seed: int) -> dict:
    return {"seed_data": seed, "seed_noise": seed + 1, "seed_perturb": seed + PERTURB_SEED_OFFSET}


def workload_model(name: str, seed: int) -> dict[str, np.ndarray]:
    """The model of a workload for one seed."""
    dims = WORKLOADS[name]["model"]
    if dims == "two-state":
        return TWO_STATE_MODEL
    return random_model(np.random.default_rng(seed), **dims)


def write_inputs(name: str, seed: int, directory: Path) -> tuple[Path, dict]:
    """Write the model and configuration files of a workload into
    ``directory``; returns the configuration path and its values."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "model.txt").write_text(format_model(workload_model(name, seed)), encoding="utf-8")
    lines = ["model = model.txt"]
    config = {**WORKLOADS[name]["config"], **_seeds(seed)}
    for key, value in config.items():
        if key == "kappa_grid":
            value = ",".join(repr(float(k)) for k in value)
        lines.append(f"{key} = {value}")
    lines.append("output_dir = out")
    path = directory / "config.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, config
