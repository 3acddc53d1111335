"""Fixed reference kernels that track the speed of a shared host.

The host that runs the benchmark is shared, and its speed drifts by tens of
percent over minutes while a process keeps its core (its CPU time and wall
time stay equal; the core simply runs slower).  Every repetition of a
workload is therefore paired with one pass of reference kernels, run just
before it in the same process, and its time is divided by the slowdown that
pass measured.  The kernels use numpy and the standard library only, never
subpred, so a change of the program cannot change them.

Each kernel imitates one kind of work the workloads spend their time on, so
that a slowdown of the host that hits one kind harder than another is
measured on the right one:

``svd_small``
    full and value-only LAPACK SVDs of 90x68 matrices, the context blocks
    of ``rolling-predict``;
``svd_large``
    chordal distances between 256x140 orthonormal bases: a product and two
    value-only SVDs, as in the perturbation bisection of ``sweep-mimo``;
``csv``
    interpreted Python that formats floating-point rows as CSV text, as in
    the record assembly and CSV writing of ``sweep-longrun``.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

_RNG = np.random.default_rng(20240)
_SMALL = [_RNG.standard_normal((90, 68)) for _ in range(16)]
_LARGE = [np.linalg.qr(_RNG.standard_normal((256, 140)))[0] for _ in range(5)]
_ROWS = [tuple(float(v) for v in _RNG.standard_normal(6)) for _ in range(400)]


def _svd_small() -> None:
    for matrix in _SMALL:
        np.linalg.svd(matrix, compute_uv=False)
        np.linalg.svd(matrix, full_matrices=False)


def _svd_large() -> None:
    for first, second in zip(_LARGE, _LARGE[1:]):
        cross = first.T @ second
        np.linalg.svd(cross, compute_uv=False)
        np.linalg.svd(second - first @ cross, compute_uv=False)


def _csv() -> None:
    out = io.StringIO()
    writer = csv.writer(out)
    for i, row in enumerate(_ROWS * 6):
        writer.writerow((i, *(repr(v) for v in row)))


# Each kernel with about the median seconds of one run of it in a quiet
# period of the host where the benchmark's bounds were set (2-core Intel
# Xeon sandbox, numpy 2.4 with OpenBLAS, one BLAS thread, pinned to one
# CPU).  They are fixed scales: changing one rescales the timings that use
# that kernel.
KERNELS = {
    "svd_small": (_svd_small, 0.018),
    "svd_large": (_svd_large, 0.016),
    "csv": (_csv, 0.020),
}


def slowdown(weights: dict[str, float]) -> float:
    """How much slower than in the quiet period the host runs now: the
    weighted mean, over the named kernels, of each kernel's time over its
    quiet-period time.  1.0 is the quiet period's speed."""
    total = 0.0
    for name, weight in weights.items():
        kernel, nominal_s = KERNELS[name]
        t0 = time.perf_counter()
        kernel()
        total += weight * (time.perf_counter() - t0) / nominal_s
    return total / sum(weights.values())
