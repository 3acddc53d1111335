"""Spans around the public functions of subpred's layer modules.

The tracer replaces each public function that a layer module defines with a
wrapper, in every layer module that binds it (``subpred.experiment`` binds
``perturb_subspace`` from ``subpred.grassmann``, for example), so no source
edit is needed.  Spans are named ``<defining module>.<function>``.  Private
helpers are not wrapped: their time is self time of the public function that
called them.

``numpy.linalg.svd`` is wrapped too; each call is charged to the innermost
open span, or to ``bench`` when none is open.  SVD calls made inside numpy
itself (``norm(ord=2)``, ``matrix_rank``) are not seen.  ``svd_flops`` is
computed from matrix shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("lti", "hankel", "grassmann", "predictor", "bounds", "experiment", "cli")
OUTSIDE = "bench"


@dataclass
class SpanStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    svd_calls: int = 0
    svd_flops: int = 0
    durations: list = field(default_factory=list)
    errors: Counter = field(default_factory=Counter)


def svd_flops(shape: tuple[int, ...], full_matrices: bool, compute_uv: bool) -> int:
    """Operation count of one (possibly stacked) SVD, from the R-SVD table of
    Golub and Van Loan, Matrix Computations, 4th ed., section 8.6."""
    batch = int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
    rows, cols = max(shape[-2:]), min(shape[-2:])
    m, n = float(rows), float(cols)
    if not compute_uv:
        flops = 2 * m * n**2 + 2 * n**3
    elif full_matrices:
        flops = 4 * m**2 * n + 22 * n**3
    else:
        flops = 6 * m * n**2 + 20 * n**3
    return int(batch * flops)


class Tracer:
    """Collects span statistics while installed; one instance per run."""

    def __init__(self):
        self.stats: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self._stack: list[list] = []  # [name, start, child seconds]
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"subpred.{name}") for name in LAYERS]
        layer_modules = {mod.__name__ for mod in modules}
        wrappers = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ not in layer_modules:
                    continue
                if obj not in wrappers:
                    span = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                    wrappers[obj] = self._wrap(span, obj)
                self._patch(mod, attr, wrappers[obj])
        self._patch(np.linalg, "svd", self._wrap_svd(np.linalg.svd))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _enter(self, name: str) -> list:
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, exc: BaseException | None) -> float:
        duration = time.perf_counter() - frame[1]
        self._stack.pop()
        stats = self.stats[frame[0]]
        stats.s += duration
        stats.self_s += duration - frame[2]
        if exc is not None:
            stats.errors[type(exc).__name__] += 1
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def _wrap(self, name: str, func):
        if inspect.isgeneratorfunction(func):
            # Time the generator while it is drained, one segment per item.
            @functools.wraps(func)
            def generator_wrapper(*args, **kwargs):
                self.stats[name].calls += 1
                inner = func(*args, **kwargs)
                while True:
                    frame = self._enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        self._exit(frame, None)
                        return
                    except BaseException as exc:
                        self._exit(frame, exc)
                        raise
                    self._exit(frame, None)
                    yield item

            return generator_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            error = None
            try:
                return func(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                stats = self.stats[name]
                stats.calls += 1
                stats.durations.append(self._exit(frame, error))

        return wrapper

    def _wrap_svd(self, svd):
        @functools.wraps(svd)
        def traced_svd(a, full_matrices=True, compute_uv=True, hermitian=False):
            stats = self.stats[self._stack[-1][0] if self._stack else OUTSIDE]
            stats.svd_calls += 1
            stats.svd_flops += svd_flops(np.shape(a), full_matrices, compute_uv)
            return svd(a, full_matrices=full_matrices, compute_uv=compute_uv, hermitian=hermitian)

        return traced_svd
