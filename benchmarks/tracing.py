"""Spans around every call into covspec's public functions, from outside.

``Tracer.install`` wraps each public function (and public method of a
public class) defined in the traced modules, and rebinds every module-level
reference to it across the package, so calls between modules go through the
wrapper too.  Spans are recorded on the main thread only; calls made by
worker threads (the harness pool) are counted but not timed, because their
overlapping intervals have no single self time.  Spans stay in memory until
the caller reads ``spans``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("model", "eigen", "weighted", "harness", "kernels", "mp", "law", "kde", "cli")


def _count_draw(tracer, args, kwargs, result):
    tracer.add("model.entries", result.size)


def _count_gram(tracer, args, kwargs, result):
    # A = Y Y* / N with Y n x N: 2 n^2 N real flops, 4x that for complex entries
    cfg = args[0] if args else kwargs["cfg"]
    n = result.shape[0]
    scale = 4.0 if np.iscomplexobj(result) else 1.0
    tracer.add("model.gram_gflop", scale * 2.0 * n * n * cfg.N / 1e9)


def _count_eig(tracer, args, kwargs, result):
    tracer.add("eigen.calls", 1)


def _count_kernel(tracer, args, kwargs, result):
    tracer.add("kernels.kernel_evals", np.size(result))


def _count_solve(tracer, args, kwargs, result):
    _, res, iters = result
    tracer.add("mp.points", np.size(res))
    tracer.add("mp.iters_total", int(np.sum(iters)))
    tracer.peak("mp.iters_max", int(np.max(iters)))
    tracer.peak("mp.max_residual", float(np.max(res)))


def _keep_result(tracer, args, kwargs, result):
    tracer.kept.append(result)


COUNTERS = {
    "model.draw_entries": _count_draw,
    "model.build_sample_cov": _count_gram,
    "eigen.eig_decompose": _count_eig,
    "kernels.kernel_from_mbar": _count_kernel,
    "mp.solve_mbar_grid": _count_solve,
    "harness.run_replications": _keep_result,
}


class Tracer:
    """Span and counter store; install() patches the package in place."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = defaultdict(float)
        self.kept = []           # results of run_replications, for the replay check
        self._patches = []      # (owner, attribute, original) for uninstall
        self._stack = []
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def add(self, key, amount):
        with self._lock:
            self.counts[key] += amount

    def peak(self, key, value):
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._main:
                result = fn(*args, **kwargs)
            else:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1])
                tracer._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer._stack.pop()
                    tracer.spans[index][1:3] = [start, end]
            if counter is not None:
                counter(tracer, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "covspec") -> int:
        """Wrap the traced modules' public callables; returns how many."""
        modules = [importlib.import_module(f"{package}.{m}") for m in TRACED_MODULES]
        replaced = {}
        for short, mod in zip(TRACED_MODULES, modules):
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self.wrap(obj, f"{short}.{name}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr, self.wrap(member, f"{short}.{name}.{attr}"))
        for mod in modules + [importlib.import_module(package)]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._patch(mod, name, replaced[id(obj)])
        return len(replaced)

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Restore every binding install() replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
