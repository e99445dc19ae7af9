"""Span recorder that traces lincontrol from outside.

`Recorder.install` replaces each traced public function with a wrapper in
every lincontrol module namespace that binds it (so `simulate` is traced
whether it is reached as `systems.simulate`, `lqr.simulate` or
`cli.simulate`), and replaces traced methods on their class. Every call
records a span: name, start, end and the index of the enclosing span.
Spans stay in flat arrays in memory until the run ends; `reduce` turns
them into call counts and self times (span time minus child spans).
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from array import array

import numpy as np

# Layer boundaries traced: "<module>.<function>" or "<module>.<Class>.__call__".
TARGETS = (
    "kernels.expm", "kernels.eigenvalues", "kernels.numerical_rank",
    "kernels.solve_sylvester", "kernels.rk4_step", "kernels.rk4_path",
    "kernels.SampledMatrixFunction.__call__",
    "systems.simulate",
    "reachability.kalman_test", "reachability.hautus_test",
    "reachability.controllability_gramian", "reachability.min_energy_control",
    "observability.observability_test", "observability.detectability_test",
    "stability.lyapunov_certificate",
    "synthesis.pole_place", "synthesis.design_observer", "synthesis.gramian_stabilizer",
    "lqr.are_solve", "lqr.riccati_finite", "lqr.lqr_trajectory",
    "nonlinear.steer_nonlinear", "nonlinear.integrate_field",
    "nonlinear.VectorField.__call__",
    "cli.main", "cli.dumps", "cli.load_system",
)


class Recorder:
    package = "lincontrol"

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.active = [True]
        self._undo = []

    def _wrap(self, label, fn):
        nid = len(self.names)
        self.names.append(label)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, active, clock = self.stack, self.active, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            idx = len(span_name)
            span_name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == self.package
                                         or name.startswith(self.package + "."))]
        for target in TARGETS:
            modname, _, attr = target.partition(".")
            module = sys.modules[f"{self.package}.{modname}"]
            if attr.endswith(".__call__"):
                cls = getattr(module, attr.rpartition(".")[0])
                original = cls.__dict__["__call__"]
                cls.__call__ = self._wrap(f"{modname}.{cls.__name__}", original)
                self._undo.append((cls, "__call__", original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (oracle checks, set-up)."""
        self.active[0] = False
        try:
            yield
        finally:
            self.active[0] = True

    def reduce(self):
        """{label: (calls, self seconds)} over every recorded span."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {label: (int(calls[i]), float(self_s[i])) for i, label in enumerate(self.names)}

    def save(self, path):
        np.savez_compressed(path, labels=np.array(self.names),
                            name=np.frombuffer(self.span_name, dtype=np.int32),
                            parent=np.frombuffer(self.parent, dtype=np.int32),
                            start=np.frombuffer(self.start, dtype=float),
                            end=np.frombuffer(self.end, dtype=float))
