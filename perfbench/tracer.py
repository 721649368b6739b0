"""Span tracer that times torusflow's layers from outside the package.

`Tracer.install()` wraps each public function listed in SPANS and rebinds
every name in every loaded `torusflow` module that refers to the original
object. The rebinding matters because `pipeline`, `solver` and `cli` import
with `from .x import y`: patching only `torusflow.transport.density_at` would
miss the calls `solver` makes through its own binding of `density_at`.
Methods are patched on their class, which every instance looks up.

A span records calls, inclusive time and self time (inclusive time minus the
time covered by child spans). Hooks derive exact counts from the call
arguments: RK4 steps of a backtrack, points passed to `velocity_at`, Picard
passes reported by the solver, and bytes of every file written. Spans read
the clock given to the tracer, which lets the worker leave its host-speed
probe out of them.
"""

from __future__ import annotations

import hashlib
import importlib
import math
import os
import sys
import time
from collections import Counter


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _density_key(tracer, args, kwargs, result, seconds):
    """Distinct (trajectory, t) pairs: the trajectory is keyed by content."""
    history = _arg(args, kwargs, 1, "history")
    digest = hashlib.blake2b(digest_size=16)
    for name in ("times", "coeffs", "derivs"):
        digest.update(getattr(history, name).tobytes())
    tracer.density_keys.add((digest.hexdigest(), float(_arg(args, kwargs, 3, "t"))))


def _rk4_steps(tracer, args, kwargs, result, seconds):
    # Mirrors the step count of transport.backtrack: ceil(t/dtau), none at t=0.
    t = float(_arg(args, kwargs, 2, "t"))
    dtau = float(_arg(args, kwargs, 3, "dtau"))
    if t != 0.0:
        tracer.counts["transport.backtrack.rk4_steps"] += max(1, math.ceil(t / dtau - 1e-12))


def _points(tracer, args, kwargs, result, seconds):
    # Method hook: args[0] is the BasisSet, args[1] the (..., 2) point array.
    tracer.counts["basis.velocity_at.points"] += _arg(args, kwargs, 1, "points").size // 2


def _picard(tracer, args, kwargs, result, seconds):
    tracer.counts["solver.picard_iterations"] += result[1].iterations
    if tracer.active["pipeline.run_simulation"]:
        tracer.times["picard_in_run_s"] += seconds


def _file_bytes(index, name, counter):
    def hook(tracer, args, kwargs, result, seconds):
        tracer.counts[counter] += os.path.getsize(_arg(args, kwargs, index, name))

    return hook


_ESTIMATES_WRITES = {
    "write_ndjson": _file_bytes(0, "path", "estimates.ledger_write.bytes"),
    "EstimateLedger.write_csv": _file_bytes(1, "path", "estimates.ledger_write.bytes"),
}

# (layer, module, attribute, hook). An attribute "Class.method" patches the
# method on the class. EstimateLedger.write_ndjson delegates to write_ndjson,
# so only the module function counts ndjson bytes.
SPANS = [
    ("transport.density_at", "torusflow.transport", "density_at", _density_key),
    ("transport.backtrack", "torusflow.transport", "backtrack", _rk4_steps),
    ("transport.coeffs_at", "torusflow.transport", "VelocityHistory.coeffs_at", None),
    ("basis.velocity_at", "torusflow.basis", "BasisSet.velocity_at", _points),
    ("basis.grid", "torusflow.basis", "BasisSet.grid", None),
    ("basis.synthesize", "torusflow.basis", "BasisGrid.synthesize", None),
    ("basis.synthesize", "torusflow.basis", "BasisGrid.synthesize_gradient", None),
    ("basis.project", "torusflow.basis", "BasisGrid.project", None),
    ("solver.picard_solve", "torusflow.solver", "picard_solve", _picard),
    ("solver.solve_linearized", "torusflow.solver", "solve_linearized", None),
    ("solver.assemble", "torusflow.solver", "assemble", None),
    ("solver.ode_rhs", "torusflow.solver", "ode_rhs", None),
    ("solver.build_state", "torusflow.solver", "build_state", None),
    ("solver.residual_diagnostics", "torusflow.solver", "residual_diagnostics", None),
    ("pipeline.run_simulation", "torusflow.pipeline", "run_simulation", None),
    ("pipeline.momentum_probes", "torusflow.pipeline", "momentum_probes", None),
    ("pipeline.write_run_outputs", "torusflow.pipeline", "write_run_outputs", None),
    ("fields.leray_pressure", "torusflow.fields", "leray_pressure", None),
    (
        "fields.save_snapshot",
        "torusflow.fields",
        "save_snapshot",
        _file_bytes(1, "path", "fields.save_snapshot.bytes"),
    ),
]


def _estimates_spans():
    """Every public function and EstimateLedger method of torusflow.estimates,
    all under the single layer "estimates"."""
    mod = importlib.import_module("torusflow.estimates")
    names = [
        name
        for name, obj in vars(mod).items()
        if callable(obj)
        and not isinstance(obj, type)
        and not name.startswith("_")
        and getattr(obj, "__module__", None) == mod.__name__
    ]
    names += [
        f"EstimateLedger.{name}"
        for name, obj in vars(mod.EstimateLedger).items()
        if callable(obj) and not name.startswith("_")
    ]
    return [("estimates", mod.__name__, name, _ESTIMATES_WRITES.get(name)) for name in sorted(names)]


def _resolve(module_name, attribute):
    owner = importlib.import_module(module_name)
    *classes, name = attribute.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if name not in vars(owner):
        raise LookupError(f"{module_name}.{attribute} no longer exists")
    return owner, name


class Tracer:
    """In-memory spans for one process. Not thread-safe: torusflow runs
    single-threaded in Python."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.inclusive = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.times = Counter()
        self.active = Counter()
        self.density_keys = set()
        self._stack = []  # [layer, seconds covered by child spans]
        self._undo = []

    def wrap(self, layer, fn, hook):
        stack, clock = self._stack, self.clock

        def span(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            self.active[layer] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._record(frame, clock() - start)
                # An error leaving the solver layer, not one passing between
                # two solver functions.
                if layer.startswith("solver.") and not (
                    stack and stack[-1][0].startswith("solver.")
                ):
                    self.counts["solver.errors"] += 1
                raise
            seconds = clock() - start
            self._record(frame, seconds)
            if hook is not None:
                hook_start = clock()
                hook(self, args, kwargs, result, seconds)
                # Hook time is tracer cost: keep it out of the caller's self time.
                if stack:
                    stack[-1][1] += clock() - hook_start
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", layer)
        span.__doc__ = fn.__doc__
        return span

    def _record(self, frame, seconds):
        self._stack.pop()
        layer = frame[0]
        self.active[layer] -= 1
        self.calls[layer] += 1
        self.inclusive[layer] += seconds
        self.self_time[layer] += seconds - frame[1]
        if self._stack:
            self._stack[-1][1] += seconds

    def install(self):
        """Patch every span; raise LookupError if a listed function is gone."""
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "torusflow" or name.startswith("torusflow."))
        ]
        for layer, module_name, attribute, hook in SPANS + _estimates_spans():
            owner, name = _resolve(module_name, attribute)
            original = vars(owner)[name]
            wrapper = self.wrap(layer, original, hook)
            self._rebind(owner, name, original, wrapper)
            if isinstance(owner, type):
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, alias, original, wrapper)

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, original))

    def uninstall(self):
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
            "times": dict(self.times),
            "density_distinct": len(self.density_keys),
        }
