"""In-process span recorder and the hooks that attach it to gbsemu.

Every public function of the traced modules is replaced by a wrapper in
every ``gbsemu`` module namespace that holds it, so a function that
``cli`` or ``benchmark`` imported by name is traced at its call site as
well.  The public methods of ``sampler.MarginalTables`` are wrapped on the
class.  A span wrapper records the call's wall time; its self time is
that duration minus the time covered by the spans it caused.  The helpers
in COUNT_ONLY are only counted.

Spans are kept in memory, grouped by the pipeline stage that was open
when they ended.  Spans recorded inside worker processes are lost.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

TRACED_MODULES = ("gaussian", "cumulants", "sampler", "benchmark", "cli")

# Helpers that are counted, not timed, so that their time stays in the self
# time of the layer function that calls them: per-subset and per-outcome
# helpers, the instance builders behind load_instance, and the format
# readers behind load_samples.
COUNT_ONLY = frozenset({
    "cumulants.correlator",
    "cumulants.moments_from_click_marginals",
    "gaussian.reduce_modes",
    "gaussian.vacuum_overlap",
    "gaussian.exact_probability",
    "gaussian.torontonian",
    "gaussian.clicks",
    "gaussian.parity",
    "gaussian.symplectic_form",
    "gaussian.instance_from_jiuzhang",
    "gaussian.build_input_covariance",
    "gaussian.embed_transmission",
    "gaussian.ground_truth_covariance",
    "sampler.load_samples_text",
    "sampler.load_samples_packed",
    "sampler.gamma",
})

TABLE_METHODS = ("run", "reset", "advance", "step_probability_zero",
                 "update_p_plus", "update_p1", "update_p2")


class Tracer:
    """Self time and call counts per (stage, span name)."""

    def __init__(self):
        self._stack: list[list[float]] = []
        self.stage: str | None = None
        self.self_s: dict[tuple, float] = defaultdict(float)
        self.calls: dict[tuple, int] = defaultdict(int)
        self.stage_s: dict[str, float] = defaultdict(float)

    def _close(self, name: str, t0: float, frame: list[float]) -> float:
        dur = time.perf_counter() - t0
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dur
        key = (self.stage, name)
        self.self_s[key] += dur - frame[0]
        self.calls[key] += 1
        return dur

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0, frame)

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.calls[(self.stage, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def stage_span(self, stage: str):
        """Root span of one pipeline stage; every span it causes is filed under it."""
        if self._stack:
            raise RuntimeError("stage spans do not nest")
        self.stage = stage
        frame = [0.0]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stage_s[stage] += self._close("stage", t0, frame)
            self.stage = None

    def stage_self_sum(self, stage: str) -> float:
        return sum(v for (st, _), v in self.self_s.items() if st == stage)


def _traced_functions(modules: dict) -> dict[str, object]:
    """Public functions defined in each traced module, by qualified span name."""
    method_names = set(TABLE_METHODS)
    out = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            # module-level aliases that forward to MarginalTables methods:
            # the method spans carry these names
            if short == "sampler" and attr in method_names:
                continue
            out[f"{short}.{attr}"] = obj
    return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap the traced functions everywhere gbsemu holds them; undo on exit."""
    modules = {m: importlib.import_module(f"gbsemu.{m}") for m in TRACED_MODULES}
    by_id = {}
    for name, fn in _traced_functions(modules).items():
        wrap = tracer.counter if name in COUNT_ONLY else tracer.span
        by_id[id(fn)] = (fn, wrap(name, fn))
    patched = []
    namespaces = [mod for key, mod in list(sys.modules.items())
                  if mod is not None and (key == "gbsemu" or key.startswith("gbsemu."))]
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            hit = by_id.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(ns, attr, hit[1])
                patched.append((ns, attr, obj))
    cls = modules["sampler"].MarginalTables
    for meth in TABLE_METHODS:
        if meth in cls.__dict__:
            orig = cls.__dict__[meth]
            setattr(cls, meth, tracer.span(f"sampler.{meth}", orig))
            patched.append((cls, meth, orig))
    try:
        yield
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)
