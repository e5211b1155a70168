"""Spans around the public functions of each framesync module.

Wrappers are installed from the benchmark's side, never inside the program.
A span records calls, total time and self time (total minus the time of its
child spans).  Spans nest through a per-thread stack, so a call made from
`config` into `states` is charged to `states`, and a Monte Carlo worker
thread's trials are charged to `protocols.sync_trial` while the waiting
parent's time stays in `protocols.mc`.  Totals are kept per (parent, span)
edge in memory and merged when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time

MODULES = ("cli", "config", "states", "estimation", "protocols", "core")

# Public module functions with a span of their own.  The other functions of
# `config` are charged to "config.spec" (each one resolves a spec), those of
# the other modules to "<module>.other".
FUNCTION_SPANS = {
    "cli.main": "cli.main",
    "cli.build_parser": "cli.main",
    "cli.render_csv": "cli.render",
    "cli.render_json": "cli.render",
    "core.measure": "core.measure",
    "states.flat_state": "states.build",
    "states.sine_state": "states.build",
    "states.single_sector_state": "states.build",
    "states.optimal_frameness_state": "states.build",
    "states.expand": "states.build",
    "estimation.min_joint_cost": "estimation.min_joint_cost",
    "estimation.sample_estimate": "estimation.sample_estimate",
    "estimation.brute_force_min_cost": "estimation.oracle",
    "protocols.monte_carlo_cost": "protocols.mc",
    "protocols.alice_measure": "protocols.alice_measure",
    "protocols.sector_form_residual": "protocols.sector_form_residual",
    "protocols.teleport_with_mismatch": "protocols.teleport",
    "protocols.fidelity_after_relay": "protocols.teleport",
    "protocols.finite_group_align": "protocols.align",
    "protocols.no_go_witness": "protocols.witness",
}

# Methods patched on their classes; class attributes are shared by every module.
METHOD_SPANS = (
    ("core", "RandomSource", "split", "core.rng"),
    ("core", "RandomSource", "generator", "core.rng"),
    ("core", "Ket", "__post_init__", "core.validate"),
    ("core", "DensityMatrix", "__post_init__", "core.validate"),
    ("states", "BipartiteFrameState", "__post_init__", "states.validate"),
    ("protocols", "SyncProtocol", "__init__", "protocols.sync_setup"),
    ("protocols", "SyncProtocol", "trial", "protocols.sync_trial"),
)

# Every span name a metric can read.
SPANS = frozenset(FUNCTION_SPANS.values()) | {span for *_, span in METHOD_SPANS} | {
    "config.spec"} | {f"{short}.other" for short in MODULES if short != "config"}


class Tracer:
    """Per-thread span stacks feeding per-thread (parent, span) tables."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []
        self.mc_trials = 0

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, span: str, fn):
        thread_state = self._thread_state
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, table = thread_state()
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                entry = table.get((parent, span))
                if entry is None:
                    entry = table[parent, span] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - frame[1]
        return wrapper

    def count_trials(self, fn):
        """Adds the `trials` argument of each call of ``fn`` to mc_trials."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self._lock:
                self.mc_trials += int(signature.bind(*args, **kwargs).arguments["trials"])
            return fn(*args, **kwargs)
        return wrapper

    def edges(self) -> dict:
        """(parent, span) -> [calls, total_s, self_s], merged over threads."""
        merged = {}
        with self._lock:
            for table in self._tables:
                for key, (calls, total, own) in table.items():
                    entry = merged.setdefault(key, [0, 0.0, 0.0])
                    entry[0] += calls
                    entry[1] += total
                    entry[2] += own
        return merged

    def spans(self) -> dict:
        """span -> {calls, total_s, self_s}; total_s counts outermost calls only."""
        out = {}
        for (parent, span), (calls, total, own) in self.edges().items():
            entry = out.setdefault(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += calls
            entry["self_s"] += own
            if parent != span:
                entry["total_s"] += total
        return out


class Installed:
    """Wrappers installed into the framesync modules; ``remove`` undoes them."""

    def __init__(self, tracer: Tracer):
        modules = {name: sys.modules[f"framesync.{name}"] for name in MODULES}
        self._undo = []
        wrapped = {}
        for short, module in modules.items():
            for name, obj in vars(module).items():
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                span = FUNCTION_SPANS.get(
                    f"{short}.{name}", "config.spec" if short == "config" else f"{short}.other")
                wrapper = tracer.wrap(span, obj)
                if span == "protocols.mc":
                    wrapper = tracer.count_trials(wrapper)
                wrapped[obj] = wrapper
        # Rebind in every module that holds the function, including the ones
        # that imported it with `from .x import y`.
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "framesync" and not mod_name.startswith("framesync."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((module, name, obj))
                    setattr(module, name, wrapped[obj])
        for short, cls_name, method, span in METHOD_SPANS:
            cls = getattr(modules[short], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, tracer.wrap(span, original))

    def remove(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
