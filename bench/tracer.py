"""Per-layer tracing from outside the program.

A probe replaces one function name in the module (or class) that looks it
up -- ``waferforge.experiment.integrate`` is the integrator as ``simulate``
sees it, ``waferforge.calibration.fit_psp_batch`` the PSP fit as the
calibration ops see it -- with a wrapper that records calls, wall time, self
time (wall time minus the time of traced calls made inside it) and counters
read from the arguments or the result.

The tracer is fail-safe: a probe whose name no longer exists, or whose
counters can no longer be read from the arguments or result, has those
metrics reported as absent instead of failing the run.

Numpy RuntimeWarnings raised while tracing are counted against the
innermost traced layer that was running when they were raised, i.e. the
layer they escape from.
"""

from __future__ import annotations

import importlib
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Probe:
    layer: str  # metric prefix, the module's short name
    name: str  # attribute replaced in each home
    homes: tuple[str, ...]  # "module" or "module:Class" that looks the name up
    # counter name -> fn(args, kwargs, result) -> number
    counters: dict[str, Callable] = field(default_factory=dict)
    # fn(args, kwargs) -> metric key; default "<layer>.<name>"
    key: Callable | None = None


class Stats:
    """Totals of one group of traced calls, keyed by metric key."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.warnings: dict[str, int] = defaultdict(int)

    def get(self, key: str, qty: str) -> float:
        if qty == "calls":
            return self.calls.get(key, 0)
        if qty == "s":
            return self.seconds.get(key, 0.0)
        if qty == "self_s":
            return self.self_seconds.get(key, 0.0)
        return self.counts.get(f"{key}.{qty}", 0.0)


@dataclass
class _Frame:
    key: str
    layer: str
    child_s: float = 0.0


class Tracer:
    def __init__(self, probes: list[Probe]):
        self.probes = probes
        self.missing: set[str] = set()  # "<layer>.<name>" of probes not found
        self.absent: set[str] = set()  # "<key>.<counter>" that could not be read
        self._sink: Stats | None = None  # where traced calls go; None = off
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[_Frame] = []

    def install(self) -> None:
        for probe in self.probes:
            found = False
            for home in probe.homes:
                owner = _resolve(home)
                original = getattr(owner, probe.name, None) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, probe.name, self._wrap(probe, original))
                self._patched.append((owner, probe.name, original))
                found = True
            if not found:
                self.missing.add(f"{probe.layer}.{probe.name}")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, probe: Probe, original):
        default_key = f"{probe.layer}.{probe.name}"
        stack = self._stack

        def traced(*args, **kwargs):
            sink = self._sink
            if sink is None:
                return original(*args, **kwargs)
            key = default_key
            if probe.key is not None:
                try:
                    key = probe.key(args, kwargs)
                except (IndexError, KeyError, TypeError):
                    pass
            if stack and stack[-1].key == key:
                # re-entry through a sibling name (exclude_many -> exclude):
                # the outer call already accounts for it
                return original(*args, **kwargs)
            frame = _Frame(key, probe.layer)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1].child_s += dt
                sink.calls[key] += 1
                sink.seconds[key] += dt
                sink.self_seconds[key] += dt - frame.child_s
            for cname, read in probe.counters.items():
                ckey = f"{key}.{cname}"
                if ckey in self.absent:
                    continue
                try:
                    sink.counts[ckey] += float(read(args, kwargs, result))
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    self.absent.add(ckey)
            return result

        return traced

    def run(self, sink: Stats, fn, *args, **kwargs):
        """Call ``fn`` with tracing into ``sink`` and RuntimeWarnings counted."""
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            passthrough = warnings.showwarning

            def on_warning(message, category, filename, lineno, file=None, line=None):
                if issubclass(category, RuntimeWarning):
                    sink.warnings[self._stack[-1].layer if self._stack else "other"] += 1
                else:
                    passthrough(message, category, filename, lineno, file, line)

            warnings.showwarning = on_warning
            self._sink = sink
            try:
                return fn(*args, **kwargs)
            finally:
                self._sink = None


def _resolve(home: str):
    module_name, _, attr = home.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(owner, attr, None) if attr else owner
