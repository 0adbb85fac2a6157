"""Spans and counters recorded from outside metriclab.

The tracer wraps the public functions of each package module and rebinds
every module attribute that refers to the original function, because
``from .geometry import curve_distance`` binds the name at import time and a
wrapper set only on ``geometry`` would never see calls from ``metrics``.
Spans are kept in flat arrays while the run lasts and written once at its
end; self time is a span's duration minus the time its direct children
cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array

import numpy as np

LAYERS = ("geometry", "bergman", "metrics", "maps", "growth", "experiments")
ROOT = "run"


def rebind(original, replacement, modules) -> None:
    """Point every module attribute (and module-level dict value) that is
    ``original`` at ``replacement``."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
            elif isinstance(value, dict):
                for key, item in value.items():
                    if item is original:
                        value[key] = replacement


def package_modules():
    """The loaded modules of the metriclab package."""
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "metriclab" or n.startswith("metriclab."))]


class Tracer:
    """Span recorder. Span 0 is the root span that covers the traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = {}

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper that records a span ``name`` per call; ``before(args,
        kwargs)`` may return replacement args, ``after(args, result)`` sees
        the result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args, kwargs) or args
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self, hooks: dict, methods=()) -> dict:
        """Wrap every public function defined in a package module.

        ``hooks`` maps a span name such as ``geometry.contains`` to a
        ``(before, after)`` pair; ``methods`` lists ``(class, name)`` pairs to
        wrap on the class.  Returns the original functions by span name."""
        modules = package_modules()
        originals = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            if layer not in LAYERS:
                continue
            for name, fn in list(vars(mod).items()):
                if name.startswith("__") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                if name.startswith("_") and f"{layer}.{name}" not in hooks:
                    continue
                span_name = f"{layer}.{name}"
                before, after = hooks.get(span_name, (None, None))
                originals[span_name] = fn
                rebind(fn, self.wrap(span_name, fn, before, after), modules)
        for cls, name in methods:
            layer = cls.__module__.rsplit(".", 1)[-1]
            span_name = f"{layer}.{cls.__name__}.{name}"
            fn = getattr(cls, name)
            before, after = hooks.get(span_name, (None, None))
            originals[span_name] = fn
            setattr(cls, name, self.wrap(span_name, fn, before, after))
        return originals

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """(names per span, inclusive durations, self times) as arrays."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        names = np.asarray(self.names, dtype=object)[
            np.frombuffer(self.name_id, dtype=np.int32)]
        return names, dur, dur - covered

    def layer_time_under(self, anchors) -> dict:
        """For each span name in ``anchors``: the self time of the spans of
        the anchor's own layer inside its spans' subtrees, so a function's
        cost includes its same-layer helpers but not the layers it calls."""
        names, _, self_t = self.self_times()
        out = dict.fromkeys(anchors, 0.0)
        anchor_of = [-1] * len(names)
        for i, name in enumerate(names):
            p = self.parent[i]
            a = i if name in out else (anchor_of[p] if p >= 0 else -1)
            anchor_of[i] = a
            if a >= 0 and name.split(".", 1)[0] == names[a].split(".", 1)[0]:
                out[names[a]] += float(self_t[i])
        return out

    def save(self, path, meta: dict) -> None:
        """Write all spans to a compressed ``.npz``: per span its name id,
        start, end and parent index; the run id and metadata as scalars."""
        np.savez_compressed(
            path, names=np.asarray(self.names), name_id=np.asarray(self.name_id),
            parent=np.asarray(self.parent), start=np.asarray(self.start),
            end=np.asarray(self.end), run_id=np.asarray(self.run_id),
            meta=np.asarray(json.dumps(meta, sort_keys=True)))
