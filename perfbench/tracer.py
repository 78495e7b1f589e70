"""Span tracer that wraps the package's names from outside.

A span records one wrapped call: its name, start and end (``perf_counter_ns``,
which on Linux reads one monotonic clock shared by every process), the span
open when it started (its parent) and a work count (``units``).  Spans stay
in memory in the process that made them.  When the outermost span of a task
ends, the process writes that task's spans, with the task's label, to one
``.npz`` file in ``out_dir``; pool workers forked after :meth:`Tracer.wrap`
inherit the wrappers and hand their spans back through those files.
"""

import functools
import glob
import os
from time import perf_counter_ns

import numpy as np


class Tracer:
    def __init__(self):
        self.out_dir = None
        self.names = []
        self._ids = {}
        self._patches = []
        self._seq = 0
        self._reset()

    def _reset(self):
        self._name = []
        self._start = []
        self._end = []
        self._parent = []
        self._units = []
        self._stack = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, module, attr: str, name: str, units=None, label=None):
        """Replace ``module.attr`` by a traced wrapper.

        ``units(args)`` gives the work count of one call; ``label(args,
        result)`` marks the call as a task and names it, and the task's
        spans are written out when it ends.
        """
        fn = getattr(module, attr)
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            stack = self._stack
            idx = len(self._name)
            self._name.append(nid)
            self._parent.append(stack[-1] if stack else -1)
            self._units.append(units(args) if units else 0)
            self._end.append(0)
            stack.append(idx)
            self._start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[idx] = perf_counter_ns()
                stack.pop()
            if label is not None and not stack:
                self._flush(label(args, result))
            return result

        if isinstance(fn, type):
            # keep class attributes such as PowerProfile.uniform reachable;
            # calls through them construct the original class untraced
            for a in dir(fn):
                if not a.startswith("_"):
                    setattr(traced, a, getattr(fn, a))
            traced.__name__ = fn.__name__
        else:
            # same module and qualname, so pickle sends the wrapper by
            # reference to forked pool workers
            functools.update_wrapper(traced, fn)
        setattr(module, attr, traced)
        self._patches.append((module, attr, fn))

    def unwrap(self):
        """Put every wrapped name back."""
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _arrays(self, label: str) -> dict:
        return {"label": np.array(label),
                "name": np.array(self._name, dtype=np.int32),
                "start": np.array(self._start, dtype=np.int64),
                "end": np.array(self._end, dtype=np.int64),
                "parent": np.array(self._parent, dtype=np.int64),
                "units": np.array(self._units, dtype=np.int64)}

    def _flush(self, label: str):
        self._seq += 1
        path = os.path.join(self.out_dir, f"{os.getpid()}-{self._seq}.npz")
        np.savez(path, **self._arrays(label))
        self._reset()

    def collect(self) -> "Spans":
        """Every span of ``out_dir`` plus those still in this process."""
        parts = []
        for path in sorted(glob.glob(os.path.join(self.out_dir, "*.npz"))):
            with np.load(path) as f:
                parts.append({k: f[k] for k in f.files})
        parts.append(self._arrays(""))
        self._reset()
        return Spans(self.names, parts)


class Spans:
    """Spans of one traced call, flattened over tasks."""

    def __init__(self, names, parts):
        self.names = list(names)
        offsets = np.cumsum([0] + [p["name"].shape[0] for p in parts])
        self.name = np.concatenate([p["name"] for p in parts])
        self.start = np.concatenate([p["start"] for p in parts])
        self.end = np.concatenate([p["end"] for p in parts])
        self.units = np.concatenate([p["units"] for p in parts])
        self.parent = np.concatenate(
            [np.where(p["parent"] >= 0, p["parent"] + off, -1)
             for p, off in zip(parts, offsets)])
        self.label = np.concatenate(
            [np.full(p["name"].shape[0], str(p["label"]), dtype=object)
             for p in parts])
        self.dur = self.end - self.start
        has_parent = self.parent >= 0
        self.child_ns = np.bincount(self.parent[has_parent],
                                    weights=self.dur[has_parent],
                                    minlength=self.name.shape[0])

    def of(self, name: str) -> np.ndarray:
        """Mask of the spans called ``name``."""
        if name not in self.names:
            return np.zeros(self.name.shape[0], dtype=bool)
        return self.name == self.names.index(name)
