"""Outside-in span tracing for already-imported modules.

A Tracer wraps functions from the outside: each call of a wrapped function
records one span (name, start, end, parent).  Spans stay in memory in flat
arrays until the run ends; then they are written out and folded into
per-name totals.  A
span's self time is its duration minus the durations of its child spans;
one thread runs everything, so children never overlap.

Modules often bind a function under several names (``from .x import f``), so
``Tracer.patch`` replaces the function at every binding site in the given
modules, and ``Tracer.restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        self.errors: dict[int, str] = {}    # span index -> exception class name
        self.tags: dict[int, object] = {}   # span index -> tag(args) value
        self.counters: dict[str, float] = {}
        self._undo: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, fn, name: str, tag=None):
        """fn recording a span per call; tag(*args, **kwargs) labels it."""
        nid = self._id(name)
        clock, stack = self._clock, self._stack
        names, parents, starts, ends = self._name, self._parent, self._start, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = None if tag is None else tag(*args, **kwargs)
            idx = len(starts)
            if label is not None:
                self.tags[idx] = label
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as e:
                self.errors[idx] = type(e).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def patch(self, modules, owner, attr: str, make) -> bool:
        """Replace owner.attr by make(original) wherever a module in
        `modules` binds the same object, and on owner itself (a module or a
        class).  False, and nothing patched, if owner has no such attr."""
        orig = vars(owner).get(attr)
        if orig is None:
            return False
        new = make(orig)
        sites = [owner] + [m for m in modules if m is not owner]
        for site in sites:
            for key, value in list(vars(site).items()):
                if value is orig:
                    self._undo.append((site, key, orig))
                    setattr(site, key, new)
        return True

    def restore(self) -> None:
        for site, key, orig in reversed(self._undo):
            setattr(site, key, orig)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self._start)

    def spans(self) -> dict:
        """Span columns as numpy arrays: name id, parent index, start, end,
        duration, self time, and whether the span enters its layer (its
        parent has another name)."""
        name = np.array(self._name, dtype=np.int32)
        parent = np.array(self._parent, dtype=np.int32)
        start = np.array(self._start, dtype=float)
        end = np.array(self._end, dtype=float)
        dur = end - start
        has_parent = parent >= 0
        child = np.zeros(len(dur))
        np.add.at(child, parent[has_parent], dur[has_parent])
        parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)
        return {"name": name, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child,
                "entry": parent_name != name}

    def indices(self, name: str) -> list:
        """Indices of the spans with this name, in start order."""
        nid = self._ids.get(name)
        return [i for i, k in enumerate(self._name) if k == nid] if nid is not None else []

    def dump(self, path) -> None:
        """Write every span as gzipped JSON columns: names, and per span the
        name index, parent index (-1 for none), start and end seconds."""
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "name": self._name.tolist(),
                       "parent": self._parent.tolist(), "start": self._start.tolist(),
                       "end": self._end.tolist()}, fh)

    def totals(self) -> dict:
        """name -> (layer entries, total self seconds)."""
        s = self.spans()
        out = {}
        for nid, name in enumerate(self.names):
            mask = s["name"] == nid
            out[name] = (int(np.sum(s["entry"] & mask)), float(np.sum(s["self"][mask])))
        return out
