"""Spans and counters recorded around graphvar's layer boundaries.

Nothing here lives inside the package.  `Tracer.wrap` replaces a module or
class attribute with a function that records a span (name, start, end,
parent span, top-level call id) and forwards the call; `Tracer.restore`
puts every original back.  Spans stay in memory as flat arrays and are
written once, at the end of the traced run.  Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import defaultdict

import numpy as np


def columns(arr) -> int:
    """Columns in a state argument: batched (n, k) arrays count k."""
    return int(arr.shape[-1]) if getattr(arr, "ndim", 1) == 2 else 1


class Tracer:
    def __init__(self) -> None:
        self.on = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.call = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]        # open span ids
        self.name_stack = [-1]   # their name ids
        self.call_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: set[str] = set()
        self._patches: list[tuple[object, str, object, bool]] = []

    def name_id(self, layer: str) -> int:
        if layer not in self._ids:
            self._ids[layer] = len(self.names)
            self.names.append(layer)
        return self._ids[layer]

    def parent_is(self, layer: str) -> bool:
        """True when the innermost open span is `layer`."""
        return self.name_stack[-1] == self._ids.get(layer, -2)

    def inside(self, layer: str) -> bool:
        return self._ids.get(layer, -2) in self.name_stack

    def wrap(self, owner, attr: str, layer: str, after=None, top: bool = False) -> bool:
        """Record a `layer` span around every call of `owner.attr`.

        `after(args, kwargs, result)` runs once the span has closed, with
        recording still on; `top` marks a top-level call, whose span id
        becomes the call id of every span under it.  Returns False when the
        attribute does not exist.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        nid = self.name_id(layer)
        rec = self
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            sid = len(rec.name)
            outer_call = rec.call_id
            if top:
                rec.call_id = sid
            rec.name.append(nid)
            rec.parent.append(rec.stack[-1])
            rec.call.append(rec.call_id)
            rec.t1.append(0.0)
            rec.stack.append(sid)
            rec.name_stack.append(nid)
            rec.t0.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.t1[sid] = clock()
                rec.stack.pop()
                rec.name_stack.pop()
                rec.call_id = outer_call
            if after is not None:
                after(args, kwargs, out)
            return out

        # an attribute a class inherits is deleted again on restore, not set
        reset = not isinstance(owner, type) or attr in vars(owner)
        self._patches.append((owner, attr, fn, reset))
        setattr(owner, attr, wrapper)
        return True

    def restore(self) -> None:
        for owner, attr, fn, reset in reversed(self._patches):
            if reset:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- reading the spans ---------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Calls, busy time and self time per layer, summed over all spans."""
        n = len(self.name)
        name = np.array(self.name, dtype=np.intp)
        parent = np.array(self.parent, dtype=np.intp)
        dur = np.array(self.t1) - np.array(self.t0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        busy = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        return {layer: {"calls": float(calls[i]), "busy_s": float(busy[i]),
                        "self_s": float(self_s[i])}
                for i, layer in enumerate(self.names)}

    def save(self, path: str, env: dict) -> None:
        """Write every span: names[name[i]], t0[i], t1[i], parent[i], call[i]."""
        np.savez(path, names=np.array(self.names), name=np.array(self.name),
                 parent=np.array(self.parent), call=np.array(self.call),
                 t0=np.array(self.t0), t1=np.array(self.t1),
                 env=np.array(json.dumps(env, sort_keys=True)))
