"""Per-layer tracing from outside dmha.

``Tracer.install`` replaces the public functions of dmha's modules with
wrappers that record a span (name, start, end, parent, pass) per call;
``uninstall`` puts the originals back. Wrappers work because dmha's callers
look functions up as module attributes (``ad.conv2d_same``, ``enc.encode``,
``feat.utterance_features``) or module globals at call time. A name that a
module imported with ``from x import f`` keeps the original and is not
traced.

Special cases:
  * ``autodiff.conv2d_same`` spans are named by the layer's position inside
    ``encoder.encode`` (b1c1 .. b4c2), and with ``maxpool2x2`` the backward
    closure of the output tensor is wrapped too, which gives per-layer
    backward time under the ``autodiff.backward`` span;
  * ``Tensor.backward`` also counts graph nodes and the bytes of their
    values (saved closure arrays are not counted);
  * ``metrics.cosine_score`` is only counted: it runs once per trial, and a
    span each would dominate what it measures.

Spans stay in memory; ``summary`` aggregates them and ``dump`` writes them.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
from collections import Counter, defaultdict
from time import perf_counter

import dmha.autodiff as ad
from dmha import (cli, encoder, features, head, metrics, model, pooling,
                  synthdata, trainer)

TRACED_MODULES = (cli, encoder, features, head, metrics, model, pooling,
                  synthdata, trainer)


class Tracer:
    """Spans and counters of one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, pass_id]
        self.counts: Counter = Counter()
        self.pass_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []  # (owner, attribute, original)
        self._conv_index = 0

    # ---- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.pass_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # ---- wrappers ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return wrapper

    def _time_backward(self, out, name: str):
        bw = out._backward
        if bw is None:
            return

        def timed_bw(g):
            return self.call(name, bw, g)
        out._backward = timed_bw

    def _wrap_conv(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._conv_index
            self._conv_index += 1
            name = f"autodiff.conv2d_same.b{i // 2 + 1}c{i % 2 + 1}"
            out = self.call(name + ".fwd", fn, *args, **kwargs)
            self._time_backward(out, name + ".bwd")
            return out
        return wrapper

    def _wrap_maxpool(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call("autodiff.maxpool2x2.fwd", fn, *args, **kwargs)
            self._time_backward(out, "autodiff.maxpool2x2.bwd")
            return out
        return wrapper

    def _wrap_backward(self, fn):
        @functools.wraps(fn)
        def wrapper(t):
            nodes, nbytes = graph_size(t)
            self.counts["autodiff.graph_nodes"] += nodes
            self.counts["autodiff.graph_bytes"] += nbytes
            return self.call("autodiff.backward", fn, t)
        return wrapper

    def _wrap_encode(self, fn):
        @functools.wraps(fn)
        def wrapper(mel, *args, **kwargs):
            self._conv_index = 0
            self.counts["encoder.encode.frames"] += math.prod(mel.shape[:-1])
            return self.call("encoder.encode", fn, mel, *args, **kwargs)
        return wrapper

    def _wrap_save_checkpoint(self, fn):
        @functools.wraps(fn)
        def wrapper(path, *args, **kwargs):
            out = self.call("trainer.save_checkpoint", fn, path, *args,
                            **kwargs)
            self.counts["trainer.checkpoint_bytes"] += os.path.getsize(path)
            return out
        return wrapper

    def _wrap_count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        self._patch(ad, "conv2d_same", self._wrap_conv(ad.conv2d_same))
        self._patch(ad, "maxpool2x2", self._wrap_maxpool(ad.maxpool2x2))
        self._patch(ad.Tensor, "backward",
                    self._wrap_backward(ad.Tensor.backward))
        special = {
            "encoder.encode": self._wrap_encode,
            "trainer.save_checkpoint": self._wrap_save_checkpoint,
            "metrics.cosine_score": functools.partial(
                self._wrap_count, "metrics.cosine_score.calls"),
        }
        for module in TRACED_MODULES:
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                name = f"{module.__name__.removeprefix('dmha.')}.{attr}"
                wrap = special.get(name, functools.partial(self._timed, name))
                self._patch(module, attr, wrap(fn))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ---- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, busy (inclusive) and self seconds per span name, plus the
        counters."""
        calls, busy, child = Counter(), defaultdict(float), defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
        return {"calls": dict(calls), "busy": dict(busy),
                "self": dict(self_s), "counts": dict(self.counts)}

    def busy_under(self, name: str, ancestor: str) -> float:
        """Busy seconds of spans called name that run inside an ancestor."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if p >= 0:
                total += span[2] - span[1]
        return total

    def dump(self, path, extra: dict):
        with open(path, "w") as f:
            json.dump({**extra, "summary": self.summary(),
                       "spans_fields": ["name", "start", "end", "parent",
                                        "pass"],
                       "spans": self.spans}, f)


def graph_size(root) -> tuple[int, int]:
    """Nodes reachable from root through _parents, and their value bytes."""
    seen = {id(root)}
    stack = [root]
    nbytes = 0
    while stack:
        node = stack.pop()
        nbytes += node.data.nbytes
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen), nbytes
