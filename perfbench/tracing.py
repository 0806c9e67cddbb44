"""In-memory span tracer installed around adaptqsd's public callables.

The tracer patches callables from the benchmark's side only; no program
source changes. Each wrapper is installed at the name the calling module
looks the callable up by: a function imported with ``from .model import
drift_y`` is patched as ``adaptqsd.cohort.drift_y``, a method on its class.

A span's self time is its duration minus the durations of the wrapped spans
it encloses, so the self times of every span under a top-level span add up to
that span's duration. Spans are named ``<layer>.<callable>``; a layer's self
time is the sum over its spans.
"""
from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("model", "rng", "pathsim", "cohort", "measure", "qsd", "oracle", "cli")


class Tracer:
    """Span stack plus per-name aggregates (calls, inclusive time, self time)."""

    def __init__(self):
        self.stack: list[list] = []  # open spans: [name, seconds spent in wrapped children]
        self.calls: dict[str, int] = defaultdict(int)
        self.span_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name and return its result."""
        frame = [name, 0.0]
        self.stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - t0
            self.stack.pop()
            self.calls[name] += 1
            self.span_s[name] += dur
            self.self_s[name] += dur - frame[1]
            if self.stack:
                self.stack[-1][1] += dur
            if name in self.durations:
                self.durations[name].append(dur)

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             keep_durations: bool = False) -> None:
        """Replace owner.attr by a spanned wrapper.

        before(*args, **kwargs) runs ahead of the span's clock (so its cost is
        not charged to the layer) and returns a token; after(result, token)
        runs once the span has closed.
        """
        original = getattr(owner, attr)
        if keep_durations:
            self.durations[name] = []

        def wrapper(*args, **kwargs):
            token = before(*args, **kwargs) if before is not None else None
            result = self.span(name, original, *args, **kwargs)
            if after is not None:
                after(result, token)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, s in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += s
        return out
