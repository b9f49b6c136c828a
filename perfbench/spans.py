"""Layer spans and counters for the traced run.

A span times one call into a package layer; nested spans subtract their
time from the enclosing span, so each layer's busy time is its self time
(the traced `closed` span encloses the `bessel_scalar` spans, and only the
remainder is booked to `closed`). Counters add up work done per layer.
Everything stays in memory; the worker reads the totals once per round.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Span:
    """Context manager booking self time to one layer of a Tracer."""

    __slots__ = ("tracer", "name", "start")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "Span":
        self.tracer._child.append(0.0)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = perf_counter() - self.start
        tracer = self.tracer
        child = tracer._child.pop()
        tracer.busy[self.name] += elapsed - child
        if tracer._child:
            tracer._child[-1] += elapsed


class Tracer:
    """Per-layer self time (seconds) and counters for one round."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._child: list[float] = []

    def span(self, layer: str) -> Span:
        return Span(self, layer)

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] += n

    def peak(self, counter: str, n: int) -> None:
        if n > self.counts[counter]:
            self.counts[counter] = n
