"""In-memory spans recorded around the benchmark's calls into each layer."""

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    name: str
    trial: tuple        # (point index, trial index); shared by the spans of one trial
    parent: int         # index of the enclosing span in Tracer.spans, or None
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str, trial: tuple):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, trial, parent, start, end)

    def busy(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def durations(self, name: str) -> list:
        return [s.seconds for s in self.spans if s.name == name]
