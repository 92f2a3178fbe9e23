"""Spans recorded by the benchmark around its own calls into bistoch.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span it ran inside, and the measured pass it belongs to.
Spans stay in memory and are written out once, when the benchmark ends.
A disabled tracer records nothing; the untraced run uses one.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Tracer:
    """In-memory span recorder; nesting follows the ``with`` blocks."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []
        self.iteration: int | None = None

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "iteration": self.iteration}
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def totals(self, iteration: int) -> dict:
        """Summed duration per span name within one pass, root span excluded."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s["iteration"] == iteration and s["parent"] is not None:
                out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
        return out

