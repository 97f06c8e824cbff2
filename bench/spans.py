"""In-memory spans for the traced run, and per-layer self time.

A span is (name, start, end, parent, op, calls): `parent` is the index of the
enclosing span or None, `op` the id of the operation the span belongs to, and
`calls` how many calls into the layer the span covers (a probe may time a
batch of calls as one span). Nothing is written until the run ends.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Spans:
    def __init__(self) -> None:
        # finished spans are tuples of atoms, which the garbage collector
        # stops tracking, so a long run's spans do not slow its collections
        self.records: list[tuple] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int, calls: int = 1):
        """Time the body as one span nested in the innermost open span."""
        parent = self._open[-1] if self._open else None
        index = len(self.records)
        self.records.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            self.records[index] = (name, start, perf_counter(), parent, op, calls)
            self._open.pop()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """name -> (self seconds, calls). Self time is the span's duration
        minus the time its child spans cover; siblings never overlap here
        because the benchmark runs one call at a time."""
        covered = [0.0] * len(self.records)
        for name, start, end, parent, _, _ in self.records:
            if parent is not None:
                covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _, _, calls), inner in zip(self.records, covered):
            out[name][0] += end - start - inner
            out[name][1] += calls
        return {name: (s, c) for name, (s, c) in out.items()}

    def durations(self, name: str) -> list[float]:
        """Duration of each span called `name`, children included."""
        return [r[2] - r[1] for r in self.records if r[0] == name]

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        t0 = self.records[0][1] if self.records else 0.0
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, op, calls in self.records:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "op": op,
                            "calls": calls,
                        }
                    )
                    + "\n"
                )
