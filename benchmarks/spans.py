"""In-memory spans around calls into the program, and their summaries.

A span is ``(name, start, end, parent, op, error, attrs)``: ``parent`` is
the index of the enclosing span (or None), ``op`` the id of the op it
belongs to and ``attrs`` sizes read off the call's result.  Spans stay in
memory while the benchmark runs and are written as JSON Lines at the end.
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from time import perf_counter


def plain_call(name, fn, *args, attrs=None):
    """The untraced stand-in for :meth:`Tracer.call`."""
    return fn(*args)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, None, None])
        self._stack.append(index)
        return index

    def close(self, index: int, error=None, attrs=None) -> None:
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = error
        span[6] = attrs
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the ``with`` body, closed even if the body raises."""
        index = self.open(name)
        try:
            yield
        except Exception as exc:
            self.close(index, error=type(exc).__name__)
            raise
        self.close(index)

    def call(self, name, fn, *args, attrs=None):
        """``fn(*args)`` inside a span; ``attrs(result)`` gives its sizes."""
        index = self.open(name)
        try:
            result = fn(*args)
        except Exception as exc:
            self.close(index, error=type(exc).__name__)
            raise
        self.close(index)
        if attrs is not None:
            self.spans[index][6] = attrs(result)
        return result

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                out[s[3]] -= s[2] - s[1]
        return out

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, error, attrs in self.spans:
                record = {
                    "name": name, "start": start, "end": end,
                    "parent": parent, "op": op,
                }
                if error is not None:
                    record["error"] = error
                if attrs:
                    record["attrs"] = attrs
                handle.write(json.dumps(record) + "\n")


def p50_us(durations) -> float:
    return statistics.median(durations) * 1e6 if durations else 0.0
