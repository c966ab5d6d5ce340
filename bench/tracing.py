"""Spans around calls into wdmatch's modules, recorded from outside the package.

A :class:`Tracer` replaces a function with a timing wrapper under the name its
caller looks it up by (``wdmatch.optimizer.build_graph`` is what ``fit``
calls), so no file of the package changes. Each call leaves one span: name,
start, end, parent span and the run (one CLI command) it belongs to. Spans
stay in memory and are written once, by :meth:`Tracer.write`, when the
benchmark ends. A name that no longer exists is recorded as missing and left
alone.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, run]
        self.missing = []
        self.run = -1
        self._stack = []
        self._patched = []
        self._observers = defaultdict(list)

    def observe(self, name, callback):
        """Call ``callback(result)`` after every traced call of span ``name``."""
        self._observers[name].append(callback)

    def wrap(self, target: str, name: str) -> bool:
        """Trace ``module.attr`` (given as one dotted path) as span ``name``."""
        module_name, _, attr = target.rpartition(".")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(target)
            return False
        spans, stack, observers = self.spans, self._stack, self._observers[name]

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.run])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            for callback in observers:
                callback(result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        return True

    def restore(self) -> None:
        """Put every wrapped function back."""
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def totals(self):
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the part of it that its child
        spans cover; calls are sequential, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - covered
        return {name: tuple(values) for name, values in out.items()}

    def write(self, path, header: dict) -> None:
        """Write the header and then one JSON array per span, one per line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "missing": self.missing,
                                 "fields": ["name", "start", "end", "parent", "run"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span))
                fh.write("\n")
