"""In-memory span recorder and the statistics the benchmark derives from it.

A span is one call into a layer: its name, start and end on the
``time.perf_counter`` clock, and the span that caused it.  Spans nest per
thread; a span opened on a thread with nothing open (a seed worker of the
CLI's thread pool) is a child of the tracer's root span.  Nothing is written
until the run ends.
"""

import itertools
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Records spans and counters from any number of threads."""

    def __init__(self):
        self.spans = []                    # (sid, name, start, end, parent)
        self.counters = defaultdict(int)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._root = 0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def root(self, name):
        """The outermost span; parent of every span with no open span on its thread."""
        sid = next(self._ids)
        self._root = sid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            self.spans.append((sid, name, start, time.perf_counter(), 0))
            self._root = 0

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped in a span; ``after(args, kwargs, result)`` runs
        once the span has closed, to update counters."""

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            sid = next(self._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, name, start, end, parent))
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def add(self, name, value=1):
        with self._lock:
            self.counters[name] += value


def union_length(intervals):
    """Total length covered by a collection of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> its duration minus the part of it its children cover.

    Children on different threads may overlap each other, so the covered
    part is the union of the child intervals, clipped to the parent's.
    """
    bounds = {sid: (start, end) for sid, _, start, end, _ in spans}
    children = defaultdict(list)
    for sid, _, start, end, parent in spans:
        if parent in bounds:
            children[parent].append((start, end))
    result = {}
    for sid, (start, end) in bounds.items():
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())
                   if min(e, end) > max(s, start)]
        result[sid] = (end - start) - union_length(clipped)
    return result


def percentile(values, q):
    """Nearest-rank ``q``-th percentile (0 < q <= 100); 0.0 for no values.

    The result is always one of the samples: the smallest value with at
    least ``q`` percent of the samples at or below it.
    """
    if not 0 < q <= 100:
        raise ValueError(f"percentile: q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = math.ceil(q * len(ordered) / 100.0)
    return ordered[max(rank, 1) - 1]
