"""Outside-in tracing: wrap public functions in place, then restore them.

A ``Tracer`` replaces attributes of modules and classes with timing
wrappers.  Each wrapped call adds to its span's call count, total
seconds and self seconds; self time is total time minus the time of
wrapped calls made inside it.  Optional count hooks read arguments and
results (rows predicted, ARQ attempts, unbounded sets) after the clock
stops.  Nothing in the program changes: leaving the ``with`` block puts
every original attribute back, and ``restored()`` verifies that.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans = {}          # name -> [calls, total_s, self_s]
        self.counts = Counter()  # counter name -> total
        self._stack = []         # child seconds of each open span
        self._originals = []     # (owner, attribute, original object)

    def wrap(self, owner, attr: str, span: str, count=None):
        """Time ``owner.attr`` under ``span``; ``count(counts, args, result)``
        runs after each call that returns."""
        original = owner.__dict__[attr]
        is_classmethod = isinstance(original, classmethod)
        func = original.__func__ if is_classmethod else original

        @functools.wraps(func)
        def timed(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                stats = self.spans.setdefault(span, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
            if count is not None:
                count(self.counts, args, result)
            return result

        setattr(owner, attr, classmethod(timed) if is_classmethod else timed)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is its original object again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._originals)

    def calls(self, span: str) -> int:
        return self.spans.get(span, (0, 0.0, 0.0))[0]

    def total_s(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[1]

    def self_s(self, span: str) -> float:
        return self.spans.get(span, (0, 0.0, 0.0))[2]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
