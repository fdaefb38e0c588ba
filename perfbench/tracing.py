"""In-process spans around the calls into each probrange module.

The harness installs wrappers on module attributes that callers resolve at
call time: the CLI's imported names (`cli.parse_program`, `cli.solve`, ...),
`syntax.tokenize`, and the domain functions `engine` looks up through the
`abstract` and `concrete` modules. Each wrapper times its call and charges
the duration to its parent span, so a span's self time is its duration minus
the time its wrapped children took. A wrapped name that no longer exists, or
a result a counter can no longer read, marks its span as missing instead of
failing the run.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: dict[str, str] = {}  # what is gone -> its span
        self._stack: list[list[float]] = []
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, span: str, count=None) -> None:
        """Time every call of module.attr under `span`.

        `count(counts, result, args)` may add work counters from the call.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing[f"{module.__name__}.{attr}"] = span
            return
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += took
                self.calls[span] += 1
                self.total[span] += took
                self.self_time[span] += took - frame[0]
            if count is not None:
                try:
                    count(self.counts, result, args)
                except (AttributeError, TypeError, IndexError):
                    self.missing[f"counters of {module.__name__}.{attr}"] = span
            return result

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
