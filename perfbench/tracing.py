"""Spans recorded around the benchmark's own calls into the package.

The package itself is not instrumented: ``TracedLib`` stands in for the
``bechain`` module and times each public function or class the benchmark
calls through it.  A span is (name, start, end, parent, operation id); spans
stay in a list until the run ends and ``write`` saves them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

NO_PARENT = -1
NO_OP = -1


class Tracer:
    """Spans in parallel lists, in the order they started."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.op_ids: list[int] = []
        self._stack: list[int] = []
        self._op_id = NO_OP

    @contextmanager
    def span(self, name: str, op_id: int | None = None) -> Iterator[None]:
        """Record a span; ``op_id`` starts a new operation, else the current one is kept."""
        outer_op = self._op_id
        if op_id is not None:
            self._op_id = op_id
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op_ids.append(self._op_id)
        self.ends.append(0)
        self._stack.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter_ns()
            self._stack.pop()
            self._op_id = outer_op

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (total self time in seconds, call count).

        Self time is a span's duration minus the durations of its children.
        """
        child_ns = [0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent != NO_PARENT:
                child_ns[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for i, name in enumerate(self.names):
            entry = totals[name]
            entry[0] += (self.ends[i] - self.starts[i] - child_ns[i]) * 1e-9
            entry[1] += 1
        return {name: (s, int(c)) for name, (s, c) in totals.items()}

    def write(self, path: Path) -> None:
        """Save the spans as JSON lines, times in ns from the first span."""
        origin = self.starts[0] if self.starts else 0
        with path.open("w") as out:
            for i, name in enumerate(self.names):
                out.write(json.dumps({
                    "id": i, "name": name, "parent": self.parents[i], "op": self.op_ids[i],
                    "start_ns": self.starts[i] - origin, "end_ns": self.ends[i] - origin,
                }) + "\n")


class TracedLib:
    """Attribute access to ``lib`` whose callables record a span per call.

    A span is named ``<module>.<name>`` after the defining module, so
    ``bechain.is_unitary`` is traced as ``linalg.is_unitary`` and a class
    construction such as ``BlockEncoding(...)`` as ``encoding.BlockEncoding``.
    """

    def __init__(self, lib: ModuleType, tracer: Tracer) -> None:
        self._lib = lib
        self._tracer = tracer
        self._cache: dict[str, Any] = {}

    def __getattr__(self, name: str) -> Any:
        if name not in self._cache:
            obj = getattr(self._lib, name)
            if callable(obj):
                module = obj.__module__.rsplit(".", 1)[-1]
                obj = self._tracer.wrap(f"{module}.{name}", obj)
            self._cache[name] = obj
        return self._cache[name]
