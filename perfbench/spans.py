"""Span recorder for the traced run.

The benchmark wraps the public functions of each qeckit module for the
traced passes only and restores the originals afterwards; no span code lives
in the program. A span has a name, a start, an end, the span that caused it,
the counts its call produced and, when the tracer follows memory, the
tracemalloc peak inside it. Following memory slows allocation-heavy Python
code (JSON decoding) severalfold, so span times come from a tracer that
does not.
"""

from __future__ import annotations

import inspect
import time
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    parent: int | None
    end: float = 0.0
    peak_bytes: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped functions while installed."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._base: list[int] = []  # traced bytes when each open span started
        self._high: list[int] = []  # highest traced bytes seen inside each open span
        self._patched: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._open:
                self._high[-1] = max(self._high[-1], peak)
            tracemalloc.reset_peak()
            self._base.append(current)
            self._high.append(current)
        self.spans.append(Span(name, 0.0, self._open[-1] if self._open else None))
        self._open.append(len(self.spans) - 1)
        self.spans[-1].start = time.perf_counter()
        return self._open[-1]

    def _exit(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()
        if self.memory:
            _, peak = tracemalloc.get_traced_memory()
            high = max(self._high.pop(), peak)
            self.spans[index].peak_bytes = high - self._base.pop()
            if self._open:
                self._high[-1] = max(self._high[-1], high)
            tracemalloc.reset_peak()

    def wrap(self, fn, name: str, counter=None):
        signature = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[index].counts.update(counter(bound.arguments, result))
            return result

        return traced

    def install(self, modules, targets) -> None:
        """Wrap each (module, attribute, span name, counter) target.

        Every module in ``modules`` that holds the same function object under
        any name gets the wrapper too, so calls through re-exports and
        ``from ... import`` bindings are recorded.
        """
        if self.memory:
            tracemalloc.start()
        for module, attr, name, counter in targets:
            original = getattr(module, attr)
            wrapper = self.wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()
        if self.memory:
            tracemalloc.stop()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, covered)]


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` with no ancestor that is also named in ``names``."""
    names = set(names)
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent is not None and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent is None:
            out.append(span)
    return out


def within(spans: list[Span], span: Span, name: str) -> bool:
    """True when ``span`` has an ancestor called ``name``."""
    parent = span.parent
    while parent is not None:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
