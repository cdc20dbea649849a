"""The ledger's span recorder: layer boundaries measured from outside.

This change may not edit the program, so no probe lives inside it.
Instead the traced pass wraps the *calls into* each layer's functions: a
span (name, start, end, parent, trace id) opens when the call starts and
closes when it returns.  Calls the program makes between its own layers
are caught by :func:`patched`, which swaps a function for its recording
wrapper everywhere ``repro`` refers to it and restores it afterwards.

Spans are kept in memory as parallel lists (one append per field, no
object per span) and written out once, at exit.  A span's *self time* is
its duration minus the durations of its direct children; because spans
on one thread nest, self times partition the traced wall time exactly.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Iterator

_clock = time.perf_counter


class SpanRecorder:
    """In-memory spans of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.trace: list[int] = []
        self._stack: list[int] = []
        self._trace_id = 0
        self._own: list[float] = []  # self_seconds(), once the pass is over

    # -- recording ---------------------------------------------------------

    def intern(self, name: str) -> int:
        known = self._name_ids.get(name)
        if known is None:
            known = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return known

    def new_trace(self) -> int:
        """Start the next event/batch/query: its spans share one id."""
        self._trace_id += 1
        return self._trace_id

    def begin(self, name_id: int) -> int:
        index = len(self.start)
        stack = self._stack
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.trace.append(self._trace_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(_clock())
        return index

    def finish(self, index: int) -> None:
        self.end[index] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(self.intern(name))
        try:
            yield
        finally:
            self.finish(index)

    def wrap(self, function: Callable, name: str) -> Callable:
        """``function`` with a span around every call."""
        name_id = self.intern(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            index = begin(name_id)
            try:
                return function(*args, **kwargs)
            finally:
                finish(index)

        traced.__wrapped__ = function
        return traced

    def wrap_generator(self, function: Callable, name: str) -> Callable:
        """A generator function with a span around every ``next()``: the
        time its consumer spends between items is not the generator's."""
        name_id = self.intern(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            iterator = iter(function(*args, **kwargs))
            while True:
                index = begin(name_id)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    finish(index)
                yield item

        traced.__wrapped__ = function
        return traced

    # -- analysis ----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Seconds of every finished span called ``name``."""
        wanted = self._name_ids.get(name)
        if wanted is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i, name_id in enumerate(self.name_id)
            if name_id == wanted
        ]

    def self_seconds(self) -> list[float]:
        """Per span: duration minus the part its direct children cover."""
        if len(self._own) != len(self.start):
            own = [e - s for s, e in zip(self.start, self.end)]
            for index, parent in enumerate(self.parent):
                if parent >= 0:
                    own[parent] -= self.end[index] - self.start[index]
            self._own = own
        return self._own

    def self_by_name(self) -> dict[str, float]:
        """Total self seconds per span name."""
        totals = [0.0] * len(self.names)
        for name_id, seconds in zip(self.name_id, self.self_seconds()):
            totals[name_id] += seconds
        return dict(zip(self.names, totals))

    def self_times(self, name: str) -> list[float]:
        """Self seconds of every span called ``name``."""
        wanted = self._name_ids.get(name)
        if wanted is None:
            return []
        own = self.self_seconds()
        return [own[i] for i, nid in enumerate(self.name_id) if nid == wanted]

    def self_by_layer(self) -> dict[str, float]:
        """Total self seconds per layer — the part of a span name before
        its first dot, which is the module the call entered."""
        layers: dict[str, float] = {}
        for name, seconds in self.self_by_name().items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + seconds
        return layers

    def dump(self, path) -> None:
        """Write every span, column-wise, as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_id,
                    "start": self.start,
                    "end": self.end,
                    "parent": self.parent,
                    "trace": self.trace,
                },
                handle,
                separators=(",", ":"),
            )


# -- wrapping calls the program makes itself -----------------------------------


def _references(function) -> list[tuple[object, str]]:
    """Every ``repro`` module global that *is* ``function``: the defining
    module plus each ``from x import f`` alias of it."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is function:
                found.append((module, attribute))
    return found


@contextmanager
def patched(recorder: SpanRecorder, targets) -> Iterator[None]:
    """Record a span around every call of each target while the block runs.

    ``targets`` holds ``(owner, attribute, span name)`` or ``(owner,
    attribute, span name, "generator")``; ``owner`` is a module or a
    class.  A module function is replaced in every ``repro`` module that
    imported it by name, so internal callers are traced too; a method is
    replaced on its class.  Everything is restored on exit.
    """
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attribute, name, *kind in targets:
            original = vars(owner)[attribute]
            plain = getattr(original, "__func__", original)
            make = recorder.wrap_generator if kind else recorder.wrap
            traced = make(plain, name)
            if isinstance(original, staticmethod):
                traced = staticmethod(traced)
            if isinstance(owner, type):
                sites = [(owner, attribute)]
            else:
                sites = _references(original)
            for site, site_attribute in sites:
                undo.append((site, site_attribute, vars(site)[site_attribute]))
                setattr(site, site_attribute, traced)
        yield
    finally:
        for site, site_attribute, original in reversed(undo):
            setattr(site, site_attribute, original)
