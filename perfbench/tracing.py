"""In-memory span tracing around calls into the system's public methods.

The benchmark never edits the program to trace it.  :func:`wrap_method`
(behind :meth:`Tracer.wrap`) replaces a method on one *instance* with a
timing wrapper, so only the objects the benchmark builds are wrapped and
the program's classes stay as shipped.  Every span records ``(name, start, end,
parent)``; a layer's self time is its spans' durations minus the part
covered by traced child spans.

Spans are kept in memory during the run and written out once, at the end
(:meth:`Tracer.write_csv`).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List


def wrap_method(
    obj: object, attribute: str, enter: Callable[[], Any], leave: Callable[[Any], None]
) -> None:
    """Replace ``obj.attribute`` on this one instance by a wrapper that calls
    ``token = enter()`` before every call and ``leave(token)`` after it.

    The one hook behind both the traced spans and the always-on end-to-end
    samples; the class and every other instance keep the production method.
    """
    original: Callable = getattr(obj, attribute)

    def wrapped(*args, **kwargs):
        token = enter()
        try:
            return original(*args, **kwargs)
        finally:
            leave(token)

    setattr(obj, attribute, wrapped)


class Tracer:
    """Collects spans from the main thread and the in-process server thread."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_names: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Parent for spans opened on a thread with no open span: the client
        #: span of the request the server thread is answering.  The benchmark
        #: has one closed-loop client, so at most one request is in flight.
        self.cross_thread_parent = -1

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def open(self, name_id: int) -> int:
        """Open a span; returns its index for :meth:`close`."""
        stack = self._stack()
        parent = stack[-1] if stack else self.cross_thread_parent
        with self._lock:
            index = len(self.starts)
            self.span_names.append(name_id)
            self.parents.append(parent)
            self.ends.append(0.0)
            self.starts.append(time.perf_counter())
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        """Close the innermost open span of this thread."""
        self.ends[index] = time.perf_counter()
        self._stack().pop()

    def wrap(
        self, obj: object, attribute: str, name: str, *, parents_other_threads: bool = False
    ) -> None:
        """Time every call of ``obj.attribute`` as a span called *name*.

        With *parents_other_threads* the span is also the parent of spans
        that other threads open while it is open (an HTTP request and the
        server-side handling it causes).
        """
        name_id = self._name_id(name)
        open_span, close_span = self.open, self.close
        if not parents_other_threads:
            wrap_method(obj, attribute, lambda: open_span(name_id), close_span)
            return

        def enter() -> int:
            index = open_span(name_id)
            self.cross_thread_parent = index
            return index

        def leave(index: int) -> None:
            self.cross_thread_parent = -1
            close_span(index)

        wrap_method(obj, attribute, enter, leave)

    def wrap_iterator_factory(self, obj: object, attribute: str, name: str) -> None:
        """Time each ``next()`` of the iterators ``obj.attribute(...)`` returns."""
        factory: Callable[..., Iterator] = getattr(obj, attribute)
        name_id = self._name_id(name)
        open_span, close_span = self.open, self.close

        def traced_factory(*args, **kwargs):
            iterator = iter(factory(*args, **kwargs))

            def timed() -> Iterator:
                while True:
                    index = open_span(name_id)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    yield item

            return timed()

        setattr(obj, attribute, traced_factory)

    # -- analysis -----------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``self_s`` over all spans.

        ``calls`` leaves out spans nested directly in a span of the same name
        (one public method delegating to a traced sibling); ``self_s`` is the
        spans' time minus the time of their traced children.
        """
        count = len(self.starts)
        child_time = [0.0] * count
        for index in range(count):
            parent = self.parents[index]
            if parent >= 0:
                child_time[parent] += self.ends[index] - self.starts[index]
        totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for index in range(count):
            name_id = self.span_names[index]
            entry = totals[self.names[name_id]]
            parent = self.parents[index]
            if parent < 0 or self.span_names[parent] != name_id:
                entry["calls"] += 1
            entry["self_s"] += self.ends[index] - self.starts[index] - child_time[index]
        return dict(totals)

    def calls_from(self, name: str, caller: str) -> int:
        """Spans called *name* opened directly inside a span called *caller*."""
        name_id, caller_id = self._name_ids.get(name), self._name_ids.get(caller)
        return sum(
            1
            for index, span_name in enumerate(self.span_names)
            if span_name == name_id
            and self.parents[index] >= 0
            and self.span_names[self.parents[index]] == caller_id
        )

    def write_csv(self, path: Path) -> None:
        """Write every span as ``index,name,start_s,end_s,parent`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.starts[0] if self.starts else 0.0
        with path.open("w", encoding="utf-8") as handle:
            handle.write("index,name,start_s,end_s,parent\n")
            for index, name_id in enumerate(self.span_names):
                handle.write(
                    f"{index},{self.names[name_id]},"
                    f"{self.starts[index] - origin:.9f},{self.ends[index] - origin:.9f},"
                    f"{self.parents[index]}\n"
                )

