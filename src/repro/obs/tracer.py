"""Hierarchical span tracer with a zero-overhead disabled mode.

The repo's argument is quantitative — peak bytes, recompute factor ρ,
wall-time under checkpointing — so every layer (executor, trainer,
simulators, fleet) reports *where* time goes through one shared tracer:

* :class:`Tracer` produces nested spans (``span("epoch")`` /
  ``span("batch")`` / ``span("ADVANCE")``) with monotonic
  ``perf_counter`` timings, string tags, and parent links, collected in
  a thread-safe in-memory buffer;
* :class:`NullTracer` is the process default: ``enabled`` is ``False``
  and every operation is a no-op on shared singletons, so instrumented
  hot paths pay only a null check (``benchmarks/bench_obs_overhead``
  holds ``run_schedule`` to ≤ 1.05x a bare ``execute``);
* :func:`tracing` installs a fresh live tracer for a ``with`` block and
  restores the previous one afterwards — the hook the CLI ``trace``
  subcommand and the tests use.

Spans are exception-safe: leaving the ``with`` block on a raise still
closes and records the span, tagged with the exception class name.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
]


@dataclass
class Span:
    """One finished (or open) timed region."""

    name: str
    category: str
    start: float  # time.perf_counter() seconds, monotonic
    end: float | None
    span_id: int
    parent_id: int | None
    thread_id: int
    tags: dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds from start to end (0.0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start


@dataclass(frozen=True)
class TraceEvent:
    """An instant (zero-duration) event."""

    name: str
    category: str
    timestamp: float
    parent_id: int | None
    thread_id: int
    tags: dict[str, object]


class _ActiveSpan:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: Tracer, span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set_tag(self, key: str, value: object) -> None:
        """Attach/overwrite one tag on the underlying span."""
        self.span.tags[key] = value

    def __enter__(self) -> _ActiveSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.span.tags["error"] = exc_type.__name__
        self._tracer._finish(self.span)


class _NullSpan:
    """Shared do-nothing span handle for the disabled tracer."""

    __slots__ = ()

    def set_tag(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects hierarchical spans and instant events, thread-safely.

    Each thread keeps its own open-span stack (nesting is per thread);
    finished spans land in one shared buffer in completion order.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._events: list[TraceEvent] = []
        self._ids = itertools.count(1)
        self._stacks = threading.local()

    # -- internals ------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._stacks, "open", None)
        if stack is None:
            stack = self._stacks.open = []
        return stack

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._spans.append(span)

    # -- recording ------------------------------------------------------
    @staticmethod
    def now() -> float:
        """The tracer's clock (``time.perf_counter`` seconds)."""
        return time.perf_counter()

    def span(self, name: str, category: str = "span", **tags: object) -> _ActiveSpan:
        """Open a nested span; close it by leaving the ``with`` block."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        span = Span(
            name=name,
            category=category,
            start=time.perf_counter(),
            end=None,
            span_id=next(self._ids),
            parent_id=parent,
            thread_id=threading.get_ident(),
            tags=dict(tags),
        )
        stack.append(span)
        return _ActiveSpan(self, span)

    def record(self, name: str, category: str, start: float, **tags: object) -> Span:
        """Append an already-timed span (hot-path form: no ``with`` cost).

        The span runs from ``start`` (a :meth:`now` reading) to the
        current clock and nests under the innermost open span.
        """
        stack = self._stack()
        span = Span(
            name=name,
            category=category,
            start=start,
            end=time.perf_counter(),
            span_id=next(self._ids),
            parent_id=stack[-1].span_id if stack else None,
            thread_id=threading.get_ident(),
            tags=dict(tags),
        )
        with self._lock:
            self._spans.append(span)
        return span

    def event(self, name: str, category: str = "event", **tags: object) -> None:
        """Record an instant event under the innermost open span."""
        stack = self._stack()
        ev = TraceEvent(
            name=name,
            category=category,
            timestamp=time.perf_counter(),
            parent_id=stack[-1].span_id if stack else None,
            thread_id=threading.get_ident(),
            tags=dict(tags),
        )
        with self._lock:
            self._events.append(ev)

    # -- inspection -----------------------------------------------------
    def spans(self) -> tuple[Span, ...]:
        """Finished spans, in completion order."""
        with self._lock:
            return tuple(self._spans)

    def events(self) -> tuple[TraceEvent, ...]:
        """Instant events, in emission order."""
        with self._lock:
            return tuple(self._events)

    def categories(self) -> set[str]:
        """Distinct categories across spans and events."""
        with self._lock:
            cats = {s.category for s in self._spans}
            cats.update(e.category for e in self._events)
        return cats

    def clear(self) -> None:
        """Drop all recorded spans and events (open stacks untouched)."""
        with self._lock:
            self._spans.clear()
            self._events.clear()


class NullTracer(Tracer):
    """Disabled tracer: every operation is a no-op on shared objects."""

    enabled = False

    def __init__(self) -> None:  # no buffers, no locks
        pass

    def span(self, name: str, category: str = "span", **tags: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def record(self, name: str, category: str, start: float, **tags: object) -> None:  # type: ignore[override]
        return None

    def event(self, name: str, category: str = "event", **tags: object) -> None:
        pass

    def spans(self) -> tuple[Span, ...]:
        return ()

    def events(self) -> tuple[TraceEvent, ...]:
        return ()

    def categories(self) -> set[str]:
        return set()

    def clear(self) -> None:
        pass


#: The process-wide disabled tracer every call site sees by default.
NULL_TRACER = NullTracer()

_current: Tracer = NULL_TRACER
_current_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-wide tracer (a :class:`NullTracer` unless installed)."""
    return _current


def set_tracer(tracer: Tracer | None) -> Tracer:
    """Install ``tracer`` process-wide (``None`` disables); returns the old one."""
    global _current
    with _current_lock:
        previous = _current
        _current = tracer if tracer is not None else NULL_TRACER
    return previous


class tracing:
    """``with tracing() as tracer:`` — trace a block, then restore.

    Installs a fresh :class:`Tracer` (or the one passed in) for the
    duration of the block and reinstates the previous process tracer on
    exit, even on exceptions.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, exc_type, exc, tb) -> None:
        set_tracer(self._previous)
