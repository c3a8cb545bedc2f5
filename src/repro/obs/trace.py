"""Nested-span tracing: the timeline half of the observability layer.

A :class:`Tracer` records a tree of :class:`Span` records (monotonic clocks,
thread-safe, one tree per execution context via a ``contextvars`` span
stack) plus point :class:`TraceEvent` records.  Instrumented code does::

    tracer = current_tracer()
    if tracer.enabled:
        with tracer.span("engine.fire", box=box_id):
            ...

The ``enabled`` guard is the whole overhead story: a disabled tracer's
``span()`` returns one shared no-op singleton, so hot paths that pre-check
``enabled`` pay a single attribute read and hot paths that don't pay only
the kwargs packing — nothing is recorded, nothing retained, no locks taken.

Request scope: a :class:`TraceContext` names one dispatched command — a
trace id, the span to parent under, the session and command kind.  Context
variables do **not** flow into ``run_in_executor`` threads, so code that
moves a request across threads (the server's thread pool) carries the
context explicitly and re-activates it with :meth:`Tracer.adopt`::

    ctx = current_trace_context()          # on the dispatching thread
    ...                                    # hop to a pool worker
    with tracer.adopt(ctx):                # spans now join the request tree
        session.execute(command)

Every span carries the active ``trace_id``, so exporters (and the
``/debug/trace`` endpoint) can reassemble one connected request tree even
when its spans ran on three different threads.

One process-global tracer (disabled by default) backs ``REPRO_TRACE=1`` env
activation and the CLI; :func:`push_tracer` installs a different tracer for
a scoped region (``Viewer.render(trace=...)``, ``repro trace``,
benchmark telemetry) without touching global state permanently.

The span taxonomy emitted by the instrumented modules is cataloged in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import threading
import uuid
from contextlib import contextmanager
from contextvars import ContextVar
from time import perf_counter_ns
from typing import Any, Iterator

__all__ = [
    "Span",
    "TraceEvent",
    "TraceContext",
    "Tracer",
    "NULL_SPAN",
    "current_tracer",
    "set_tracer",
    "push_tracer",
    "tracing",
    "current_trace_context",
    "thread_trace_contexts",
]


class TraceContext:
    """The identity of one dispatched request, carried across threads.

    ``trace_id`` is the request's correlation id (hex, client-suppliable on
    the wire); ``parent_span_id`` is the span new work should parent under
    (None at the root); ``session`` and ``command`` are attribution for
    profilers and logs.  Instances are immutable — derive with
    :meth:`child_of`.
    """

    __slots__ = ("trace_id", "parent_span_id", "session", "command")

    def __init__(self, trace_id: str, parent_span_id: int | None = None,
                 session: str | None = None, command: str | None = None):
        object.__setattr__(self, "trace_id", trace_id)
        object.__setattr__(self, "parent_span_id", parent_span_id)
        object.__setattr__(self, "session", session)
        object.__setattr__(self, "command", command)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("TraceContext is immutable")

    @classmethod
    def new(cls, session: str | None = None,
            command: str | None = None) -> "TraceContext":
        """Mint a fresh context with a random trace id."""
        return cls(uuid.uuid4().hex[:16], None, session, command)

    def child_of(self, span: "Span") -> "TraceContext":
        """The context for work dispatched from under ``span``."""
        return TraceContext(self.trace_id, span.span_id,
                            self.session, self.command)

    def to_wire(self) -> dict[str, Any]:
        """JSON-safe dict form (the optional ``trace`` command field)."""
        wire: dict[str, Any] = {"trace_id": self.trace_id}
        if self.parent_span_id is not None:
            wire["parent_span_id"] = self.parent_span_id
        if self.session is not None:
            wire["session"] = self.session
        if self.command is not None:
            wire["command"] = self.command
        return wire

    @classmethod
    def from_wire(cls, wire: dict[str, Any]) -> "TraceContext":
        """Rebuild a context from its dict form; tolerant of extras."""
        trace_id = str(wire.get("trace_id") or uuid.uuid4().hex[:16])
        parent = wire.get("parent_span_id")
        return cls(
            trace_id,
            int(parent) if parent is not None else None,
            wire.get("session"),
            wire.get("command"),
        )

    def __repr__(self) -> str:
        return (f"TraceContext({self.trace_id!r}, parent="
                f"{self.parent_span_id}, session={self.session!r}, "
                f"command={self.command!r})")


#: The open-span stack for the current execution context.  One module-level
#: ContextVar (not per-tracer) so asyncio tasks inherit and isolate stacks
#: naturally; entries remember their tracer, so a pushed benchmark tracer
#: never parents under a foreign tracer's open span.
_SPAN_STACK: ContextVar[tuple["Span", ...]] = ContextVar(
    "repro-span-stack", default=())

#: The adopted request context for the current execution context.
_TRACE_CONTEXT: ContextVar[TraceContext | None] = ContextVar(
    "repro-trace-context", default=None)

#: thread id -> adopted TraceContext, for samplers that only see thread ids
#: (``sys._current_frames``).  Guarded by the GIL-atomic dict ops plus
#: best-effort semantics: the profiler tolerates a stale entry.
_THREAD_CONTEXTS: dict[int, TraceContext] = {}


def current_trace_context() -> TraceContext | None:
    """The request context adopted in this execution context, if any."""
    return _TRACE_CONTEXT.get()


def thread_trace_contexts() -> dict[int, TraceContext]:
    """Snapshot of thread id → adopted request context (profiler hook)."""
    return dict(_THREAD_CONTEXTS)


class Span:
    """One timed region: name, attributes, parent link, monotonic bounds.

    Spans are created by :meth:`Tracer.span` and closed by leaving the
    ``with`` block; ``set()`` attaches attributes (row counts, cache
    verdicts) at any point while the span is open.
    """

    __slots__ = (
        "name", "span_id", "parent_id", "trace_id", "start_ns", "end_ns",
        "attrs", "thread_id", "thread_name", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        attrs: dict[str, Any],
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id: str | None = None
        self.attrs = attrs
        current = threading.current_thread()
        self.thread_id = current.ident or threading.get_ident()
        self.thread_name = current.name
        self.start_ns = 0
        self.end_ns: int | None = None
        self._tracer = tracer

    # -- protocol ---------------------------------------------------------

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to an open span (chainable)."""
        self.attrs.update(attrs)
        return self

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return perf_counter_ns() - self.start_ns
        return self.end_ns - self.start_ns

    @property
    def duration_ms(self) -> float:
        return self.duration_ns / 1e6

    def __enter__(self) -> "Span":
        self._tracer._enter(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._exit(self)
        return False

    def __repr__(self) -> str:
        state = "open" if self.end_ns is None else f"{self.duration_ms:.3f}ms"
        return f"Span({self.name!r}, #{self.span_id}, {state})"


class _NullSpan:
    """Shared do-nothing span returned by disabled tracers.

    A singleton so the disabled hot path allocates nothing; ``set`` and the
    context protocol are inert.
    """

    __slots__ = ()

    enabled = False
    name = ""
    span_id = 0
    parent_id = None
    trace_id = None
    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def __repr__(self) -> str:
        return "NULL_SPAN"


NULL_SPAN = _NullSpan()


class TraceEvent:
    """A point-in-time marker (Chrome 'instant' event)."""

    __slots__ = ("name", "ts_ns", "attrs", "thread_id", "parent_id")

    def __init__(self, name: str, ts_ns: int, attrs: dict[str, Any],
                 thread_id: int, parent_id: int | None):
        self.name = name
        self.ts_ns = ts_ns
        self.attrs = attrs
        self.thread_id = thread_id
        self.parent_id = parent_id

    def __repr__(self) -> str:
        return f"TraceEvent({self.name!r})"


class Tracer:
    """Collects spans and events for one run.

    ``max_spans`` bounds retention so a tracer attached to a benchmark loop
    cannot grow without limit; completed spans beyond the cap are counted in
    ``dropped`` instead of stored.  All mutation of the finished lists is
    lock-guarded; the open-span stack lives in a ``contextvars`` variable,
    so concurrent threads — and concurrent asyncio tasks on one thread —
    each build their own subtree.  :meth:`adopt` re-activates a request's
    :class:`TraceContext` on a pool worker, which context variables alone
    cannot do (``run_in_executor`` does not propagate context).
    """

    def __init__(self, enabled: bool = True, max_spans: int = 200_000):
        self.enabled = enabled
        self.max_spans = max_spans
        self.dropped = 0
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._next_id = 1
        #: perf_counter_ns origin, set lazily on first span/event so all
        #: exported timestamps are small non-negative offsets.
        self.origin_ns: int | None = None
        #: callbacks invoked with each completed Span / recorded TraceEvent
        #: (the flight recorder's tap).  Empty for ordinary tracers, so the
        #: hot path pays one truthiness check.
        self._sinks: list = []

    def add_sink(self, sink) -> None:
        """Subscribe ``sink(record)`` to completed spans and events.

        Sinks see records *after* retention accounting, including ones the
        cap dropped — a flight recorder keeps its own (smaller) window.
        """
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    # -- recording --------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span | _NullSpan:
        """Open a span; use as a context manager.

        Returns :data:`NULL_SPAN` when disabled — hot paths that build
        expensive attribute dicts should pre-check ``tracer.enabled``.
        """
        if not self.enabled:
            return NULL_SPAN
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        return Span(self, name, span_id, None, attrs)

    # -- request adoption --------------------------------------------------

    def context(self) -> TraceContext | None:
        """The adopted request context in this execution context, if any."""
        return _TRACE_CONTEXT.get()

    @contextmanager
    def adopt(self, ctx: TraceContext | None) -> Iterator[TraceContext | None]:
        """Re-activate a request's context on this thread/task.

        Inside the block, spans with no in-context parent attach under
        ``ctx.parent_span_id`` and inherit ``ctx.trace_id``; the thread is
        registered in :func:`thread_trace_contexts` so samplers can
        attribute its stacks to the request.  ``ctx=None`` is a no-op block
        (callers need not branch).  Nesting restores the previous context.
        """
        if ctx is None:
            yield None
            return
        token = _TRACE_CONTEXT.set(ctx)
        tid = threading.get_ident()
        previous = _THREAD_CONTEXTS.get(tid)
        _THREAD_CONTEXTS[tid] = ctx
        try:
            yield ctx
        finally:
            _TRACE_CONTEXT.reset(token)
            if previous is None:
                _THREAD_CONTEXTS.pop(tid, None)
            else:
                _THREAD_CONTEXTS[tid] = previous

    def event(self, name: str, **attrs: Any) -> None:
        """Record an instant event under the current span."""
        if not self.enabled:
            return
        now = perf_counter_ns()
        current = self.current()
        record = TraceEvent(
            name, now, attrs, threading.get_ident(),
            current.span_id if current is not None else None,
        )
        with self._lock:
            if self.origin_ns is None:
                self.origin_ns = now
            if len(self.events) < self.max_spans:
                self.events.append(record)
            else:
                self.dropped += 1
        if self._sinks:
            for sink in self._sinks:
                sink(record)

    def current(self) -> Span | None:
        """The innermost open span of this tracer in this context, if any."""
        for span in reversed(_SPAN_STACK.get()):
            if span._tracer is self:
                return span
        return None

    # -- span lifecycle (called by Span) ----------------------------------

    def _enter(self, span: Span) -> None:
        stack = _SPAN_STACK.get()
        if span.parent_id is None:
            # Parent under this tracer's innermost open span; a pushed
            # benchmark tracer must not adopt a foreign tracer's tree.
            for open_span in reversed(stack):
                if open_span._tracer is self:
                    span.parent_id = open_span.span_id
                    span.trace_id = open_span.trace_id
                    break
            else:
                ctx = _TRACE_CONTEXT.get()
                if ctx is not None:
                    span.parent_id = ctx.parent_span_id
                    span.trace_id = ctx.trace_id
        _SPAN_STACK.set(stack + (span,))
        span.start_ns = perf_counter_ns()
        if self.origin_ns is None:
            with self._lock:
                if self.origin_ns is None:
                    self.origin_ns = span.start_ns

    def _exit(self, span: Span) -> None:
        span.end_ns = perf_counter_ns()
        stack = _SPAN_STACK.get()
        if stack:
            # Normally a plain pop; generator-driven spans (plan nodes) can
            # finalize out of order, so remove by identity when needed.
            if stack[-1] is span:
                _SPAN_STACK.set(stack[:-1])
            else:
                _SPAN_STACK.set(tuple(
                    open_span for open_span in stack
                    if open_span is not span))
        with self._lock:
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.dropped += 1
        if self._sinks:
            for sink in self._sinks:
                sink(span)

    # -- inspection -------------------------------------------------------

    def finished(self, name: str | None = None) -> list[Span]:
        """Completed spans, optionally filtered by name."""
        with self._lock:
            spans = list(self.spans)
        if name is None:
            return spans
        return [span for span in spans if span.name == name]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.finished() if s.parent_id == span.span_id]

    def roots(self) -> list[Span]:
        """Completed spans whose parent never completed (tree roots)."""
        spans = self.finished()
        known = {span.span_id for span in spans}
        return [s for s in spans if s.parent_id not in known]

    def clear(self) -> None:
        with self._lock:
            self.spans.clear()
            self.events.clear()
            self.dropped = 0
            self.origin_ns = None

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, {len(self.spans)} spans)"


# ---------------------------------------------------------------------------
# The process-global tracer and scoped installation
# ---------------------------------------------------------------------------

_GLOBAL_TRACER = Tracer(enabled=False)
_INSTALL_LOCK = threading.Lock()


def current_tracer() -> Tracer:
    """The tracer instrumented code should record into right now."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global tracer; returns the old one."""
    global _GLOBAL_TRACER
    with _INSTALL_LOCK:
        previous = _GLOBAL_TRACER
        _GLOBAL_TRACER = tracer
    return previous


@contextmanager
def push_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped installation: the global tracer is ``tracer`` inside the block."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextmanager
def tracing(max_spans: int = 200_000) -> Iterator[Tracer]:
    """Convenience: install a fresh enabled tracer for the block."""
    with push_tracer(Tracer(enabled=True, max_spans=max_spans)) as tracer:
        yield tracer
