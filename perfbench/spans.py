"""Layer wrappers for the traced run (loaded into the server process).

:func:`install` replaces each layer's public entry point with a timing
wrapper, from outside the program: class attributes and the module globals
the server calls through are reassigned, nothing under ``src/`` changes.
Spans stay in memory in a :class:`SpanRecorder` and are written out once,
as Chrome-trace JSON, when the benchmark asks for them.

Two kinds of wrapper:

- *span* wrappers record one span per call (name, start, end, parent span,
  request id, thread).  The parent is the innermost open span on the same
  thread; the request id is the ``trace_id`` of the server's adopted
  :class:`~repro.obs.trace.TraceContext`, inherited from the parent.
- *tally* wrappers serve the per-tuple hot calls (``location_of``,
  ``draw_text``): a span per call would cost more than the call, so they
  add their duration and a count to the innermost open span instead, which
  stores them as ``<key>_ns`` / ``<key>_calls`` attributes.

``TiogaServer.execute`` is a coroutine on the event loop, where coroutines
interleave, so it never joins a thread's span stack: its span is linked to
the pool thread's ``Session.execute`` span by request id afterwards (see
``layers.py``).  ``decode_command`` and ``encode_response`` run on the loop
thread right before and after it and are linked the same way.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Any, Callable

#: Span tuple layout: (name, start_ns, end_ns, span_id, parent_id,
#: request_id, thread_id, attrs).  ``attrs`` carries tallies and sizes.
NAME, START, END, SID, PARENT, RID, TID, ATTRS = range(8)


class _Open:
    __slots__ = ("sid", "rid", "tally")

    def __init__(self, sid: int, rid: str | None):
        self.sid = sid
        self.rid = rid
        self.tally: dict[str, list] = {}


class SpanRecorder:
    """In-memory span store plus the per-thread stacks of open spans."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        #: decode span ids waiting for the execute() of the command object
        #: they produced, keyed by ``id(command)``.
        self.pending_decode: dict[int, int] = {}
        self.frame_cache_lookups = 0
        self.frame_cache_hits = 0

    def next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def count_lookup(self, hit: bool) -> None:
        with self._id_lock:
            self.frame_cache_lookups += 1
            self.frame_cache_hits += hit

    def stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: int, end: int, sid: int,
               parent: int | None, rid: str | None,
               attrs: dict[str, Any] | None = None) -> None:
        self.spans.append((name, start, end, sid, parent, rid,
                           threading.get_ident(),
                           attrs if attrs is not None else {}))

    def chrome_trace(self, pid: int) -> list[dict[str, Any]]:
        """Complete ('X') events in microseconds, one per recorded span."""
        events = []
        for span in self.spans:
            args = {"span": span[SID], "parent": span[PARENT],
                    "request": span[RID]}
            args.update(span[ATTRS])
            events.append({
                "name": span[NAME], "ph": "X", "pid": pid,
                "tid": span[TID], "ts": span[START] / 1000.0,
                "dur": (span[END] - span[START]) / 1000.0, "args": args,
            })
        return events


def _request_id() -> str | None:
    from repro.obs.trace import current_tracer

    ctx = current_tracer().context()
    return ctx.trace_id if ctx is not None else None


def _span_wrapper(rec: SpanRecorder, name: str, fn: Callable,
                  size_of_result: bool = False) -> Callable:
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        stack = rec.stack()
        parent = stack[-1] if stack else None
        rid = parent.rid if parent is not None else _request_id()
        frame = _Open(rec.next_id(), rid)
        stack.append(frame)
        result = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            attrs: dict[str, Any] = {}
            for key, (total, calls) in frame.tally.items():
                attrs[f"{key}_ns"] = total
                attrs[f"{key}_calls"] = calls
            if size_of_result and result is not None:
                attrs["bytes"] = len(result)
            rec.record(name, start, end, frame.sid,
                       parent.sid if parent is not None else None, rid, attrs)

    wrapper.__wrapped__ = fn
    return wrapper


def _tally_wrapper(rec: SpanRecorder, key: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        stack = rec.stack()
        if not stack:
            return fn(*args, **kwargs)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            slot = stack[-1].tally.get(key)
            if slot is None:
                slot = stack[-1].tally[key] = [0, 0]
            slot[0] += time.perf_counter_ns() - start
            slot[1] += 1

    wrapper.__wrapped__ = fn
    return wrapper


def install(rec: SpanRecorder) -> None:
    """Wrap every layer entry point the benchmark times.  Wrappers are inert
    until ``rec.enabled`` is set."""
    import repro.server.app as app
    from repro.dataflow.engine import Engine
    from repro.dbms import update
    from repro.display.displayable import DisplayableRelation
    from repro.protocol.dispatch import FrameCache
    from repro.render.canvas import Canvas
    from repro.ui.session import Session
    from repro.viewer.viewer import Viewer

    Session.execute = _span_wrapper(rec, "session.execute", Session.execute)
    Viewer.render = _span_wrapper(rec, "viewer.render", Viewer.render)
    Engine.output_of = _span_wrapper(rec, "dataflow.output_of",
                                     Engine.output_of)
    Canvas.png_bytes = _span_wrapper(rec, "render.png", Canvas.png_bytes,
                                     size_of_result=True)
    update.generic_update = _span_wrapper(rec, "dbms.update",
                                          update.generic_update)
    DisplayableRelation.location_of = _tally_wrapper(
        rec, "location", DisplayableRelation.location_of)
    Canvas.draw_text = _tally_wrapper(rec, "text", Canvas.draw_text)

    frame_cache_get = FrameCache.get

    def counted_get(self, key):
        entry = frame_cache_get(self, key)
        if rec.enabled:
            rec.count_lookup(entry is not None)
        return entry

    FrameCache.get = counted_get

    decode = app.decode_command

    def timed_decode(payload):
        if not rec.enabled:
            return decode(payload)
        start = time.perf_counter_ns()
        command = decode(payload)
        sid = rec.next_id()
        rec.record("protocol.decode", start, time.perf_counter_ns(), sid,
                   None, None, {"kind": command.kind})
        rec.pending_decode[id(command)] = sid
        return command

    app.decode_command = timed_decode

    encode = app.encode_response

    def timed_encode(response):
        if not rec.enabled or response.kind != "frame":
            return encode(response)
        start = time.perf_counter_ns()
        text = encode(response)
        rec.record("protocol.encode", start, time.perf_counter_ns(),
                   rec.next_id(), None, response.trace_id,
                   {"bytes": len(text)})
        return text

    app.encode_response = timed_encode

    execute = app.TiogaServer.execute

    async def timed_execute(self, held, command):
        if not rec.enabled:
            return await execute(self, held, command)
        decode_sid = rec.pending_decode.pop(id(command), None)
        start = time.perf_counter_ns()
        response = await execute(self, held, command)
        rec.record("server.execute", start, time.perf_counter_ns(),
                   rec.next_id(), None, response.trace_id,
                   {"kind": command.kind, "decode": decode_sid})
        return response

    app.TiogaServer.execute = timed_execute


def write_chrome_trace(rec: SpanRecorder, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": rec.chrome_trace(os.getpid()),
                   "displayTimeUnit": "ms"}, handle)
