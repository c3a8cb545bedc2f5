"""Flight recorder: a JSONL ring of recent spans/events, dumped on errors.

A :class:`FlightRecorder` keeps the last ``capacity`` telemetry records —
completed spans, instant events, and error notes — in a bounded deque, the
way an aircraft flight recorder keeps the last minutes of instrument data.
It costs one deque append per record, so it can stay attached to a long
session without growing.

Attach it to a tracer (:meth:`FlightRecorder.attach`) to tap every
completed span, or install it process-wide with
:func:`install_flight_recorder` / ``REPRO_FLIGHT=1``.  When an installed
recorder is present, the engine's demand path notifies it of raised
:class:`~repro.errors.TiogaError`\\ s via :func:`note_engine_error`, which
**auto-dumps** the window to a JSONL file (``REPRO_FLIGHT_DUMP`` overrides
the ``flight_recorder.jsonl`` default) — so the telemetry that led up to a
failure survives the crash, ready for post-mortem ingestion (each line is
one JSON record; see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from time import perf_counter_ns
from typing import Any

from repro.obs.trace import Span, TraceEvent, Tracer

__all__ = [
    "FlightRecorder",
    "install_flight_recorder",
    "current_flight_recorder",
    "note_engine_error",
    "FLIGHT_SCHEMA",
]

FLIGHT_SCHEMA = "repro.flight/1"
"""Schema tag stamped into the first line of every flight-recorder dump."""

_DEFAULT_DUMP = "flight_recorder.jsonl"


class FlightRecorder:
    """Bounded ring of recent telemetry records with JSONL export.

    Records are plain dicts with a ``kind`` of ``span``, ``event``, or
    ``error``; :meth:`dump_jsonl` writes one JSON object per line, headed by
    a schema line, so the dump can be re-ingested by the dashboard layer (or
    any line-oriented tool) without a parser.
    """

    def __init__(self, capacity: int = 1024):
        self.capacity = capacity
        self._records: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._attached: list[Tracer] = []
        self.total_records = 0
        self.dumps = 0

    # -- recording --------------------------------------------------------

    def record(self, record: dict[str, Any]) -> None:
        with self._lock:
            self._records.append(record)
            self.total_records += 1

    def __call__(self, item: Span | TraceEvent) -> None:
        """Tracer-sink protocol: fold a completed span or event in."""
        if isinstance(item, Span):
            self.record({
                "kind": "span",
                "name": item.name,
                "start_ns": item.start_ns,
                "duration_ms": round(item.duration_ms, 6),
                "thread": item.thread_id,
                "attrs": _safe_attrs(item.attrs),
            })
        else:
            self.record({
                "kind": "event",
                "name": item.name,
                "ts_ns": item.ts_ns,
                "thread": item.thread_id,
                "attrs": _safe_attrs(item.attrs),
            })

    def note_error(self, exc: BaseException, **context: Any) -> None:
        """Record a raised exception (type, message, caller context)."""
        self.record({
            "kind": "error",
            "ts_ns": perf_counter_ns(),
            "error": type(exc).__name__,
            "message": str(exc),
            "context": _safe_attrs(context),
        })

    # -- tracer taps ------------------------------------------------------

    def attach(self, tracer: Tracer) -> "FlightRecorder":
        """Subscribe to a tracer's completed spans and events."""
        tracer.add_sink(self)
        self._attached.append(tracer)
        return self

    def detach(self, tracer: Tracer | None = None) -> None:
        """Unsubscribe from one tracer, or from all attached tracers."""
        targets = [tracer] if tracer is not None else list(self._attached)
        for target in targets:
            target.remove_sink(self)
            if target in self._attached:
                self._attached.remove(target)

    # -- inspection & export ----------------------------------------------

    def records(self, kind: str | None = None) -> list[dict[str, Any]]:
        """Retained records oldest-first, optionally filtered by kind."""
        with self._lock:
            records = list(self._records)
        if kind is None:
            return records
        return [record for record in records if record["kind"] == kind]

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    @property
    def dropped(self) -> int:
        """Records lost to the ring's wraparound."""
        with self._lock:
            return self.total_records - len(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def dump_jsonl(self, path: str | Path | None = None) -> Path:
        """Write the retained window as JSON Lines; returns the path.

        The first line is a header object carrying the schema tag and the
        window accounting, then one line per record, oldest first.
        """
        if path is None:
            from repro.config import flight_dump_path

            path = flight_dump_path(_DEFAULT_DUMP)
        path = Path(path)
        with self._lock:
            records = list(self._records)
            header = {
                "schema": FLIGHT_SCHEMA,
                "records": len(records),
                "dropped": self.total_records - len(records),
            }
        lines = [json.dumps(header)]
        lines.extend(json.dumps(record, sort_keys=True) for record in records)
        path.write_text("\n".join(lines) + "\n")
        self.dumps += 1
        return path

    def __repr__(self) -> str:
        return f"FlightRecorder({len(self)}/{self.capacity} records)"


def _safe_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    return {
        key: value if isinstance(value, (str, int, float, bool)) or
        value is None else repr(value)
        for key, value in attrs.items()
    }


# ---------------------------------------------------------------------------
# Process-wide installation & the engine error hook
# ---------------------------------------------------------------------------

_INSTALLED: FlightRecorder | None = None
_INSTALL_LOCK = threading.Lock()


def install_flight_recorder(
    recorder: FlightRecorder | None = None,
) -> FlightRecorder | None:
    """Install ``recorder`` process-wide (None uninstalls); returns the old.

    While installed, :func:`note_engine_error` — called by the engine's
    demand path on any raised :class:`~repro.errors.TiogaError` — records
    the failure and auto-dumps the window to JSONL.
    """
    global _INSTALLED
    with _INSTALL_LOCK:
        previous = _INSTALLED
        _INSTALLED = recorder
    return previous


def current_flight_recorder() -> FlightRecorder | None:
    return _INSTALLED


def note_engine_error(exc: BaseException, **context: Any) -> None:
    """Engine hook: record and auto-dump when a recorder is installed.

    Deliberately swallow-proof: telemetry must never mask the original
    engine error, so dump failures are ignored.
    """
    recorder = _INSTALLED
    if recorder is None:
        return
    recorder.note_error(exc, **context)
    try:
        recorder.dump_jsonl()
    except OSError:  # pragma: no cover - unwritable dump path
        pass
