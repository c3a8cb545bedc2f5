"""Per-layer numbers from a traced run's spans (runs in the load generator).

Input: the Chrome-trace events the server process wrote (see ``spans.py``)
and the client's frames, joined on the request id every reply carries
(``trace_id``).  A span's *self time* is its duration minus its child spans
and minus the tallied per-tuple calls made while it was the innermost span.

Per rendered frame the layers, in request order, are:

    decode -> queue wait -> dispatch -> engine -> location -> raster
    -> text -> png encode -> frame encode -> transport

``queue wait`` is ``TiogaServer.execute`` minus its nested
``Session.execute`` (hand-off to the pool, the session lock, bookkeeping);
``dispatch`` is ``Session.execute``'s self time; ``transport`` is the
client's frame latency minus ``TiogaServer.execute``.  ``unattributed`` is
the frame latency minus every measured self time (decode, the execute tree
and frame encode): sockets, WebSocket framing, event-loop scheduling and
the client's own parsing, none of which a wrapper covers.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Iterable, Sequence

#: The per-frame layer rows, in request order: (row name, what it sums).
LAYER_ROWS = (
    ("protocol.decode", "decode"),
    ("server.queue_wait", "queue_wait"),
    ("session.dispatch", "dispatch"),
    ("dataflow.engine", "engine"),
    ("display.location", "location"),
    ("render.raster", "raster"),
    ("render.text", "text"),
    ("render.png", "png"),
    ("protocol.encode", "encode"),
    ("server.transport", "transport"),
    ("bench.unattributed", "unattributed"),
)

#: Span name -> the layer its self time belongs to.
_SELF_LAYER = {
    "session.execute": "dispatch",
    "dataflow.output_of": "engine",
    "viewer.render": "raster",
    "render.png": "png",
}


def quantile(values: Sequence[float], q: float) -> float:
    """The q-quantile (0 < q < 1) by linear interpolation; 0.0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _ms(event: dict[str, Any]) -> float:
    return event["dur"] / 1000.0


def _tally_ms(event: dict[str, Any], key: str) -> float:
    return event["args"].get(f"{key}_ns", 0) / 1e6


class TraceIndex:
    """Wrapper spans indexed by request and by parent."""

    def __init__(self, events: Iterable[dict[str, Any]]):
        self.events = list(events)
        self.by_id = {e["args"]["span"]: e for e in self.events}
        self.by_request: dict[str, list[dict]] = defaultdict(list)
        self.children: dict[int, list[dict]] = defaultdict(list)
        for event in self.events:
            args = event["args"]
            if args.get("request") is not None:
                self.by_request[args["request"]].append(event)
            if args.get("parent") is not None:
                self.children[args["parent"]].append(event)

    def named(self, name: str) -> list[dict[str, Any]]:
        return [e for e in self.events if e["name"] == name]

    def self_ms(self, event: dict[str, Any]) -> float:
        args = event["args"]
        covered = sum(_ms(child) for child in self.children[args["span"]])
        tallied = sum(_tally_ms(event, key) for key in ("location", "text"))
        return _ms(event) - covered - tallied

    def frame_layers(self, trace_id: str,
                     latency_ms: float) -> dict[str, float] | None:
        """One delivered frame's per-layer milliseconds (plus ``rasterized``:
        1.0 unless the frame cache served it), or None when its spans are
        incomplete."""
        spans = self.by_request.get(trace_id, [])
        execute = [e for e in spans if e["name"] == "server.execute"]
        session = [e for e in spans if e["name"] == "session.execute"]
        if len(execute) != 1 or len(session) != 1:
            return None
        execute, session = execute[0], session[0]
        decode = self.by_id.get(execute["args"].get("decode"))
        layers = dict.fromkeys(
            ("dispatch", "engine", "location", "raster", "text", "png",
             "encode"), 0.0)
        layers["decode"] = _ms(decode) if decode is not None else 0.0
        layers["queue_wait"] = _ms(execute) - _ms(session)
        for event in spans:
            layer = _SELF_LAYER.get(event["name"])
            if layer is not None:
                layers[layer] += self.self_ms(event)
                layers["location"] += _tally_ms(event, "location")
                layers["text"] += _tally_ms(event, "text")
            elif event["name"] == "protocol.encode":
                layers["encode"] += _ms(event)
        layers["rasterized"] = float(
            any(e["name"] == "viewer.render" for e in spans))
        layers["transport"] = latency_ms - _ms(execute)
        layers["unattributed"] = (latency_ms - layers["decode"] - _ms(execute)
                                  - layers["encode"])
        return layers


def layer_table(per_frame: Sequence[dict[str, float]]) -> list[tuple]:
    """(row, p50 ms, p95 ms) per layer row, over the frames given."""
    return [(row, quantile([f[key] for f in per_frame], 0.5),
             quantile([f[key] for f in per_frame], 0.95))
            for row, key in LAYER_ROWS]


def format_table(rows: Sequence[tuple], frames: int) -> str:
    lines = [f"per-layer self time over {frames} traced frames (ms)",
             f"{'layer':<22}{'p50':>10}{'p95':>10}"]
    lines += [f"{row:<22}{p50:>10.3f}{p95:>10.3f}" for row, p50, p95 in rows]
    return "\n".join(lines)


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0
