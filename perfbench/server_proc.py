"""The benchmark's server process: ``repro serve`` plus a control channel.

``python3 perfbench/server_proc.py --out-dir DIR [--trace]``, with the
repository's ``src`` on ``PYTHONPATH``.  The server is configured from the
``repro serve`` argument parser's own defaults, so it runs exactly as the
CLI ships it: the built-in weather database, request tracing, the 67 Hz
profiler, 8 pool workers, the shared FrameCache and the result cache.  Only
the listening port (any free one) and the slow-request capture directory
(inside ``DIR``) differ.

The wire protocol has no update command, so the §8 screen-object updates of
the write workload arrive here instead, on stdin: one JSON object per line,
answered by one JSON line on stdout.

- ``{"op": "toggle", "table": T, "index": I, "field": F, "delta": D}``
  flips row ``I`` of table ``T`` between its original value of ``F`` and
  original + ``D``, through :func:`repro.dbms.update.generic_update`.
- ``{"op": "trace", "on": bool}`` starts or stops the layer wrappers
  (``--trace`` only).
- ``{"op": "stats"}`` returns peak RSS, the server tracer's span count and
  the wrappers' frame-cache lookup counts.
- ``{"op": "dump", "path": P}`` writes the wrapper spans as Chrome-trace JSON.
- ``{"op": "quit"}`` stops the server; the process then exits.

The first stdout line is ``{"event": "ready", "port": N}`` once the server
listens with every figure program installed.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import logging
import resource
import sys
import threading
from pathlib import Path

from spans import SpanRecorder, install, write_chrome_trace
from workloads import Toggler, Update

_out_lock = threading.Lock()


def _emit(payload: dict) -> None:
    with _out_lock:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()


def _control(server, recorder, toggles, loop, stop) -> None:
    for line in sys.stdin:
        try:
            request = json.loads(line)
            op = request["op"]
            if op == "quit":
                break
            if op == "toggle":
                flipped = toggles.toggle(Update(
                    request["table"], request["index"], request["field"],
                    request["delta"]))
                _emit({"ok": True, "flipped": flipped})
            elif op == "trace":
                recorder.enabled = bool(request["on"])
                _emit({"ok": True})
            elif op == "stats":
                tracer = server.tracer
                _emit({
                    "ok": True,
                    "maxrss_kb": resource.getrusage(
                        resource.RUSAGE_SELF).ru_maxrss,
                    "spans": (len(tracer.spans) + tracer.dropped
                              if tracer is not None else 0),
                    "frame_cache_lookups": recorder.frame_cache_lookups,
                    "frame_cache_hits": recorder.frame_cache_hits,
                })
            elif op == "dump":
                write_chrome_trace(recorder, request["path"])
                _emit({"ok": True})
            else:
                _emit({"ok": False, "error": f"unknown op {op!r}"})
        except Exception as exc:  # noqa: BLE001 - reported to the client
            _emit({"ok": False, "error": repr(exc)})
    loop.call_soon_threadsafe(stop.set)


def _server_from_cli_defaults(out_dir: Path):
    """A TiogaServer built the way ``repro serve`` builds one."""
    from repro.cli import build_parser
    from repro.obs import DEFAULT_SLO_MS, configure_logging
    from repro.server import TiogaServer

    args = build_parser().parse_args(
        ["serve", "--port", "0", "--slow-dir", str(out_dir / "slowreq")])
    configure_logging(level=getattr(logging, args.log_level.upper()))
    slo_ms = None
    if args.slow_ms is not None:
        slo_ms = {kind: args.slow_ms for kind in DEFAULT_SLO_MS}
    return TiogaServer(
        None, host=args.host, port=args.port, max_queue=args.max_queue,
        flight_dump=args.flight_dump, session_ttl=args.session_ttl,
        request_tracing=not args.no_request_tracing,
        profile_hz=args.profile_hz, slo_ms=slo_ms,
        slow_dir=args.slow_dir or None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--trace", action="store_true",
                        help="install the layer wrappers (off until the "
                        "'trace' op turns them on)")
    opts = parser.parse_args()
    recorder = SpanRecorder()
    if opts.trace:
        install(recorder)
    server = _server_from_cli_defaults(Path(opts.out_dir))
    toggles = Toggler(server.database)

    async def run() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        await server.start()
        try:
            _emit({"event": "ready", "port": server.port})
            threading.Thread(
                target=_control, args=(server, recorder, toggles, loop, stop),
                name="bench-control", daemon=True).start()
            await stop.wait()
        finally:
            await server.stop()

    asyncio.run(run())
    return 0


if __name__ == "__main__":
    sys.exit(main())
