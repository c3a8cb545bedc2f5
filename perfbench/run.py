"""Interactive frame-latency benchmark for the Tioga-2 frame server.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the server and the reference renders import
``repro`` from ``./src``.  Each run starts its servers as fresh processes
(``server_proc.py``), drives them with two closed-loop WebSocket clients in
this process, checks every frame after the timed window, and prints one
JSON object as its last line of output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the mix
twice for ``S/2`` seconds each, first plain and then with the layer
wrappers on, and reports the per-layer metrics (see README.md).  Files
(Chrome traces, server logs) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import base64
import binascii
import itertools
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

from framecheck import Frame, Toggle, check_frames
from layers import TraceIndex, format_table, layer_table, mean, quantile

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
CLIENTS = 2
#: Setups per end-to-end run; ``setup_s`` is the median of their CPU time.
SETUPS = 3
#: A run needs this many frames for its p95 to have >= 10 samples above it.
MIN_FRAMES = 200
#: Seconds any single reply may take before it counts as a timeout.
REPLY_TIMEOUT = 30.0
#: The /metrics counters reported per delivered frame; the ``render.*``
#: counters are reported per rasterized frame instead.
METRIC_COUNTERS = (
    "cache.hit", "cache.miss", "cache.frame_hit", "cache.frame_miss",
    "server.commands", "server.errors", "server.frames_dropped",
)


def process_cpu_clock(pid: int) -> int:
    """The clock id of process ``pid``'s CPU time, all threads together, for
    ``time.clock_gettime``: what Linux's ``clock_getcpuclockid(3)`` returns,
    which the ``time`` module does not wrap."""
    return ((~pid) << 3) | 2  # CPUCLOCK_SCHED


def _import_repro(root: Path) -> None:
    """Put ``root/src`` first on the path; exit 2 when it holds no repro."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no src/repro under {root}; run from "
                         "the repository root\n")
        sys.exit(2)
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# The server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """One ``server_proc.py`` child: started in ``__init__`` (returns once it
    listens), driven over its stdin/stdout control channel, stopped by
    :meth:`stop`, which waits for the process to end."""

    def __init__(self, root: Path, log_path: Path, traced: bool):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src"), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        command = [sys.executable, str(HERE / "server_proc.py"),
                   "--out-dir", str(OUT_DIR)]
        if traced:
            command.append("--trace")
        self._log = open(log_path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._log, text=True, bufsize=1)
        self._cpu_clock = process_cpu_clock(self.proc.pid)
        try:
            ready = self._read()
            self.port = int(ready["port"])
        except BaseException:
            self.stop()
            raise

    def cpu_s(self) -> float:
        """CPU seconds used so far by the server and by this process (the
        load generator).  Unlike wall time, it does not grow while another
        tenant of the host holds the CPU."""
        return time.clock_gettime(self._cpu_clock) + time.process_time()

    def _read(self) -> dict:
        # The watchdog turns a hung server into EOF instead of a hung run.
        watchdog = threading.Timer(REPLY_TIMEOUT * 4, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise RuntimeError("server process exited; see its log")
        return json.loads(line)

    def request(self, payload: dict) -> dict:
        with self._lock:
            self.proc.stdin.write(json.dumps(payload) + "\n")
            self.proc.stdin.flush()
            reply = self._read()
        if not reply.get("ok"):
            raise RuntimeError(f"control {payload['op']}: {reply}")
        return reply

    def get(self, path: str) -> bytes:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{self.port}{path}",
                timeout=REPLY_TIMEOUT) as response:
            return response.read()

    def counters(self) -> dict[str, float]:
        """Unlabeled ``*_total`` counters from ``GET /metrics``."""
        text = self.get("/metrics").decode("utf-8")
        totals = {}
        for match in re.finditer(r"^(\w+)_total (\S+)$", text, re.M):
            totals[match.group(1)] = float(match.group(2))
        return totals

    def wait_sessions_closed(self) -> None:
        """Connection teardown (which folds ``frames_dropped``) is async."""
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            if json.loads(self.get("/healthz"))["sessions"] == 0:
                return
            time.sleep(0.02)
        raise RuntimeError("server sessions did not close")

    def stop(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    self.proc.stdin.write('{"op": "quit"}\n')
                    self.proc.stdin.flush()
                except OSError:
                    pass
                try:
                    self.proc.wait(timeout=REPLY_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            for stream in (self.proc.stdin, self.proc.stdout):
                if stream is not None:
                    stream.close()
            self._log.close()


def _counter_delta(after: dict, before: dict, name: str) -> float:
    key = name.replace(".", "_")
    return after.get(key, 0.0) - before.get(key, 0.0)


# ---------------------------------------------------------------------------
# Clients
# ---------------------------------------------------------------------------


@dataclass
class ClientLog:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    frames: list = field(default_factory=list)
    #: applied update toggles per table (client 0 of the write mix)
    toggles: dict[str, list] = field(default_factory=dict)


def _interact(client, index, commands, view, log, server) -> None:
    """Send one gesture's commands, each after the previous reply."""
    from repro.protocol import FrameReply, Render

    for command in commands:
        log.attempted += 1
        sent = time.perf_counter()
        cpu_sent = server.cpu_s()
        reply = client.request(command)
        received = time.perf_counter()
        cpu_ms = (server.cpu_s() - cpu_sent) * 1000.0
        if not reply.ok:
            log.failures.append(f"{command.kind}: {reply.code} "
                                f"{reply.message}")
            return
        if isinstance(command, Render):
            if not isinstance(reply, FrameReply) or reply.data is None:
                log.failures.append(f"render: no frame data in {reply.kind}")
                return
            try:
                data = base64.b64decode(reply.data, validate=True)
            except binascii.Error as exc:
                log.failures.append(f"render: malformed payload: {exc}")
                return
            log.frames.append(Frame(index, view, sent, received, data,
                                    reply.trace_id, cpu_ms))


def _drive(index, client, workload, server, log, barrier, window) -> None:
    """One closed-loop client: warm up, wait for the window, then interact
    until its deadline."""
    script = workload.script(index)
    try:
        warm = ClientLog()
        for commands, view in itertools.islice(script, workload.warmup):
            _interact(client, index, commands, view, warm, server)
        log.attempted += warm.attempted
        log.failures.extend(f"warm-up {m}" for m in warm.failures)
        barrier.wait(timeout=REPLY_TIMEOUT * 4)
        barrier.wait(timeout=REPLY_TIMEOUT * 4)  # the window opens
        for step in itertools.count(1):
            if time.perf_counter() >= window["deadline"]:
                break
            commands, view = next(script)
            _interact(client, index, commands, view, log, server)
            if index == 0 and workload.update_every and (
                    step % workload.update_every == 0):
                update = workload.updates[
                    (step // workload.update_every - 1)
                    % len(workload.updates)]
                log.attempted += 1
                requested = time.perf_counter()
                server.request({"op": "toggle", "table": update.table,
                                "index": update.index, "field": update.field,
                                "delta": update.delta})
                log.toggles.setdefault(update.table, []).append(
                    Toggle(requested, time.perf_counter()))
    except threading.BrokenBarrierError:
        log.failures.append("client: window never opened")
    except Exception as exc:  # noqa: BLE001 - a timeout or dropped socket
        log.failures.append(f"client {index}: {exc!r}")
        barrier.abort()


# ---------------------------------------------------------------------------
# One phase: set up a fresh server, run the mix, collect everything
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    #: median CPU and wall-clock seconds of the phase's setups
    setup_s: float
    setup_wall_s: float
    seconds: float
    #: CPU seconds of the server and the load generator in the window
    cpu_s: float
    logs: list[ClientLog]
    before: dict
    after: dict
    stats_before: dict
    stats_after: dict
    events: list = field(default_factory=list)

    @property
    def frames(self) -> list:
        return [f for log in self.logs for f in log.frames]

    @property
    def latencies_ms(self) -> list[float]:
        return [(f.received - f.sent) * 1000.0 for f in self.frames]

    @property
    def frame_cpu_ms(self) -> list[float]:
        return [f.cpu_ms for f in self.frames]

    @property
    def attempted(self) -> int:
        return sum(log.attempted for log in self.logs)

    @property
    def failures(self) -> list[str]:
        return [m for log in self.logs for m in log.failures]

    def toggles(self, table: str) -> list:
        return [t for log in self.logs for t in log.toggles.get(table, [])]


def _setup(root: Path, workload, traced: bool, tag: str):
    """Launch a server and open the program in both sessions; returns the
    server, the clients and the (CPU, wall-clock) seconds it took."""
    from repro.protocol import OpenProgram
    from repro.server import connect

    started = time.perf_counter()
    cpu_started = time.process_time()
    server = ServerProcess(root, OUT_DIR / f"server_{tag}.log", traced)
    clients = []
    try:
        for _ in range(CLIENTS):
            clients.append(connect(f"ws://127.0.0.1:{server.port}/ws",
                                   timeout=REPLY_TIMEOUT))
        for client in clients:
            reply = client.request(OpenProgram(name=workload.program))
            if not reply.ok:
                raise RuntimeError(f"open_program failed: {reply}")
    except BaseException:
        for client in clients:
            client.close()
        server.stop()
        raise
    # The server's CPU clock started at 0 when it was launched.
    return server, clients, (server.cpu_s() - cpu_started,
                             time.perf_counter() - started)


def run_phase(root: Path, workload, seconds: float, traced: bool,
              setups: int, tag: str) -> Phase:
    setup_times = []
    for _ in range(setups - 1):
        server, clients, elapsed = _setup(root, workload, traced, tag)
        setup_times.append(elapsed)
        for client in clients:
            client.close()
        server.stop()
    server, clients, elapsed = _setup(root, workload, traced, tag)
    setup_times.append(elapsed)
    logs = [ClientLog() for _ in clients]
    try:
        barrier = threading.Barrier(CLIENTS + 1)
        window: dict[str, float] = {}
        threads = [threading.Thread(
            target=_drive, name=f"bench-client-{i}",
            args=(i, client, workload, server, logs[i], barrier, window))
            for i, client in enumerate(clients)]
        for thread in threads:
            thread.start()
        try:
            barrier.wait(timeout=REPLY_TIMEOUT * 4)  # warm-up done
            before = server.counters()
            stats_before = server.request({"op": "stats"})
            if traced:
                server.request({"op": "trace", "on": True})
            cpu_started = server.cpu_s()
            started = time.perf_counter()
            window["deadline"] = started + seconds
            barrier.wait(timeout=REPLY_TIMEOUT * 4)
        except threading.BrokenBarrierError:
            pass
        for thread in threads:
            thread.join()
        if not window:
            raise RuntimeError("clients failed before the window: "
                               + "; ".join(m for log in logs
                                           for m in log.failures))
        cpu_s = server.cpu_s() - cpu_started
        ended = max([started] + [f.received for log in logs
                                 for f in log.frames])
        if traced:
            server.request({"op": "trace", "on": False})
        for client in clients:
            client.close()
        server.wait_sessions_closed()
        after = server.counters()
        stats_after = server.request({"op": "stats"})
        events = []
        if traced:
            trace_path = OUT_DIR / f"trace_{tag}.json"
            server.request({"op": "dump", "path": str(trace_path)})
            events = json.loads(trace_path.read_text())["traceEvents"]
    finally:
        for client in clients:
            client.close()
        server.stop()
    return Phase(statistics.median(cpu for cpu, _ in setup_times),
                 statistics.median(wall for _, wall in setup_times),
                 ended - started, cpu_s, logs,
                 before, after, stats_before, stats_after, events)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class Reference:
    """In-process renders of the workload's program: the pixels a frame of
    a given view and data state must have."""

    def __init__(self, workload, database):
        from repro.core.scenarios import FIGURES
        from workloads import Toggler

        self.workload = workload
        self.scenario = FIGURES[workload.program](database)
        self.toggler = Toggler(database)
        self._cache: dict = {}

    def __call__(self, view, phase: int):
        key = (view, phase)
        if key not in self._cache:
            update = self.workload.visible_update
            if update is not None and self.toggler.flipped(update) != phase:
                self.toggler.toggle(update)
            self.workload.apply_view(self.scenario.session, view)
            canvas = self.scenario.window().render(cull=True)
            self._cache[key] = canvas.pixels.copy()
        return self._cache[key]


def check_phase(phase: Phase, workload, reference,
                seed: int) -> tuple[list[str], list[str]]:
    """(failed operations, run-level problems) of one phase.  Failed
    operations are error replies, timeouts and frames that fail a check."""
    failed = list(phase.failures)
    frames = phase.frames
    if workload.pixel_sample is None:
        sample = None
    else:
        rng = random.Random(f"{workload.name}:check:{seed}")
        sample = set(rng.sample(range(len(frames)),
                                min(workload.pixel_sample, len(frames))))
    toggles = (phase.toggles(workload.visible_update.table)
               if workload.visible_update is not None else ())
    failed += check_frames(frames, workload.width, workload.height,
                           reference, sample, toggles)
    problems = []
    dropped = _counter_delta(phase.after, phase.before,
                             "server.frames_dropped")
    if dropped:
        problems.append(f"{dropped:.0f} frames dropped under request/reply "
                        "pacing")
    if workload.visible_update is not None:
        # Otherwise a stale frame would pass the pixel check unseen.
        for view in {frame.view for frame in frames}:
            if (reference(view, 0) == reference(view, 1)).all():
                problems.append(f"view {view}: the visible update does not "
                                "change its pixels")
    for table in {u.table for u in workload.updates}:
        if not phase.toggles(table):
            problems.append(f"no update applied to {table}")
    return failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(phase: Phase) -> dict:
    cpu = phase.frame_cpu_ms
    if len(cpu) < MIN_FRAMES:
        # A slow host, not a wrong program: warn, but keep the result.
        sys.stderr.write(f"perfbench: warning: only {len(cpu)} frames "
                         f"in the window; the p95 wants {MIN_FRAMES}\n")
    return {
        "setup_s": _metric(phase.setup_s, "s"),
        "frame_cpu_p50_ms": _metric(quantile(cpu, 0.5), "ms"),
        "frame_cpu_p95_ms": _metric(quantile(cpu, 0.95), "ms"),
        "cpu_ms_per_frame": _metric(
            phase.cpu_s * 1000.0 / max(len(cpu), 1), "ms"),
        "bytes_per_frame": _metric(
            mean([len(f.data) for f in phase.frames]), "B"),
        "peak_rss_mb": _metric(phase.stats_after["maxrss_kb"] / 1024.0,
                               "MiB"),
    }


def per_layer(workload, plain: Phase, traced: Phase,
              failed: int, attempted: int) -> tuple[dict, list[str], str]:
    """The per-layer metrics, the self-check violations and the printed
    layer table."""
    index = TraceIndex(traced.events)
    rows = []
    for frame in traced.frames:
        latency = (frame.received - frame.sent) * 1000.0
        layers = index.frame_layers(frame.trace_id, latency)
        if layers is not None:
            rows.append(layers)
    rasterized_rows = [f for f in rows if f["rasterized"]]
    frames = len(traced.frames)

    def delta(name: str) -> float:
        return _counter_delta(traced.after, traced.before, name)

    kind_of = {e["args"]["request"]: e["args"]["kind"]
               for e in index.named("server.execute")}
    queue_wait = [f["queue_wait"] for f in rows]
    session_ms: dict[str, list[float]] = {}
    for event in index.named("session.execute"):
        kind = kind_of.get(event["args"]["request"])
        if kind is not None:
            session_ms.setdefault(kind, []).append(event["dur"] / 1000.0)
    viewer = index.named("viewer.render")
    png = index.named("render.png")
    # Engine work per request: the outermost output_of spans only.
    engine_ms: dict[str, float] = {}
    engine_calls = 0
    for event in index.named("dataflow.output_of"):
        engine_calls += 1
        parent = index.by_id.get(event["args"]["parent"])
        if parent is None or parent["name"] != "dataflow.output_of":
            request = event["args"]["request"]
            engine_ms[request] = engine_ms.get(request, 0.0) + (
                event["dur"] / 1000.0)
    location_calls = sum(e["args"].get("location_calls", 0)
                         for e in index.events)
    updates = index.named("dbms.update")
    lookups = traced.stats_after["frame_cache_lookups"]
    hits = traced.stats_after["frame_cache_hits"]
    result_hits, result_misses = delta("cache.hit"), delta("cache.miss")
    rasterized = max(delta("render.frames"), 1.0)
    considered = delta("render.tuples_considered")
    traced_p50 = quantile(traced.latencies_ms, 0.5)
    traced_cpu_p50 = quantile(traced.frame_cpu_ms, 0.5)
    plain_cpu_p50 = quantile(plain.frame_cpu_ms, 0.5)
    metrics = {
        "server.queue_wait_ms.p50": (quantile(queue_wait, 0.5), "ms"),
        "server.queue_wait_ms.p95": (quantile(queue_wait, 0.95), "ms"),
        "server.transport_ms.p50": (
            quantile([f["transport"] for f in rows], 0.5), "ms"),
        "protocol.decode_ms": (quantile(
            [e["dur"] / 1000.0 for e in index.named("protocol.decode")],
            0.5), "ms"),
        "protocol.encode_ms": (quantile(
            [e["dur"] / 1000.0 for e in index.named("protocol.encode")],
            0.5), "ms"),
        "protocol.frame_cache_hit_ratio": (hits / lookups if lookups else 0.0,
                                           "ratio"),
        "protocol.frame_cache_lookups": (lookups, "count"),
        "viewer.render_ms": (quantile([e["dur"] / 1000.0 for e in viewer],
                                      0.5), "ms"),
        "render.raster_self_ms": (quantile(
            [index.self_ms(e) for e in viewer], 0.5), "ms"),
        "render.text_ms": (quantile([f["text"] for f in rasterized_rows],
                                    0.5), "ms"),
        "render.png_ms": (quantile([e["dur"] / 1000.0 for e in png], 0.5),
                          "ms"),
        "render.png_bytes": (mean([e["args"]["bytes"] for e in png]), "B"),
        "render.draw_ops": (delta("render.draw_ops") / rasterized, "count"),
        "render.tuples_considered": (considered / rasterized, "count"),
        "render.tuples_rendered": (delta("render.tuples_rendered")
                                   / rasterized, "count"),
        "render.cull_ratio": (
            1.0 - delta("render.tuples_rendered") / considered
            if considered else 0.0, "ratio"),
        "display.location_ms": (quantile(
            [f["location"] for f in rasterized_rows], 0.5), "ms"),
        "display.location_calls": (location_calls / rasterized, "count"),
        "dataflow.output_of_ms": (quantile(list(engine_ms.values()), 0.5),
                                  "ms"),
        "dataflow.output_of_calls": (engine_calls / max(frames, 1), "count"),
        "dbms.result_cache_hit_ratio": (
            result_hits / (result_hits + result_misses)
            if result_hits + result_misses else 0.0, "ratio"),
        "dbms.update_ms": (quantile([e["dur"] / 1000.0 for e in updates],
                                    0.5), "ms"),
        "dbms.update_calls": (len(updates), "count"),
        "obs.spans_per_request": (
            (traced.stats_after["spans"] - traced.stats_before["spans"])
            / max(delta("server.commands"), 1.0), "count"),
        "bench.trace_overhead_pct": (
            (traced_cpu_p50 - plain_cpu_p50) / plain_cpu_p50 * 100.0, "%"),
        "bench.unattributed_ms": (
            quantile([f["unattributed"] for f in rows], 0.5), "ms"),
        "ops_failed_ratio": (failed / attempted, "ratio"),
        # Wall-clock frame times of the plain half, as the client saw them.
        "wall.frame_p50_ms": (quantile(plain.latencies_ms, 0.5), "ms"),
        "wall.frame_p95_ms": (quantile(plain.latencies_ms, 0.95), "ms"),
        "wall.frames_per_s": (len(plain.frames) / plain.seconds, "1/s"),
        "wall.setup_s": (plain.setup_wall_s, "s"),
    }
    for kind in ("render", "pan_to", "set_elevation"):
        metrics[f"session.execute_ms.{kind}"] = (
            quantile(session_ms.get(kind, []), 0.5), "ms")
    for name in METRIC_COUNTERS:
        metrics[f"metrics.{name}_per_frame"] = (
            delta(name) / max(frames, 1), "count")

    table = layer_table(rows)
    violations = []
    if len(rows) < frames:
        violations.append(f"{frames - len(rows)} of {frames} traced frames "
                          "lack a complete span set")
    ratio = metrics["protocol.frame_cache_hit_ratio"][0]
    if workload.name == "explore_fig4":
        if ratio > 0.01:
            violations.append(f"frame-cache hit ratio {ratio:.3f}, expected "
                              "~0 on never-repeating views")
        share = metrics["render.png_ms"][0] / traced_p50
        if share < 0.1:
            violations.append(f"png encode is {share:.1%} of the frame, "
                              "expected a material share")
    elif workload.name == "shared_fig4_writes":
        if not 0.0 < ratio < 1.0:
            violations.append(f"frame-cache hit ratio {ratio:.3f}, expected "
                              "strictly between 0 and 1")
    elif workload.name == "series_fig11":
        layers = {row: p50 for row, p50, _ in table
                  if row != "bench.unattributed"}
        largest = max(layers, key=layers.get)
        if largest != "display.location":
            violations.append(f"largest layer is {largest}, expected "
                              "display.location")
    printed = format_table(table, len(rows))
    return ({name: _metric(value, unit)
             for name, (value, unit) in sorted(metrics.items())},
            violations, printed)


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Tioga-2 interactive frame-latency benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_repro(root)
    from repro.data.weather import build_weather_database
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)}")
    shutil.rmtree(OUT_DIR / "slowreq", ignore_errors=True)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    database = build_weather_database()
    workload = WORKLOADS[args.workload](args.seed, database)
    reference = Reference(workload, database)
    # One set of files per workload and mode; each run replaces the last.
    tag = f"{workload.name}_{args.trace}"

    if args.trace:
        half = args.seconds / 2.0
        phases = [run_phase(root, workload, half, False, 1, tag + "_plain"),
                  run_phase(root, workload, half, True, 1, tag)]
    else:
        phases = [run_phase(root, workload, args.seconds, False, SETUPS,
                            tag)]
    failures, problems = [], []
    for phase in phases:
        phase_failures, phase_problems = check_phase(
            phase, workload, reference, args.seed)
        failures += phase_failures
        problems += phase_problems
    attempted = sum(phase.attempted for phase in phases)
    failed = len(failures)
    problems = failures + problems

    if args.trace:
        metrics, violations, table = per_layer(workload, *phases, failed,
                                               attempted)
        print(table)
        problems += violations
    else:
        metrics = end_to_end(phases[0])
    for problem in problems[:20]:
        sys.stderr.write(f"perfbench: {problem}\n")
    for name, metric in metrics.items():
        print(f"{name:<36}{metric['value']:>14.4f} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
