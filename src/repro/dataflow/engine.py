"""Lazy, demand-driven evaluation of boxes-and-arrows programs.

"The semantics of Tioga-2 programs is similar to the semantics of programs in
dataflow languages.  When data is present on all of a box's inputs, the box
can 'fire', producing results on one or more outputs.  Execution is lazy,
evaluating only what is required to produce the demanded visualization."
(Section 2)

The engine pulls: demanding any output walks upstream, firing only the boxes
on the demanded path, each at most once per change.  Results are memoized per
box and keyed by a structural signature — the box's own version (bumped on
parameter edits), its extra signature (e.g. the source table's version), and
the signatures of its inputs — so an incremental program edit recomputes only
the affected suffix of the graph.  This memoization is what makes "no
distinction between constructing, modifying, and using a program" (§1.2)
affordable; the ablation benchmarks measure it directly.
"""

from __future__ import annotations

from typing import Any

from repro.dataflow.box import Box
from repro.dataflow.graph import Program
from repro.dbms.catalog import Database
from repro.dbms.columnar import ColumnarConfig, resolve_columnar_config
from repro.dbms.plan import LazyRowSet, PlanNode
from repro.dbms.plan_parallel import (
    ParallelConfig,
    execute_plan,
    resolve_config,
)
from repro.display.displayable import Composite, DisplayableRelation, Group
from repro.errors import GraphError, StaticAnalysisError, TiogaError
from repro.obs.lineage import (
    LineageConfig,
    lineage_capture,
    resolve_lineage_config,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import current_tracer

__all__ = ["FireContext", "EngineStats", "Engine"]


def _force_value(
    value: Any,
    parallel: ParallelConfig | None,
    columnar: ColumnarConfig | None,
) -> Any:
    """Materialize any lazily-streamed row sets inside a demanded value.

    Boxes emit plan fragments wrapped in :class:`LazyRowSet`; demand is the
    materialization boundary, so data-dependent evaluation errors surface
    here — from ``output_of``/``evaluate_all`` — exactly where they surfaced
    when boxes materialized eagerly.  With no parallel or columnar config a
    lazy set is forced as built; otherwise it runs through
    :func:`_force_lazy`.
    """
    if isinstance(value, LazyRowSet):
        if parallel is None and columnar is None:
            value.force()
        else:
            _force_lazy(value, parallel, columnar)
    elif isinstance(value, DisplayableRelation):
        _force_value(value.rows, parallel, columnar)
    elif isinstance(value, Composite):
        for entry in value.entries:
            _force_value(entry.relation, parallel, columnar)
    elif isinstance(value, Group):
        for __, member in value.members:
            _force_value(member, parallel, columnar)
    return value


def _force_lazy(
    lazy: LazyRowSet,
    parallel: ParallelConfig | None,
    columnar: ColumnarConfig | None,
) -> None:
    """Materialize one lazy row set through :func:`execute_plan`.

    A cache hit is adopted (the plan never runs) and the optimized plan
    replaces the original before forcing, so EXPLAIN shows what ran; the
    hit/miss lands in ``lazy.cache_status``.  A plan that has already
    started streaming (a downstream consumer pulled through a CacheNode
    first) is forced as is: rewriting or adopting into a half-filled shared
    buffer would corrupt other consumers.
    """
    if lazy.has_started:
        lazy.force()
        return

    def run(root: PlanNode) -> tuple:
        if root is not lazy.plan:
            lazy.replace_plan(root)
        return lazy.force()

    rows, __, status = execute_plan(lazy.plan, run, parallel, columnar)
    if status == "hit":
        lazy.adopt(rows)
    if status is not None:
        lazy.cache_status = status


class FireContext:
    """Services available to a firing box."""

    def __init__(self, engine: "Engine", box: Box):
        self.engine = engine
        self.box = box

    @property
    def database(self) -> Database:
        return self.engine.database

    def describe(self) -> str:
        return self.box.describe()


class EngineStats:
    """Firing counters: a thin view over a :class:`MetricsRegistry`.

    All three counter families are attributable per box id: ``fires``,
    ``hits``, and ``misses`` map box id → count.  They are the label dicts
    of the registry counters ``engine.box.fires`` / ``engine.cache.hits`` /
    ``engine.cache.misses`` — same storage, no copying — so anything
    recorded here shows up in registry snapshots and run summaries, and
    ``reset()`` genuinely clears the per-box dicts.  The aggregate
    ``cache_hits``/``cache_misses`` views are kept for callers that predate
    the per-box breakdown.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._fires = self.registry.counter(
            "engine.box.fires", "box firings, labeled by box id"
        )
        self._hits = self.registry.counter(
            "engine.cache.hits", "memo hits, labeled by box id"
        )
        self._misses = self.registry.counter(
            "engine.cache.misses", "memo misses, labeled by box id"
        )

    @property
    def fires(self) -> dict[int, int]:
        return self._fires.values

    @property
    def hits(self) -> dict[int, int]:
        return self._hits.values

    @property
    def misses(self) -> dict[int, int]:
        return self._misses.values

    @property
    def cache_hits(self) -> int:
        return self._hits.total()

    @property
    def cache_misses(self) -> int:
        return self._misses.total()

    def record_fire(self, box_id: int) -> None:
        self._fires.inc(label=box_id)

    def record_hit(self, box_id: int) -> None:
        self._hits.inc(label=box_id)

    def record_miss(self, box_id: int) -> None:
        self._misses.inc(label=box_id)

    def total_fires(self) -> int:
        return self._fires.total()

    def reset(self) -> None:
        self._fires.reset()
        self._hits.reset()
        self._misses.reset()

    def to_dict(self) -> dict[str, Any]:
        """Stable machine-readable form (sorted per-box breakdown)."""
        return {
            "total_fires": self.total_fires(),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "boxes": {
                box_id: {
                    "fires": self.fires.get(box_id, 0),
                    "hits": self.hits.get(box_id, 0),
                    "misses": self.misses.get(box_id, 0),
                }
                for box_id in sorted(
                    set(self.fires) | set(self.hits) | set(self.misses)
                )
            },
        }

    def summary(self) -> str:
        """Multi-line, per-box account of firing and cache behaviour (used
        by ``explain`` and the CLI stats output)."""
        lines = [
            f"EngineStats: {self.total_fires()} fires, "
            f"{self.cache_hits} cache hits, {self.cache_misses} misses"
        ]
        for box_id in sorted(set(self.fires) | set(self.hits) | set(self.misses)):
            lines.append(
                f"  box #{box_id}: fires={self.fires.get(box_id, 0)} "
                f"hits={self.hits.get(box_id, 0)} "
                f"misses={self.misses.get(box_id, 0)}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"EngineStats(fires={self.total_fires()}, hits={self.cache_hits}, "
            f"misses={self.cache_misses})"
        )


class Engine:
    """Evaluates one program against one database.

    With ``preflight=True`` the static checker
    (:func:`repro.analyze.check_program`) runs before the first demand and
    again after any program edit (tracked by the program version), raising
    :class:`StaticAnalysisError` instead of letting a provably broken
    program fail halfway through a firing chain.
    """

    def __init__(
        self,
        program: Program,
        database: Database,
        preflight: bool = False,
        registry: MetricsRegistry | None = None,
        *,
        workers: int | None = None,
        cache: bool | None = None,
        columnar: bool | ColumnarConfig | None = None,
        lineage: bool | LineageConfig | None = None,
    ):
        self.program = program
        self.database = database
        self.stats = EngineStats(registry)
        self.preflight_enabled = preflight
        self._preflight_stamp: tuple | None = None
        # box_id -> (signature, outputs dict)
        self._cache: dict[int, tuple[tuple, dict[str, Any]]] = {}
        # Parallel execution + result-cache config.  With both knobs left
        # None this follows the process default (REPRO_PARALLEL); explicit
        # workers=0/1 with cache=False forces fully serial execution.
        self.parallel = resolve_config(workers, cache)
        # Columnar backend selection: None inherits the process default
        # (REPRO_COLUMNAR), False pins the row backend, True/a config
        # enables per-subtree vectorization.  Rows/order are identical
        # either way (docs/COLUMNAR.md).
        self.columnar = resolve_columnar_config(columnar)
        # Lineage capture: None inherits the process default
        # (REPRO_LINEAGE), False disables, True/a config records
        # output -> input mappings while this engine forces values
        # (docs/OBSERVABILITY.md, "Lineage & why-provenance").
        self.lineage = resolve_lineage_config(lineage)

    def _force(self, value: Any) -> Any:
        """Materialize a demanded value, honoring the execution config."""
        if self.lineage is not None:
            with lineage_capture(self.lineage):
                return _force_value(value, self.parallel, self.columnar)
        return _force_value(value, self.parallel, self.columnar)

    # ------------------------------------------------------------------

    def preflight(self, force: bool = False):
        """Statically check the program; raise on errors, return the report.

        Results are cached per program edit stamp (the program's structural
        version plus every box's parameter version), so demanding many
        outputs of an unchanged program lints once.  Returns ``None`` when
        the cached result is still valid and ``force`` is not set.
        """
        stamp = self._edit_stamp()
        if not force and self._preflight_stamp == stamp:
            return None
        from repro.analyze.checker import check_program

        tracer = current_tracer()
        with tracer.span("engine.preflight", program=self.program.name):
            report = check_program(self.program, self.database)
        if not report.ok:
            raise StaticAnalysisError(
                f"program {self.program.name!r} fails static checks:\n"
                + report.render(),
                report=report,
            )
        self._preflight_stamp = stamp
        return report

    def _edit_stamp(self) -> tuple:
        """Changes whenever the program's structure or any parameter does."""
        return (
            self.program.version,
            tuple((box.box_id, box.version) for box in self.program.boxes()),
        )

    # ------------------------------------------------------------------

    def invalidate(self, box_id: int | None = None) -> None:
        """Drop cached results for one box and everything downstream of it,
        or for the whole program."""
        if box_id is None:
            self._cache.clear()
        else:
            self._cache.pop(box_id, None)
            for downstream in self.program.downstream_of(box_id):
                self._cache.pop(downstream, None)

    def output_of(self, box_id: int, port_name: str | None = None) -> Any:
        """Demand one output of a box (the value flowing on that edge).

        With ``port_name`` omitted, the box's single output is demanded —
        this is how a viewer placed "on any edge in a diagram" inspects the
        data flowing along it (§1.1 problem 2, solved per §10).
        """
        if self.preflight_enabled:
            self.preflight()
        box = self.program.box(box_id)
        if port_name is None:
            if len(box.outputs) != 1:
                raise GraphError(
                    f"{box.describe()} has {len(box.outputs)} outputs; "
                    "name the one to demand"
                )
            port_name = box.outputs[0].name
        else:
            box.output_port(port_name)  # validate
        tracer = current_tracer()
        try:
            if not tracer.enabled:
                outputs = self._evaluate_box(box_id, set())
                return self._force(outputs[port_name])
            with tracer.span(
                "engine.demand", box=box_id, type=box.type_name, port=port_name
            ):
                outputs = self._evaluate_box(box_id, set())
                return self._force(outputs[port_name])
        except TiogaError as exc:
            # Black-box telemetry: when a flight recorder is installed, the
            # spans/events leading up to this failure are dumped to JSONL
            # before the error propagates (docs/OBSERVABILITY.md).
            from repro.obs.flightrec import note_engine_error

            note_engine_error(exc, box=box_id, type=box.type_name,
                              port=port_name, program=self.program.name)
            raise

    def inputs_of(self, box_id: int) -> dict[str, Any]:
        """Demand and return all inputs of a box (used by viewers/sinks)."""
        box = self.program.box(box_id)
        values: dict[str, Any] = {}
        for port in box.inputs:
            edge = self.program.edge_into_port(box_id, port.name)
            if edge is None:
                if port.optional:
                    continue
                raise GraphError(
                    f"input {box.describe()}.{port.name} is not connected; "
                    "its result is unavailable for visualization"
                )
            values[port.name] = self.output_of(edge.src_box, edge.src_port)
        return values

    def evaluate_all(self) -> int:
        """Eager evaluation: fire every box in topological order.

        This is the ablation arm for the lazy-vs-eager benchmark; it returns
        the number of boxes evaluated (cached or fired).
        """
        count = 0
        for box_id in self.program.topological_order():
            box = self.program.box(box_id)
            if not _all_required_inputs_connected(self.program, box):
                continue
            if box.outputs:
                outputs = self._evaluate_box(box_id, set())
                for value in outputs.values():
                    self._force(value)
            else:
                self.inputs_of(box_id)
            count += 1
        return count

    # ------------------------------------------------------------------

    def _signature_of(self, box_id: int, visiting: set[int]) -> tuple:
        """Structural cache signature: own version + extras + input sigs."""
        box = self.program.box(box_id)
        parts: list[Any] = [box.type_name, box.version, box.signature(self.database)]
        for port in box.inputs:
            edge = self.program.edge_into_port(box_id, port.name)
            if edge is None:
                parts.append((port.name, None))
            else:
                parts.append(
                    (port.name, edge.src_port,
                     self._signature_of(edge.src_box, visiting))
                )
        return tuple(parts)

    def _evaluate_box(self, box_id: int, visiting: set[int]) -> dict[str, Any]:
        if box_id in visiting:  # pragma: no cover - connect() prevents cycles
            raise GraphError(f"cycle detected at box #{box_id}")
        box = self.program.box(box_id)
        signature = self._signature_of(box_id, visiting)
        tracer = current_tracer()
        cached = self._cache.get(box_id)
        if cached is not None and cached[0] == signature:
            self.stats.record_hit(box_id)
            if tracer.enabled:
                tracer.event("engine.cache.hit", box=box_id,
                             type=box.type_name)
            return cached[1]
        self.stats.record_miss(box_id)
        if not tracer.enabled:
            return self._fire_box(box, box_id, signature, visiting)
        with tracer.span("engine.fire", box=box_id, type=box.type_name):
            return self._fire_box(box, box_id, signature, visiting)

    def _fire_box(
        self, box: Box, box_id: int, signature: tuple, visiting: set[int]
    ) -> dict[str, Any]:
        """Evaluate inputs and fire one box (the cache-miss path).

        Under tracing this whole evaluation — upstream demands included —
        runs inside the box's ``engine.fire`` span, so the span tree mirrors
        the demand-driven firing chain.
        """
        visiting = visiting | {box_id}
        inputs: dict[str, Any] = {}
        for port in box.inputs:
            edge = self.program.edge_into_port(box_id, port.name)
            if edge is None:
                if port.optional:
                    continue
                raise GraphError(
                    f"cannot fire {box.describe()}: input {port.name!r} is "
                    "not connected"
                )
            upstream = self._evaluate_box(edge.src_box, visiting)
            inputs[port.name] = upstream[edge.src_port]

        outputs = box.fire(inputs, FireContext(self, box))
        missing = [port.name for port in box.outputs if port.name not in outputs]
        if missing:
            raise GraphError(
                f"{box.describe()} fired without producing outputs: {missing}"
            )
        self.stats.record_fire(box_id)
        self._cache[box_id] = (signature, outputs)
        return outputs


def _all_required_inputs_connected(program: Program, box: Box) -> bool:
    return all(
        port.optional or program.edge_into_port(box.box_id, port.name) is not None
        for port in box.inputs
    )
