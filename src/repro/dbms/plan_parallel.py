"""Partition-parallel plan execution and a process-wide result cache.

Two mechanisms make repeated viewer renders cheap (§6's pan/zoom/slider
loop re-runs queries on every gesture):

* **Morsel parallelism.**  :func:`parallelize_plan` rewrites a plan so that
  chains of streaming unary operators (Restrict / Project / Rename, plus a
  seeded Sample directly above the leaf) over a partitionable leaf run
  per-morsel on a shared :class:`~concurrent.futures.ThreadPoolExecutor`
  (:class:`ParallelMapNode`), and hash joins build and probe their table in
  morsels (:class:`ParallelHashJoinNode`).  Results are merged in morsel
  order, so output order is **identical to serial execution**, tuple for
  tuple.  Order-sensitive operators (OrderBy, GroupBy, Distinct, Limit) and
  non-partitionable sources fall back to serial execution of that node;
  their inputs may still be parallel below.

* **Result caching.**  :class:`ResultCache` memoizes materialized plan
  results process-wide, keyed by a structural plan fingerprint plus a
  storage-epoch stamp (:mod:`repro.dbms.relation`, bumped by every
  stored-table mutation including the Section-8 update dialogs).  Slaved
  viewers and repeated renders of overlapping extents reuse fragments
  instead of re-running subplans.  When the plan's read set is known
  (:func:`plan_read_set`) the stamp is a per-table epoch snapshot, so
  mutating one table only invalidates the entries that actually read it;
  otherwise the global epoch invalidates on any update.

:func:`execute_plan` is where the two meet: every plan the engine forces
or the viewer culls under an active config goes through its cache probe,
backend selection (:func:`repro.dbms.plan_rewrite.optimize_plan`) and
cache store.

Fingerprints identify leaves by source-object identity.  That is sound
because cache entries *pin* strong references to their sources (no id
reuse while the entry lives), and productive because ``Table.snapshot()``
memoizes per version, so independent plans over the same stored table
share one leaf object.

Both mechanisms are off unless a :class:`ParallelConfig` is active — via
``Engine(workers=N)``, the ``REPRO_PARALLEL`` environment variable, or
:func:`set_default_config`.
"""

from __future__ import annotations

import os
import random
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterator, Sequence

from repro.dbms.columnar import ColumnBatch, ColumnarConfig, cached_batch
from repro.dbms.expr_compile import VectorFallback, compile_predicate
from repro.dbms.plan import (
    EFFECT_PARALLEL,
    EFFECT_PURE,
    EFFECT_SOURCE,
    CacheNode,
    ColumnarDistinctNode,
    ColumnarGroupByNode,
    ColumnarHashJoinNode,
    ColumnarLimitNode,
    ColumnarOrderByNode,
    ColumnarProjectNode,
    ColumnarRenameNode,
    ColumnarRestrictNode,
    CrossProductNode,
    DistinctNode,
    GroupByNode,
    HashJoinNode,
    LazyRowSet,
    LimitNode,
    NestedLoopJoinNode,
    OrderByNode,
    PlanNode,
    ProjectNode,
    RenameNode,
    RestrictNode,
    SampleNode,
    ScanNode,
    ThetaJoinNode,
    ToColumnsNode,
    ToRowsNode,
    UnionNode,
    concat_rows,
    declare_effect,
    declared_effect,
    plan_annotator,
    _lineage_store,
)
from repro.dbms.plan_rewrite import optimize_plan
from repro.dbms.relation import RowSet, storage_epoch, table_epoch, table_epochs
from repro.dbms.tuples import Tuple
from repro.obs.lineage import active_lineage
from repro.obs.metrics import global_registry
from repro.obs.trace import current_tracer

__all__ = [
    "ParallelConfig",
    "config_from_env",
    "default_config",
    "set_default_config",
    "install_from_env",
    "resolve_config",
    "ParallelMapNode",
    "ParallelHashJoinNode",
    "parallelize_plan",
    "plan_fingerprint",
    "plan_read_set",
    "ResultCache",
    "result_cache",
    "execute_plan",
    "storage_epoch",
]


DEFAULT_WORKERS = 4
DEFAULT_MORSEL_SIZE = 2048
"""Rows per morsel.  Large enough that per-morsel dispatch overhead is
amortized; small enough that a handful of morsels exist for typical
interactive relations."""


class ParallelConfig:
    """How parallel a plan execution should be, and whether results cache.

    ``workers <= 1`` disables morsel parallelism but (with ``cache=True``)
    keeps result reuse — useful for measuring the two mechanisms apart.
    """

    __slots__ = ("workers", "cache", "morsel_size", "min_partition_rows")

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        cache: bool = True,
        morsel_size: int = DEFAULT_MORSEL_SIZE,
        min_partition_rows: int | None = None,
    ):
        self.workers = max(1, int(workers))
        self.cache = bool(cache)
        self.morsel_size = max(1, int(morsel_size))
        if min_partition_rows is None:
            min_partition_rows = 2 * self.morsel_size
        self.min_partition_rows = max(2, int(min_partition_rows))

    @property
    def parallel(self) -> bool:
        """True when morsel parallelism (not just caching) is on."""
        return self.workers >= 2

    def __repr__(self) -> str:
        return (
            f"ParallelConfig(workers={self.workers}, cache={self.cache}, "
            f"morsel_size={self.morsel_size})"
        )


def config_from_env(environ: dict[str, str] | None = None) -> ParallelConfig | None:
    """Build a config from ``REPRO_PARALLEL`` (unset/empty/"0" → None).

    ``REPRO_PARALLEL=1`` means the default worker count; any other integer
    is the worker count itself.  ``REPRO_PARALLEL_CACHE=0`` disables the
    result cache; ``REPRO_PARALLEL_MORSEL`` overrides the morsel size.
    """
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_PARALLEL", "")
    if raw in ("", "0"):
        return None
    try:
        workers = int(raw)
    except ValueError:
        workers = DEFAULT_WORKERS
    if workers == 1:
        workers = DEFAULT_WORKERS
    cache = env.get("REPRO_PARALLEL_CACHE", "1") != "0"
    try:
        morsel = int(env.get("REPRO_PARALLEL_MORSEL", str(DEFAULT_MORSEL_SIZE)))
    except ValueError:
        morsel = DEFAULT_MORSEL_SIZE
    return ParallelConfig(workers=workers, cache=cache, morsel_size=morsel)


_DEFAULT_CONFIG: ParallelConfig | None = None


def default_config() -> ParallelConfig | None:
    """The process-wide default config (None → fully serial, no caching)."""
    return _DEFAULT_CONFIG


def set_default_config(config: ParallelConfig | None) -> ParallelConfig | None:
    """Install the process-wide default; returns the previous value."""
    global _DEFAULT_CONFIG
    previous = _DEFAULT_CONFIG
    _DEFAULT_CONFIG = config
    return previous


def install_from_env() -> None:
    """Adopt ``REPRO_PARALLEL`` as the process default (import-time hook)."""
    config = config_from_env()
    if config is not None:
        set_default_config(config)


def resolve_config(
    workers: int | None = None, cache: bool | None = None
) -> ParallelConfig | None:
    """Resolve explicit ``Engine(workers=, cache=)`` knobs over the default.

    With both None, the process default (env-driven) applies unchanged.
    Explicit ``workers=0``/``workers=1`` with caching off resolves to fully
    serial (None).
    """
    base = default_config()
    if workers is None and cache is None:
        return base
    resolved_workers = (
        workers if workers is not None else (base.workers if base else 1)
    )
    if cache is not None:
        resolved_cache = cache
    elif base is not None:
        resolved_cache = base.cache
    else:
        resolved_cache = resolved_workers >= 2
    if resolved_workers <= 1 and not resolved_cache:
        return None
    morsel = base.morsel_size if base else DEFAULT_MORSEL_SIZE
    return ParallelConfig(
        workers=resolved_workers, cache=resolved_cache, morsel_size=morsel
    )


# ---------------------------------------------------------------------------
# Shared executors
# ---------------------------------------------------------------------------

_EXECUTORS: dict[int, ThreadPoolExecutor] = {}
_EXECUTOR_LOCK = threading.Lock()


def executor_for(workers: int) -> ThreadPoolExecutor:
    """One shared pool per worker count; threads persist across plans."""
    with _EXECUTOR_LOCK:
        pool = _EXECUTORS.get(workers)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix=f"repro-morsel-{workers}"
            )
            _EXECUTORS[workers] = pool
        return pool


def shutdown_executors() -> None:
    """Tear down all shared pools (test isolation)."""
    with _EXECUTOR_LOCK:
        for pool in _EXECUTORS.values():
            pool.shutdown(wait=True, cancel_futures=True)
        _EXECUTORS.clear()


# ---------------------------------------------------------------------------
# Plan fingerprints
# ---------------------------------------------------------------------------


class _Unfingerprintable(Exception):
    """The plan's result is not a pure function of cacheable state."""


def plan_fingerprint(node: PlanNode) -> tuple[tuple, tuple] | None:
    """A structural key identifying this plan's result, or None.

    Returns ``(key, pins)`` where ``pins`` are the leaf source objects the
    key refers to by identity — a cache entry must hold them strongly so the
    ids cannot be reused while the entry lives.  Returns None for plans
    whose output is not reproducible (an unseeded Sample) or that contain
    operators this module does not know to be pure.
    """
    pins: list[Any] = []
    try:
        key = _fingerprint(node, pins)
    except _Unfingerprintable:
        return None
    return key, tuple(pins)


def _fingerprint(node: PlanNode, pins: list[Any]) -> tuple:
    if isinstance(node, ParallelMapNode):
        # Same result as its serial chain, by construction.
        return _fingerprint(node.children[0], pins)
    if isinstance(node, (ToColumnsNode, ToRowsNode)):
        # Adapters change representation, never content.
        return _fingerprint(node.children[0], pins)
    # Columnar kernels produce the same rows as their serial siblings, so
    # they share the serial tags — cache keys are backend-independent and
    # a result computed on either backend serves both.
    if isinstance(node, ColumnarRestrictNode):
        return ("restrict", str(node.predicate),
                _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarProjectNode):
        return ("project", tuple(node._names),
                _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarRenameNode):
        return ("rename", node.mapping, _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarLimitNode):
        return ("limit", node._count, _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarOrderByNode):
        return ("orderby", tuple(node._names), node._descending,
                _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarDistinctNode):
        return ("distinct", _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarGroupByNode):
        return ("groupby", tuple(node._keys), tuple(node._aggregations),
                _fingerprint(node.children[0], pins))
    if isinstance(node, ColumnarHashJoinNode):
        return ("equijoin", node._left_key, node._right_key,
                _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    if isinstance(node, ScanNode):
        pins.append(node._source)
        return ("scan", id(node._source))
    if isinstance(node, CacheNode):
        # A LazyRowSet's value is a pure function of its plan, which bottoms
        # out at immutable snapshot RowSets — so fingerprint *through* the
        # memoization boundary.  Two engines layering identical box pipelines
        # over the same table snapshot then produce the same key, which is
        # what lets slaved viewers share one materialization.
        return ("lazy", _fingerprint(node._source.plan, pins))
    if isinstance(node, RestrictNode):
        return ("restrict", str(node.predicate),
                _fingerprint(node.children[0], pins))
    if isinstance(node, ProjectNode):
        return ("project", tuple(node._names),
                _fingerprint(node.children[0], pins))
    if isinstance(node, RenameNode):
        return ("rename", node.mapping, _fingerprint(node.children[0], pins))
    if isinstance(node, SampleNode):
        if node._seed is None:
            raise _Unfingerprintable("unseeded sample")
        return ("sample", node._probability, node._seed,
                _fingerprint(node.children[0], pins))
    if isinstance(node, LimitNode):
        return ("limit", node._count, _fingerprint(node.children[0], pins))
    if isinstance(node, OrderByNode):
        return ("orderby", tuple(node._names), node._descending,
                _fingerprint(node.children[0], pins))
    if isinstance(node, DistinctNode):
        return ("distinct", _fingerprint(node.children[0], pins))
    if isinstance(node, GroupByNode):
        return ("groupby", tuple(node._keys), tuple(node._aggregations),
                _fingerprint(node.children[0], pins))
    if isinstance(node, UnionNode):
        return ("union", _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    if isinstance(node, CrossProductNode):
        return ("cross", _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    if isinstance(node, (HashJoinNode, NestedLoopJoinNode)):
        # Both equi-join strategies emit the same rows in the same order.
        return ("equijoin", node._left_key, node._right_key,
                _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    if isinstance(node, ThetaJoinNode):
        return ("thetajoin", node._source,
                _fingerprint(node.children[0], pins),
                _fingerprint(node.children[1], pins))
    raise _Unfingerprintable(type(node).__name__)


def plan_read_set(node: PlanNode) -> frozenset[str] | None:
    """The named stored tables this plan reads, or None if unknowable.

    Walks the plan the same way :func:`plan_fingerprint` does: through
    :class:`ParallelMapNode` templates and :class:`CacheNode` memoization
    boundaries down to the scan leaves.  Every leaf must be a *named*
    scan for the read set to be known — an anonymous leaf (or a custom
    node with no children) returns None, and callers fall back to the
    global storage epoch.
    """
    names: set[str] = set()
    if _read_set(node, names):
        return frozenset(names)
    return None


def _read_set(node: PlanNode, names: set[str]) -> bool:
    if isinstance(node, ScanNode):
        if node._name is None:
            return False
        names.add(node._name)
        return True
    if isinstance(node, CacheNode):
        return _read_set(node._source.plan, names)
    if not node.children:
        return False
    return all(_read_set(child, names) for child in node.children)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


def _epoch_fresh(epoch: int | dict[str, int]) -> bool:
    """Is a cache entry computed at ``epoch`` still current?

    An int is a global-epoch stamp (legacy / unknown read set); a dict maps
    table name -> per-table epoch at computation time and stays fresh as
    long as none of *those* tables mutated.
    """
    if isinstance(epoch, dict):
        return all(table_epoch(name) == value
                   for name, value in epoch.items())
    return epoch == storage_epoch()


class ResultCache:
    """Process-wide LRU of materialized plan results.

    Keys are ``(plan fingerprint, storage epoch)``-equivalent: the epoch
    stamp a result was computed at is stored with the entry, and a lookup
    only hits while that stamp is fresh (:func:`_epoch_fresh`).  A stamp is
    either the global storage epoch — any mutation anywhere invalidates —
    or, when the caller derived the plan's read set
    (:func:`plan_read_set`), a per-table epoch snapshot, so only mutations
    of the tables the plan actually read invalidate the entry.  Stale
    entries can never be served; they are evicted on the next touch.
    Entries pin their leaf source objects (see :func:`plan_fingerprint`)
    and may carry opaque ``meta`` for the caller (e.g. per-node counters to
    restore on a hit).
    """

    def __init__(self, max_entries: int = 256, max_rows: int = 500_000):
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self.max_entries = max_entries
        self.max_rows = max_rows
        registry = global_registry()
        self._hits = registry.counter(
            "cache.hit", "result-cache lookups served from memory")
        self._misses = registry.counter(
            "cache.miss", "result-cache lookups that ran the plan")
        self._evictions = registry.counter(
            "cache.evict", "result-cache entries dropped (LRU or stale)")

    def lookup(self, key: tuple) -> tuple[tuple[Tuple, ...], Any] | None:
        """Return ``(rows, meta)`` on a fresh hit, else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                rows, meta, _pins, epoch = entry
                if _epoch_fresh(epoch):
                    self._entries.move_to_end(key)
                    self._hits.inc()
                    return rows, meta
                del self._entries[key]
                self._evictions.inc()
            self._misses.inc()
            return None

    def store(
        self,
        key: tuple,
        rows: Sequence[Tuple],
        pins: tuple,
        epoch: int | dict[str, int],
        meta: Any = None,
    ) -> bool:
        """Insert a result computed at ``epoch``; refuses stale results.

        ``epoch`` must be the epoch stamp read *before* the plan ran — the
        global epoch, or a :func:`repro.dbms.relation.table_epochs`
        snapshot of the plan's read set.  If a relevant mutation landed
        mid-execution the rows reflect a snapshot no longer current and
        must not be cached.
        """
        if not _epoch_fresh(epoch):
            return False
        if len(rows) > self.max_rows:
            return False
        with self._lock:
            self._entries[key] = (tuple(rows), meta, pins, epoch)
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions.inc()
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int | float]:
        return {
            "entries": len(self._entries),
            "hits": self._hits.total(),
            "misses": self._misses.total(),
            "evictions": self._evictions.total(),
        }


_RESULT_CACHE: ResultCache | None = None
_RESULT_CACHE_LOCK = threading.Lock()


def result_cache() -> ResultCache:
    """The process-wide result cache (created on first use)."""
    global _RESULT_CACHE
    if _RESULT_CACHE is None:
        with _RESULT_CACHE_LOCK:
            if _RESULT_CACHE is None:
                _RESULT_CACHE = ResultCache()
    return _RESULT_CACHE


def execute_plan(
    plan: PlanNode,
    run: Callable[[PlanNode], Sequence[Tuple]],
    config: ParallelConfig | None,
    columnar: ColumnarConfig | None = None,
    meta: Callable[[], Any] | None = None,
) -> tuple[Sequence[Tuple], Any, str | None]:
    """Run one not-yet-started plan through the result cache and backend
    selection; returns ``(rows, meta, status)``.

    With caching on and a fingerprintable plan, a fresh cache entry is
    returned as ``(rows, stored meta, "hit")`` without running anything.
    Otherwise the epoch stamp is read *before* execution — per table when
    the read set is known, the global epoch when not — the plan goes
    through :func:`~repro.dbms.plan_rewrite.optimize_plan`, ``run``
    executes the optimized root, and the rows are stored with ``meta()``
    (evaluated after the run); status is "miss", or None when the result
    was not cacheable.  Fingerprints are taken on the pre-rewrite plan and
    the rewrites are backend-transparent, so row, columnar, and parallel
    executions of one logical plan share entries.
    """
    key = None
    if config is not None and config.cache:
        fingerprint = plan_fingerprint(plan)
        if fingerprint is not None:
            key, pins = fingerprint
            cached = result_cache().lookup(key)
            if cached is not None:
                rows, stored_meta = cached
                return rows, stored_meta, "hit"
            tables = plan_read_set(plan)
            epoch = (table_epochs(tables) if tables is not None
                     else storage_epoch())
    root, __ = optimize_plan(plan, parallel=config, columnar=columnar)
    rows = run(root)
    if key is None:
        return rows, None, None
    result_cache().store(key, rows, pins, epoch,
                         meta=None if meta is None else meta())
    return rows, None, "miss"


# ---------------------------------------------------------------------------
# Parallel operators
# ---------------------------------------------------------------------------


def _morsels(rows: Sequence[Tuple], size: int) -> list[Sequence[Tuple]]:
    return [rows[start:start + size] for start in range(0, len(rows), size)]


def _rebuilder(template: PlanNode) -> Callable[[PlanNode], PlanNode]:
    """A factory cloning one streaming unary operator over a new child."""
    if isinstance(template, RestrictNode):
        return lambda child: RestrictNode(
            child, template.predicate, template.alias)
    if isinstance(template, ProjectNode):
        return lambda child: ProjectNode(child, template._names)
    if isinstance(template, RenameNode):
        old, new = template.mapping
        return lambda child: RenameNode(child, old, new)
    raise TypeError(f"operator {template.label} is not morsel-parallel")


def _leaf_rows(leaf: PlanNode) -> Sequence[Tuple]:
    if isinstance(leaf, ScanNode):
        source = leaf._source
        return source.rows if isinstance(source, RowSet) else tuple(source)
    if isinstance(leaf, CacheNode):
        return leaf._source.force()
    raise TypeError(f"leaf {leaf.label} is not partitionable")


class ParallelMapNode(PlanNode):
    """Run a chain of streaming unary operators per-morsel, in parallel.

    The serial chain stays attached as this node's only child: it is the
    EXPLAIN-visible template, it is what fingerprints describe, and after
    every execution the per-morsel counters are folded back into its nodes
    so rows_in/rows_out totals match a serial run exactly.  Morsel outputs
    are concatenated in morsel (= input) order, so the output sequence is
    identical to the serial chain's.

    A seeded Sample directly above the leaf participates via a precomputed
    keep-mask drawn in one serial pass over the leaf rows — the same stream
    of draws the serial operator makes — then morsels partition the
    surviving rows.

    When a :class:`~repro.dbms.columnar.ColumnarConfig` is supplied and
    every Restrict predicate in the chain vectorizes, each morsel executes
    as a column-batch slice instead of a row loop: the leaf's cached
    columnar conversion is sliced per morsel, compiled mask programs apply
    the restricts, and Project/Rename relabel column references.  A morsel
    that trips a data hazard re-runs on the serial row path
    (``columnar.fallback``).  Output rows, order, and per-template
    counters are identical either way.
    """

    label = "ParallelMap"

    def __init__(
        self,
        chain_root: PlanNode,
        leaf: PlanNode,
        chain: Sequence[PlanNode],
        sample: SampleNode | None,
        config: ParallelConfig,
        columnar: ColumnarConfig | None = None,
    ):
        super().__init__((chain_root,), chain_root.schema)
        self._leaf = leaf
        # Bottom-up templates (nearest the leaf first), excluding the sample.
        self._chain = list(reversed(list(chain)))
        self._builders = [_rebuilder(template) for template in self._chain]
        self._sample = sample
        self._config = config
        #: Hazard proofs that elided guards in the vector chain (EXPLAIN).
        self.proof: str | None = None
        self._vector_chain = (
            self._compile_vector_chain() if columnar is not None else None
        )

    def _compile_vector_chain(self):
        """Per-stage columnar programs, or None if the chain won't pay off.

        Stages mirror ``self._chain`` bottom-up; schemas are threaded
        through Project/Rename so each compiled predicate sees the schema
        its template validated against.  Vectorizing is only worthwhile
        when at least one Restrict compiled — bare Project/Rename chains
        are pure plumbing.
        """
        schema = self._leaf.schema
        stages: list[tuple] = []
        compiled_any = False
        annotator = plan_annotator()
        proofs: list[str] = []
        for template in self._chain:
            if isinstance(template, RestrictNode):
                hazards = None
                if annotator is not None:
                    hazards = annotator(
                        template.predicate, template.children[0]
                    )
                    if hazards is not None and len(hazards):
                        proofs.append(hazards.proof_text())
                compiled = compile_predicate(
                    template.predicate, schema, hazards=hazards
                )
                if compiled is None:
                    return None
                stages.append(("restrict", compiled))
                compiled_any = True
            elif isinstance(template, ProjectNode):
                schema = schema.project(template._names)
                stages.append(("project", list(template._names), schema))
            else:
                old, new = template.mapping
                schema = schema.rename(old, new)
                stages.append(("rename", (old, new), schema))
        if not compiled_any:
            return None
        if proofs:
            self.proof = "; ".join(proofs)
        return stages

    @property
    def parallel_info(self) -> dict[str, Any]:
        """EXPLAIN annotation payload."""
        return {
            "workers": self._config.workers,
            "morsel_size": self._config.morsel_size,
            "ops": [template.label for template in self._chain],
            "columnar": self._vector_chain is not None,
        }

    def _run_morsel(self, index: int, chunk: Sequence[Tuple]):
        tracer = current_tracer()
        with tracer.span("parallel.morsel", op=self.label, morsel=index,
                         rows=len(chunk)):
            node: PlanNode = ScanNode(chunk, schema=self._leaf.schema)
            built: list[PlanNode] = []
            for build in self._builders:
                node = build(node)
                built.append(node)
            out = list(node.rows_iter())
            counters = [
                (item.stats.rows_in, item.stats.rows_out) for item in built
            ]
            # Each rebuilt node recorded lineage (if capture is on) into a
            # private store; hand those back so the main thread can merge
            # them into the template chain in morsel order.
            stores = [getattr(item, "lineage", None) for item in built]
        global_registry().counter(
            "parallel.morsels", "morsel tasks executed").inc(label=self.label)
        return out, counters, stores

    def _run_morsel_vector(self, index, chunk, base_batch, start):
        """One morsel as a column-batch slice; row-path retry on hazards."""
        stages = self._vector_chain
        tracer = current_tracer()
        with tracer.span("parallel.morsel", op=self.label, morsel=index,
                         rows=len(chunk)):
            if base_batch is not None:
                batch = base_batch.slice(start, start + len(chunk))
            else:
                batch = ColumnBatch.from_rows(self._leaf.schema, chunk)
            counters: list[tuple[int, int]] = []
            for stage in stages:
                rows_in = len(batch)
                if stage[0] == "restrict":
                    try:
                        keep = stage[1](batch)
                    except VectorFallback:
                        global_registry().counter(
                            "columnar.fallback",
                            "column batches re-evaluated on the row path "
                            "after a data hazard",
                        ).inc(label=self.label)
                        return self._run_morsel(index, chunk)
                    batch = batch.take_mask(keep)
                elif stage[0] == "project":
                    __, names, schema = stage
                    batch = ColumnBatch(
                        schema,
                        {name: batch.column(name) for name in names},
                        mask=batch.mask,
                    )
                else:
                    __, (old, new), schema = stage
                    batch = ColumnBatch(
                        schema,
                        {
                            (new if name == old else name): batch.column(name)
                            for name in batch.schema.names
                        },
                        mask=batch.mask,
                    )
                counters.append((rows_in, len(batch)))
            out = list(batch.to_rows())
        global_registry().counter(
            "columnar.batches", "column batches produced by columnar kernels"
        ).inc(label=self.label)
        global_registry().counter(
            "parallel.morsels", "morsel tasks executed").inc(label=self.label)
        return out, counters, None

    def _produce(self) -> Iterator[Tuple]:
        config = self._config
        rows = _leaf_rows(self._leaf)
        total = len(rows)
        self.stats.rows_in += total
        leaf_stats = self._leaf.stats
        leaf_stats.rows_in += total
        leaf_stats.rows_out += total

        if self._sample is not None:
            # One serial pass of draws, exactly as SampleNode makes them.
            rng = random.Random(self._sample._seed)
            probability = self._sample._probability
            kept = [row for row in rows if rng.random() < probability]
            sample_stats = self._sample.stats
            sample_stats.rows_in += total
            sample_stats.rows_out += len(kept)
            rows = kept

        morsels = _morsels(rows, config.morsel_size)
        # Under lineage capture the row path must run so rebuilt operators
        # record mappings; morsel order keeps the merged stores stable.
        vector = self._vector_chain is not None and active_lineage() is None
        base_batch = None
        if vector and isinstance(rows, tuple):
            # One cached whole-source conversion; morsels become slices.
            base_batch = cached_batch(rows, self._leaf.schema)

        def submit_args(index: int, chunk):
            if vector:
                return (self._run_morsel_vector, index, chunk, base_batch,
                        index * config.morsel_size)
            return (self._run_morsel, index, chunk)

        run_parallel = (
            config.parallel
            and len(rows) >= config.min_partition_rows
            and len(morsels) > 1
        )
        if run_parallel:
            pool = executor_for(config.workers)
            futures = [
                pool.submit(*submit_args(index, chunk))
                for index, chunk in enumerate(morsels)
            ]
            results = [future.result() for future in futures]
        else:
            results = []
            for index, chunk in enumerate(morsels):
                fn, *call_args = submit_args(index, chunk)
                results.append(fn(*call_args))

        for out, counters, stores in results:
            for template, (rows_in, rows_out) in zip(self._chain, counters):
                template.stats.rows_in += rows_in
                template.stats.rows_out += rows_out
            if stores is not None:
                for template, store in zip(self._chain, stores):
                    if store is None or not len(store):
                        continue
                    target = _lineage_store(template)
                    if target is not None:
                        target.merge(store)
            yield from out

    def describe(self) -> str:
        ops = ", ".join(template.label for template in self._chain)
        if self._sample is not None:
            ops = f"Sample, {ops}" if ops else "Sample"
        return (
            f"ParallelMap[{ops}] "
            f"(workers={self._config.workers}, "
            f"morsel={self._config.morsel_size})"
        )


class ParallelHashJoinNode(HashJoinNode):
    """Hash join with morsel-parallel build and probe, serial output order.

    Build: the right input is materialized (as in the serial operator),
    split into morsels, and each morsel hashed independently; the bucket
    dicts are merged **in morsel order**, so every bucket lists rows in
    right-input order — exactly the serial build.  Probe: left morsels run
    concurrently against the shared read-only bucket table and outputs are
    concatenated in morsel order — exactly the serial probe order.  The
    non-hashable-key degradation behaves as in the serial operator.
    """

    label = "ParallelHashJoin"

    def __init__(self, left: PlanNode, right: PlanNode,
                 left_key: str, right_key: str, config: ParallelConfig):
        super().__init__(left, right, left_key, right_key)
        self._config = config

    @property
    def parallel_info(self) -> dict[str, Any]:
        return {
            "workers": self._config.workers,
            "morsel_size": self._config.morsel_size,
            "ops": ["HashJoin"],
        }

    def _build_morsel(self, index: int, chunk: Sequence[Tuple]):
        tracer = current_tracer()
        with tracer.span("parallel.morsel", op="HashJoinBuild", morsel=index,
                         rows=len(chunk)):
            right_key = self._right_key
            buckets: dict[Any, list[Tuple]] = {}
            try:
                for rrow in chunk:
                    buckets.setdefault(rrow[right_key], []).append(rrow)
            except TypeError:
                return None
        global_registry().counter(
            "parallel.morsels", "morsel tasks executed").inc(label=self.label)
        return buckets

    def _probe_morsel(self, index, chunk, buckets, right_rows):
        tracer = current_tracer()
        schema = self._schema
        left_key, right_key = self._left_key, self._right_key
        degraded = False
        out: list[Tuple] = []
        with tracer.span("parallel.morsel", op="HashJoinProbe", morsel=index,
                         rows=len(chunk)):
            for lrow in chunk:
                key = lrow[left_key]
                try:
                    matches = buckets.get(key, ())
                except TypeError:
                    degraded = True
                    matches = [r for r in right_rows if r[right_key] == key]
                for rrow in matches:
                    out.append(concat_rows(schema, lrow, rrow))
        global_registry().counter(
            "parallel.morsels", "morsel tasks executed").inc(label=self.label)
        return out, degraded

    def _produce(self) -> Iterator[Tuple]:
        config = self._config
        if not config.parallel or active_lineage() is not None:
            # Serial operator records lineage on this node directly.
            yield from super()._produce()
            return

        right_rows = list(self._pull(self._children[1]))
        self._buffered(right_rows)
        pool = executor_for(config.workers)

        build_morsels = _morsels(right_rows, config.morsel_size)
        if len(right_rows) >= config.min_partition_rows and len(build_morsels) > 1:
            parts = [
                future.result()
                for future in [
                    pool.submit(self._build_morsel, index, chunk)
                    for index, chunk in enumerate(build_morsels)
                ]
            ]
        else:
            parts = [
                self._build_morsel(index, chunk)
                for index, chunk in enumerate(build_morsels)
            ]

        buckets: dict[Any, list[Tuple]] | None = {}
        for part in parts:
            if part is None:
                buckets = None
                self.stats.note(self._DEGRADED_BUILD)
                break
            for key, matched in part.items():
                buckets.setdefault(key, []).extend(matched)

        left_rows = list(self._pull(self._children[0]))

        if buckets is None:
            schema = self._schema
            left_key, right_key = self._left_key, self._right_key
            for lrow in left_rows:
                key = lrow[left_key]
                for rrow in right_rows:
                    if rrow[right_key] == key:
                        yield concat_rows(schema, lrow, rrow)
            return

        probe_morsels = _morsels(left_rows, config.morsel_size)
        if len(left_rows) >= config.min_partition_rows and len(probe_morsels) > 1:
            results = [
                future.result()
                for future in [
                    pool.submit(self._probe_morsel, index, chunk, buckets,
                                right_rows)
                    for index, chunk in enumerate(probe_morsels)
                ]
            ]
        else:
            results = [
                self._probe_morsel(index, chunk, buckets, right_rows)
                for index, chunk in enumerate(probe_morsels)
            ]
        for out, degraded in results:
            if degraded:
                self.stats.note(self._DEGRADED_PROBE)
            yield from out


# ---------------------------------------------------------------------------
# The parallelize rewrite
# ---------------------------------------------------------------------------
#
# Eligibility is decided by each operator's *declared effect*
# (:data:`repro.dbms.plan.NODE_EFFECTS`), not a hardcoded class allowlist:
# only pure row-backend streaming unary operators may run per-morsel, and
# only declared sources may be partitioned.  Exact-class lookup means a
# subclass that overrides behavior without declaring an effect is never
# parallelized — and the static race lint (``T2-E112`` in
# ``repro.analyze.planverify``) rejects it if it shows up inside a
# parallel region anyway.


def _chain_op(node: PlanNode) -> bool:
    """May ``node`` run per-morsel inside a :class:`ParallelMapNode`?"""
    return (
        declared_effect(node) == EFFECT_PURE
        and node.backend == "row"
        and len(node.children) == 1
    )


def _leaf_op(node: PlanNode) -> bool:
    """May ``node`` be partitioned into morsels?"""
    return declared_effect(node) == EFFECT_SOURCE


def parallelize_plan(
    root: PlanNode,
    config: ParallelConfig,
    log: list[str] | None = None,
    *,
    columnar: ColumnarConfig | None = None,
) -> tuple[PlanNode, list[str]]:
    """Rewrite a plan for morsel-parallel execution; serial-identical output.

    Chains of Restrict/Project/Rename (optionally with a seeded Sample at
    the bottom) over a Scan or Cache leaf become a :class:`ParallelMapNode`;
    plain hash joins become :class:`ParallelHashJoinNode`.  Everything else
    — order-sensitive operators, unseeded samples, non-partitionable
    sources — keeps its serial operator, with its inputs rewritten
    recursively.  The rewrite preserves schemas and never touches the
    interior of a CacheNode (its child belongs to another LazyRowSet).

    When ``columnar`` is given, each :class:`ParallelMapNode` additionally
    compiles its chain for column-batch morsels (see the class docstring);
    subtrees already on the columnar backend are left untouched.
    """
    if log is None:
        log = []

    def walk(node: PlanNode) -> PlanNode:
        if isinstance(node, (ParallelMapNode, ParallelHashJoinNode)):
            return node
        if hasattr(node, "columnar_info") or isinstance(node, ToRowsNode):
            return node
        if _leaf_op(node) or not node.children:
            return node
        if _chain_op(node):
            chain: list[PlanNode] = []
            cursor: PlanNode = node
            while _chain_op(cursor):
                chain.append(cursor)
                cursor = cursor.children[0]
            sample: SampleNode | None = None
            leaf: PlanNode | None = None
            if (
                type(cursor) is SampleNode
                and cursor._seed is not None
                and _leaf_op(cursor.children[0])
            ):
                sample, leaf = cursor, cursor.children[0]
            elif _leaf_op(cursor):
                leaf = cursor
            if leaf is not None:
                wrapped = ParallelMapNode(
                    node, leaf, chain, sample, config, columnar=columnar
                )
                log.append(
                    f"parallelize: {len(chain)}-op chain over "
                    f"{leaf.describe()} → morsels "
                    f"(workers={config.workers})"
                )
                return wrapped
            # The chain bottoms out on something non-partitionable;
            # rewrite below it and keep the chain serial.
            rebuilt = walk(cursor)
            if rebuilt is not cursor:
                chain[-1]._children = (rebuilt,)
            return node
        if type(node) is HashJoinNode:
            left = walk(node.children[0])
            right = walk(node.children[1])
            wrapped = ParallelHashJoinNode(
                left, right, node._left_key, node._right_key, config)
            log.append(
                f"parallelize: {node.describe()} → parallel build/probe "
                f"(workers={config.workers})"
            )
            return wrapped
        node._children = tuple(walk(child) for child in node.children)
        return node

    return walk(root), log


# The parallel region operators own their worker coordination; the race
# lint checks their *interiors* instead of treating them as plain nodes.
declare_effect(ParallelMapNode, EFFECT_PARALLEL)
declare_effect(ParallelHashJoinNode, EFFECT_PARALLEL)
