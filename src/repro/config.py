"""The process execution config: one :class:`ExecConfig`, read at force time.

Every setting that changes how plans execute is a field of one frozen
:class:`ExecConfig`: morsel parallelism and the result cache
(``docs/PARALLELISM.md``), the columnar backend (``docs/COLUMNAR.md``),
lineage capture, the abstract-interpretation plan annotator and the plan
verifier.  The process holds exactly one current value:

* :func:`from_env` parses it from the environment (this is the only module
  that reads ``REPRO_*`` variables); :func:`configure_process` adopts it
  at package import;
* :func:`exec_config` returns it.  Engine demand and viewer culling both
  read it when they force or cull, so the two halves of one render can
  never run under different settings;
* :func:`use_config` overlays fields for the duration of a block and
  restores everything on exit.

The field table with env spellings and defaults is in ``docs/API.md``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Mapping

from repro.errors import TiogaError

__all__ = [
    "DEFAULT_BATCH_ROWS",
    "DEFAULT_MAX_MAPPINGS",
    "DEFAULT_MORSEL_SIZE",
    "DEFAULT_WORKERS",
    "ExecConfig",
    "configure_process",
    "exec_config",
    "flight_dump_path",
    "from_env",
    "use_config",
]

DEFAULT_WORKERS = 4
"""Worker count selected by ``REPRO_PARALLEL=1``."""

DEFAULT_MORSEL_SIZE = 2048
"""Rows per morsel.  Large enough that per-morsel dispatch overhead is
amortized; small enough that a handful of morsels exist for typical
interactive relations."""

DEFAULT_BATCH_ROWS = 65_536
"""Rows per column batch when a ToColumns adapter re-batches a row stream."""

DEFAULT_MAX_MAPPINGS = 1_000_000
"""Per-node lineage ring capacity: a store holding this many mappings
evicts its oldest entry for each new one (counted in ``lineage.dropped``)."""


@dataclass(frozen=True)
class ExecConfig:
    """How plans execute.  The default value runs every plan as built.

    ``workers >= 2`` enables morsel parallelism; ``cache`` enables the
    process-wide result cache independently (``workers=1, cache=True``
    reuses results serially).  ``min_partition_rows`` of None means twice
    the morsel size.  ``columnar`` lets the optimizer put eligible subtrees
    on the vectorized backend, re-batched at ``batch_rows``.  ``lineage``
    records backward lineage with a per-node ring of ``max_mappings``.
    ``absint`` installs the hazard prover as the plan annotator and
    ``verify`` the plan-IR verifier.  Rows, order and pixels are identical
    under every value.
    """

    workers: int = 1
    cache: bool = False
    morsel_size: int = DEFAULT_MORSEL_SIZE
    min_partition_rows: int | None = None
    columnar: bool = False
    batch_rows: int = DEFAULT_BATCH_ROWS
    lineage: bool = False
    max_mappings: int = DEFAULT_MAX_MAPPINGS
    absint: bool = False
    verify: bool = False

    @property
    def parallel(self) -> bool:
        """True when morsel parallelism (not just caching) is on."""
        return self.workers >= 2

    @property
    def plain(self) -> bool:
        """True when plans run exactly as built: no cache, no rewrites."""
        return not (self.cache or self.parallel or self.columnar)

    @property
    def partition_rows(self) -> int:
        """Fewest input rows an operator splits into morsels."""
        rows = self.min_partition_rows
        return max(2, 2 * self.morsel_size if rows is None else rows)


def _flag(environ: Mapping[str, str], name: str) -> bool:
    """The one truthiness rule: unset, ``""`` and ``"0"`` are off."""
    return environ.get(name, "") not in ("", "0")


def from_env(environ: Mapping[str, str] | None = None) -> ExecConfig:
    """Parse the config from ``REPRO_*`` variables (default ``os.environ``).

    ``REPRO_COLUMNAR``, ``REPRO_LINEAGE``, ``REPRO_ABSINT`` and
    ``REPRO_PLAN_VERIFY`` are flags.  ``REPRO_PARALLEL`` is off or a
    positive worker count that also turns the result cache on; ``1`` means
    :data:`DEFAULT_WORKERS`.  A malformed value raises :class:`TiogaError`.
    """
    env = os.environ if environ is None else environ
    config = ExecConfig(
        columnar=_flag(env, "REPRO_COLUMNAR"),
        lineage=_flag(env, "REPRO_LINEAGE"),
        absint=_flag(env, "REPRO_ABSINT"),
        verify=_flag(env, "REPRO_PLAN_VERIFY"),
    )
    if not _flag(env, "REPRO_PARALLEL"):
        return config
    raw = env["REPRO_PARALLEL"]
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise TiogaError(
            f"REPRO_PARALLEL={raw!r}: expected 0 (off), 1 (default "
            f"{DEFAULT_WORKERS} workers) or a positive worker count"
        )
    workers = int(raw)
    return replace(config, workers=DEFAULT_WORKERS if workers == 1 else workers,
                   cache=True)


_CURRENT = ExecConfig()


def exec_config() -> ExecConfig:
    """The current process config."""
    return _CURRENT


def _install(config: ExecConfig) -> None:
    """Make ``config`` current, installing or clearing the hooks whose
    fields changed (hooks a caller installed directly stay otherwise)."""
    global _CURRENT
    from repro.dbms import plan
    from repro.obs import lineage

    old, _CURRENT = _CURRENT, config
    if config.absint != old.absint:
        from repro.analyze.absint import prove_plan_predicate

        plan.set_plan_annotator(prove_plan_predicate if config.absint else None)
    if config.verify != old.verify:
        from repro.analyze.planverify import assert_valid_plan

        plan.set_plan_verifier(assert_valid_plan if config.verify else None)
    if (config.lineage, config.max_mappings) != (old.lineage, old.max_mappings):
        lineage.set_active_lineage(
            lineage.CaptureState(config.max_mappings) if config.lineage
            else None)


@contextmanager
def use_config(config: ExecConfig | None = None, **changes) -> Iterator[ExecConfig]:
    """Run a block under ``config`` (default: the current one) with
    ``changes`` overlaid field by field; yields the installed config.

    On exit — also when the block raises — the previous config, plan
    annotator, plan verifier and active lineage capture are restored.
    """
    global _CURRENT
    from repro.dbms import plan
    from repro.obs import lineage

    base = _CURRENT if config is None else config
    saved = (_CURRENT, plan.plan_annotator(), plan.plan_verifier(),
             lineage.active_lineage())
    try:
        _install(replace(base, **changes))
        yield _CURRENT
    finally:
        _CURRENT, annotator, verifier, capture = saved
        plan.set_plan_annotator(annotator)
        plan.set_plan_verifier(verifier)
        lineage.set_active_lineage(capture)


def configure_process(environ: Mapping[str, str] | None = None) -> None:
    """Package-import hook: adopt :func:`from_env` as the process config,
    and enable the global tracer / a flight recorder for ``REPRO_TRACE`` /
    ``REPRO_FLIGHT`` (same truthiness rule)."""
    env = os.environ if environ is None else environ
    _install(from_env(env))
    if _flag(env, "REPRO_TRACE"):
        from repro.obs.trace import current_tracer

        current_tracer().enabled = True
    if _flag(env, "REPRO_FLIGHT"):
        from repro.obs.flightrec import FlightRecorder, install_flight_recorder

        install_flight_recorder(FlightRecorder())


def flight_dump_path(default: str) -> str:
    """Where an auto-dumping flight recorder writes (``REPRO_FLIGHT_DUMP``)."""
    return os.environ.get("REPRO_FLIGHT_DUMP", default)
