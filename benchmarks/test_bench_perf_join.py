"""Perf-5: join strategies for the Stations ⋈ Observations step.

Sweeps 1:N workloads over the hash and nested-loop strategies.  The shape
claim: nested-loop is quadratic and loses by orders of magnitude as inputs
grow; the hash build stays near-linear.
"""

from __future__ import annotations

import time

import pytest

from repro.config import use_config
from repro.data.workloads import build_pairs_tables
from repro.dataflow.boxes_db import AddTableBox, JoinBox, RestrictBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.dbms.algebra import join_hash, join_nested_loop
from repro.dbms.catalog import Database
from repro.dbms.plan_parallel import result_cache

SIZES = {
    "small": (50, 4),     # 50 x 200
    "medium": (200, 5),   # 200 x 1000
    "large": (500, 6),    # 500 x 3000
}

_CACHE: dict[str, tuple] = {}


def workload(name: str):
    if name not in _CACHE:
        left_count, per_left = SIZES[name]
        left, right = build_pairs_tables(left_count, per_left, seed=5)
        _CACHE[name] = (left.snapshot(), right.snapshot())
    return _CACHE[name]


@pytest.mark.parametrize("size", list(SIZES))
def test_perf_join_hash(benchmark, size):
    left, right = workload(size)
    result = benchmark(join_hash, left, right, "key", "ref")
    assert len(result) == len(right)  # every right row matches exactly once


@pytest.mark.parametrize("size", list(SIZES))
def test_perf_join_nested_loop(benchmark, size):
    left, right = workload(size)
    result = benchmark(join_nested_loop, left, right, "key", "ref")
    assert len(result) == len(right)


def test_perf_join_strategies_agree(benchmark):
    """Both strategies compute the same join (asserted on the medium size)."""
    left, right = workload("medium")

    def both():
        return (join_hash(left, right, "key", "ref"),
                join_nested_loop(left, right, "key", "ref"))

    h, n = benchmark(both)
    assert sorted(map(repr, h)) == sorted(map(repr, n))


# ---------------------------------------------------------------------------
# Parallel scaling: slaved viewers sharing one join through the result cache
# ---------------------------------------------------------------------------

_ARMS = {"serial": 0, "workers_1": 1, "workers_2": 2, "workers_4": 4}
_VIEWERS = 8    # independent engines demanding the same join (slaving model)
_ROUNDS = 3


def _slaved_join_workload():
    """A large Stations⋈Observations-shaped program, 800 x 6400 rows."""
    left, right = build_pairs_tables(800, 8, seed=7)
    db = Database("bench_parallel")
    db.add_table(left)
    db.add_table(right)
    program = Program()
    src_l = program.add_box(AddTableBox(table="Left"))
    src_r = program.add_box(AddTableBox(table="Right"))
    join = program.add_box(JoinBox(left_key="key", right_key="ref"))
    keep = program.add_box(RestrictBox(predicate="measure > 0.25"))
    program.connect(src_l, "out", join, "left")
    program.connect(src_r, "out", join, "right")
    program.connect(join, "out", keep, "in")
    return db, program, keep


def _run_viewers(db, program, box_id, workers: int):
    """Force the join output through _VIEWERS fresh engines (one per viewer)."""
    rows = None
    # workers=0 is fully serial with no sharing.
    with use_config(workers=max(workers, 1), cache=workers > 0):
        for __ in range(_VIEWERS):
            engine = Engine(program, db)
            rows = engine.output_of(box_id).rows.force()
    return rows


def test_perf_join_parallel_cache_speedup(record_parallel):
    """Repeated demands of one join: the shared result cache must win big.

    The serial arm re-executes the join per viewer; the parallel arms pay
    one miss and then share the materialization, which is where the paper's
    slaved-viewer interaction pattern gets its speedup.
    """
    db, program, box_id = _slaved_join_workload()
    cache = result_cache()
    arms: dict[str, dict] = {}
    baseline = None
    for arm, workers in _ARMS.items():
        best = float("inf")
        rows = None
        for __ in range(_ROUNDS):
            cache.clear()
            start = time.perf_counter()
            rows = _run_viewers(db, program, box_id, workers)
            best = min(best, time.perf_counter() - start)
        arms[arm] = {"workers": workers, "seconds": round(best, 6)}
        if baseline is None:
            baseline = rows
        else:
            assert rows == baseline    # every arm computes the same join
    stats = cache.stats()
    assert stats["hits"] >= _VIEWERS - 1    # the cache actually engaged
    speedup = arms["serial"]["seconds"] / arms["workers_4"]["seconds"]
    record_parallel({
        "name": "join_slaved_viewers",
        "workload": {"left_rows": 800, "right_rows": 6400,
                     "viewers": _VIEWERS},
        "arms": arms,
        "speedup": round(speedup, 2),
        "cache": {"hits": stats["hits"], "misses": stats["misses"]},
    })
    assert speedup >= 1.8
