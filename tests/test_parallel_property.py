"""Property test: every execution backend is observationally equivalent.

Thirty deterministic seeds each build a random pipeline of relational boxes
(the generator mirrors tests/test_analyze_property.py) over a 5000-row
Stations table — large enough that chains genuinely split into morsels and
column batches.  Every program the static checker accepts is executed
several ways — serial-row, parallel-cold (cache miss), parallel-warm (cache
hit), columnar, and parallel-columnar — and all must produce identical
tuples in identical order.
"""

from __future__ import annotations

import random

import pytest

from repro.analyze.checker import check_program
from repro.dataflow.boxes_attr import AddAttributeBox, ScaleAttributeBox
from repro.dataflow.boxes_db import (
    AddTableBox,
    ProjectBox,
    RestrictBox,
    SampleBox,
)
from repro.dataflow.boxes_extra import (
    DistinctBox,
    LimitBox,
    OrderByBox,
    RenameBox,
)
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.dbms.catalog import Database
from repro.config import use_config
from repro.dbms.plan_parallel import (
    result_cache,
)
from repro.dbms.relation import Table
from repro.dbms.tuples import Schema

SEEDS = 30
ROWS = 5_000
FIELDS = ["station_id", "name", "state", "longitude", "latitude", "altitude"]
NUMERIC = ["station_id", "longitude", "latitude", "altitude"]

PARALLEL = dict(workers=4, cache=True, morsel_size=256)
SERIAL = dict(workers=1, cache=False)


@pytest.fixture(scope="module")
def big_stations_db() -> Database:
    rng = random.Random(2024)
    db = Database("property_parallel")
    table = Table("Stations", Schema([
        ("station_id", "int"),
        ("name", "text"),
        ("state", "text"),
        ("longitude", "float"),
        ("latitude", "float"),
        ("altitude", "float"),
    ]))
    table.insert_many(
        {
            "station_id": index,
            "name": f"S{index}",
            "state": rng.choice(["LA", "TX", "CA", "NY"]),
            "longitude": rng.uniform(-120, -70),
            "latitude": rng.uniform(25, 50),
            "altitude": rng.uniform(0, 140),
        }
        for index in range(ROWS)
    )
    db.add_table(table)
    return db


def random_step(rng: random.Random, step: int):
    kind = rng.choice(
        ["restrict", "sample", "project", "addattr", "scale",
         "orderby", "distinct", "limit", "rename"]
    )
    if kind == "restrict":
        field = rng.choice(NUMERIC)
        return RestrictBox(predicate=f"{field} > {rng.uniform(-50, 150):.1f}")
    if kind == "sample":
        return SampleBox(probability=rng.choice([0.3, 0.6, 0.9]),
                         seed=rng.randint(0, 99))
    if kind == "project":
        count = rng.randint(1, len(FIELDS))
        return ProjectBox(fields=rng.sample(FIELDS, count))
    if kind == "addattr":
        field = rng.choice(NUMERIC)
        return AddAttributeBox(
            name=f"a{step}", definition=f"{field} * {rng.uniform(0.5, 3):.1f}"
        )
    if kind == "scale":
        name = rng.choice(FIELDS + [f"a{rng.randint(0, 4)}"])
        return ScaleAttributeBox(name=name, amount=rng.choice([0.5, 2.0]))
    if kind == "orderby":
        return OrderByBox(fields=[rng.choice(FIELDS)],
                          descending=rng.random() < 0.5)
    if kind == "distinct":
        return DistinctBox()
    if kind == "limit":
        return LimitBox(count=rng.randint(1, 2000))
    return RenameBox(old=rng.choice(FIELDS), new=f"r{step}")


def random_program(seed: int):
    rng = random.Random(seed)
    program = Program(f"parallel-property-{seed}")
    upstream = program.add_box(AddTableBox(table="Stations"))
    for step in range(rng.randint(1, 5)):
        box_id = program.add_box(random_step(rng, step))
        program.connect(upstream, "out", box_id, "in")
        upstream = box_id
    return program, upstream


def forced(db, program, box_id, *, parallel: bool, columnar: bool = False):
    with use_config(columnar=columnar, **(PARALLEL if parallel else SERIAL)):
        engine = Engine(program, db)
        return tuple(engine.output_of(box_id, "out").rows.force())


def test_serial_and_parallel_agree_over_30_seeds(big_stations_db):
    compared = 0
    for seed in range(SEEDS):
        program, last_box = random_program(seed)
        if check_program(program, big_stations_db).errors():
            continue    # generator produced a genuinely broken pipeline
        serial = forced(big_stations_db, program, last_box, parallel=False)
        result_cache().clear()
        cold = forced(big_stations_db, program, last_box, parallel=True)
        warm = forced(big_stations_db, program, last_box, parallel=True)
        assert cold == serial, f"seed {seed}: parallel-cold differs"
        assert warm == serial, f"seed {seed}: cache-served differs"
        compared += 1
    result_cache().clear()
    # A degenerate generator would vacuously pass; require real coverage.
    assert compared >= SEEDS // 2, compared


def test_four_backends_agree_over_30_seeds(big_stations_db):
    """Serial-row vs columnar vs parallel-columnar vs warm-cache.

    The columnar arms run under the plan verifier so every rewritten tree is
    also structurally checked (adapter placement, schema/dtype agreement).
    """
    from repro.analyze.planverify import assert_valid_plan
    from repro.dbms.plan import plan_verifier, set_plan_verifier

    previous_verifier = plan_verifier()
    set_plan_verifier(assert_valid_plan)
    compared = 0
    try:
        for seed in range(SEEDS):
            program, last_box = random_program(seed)
            if check_program(program, big_stations_db).errors():
                continue
            serial = forced(big_stations_db, program, last_box,
                            parallel=False)
            columnar = forced(big_stations_db, program, last_box,
                              parallel=False, columnar=True)
            result_cache().clear()
            parallel_columnar = forced(big_stations_db, program, last_box,
                                       parallel=True, columnar=True)
            warm = forced(big_stations_db, program, last_box,
                          parallel=True, columnar=True)
            assert columnar == serial, f"seed {seed}: columnar differs"
            assert parallel_columnar == serial, \
                f"seed {seed}: parallel-columnar differs"
            assert warm == serial, f"seed {seed}: warm-cache differs"
            compared += 1
    finally:
        set_plan_verifier(previous_verifier)
        result_cache().clear()
    assert compared >= SEEDS // 2, compared
