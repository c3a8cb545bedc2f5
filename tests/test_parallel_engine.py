"""Integration tests: Engine(workers=..., cache=...) and the render path.

The engine-level contract of the parallel subsystem: identical values to a
serial engine (down to rendered pixels), cross-engine sharing through the
result cache, EXPLAIN visibility of both, and correct invalidation when a
table changes under a live cache.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.core import scenarios
from repro.data.weather import build_weather_database
from repro.data.workloads import build_pairs_tables
from repro.dataflow.boxes_db import AddTableBox, JoinBox, RestrictBox
from repro.dataflow.engine import Engine
from repro.dataflow.explain import explain, explain_data
from repro.dataflow.graph import Program
from repro.dbms.catalog import Database
from repro.dbms.columnar import ColumnarConfig, set_default_columnar_config
from repro.dbms.plan import plan_verifier, set_plan_verifier
from repro.dbms.plan_parallel import (
    ParallelConfig,
    result_cache,
    set_default_config,
)
from repro.dbms.update import ScriptedDialog, generic_update


@pytest.fixture(autouse=True)
def _clean_cache():
    result_cache().clear()
    yield
    result_cache().clear()


def join_program():
    left, right = build_pairs_tables(120, 5, seed=9)
    db = Database("engine_parallel")
    db.add_table(left)
    db.add_table(right)
    program = Program("join")
    src_l = program.add_box(AddTableBox(table="Left"))
    src_r = program.add_box(AddTableBox(table="Right"))
    join = program.add_box(JoinBox(left_key="key", right_key="ref"))
    keep = program.add_box(RestrictBox(predicate="measure > 0.5"))
    program.connect(src_l, "out", join, "left")
    program.connect(src_r, "out", join, "right")
    program.connect(join, "out", keep, "in")
    return db, program, keep


def forced_rows(db, program, box_id, **knobs):
    return tuple(Engine(program, db, **knobs).output_of(box_id).rows.force())


class TestEngineKnobs:
    def test_parallel_engine_matches_serial(self):
        db, program, keep = join_program()
        serial = forced_rows(db, program, keep, workers=0, cache=False)
        parallel = forced_rows(db, program, keep, workers=4)
        assert parallel == serial

    def test_serial_knobs_disable_everything(self):
        db, program, keep = join_program()
        engine = Engine(program, db, workers=0, cache=False)
        assert engine.parallel is None
        engine.output_of(keep)
        stats = result_cache().stats()
        assert stats["entries"] == 0

    def test_cross_engine_cache_hit(self):
        db, program, keep = join_program()
        first = forced_rows(db, program, keep, workers=4)
        before = result_cache().stats()
        second = forced_rows(db, program, keep, workers=4)
        after = result_cache().stats()
        assert second == first
        assert after["hits"] > before["hits"]

    def test_env_default_config_applies(self, monkeypatch):
        previous = set_default_config(
            ParallelConfig(workers=2, cache=True)
        )
        try:
            db, program, keep = join_program()
            engine = Engine(program, db)    # no explicit knobs
            assert engine.parallel is not None
            assert engine.parallel.workers == 2
        finally:
            set_default_config(previous)


class TestExplainVisibility:
    def test_explain_data_reports_cache_and_parallel(self):
        db, program, keep = join_program()
        engine = Engine(program, db, workers=4)
        engine.output_of(keep)
        report = explain_data(program, db, engine=engine)

        statuses = set()
        parallel_ops = []

        def walk(tree):
            if "parallel" in tree:
                parallel_ops.append(tree["op"])
            for child in tree.get("children", ()):
                walk(child)

        for box in report["boxes"]:
            for output in box["outputs"]:
                for plan in output.get("plans", ()):
                    statuses.add(plan["cache"])
                    walk(plan["tree"])
        assert "miss" in statuses
        assert parallel_ops    # at least one node was parallelized

    def test_explain_data_reports_hit_on_second_engine(self):
        db, program, keep = join_program()
        forced_rows(db, program, keep, workers=4)
        engine = Engine(program, db, workers=4)
        engine.output_of(keep)
        report = explain_data(program, db, engine=engine)
        statuses = {
            plan["cache"]
            for box in report["boxes"]
            for output in box["outputs"]
            for plan in output.get("plans", ())
        }
        assert "hit" in statuses

    def test_text_explain_mentions_cache_status(self):
        db, program, keep = join_program()
        forced_rows(db, program, keep, workers=4)
        engine = Engine(program, db, workers=4)
        engine.output_of(keep)
        text = explain(program, db, engine=engine)
        assert "result cache: hit" in text


class TestInvalidation:
    def test_table_insert_invalidates_engine_results(self):
        db, program, keep = join_program()
        first = forced_rows(db, program, keep, workers=4)
        db.table("Right").insert({"ref": 1, "measure": 0.9})
        second = forced_rows(db, program, keep, workers=4)
        assert len(second) == len(first) + 1

    def test_generic_update_invalidates(self):
        db, program, keep = join_program()
        first = forced_rows(db, program, keep, workers=4)
        table = db.table("Right")
        victim = next(row for row in table.snapshot()
                      if row["measure"] <= 0.5)
        result = generic_update(
            table, victim, ScriptedDialog({"measure": "0.99"})
        )
        assert result.applied
        second = forced_rows(db, program, keep, workers=4)
        assert len(second) == len(first) + 1


class TestPixelIdenticalRenders:
    @pytest.mark.parametrize("build", [
        scenarios.build_fig1_table_view,
        scenarios.build_fig4_station_map,
        scenarios.build_fig7_overlay,
    ])
    def test_figure_renders_identically_under_parallel(self, build):
        db = build_weather_database(extra_stations=10, every_days=90)
        serial = build(db)
        window = (serial.named.get("window")
                  or serial.named.get("map_window"))
        baseline = window.render().pixels.copy()

        previous = set_default_config(
            ParallelConfig(workers=4, cache=True, morsel_size=256)
        )
        try:
            result_cache().clear()
            parallel = build(db)
            window = (parallel.named.get("window")
                      or parallel.named.get("map_window"))
            first = window.render().pixels.copy()
            # Render again so the second pass is served from the cache.
            second = window.render().pixels.copy()
        finally:
            set_default_config(previous)
        assert np.array_equal(baseline, first)
        assert np.array_equal(baseline, second)


class TestSinglePlanPath:
    def test_demand_and_cull_both_run_through_optimize_plan(self):
        """Engine demand and viewer culling prepare every plan through
        optimize_plan: a counting verifier sees calls from it on both."""
        paths: list[list[str]] = []

        def counting_verifier(root):
            frame = sys._getframe(1)
            if frame.f_code.co_name != "optimize_plan":
                return      # the per-open() check, not plan preparation
            names = []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            paths.append(names)

        previous_verifier = plan_verifier()
        set_plan_verifier(counting_verifier)
        previous = set_default_config(ParallelConfig(workers=2, cache=False))
        previous_columnar = set_default_columnar_config(ColumnarConfig())
        try:
            db = build_weather_database(extra_stations=10, every_days=90)
            window = scenarios.build_fig4_station_map(db).named["window"]
            paths.clear()
            window.render()
            assert window.viewer.last_result.stats.cull_plans
            culls = [p for p in paths if "_execute_cull_plan" in p]

            paths.clear()
            join_db, program, keep = join_program()
            Engine(program, join_db).output_of(keep)
            demands = [p for p in paths if "output_of" in p]
        finally:
            set_default_columnar_config(previous_columnar)
            set_default_config(previous)
            set_plan_verifier(previous_verifier)
        assert culls
        assert demands
