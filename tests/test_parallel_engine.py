"""Integration tests: ``use_config(workers=..., cache=...)``, the engine
and the render path.

The engine-level contract of the parallel subsystem: identical values to a
serial engine (down to rendered pixels), cross-engine sharing through the
result cache, EXPLAIN visibility of both, correct invalidation when a
table changes under a live cache, and one config for demand and cull.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.config import use_config
from repro.core import scenarios
from repro.data.weather import build_weather_database
from repro.data.workloads import build_pairs_tables
from repro.dataflow.boxes_db import AddTableBox, JoinBox, RestrictBox
from repro.dataflow.engine import Engine
from repro.dataflow.explain import explain, explain_data
from repro.dataflow.graph import Program
from repro.dbms.catalog import Database
from repro.dbms.plan import plan_verifier, set_plan_verifier
from repro.dbms.plan_parallel import result_cache
from repro.obs.dashboard import record_figure_telemetry
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


PARALLEL = dict(workers=4, cache=True)


def forced_rows(db, program, box_id, **changes):
    with use_config(**changes):
        return tuple(Engine(program, db).output_of(box_id).rows.force())


def parallel_ops(report) -> list[str]:
    """Ops of every parallel-annotated plan node in an explain_data report."""
    ops = []

    def walk(tree):
        if "parallel" in tree:
            ops.append(tree["op"])
        for child in tree.get("children", ()):
            walk(child)

    for box in report["boxes"]:
        for output in box["outputs"]:
            for plan in output.get("plans", ()):
                walk(plan["tree"])
    return ops


class TestEngineKnobs:
    def test_parallel_engine_matches_serial(self):
        db, program, keep = join_program()
        serial = forced_rows(db, program, keep, workers=1, cache=False)
        parallel = forced_rows(db, program, keep, **PARALLEL)
        assert parallel == serial

    def test_serial_knobs_disable_everything(self):
        db, program, keep = join_program()
        with use_config(workers=1, cache=False):
            engine = Engine(program, db)
            engine.output_of(keep)
            assert not parallel_ops(explain_data(program, db, engine=engine))
        stats = result_cache().stats()
        assert stats["entries"] == 0

    def test_cross_engine_cache_hit(self):
        db, program, keep = join_program()
        first = forced_rows(db, program, keep, **PARALLEL)
        before = result_cache().stats()
        second = forced_rows(db, program, keep, **PARALLEL)
        after = result_cache().stats()
        assert second == first
        assert after["hits"] > before["hits"]

    def test_env_default_config_applies(self):
        """An engine built before the config changes demands under it."""
        db, program, keep = join_program()
        engine = Engine(program, db)
        with use_config(workers=2, cache=True):
            engine.output_of(keep)
            report = explain_data(program, db, engine=engine)
        assert parallel_ops(report)


class TestExplainVisibility:
    def test_explain_data_reports_cache_and_parallel(self):
        db, program, keep = join_program()
        with use_config(**PARALLEL):
            engine = Engine(program, db)
            engine.output_of(keep)
            report = explain_data(program, db, engine=engine)
        statuses = {
            plan["cache"]
            for box in report["boxes"]
            for output in box["outputs"]
            for plan in output.get("plans", ())
        }
        assert "miss" in statuses
        assert parallel_ops(report)    # at least one node was parallelized

    def test_explain_data_reports_hit_on_second_engine(self):
        db, program, keep = join_program()
        forced_rows(db, program, keep, **PARALLEL)
        with use_config(**PARALLEL):
            engine = Engine(program, db)
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
        forced_rows(db, program, keep, **PARALLEL)
        with use_config(**PARALLEL):
            engine = Engine(program, db)
            engine.output_of(keep)
            text = explain(program, db, engine=engine)
        assert "result cache: hit" in text


class TestInvalidation:
    def test_table_insert_invalidates_engine_results(self):
        db, program, keep = join_program()
        first = forced_rows(db, program, keep, **PARALLEL)
        db.table("Right").insert({"ref": 1, "measure": 0.9})
        second = forced_rows(db, program, keep, **PARALLEL)
        assert len(second) == len(first) + 1

    def test_generic_update_invalidates(self):
        db, program, keep = join_program()
        first = forced_rows(db, program, keep, **PARALLEL)
        table = db.table("Right")
        victim = next(row for row in table.snapshot()
                      if row["measure"] <= 0.5)
        result = generic_update(
            table, victim, ScriptedDialog({"measure": "0.99"})
        )
        assert result.applied
        second = forced_rows(db, program, keep, **PARALLEL)
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

        with use_config(morsel_size=256, **PARALLEL):
            result_cache().clear()
            parallel = build(db)
            window = (parallel.named.get("window")
                      or parallel.named.get("map_window"))
            first = window.render().pixels.copy()
            # Render again so the second pass is served from the cache.
            second = window.render().pixels.copy()
        assert np.array_equal(baseline, first)
        assert np.array_equal(baseline, second)


class TestSinglePlanPath:
    """Engine demand and viewer culling prepare every plan through
    optimize_plan under one config: a counting verifier sees parallel and
    columnar nodes on both paths."""

    @pytest.fixture
    def prepared(self):
        """Labels of the op nodes in each plan optimize_plan prepared, with
        the call stack that asked for it.  A node running on the columnar
        backend — a kernel, or a ParallelMap with vectorized morsels — also
        contributes the label "columnar"."""
        paths: list[tuple[list[str], set[str]]] = []

        def counting_verifier(root):
            frame = sys._getframe(1)
            if frame.f_code.co_name != "optimize_plan":
                return      # the per-open() check, not plan preparation
            names = []
            while frame is not None:
                names.append(frame.f_code.co_name)
                frame = frame.f_back
            labels: set[str] = set()
            stack = [root]
            while stack:
                node = stack.pop()
                labels.add(node.label)
                if (node.backend == "columnar" or getattr(
                        node, "parallel_info", {}).get("columnar")):
                    labels.add("columnar")
                stack.extend(node.children)
            paths.append((names, labels))

        previous_verifier = plan_verifier()
        set_plan_verifier(counting_verifier)
        try:
            yield paths
        finally:
            set_plan_verifier(previous_verifier)

    @staticmethod
    def labels_on(paths, caller: str) -> set[str]:
        return {label for names, labels in paths if caller in names
                for label in labels}

    def test_demand_and_cull_both_run_through_optimize_plan(self, prepared):
        with use_config(workers=2, cache=False, columnar=True):
            db = build_weather_database(extra_stations=10, every_days=90)
            window = scenarios.build_fig4_station_map(db).named["window"]
            prepared.clear()
            window.render()
            assert window.viewer.last_result.stats.cull_plans
            culls = self.labels_on(prepared, "_execute_cull_plan")

            prepared.clear()
            join_db, program, keep = join_program()
            Engine(program, join_db).output_of(keep)
            demands = self.labels_on(prepared, "output_of")
        assert culls
        assert demands

    def test_session_built_first_demands_and_culls_alike(self, prepared):
        """A session (and its Engine) built before ``use_config`` demands
        under the config too, not only its viewers' culls."""
        db = build_weather_database(extra_stations=40, every_days=30)
        session = scenarios.build_fig4_station_map(db).session
        session.engine.invalidate()
        prepared.clear()
        with use_config(workers=2, cache=False, columnar=True):
            for name in sorted(session.windows):
                session.window(name).render()
        demands = self.labels_on(prepared, "output_of")
        culls = self.labels_on(prepared, "_execute_cull_plan")
        for labels in (demands, culls):
            assert labels & {"ParallelMap", "ParallelHashJoin"}, labels
            assert "columnar" in labels, labels

    def test_dashboard_telemetry_demands_in_parallel(self, prepared):
        """``record_figure_telemetry(workers=2)`` builds its session first;
        the engine demand must still see parallel nodes, not only the
        cull."""
        record_figure_telemetry(figure="fig4", renders=1, workers=2)
        demands = self.labels_on(prepared, "output_of")
        culls = self.labels_on(prepared, "_execute_cull_plan")
        assert demands & {"ParallelMap", "ParallelHashJoin"}, demands
        assert culls & {"ParallelMap", "ParallelHashJoin"}, culls
