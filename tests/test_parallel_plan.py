"""Unit tests: morsel-parallel plan execution (repro.dbms.plan_parallel).

Parallelized plans must be *indistinguishable* from serial ones to every
consumer: same rows, same order, same EXPLAIN counters, same degradation
notes.  These tests execute each shape both ways and compare.
"""

from __future__ import annotations

import pytest

from repro.config import ExecConfig
from repro.dbms import plan as P
from repro.dbms.plan_parallel import (
    parallelize_plan,
    plan_fingerprint,
)
from repro.dbms.parser import parse_predicate
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Schema

NUMS = Schema([("n", "int"), ("label", "text")])

# Small morsels so even modest inputs split into many partitions.
CONFIG = ExecConfig(workers=4, cache=True, morsel_size=64)


def num_rows(count: int) -> RowSet:
    return RowSet.from_dicts(
        NUMS, [{"n": i, "label": f"row{i}"} for i in range(count)]
    )


def restrict(child: P.PlanNode, source: str) -> P.RestrictNode:
    return P.RestrictNode(child, parse_predicate(source, child.schema))


def chain(rows: RowSet) -> P.PlanNode:
    return P.ProjectNode(restrict(P.ScanNode(rows), "n % 3 != 0"), ["n"])


class TestParallelMap:
    def test_chain_rows_and_order_match_serial(self):
        rows = num_rows(1000)
        serial = chain(rows).execute()
        root, log = parallelize_plan(chain(rows), CONFIG)
        assert any("parallel" in line for line in log)
        assert isinstance(root, P.PlanNode)
        assert root.describe().startswith("ParallelMap")
        assert tuple(root.execute()) == tuple(serial)

    def test_template_stats_fold_to_serial_counters(self):
        rows = num_rows(1000)
        serial_root = chain(rows)
        serial_root.execute()
        parallel_root, __ = parallelize_plan(chain(rows), CONFIG)
        parallel_root.execute()
        # The serial template hangs under the ParallelMap node; its folded
        # counters must equal a plain serial execution's.
        template = parallel_root.children[0]
        assert template.label == serial_root.label
        assert template.stats.rows_in == serial_root.stats.rows_in
        assert template.stats.rows_out == serial_root.stats.rows_out
        child = template.children[0]
        assert child.stats.rows_out == serial_root.children[0].stats.rows_out

    def test_seeded_sample_draws_identically(self):
        rows = num_rows(2000)
        serial = P.SampleNode(P.ScanNode(rows), 0.4, seed=11).execute()
        root, __ = parallelize_plan(
            P.SampleNode(P.ScanNode(rows), 0.4, seed=11), CONFIG
        )
        assert tuple(root.execute()) == tuple(serial)

    def test_unseeded_sample_stays_serial(self):
        rows = num_rows(500)
        plan = P.ProjectNode(P.SampleNode(P.ScanNode(rows), 0.5), ["n"])
        root, __ = parallelize_plan(plan, CONFIG)
        assert "ParallelMap" not in root.explain(with_stats=False)

    def test_small_input_runs_inline(self):
        # Below min_partition_rows nothing forks; output is still correct.
        rows = num_rows(10)
        root, __ = parallelize_plan(chain(rows), CONFIG)
        assert tuple(root.execute()) == tuple(chain(rows).execute())

    def test_order_sensitive_node_above_chain_preserved(self):
        rows = num_rows(300)
        def build():
            return P.OrderByNode(
                restrict(P.ScanNode(rows), "n % 2 == 0"), ["n"],
                descending=True,
            )
        serial = build().execute()
        root, __ = parallelize_plan(build(), CONFIG)
        assert isinstance(root, P.OrderByNode)
        assert tuple(root.execute()) == tuple(serial)


class TestParallelHashJoin:
    def test_join_rows_and_order_match_serial(self):
        left = num_rows(400)
        right = num_rows(400)
        serial = P.HashJoinNode(
            P.ScanNode(left), P.ScanNode(right), "n", "n"
        ).execute()
        root, log = parallelize_plan(
            P.HashJoinNode(P.ScanNode(left), P.ScanNode(right), "n", "n"),
            CONFIG,
        )
        assert root.label == "ParallelHashJoin"
        assert any("join" in line.lower() for line in log)
        assert tuple(root.execute()) == tuple(serial)

    def test_degradation_notes_preserved(self):
        from repro.dbms import types as T
        from repro.errors import TypeCheckError

        class ListType(T.AtomicType):
            name = "list_parallel_test"

            def validates(self, value):
                return isinstance(value, list)

            def coerce(self, value):
                if self.validates(value):
                    return value
                raise TypeCheckError(f"{value!r} is not a list")

            def default_value(self):
                return []

        try:
            listy = T.type_by_name("list_parallel_test")
        except TypeCheckError:
            listy = T.register_type(ListType())

        schema = Schema([("k", listy), ("side", "text")])
        left = RowSet.from_dicts(
            schema, [{"k": [1], "side": "l1"}, {"k": [2], "side": "l2"}]
        )
        right = RowSet.from_dicts(
            schema, [{"k": [1], "side": "r1"}, {"k": [3], "side": "r3"}]
        )
        root, __ = parallelize_plan(
            P.HashJoinNode(P.ScanNode(left), P.ScanNode(right), "k", "k"),
            CONFIG,
        )
        result = root.execute()
        assert len(result) == 1
        assert P.HashJoinNode._DEGRADED_BUILD in root.stats.notes

    def test_already_parallel_join_not_rewrapped(self):
        rows = num_rows(100)
        root, __ = parallelize_plan(
            P.HashJoinNode(P.ScanNode(rows), P.ScanNode(rows), "n", "n"),
            CONFIG,
        )
        again, log = parallelize_plan(root, CONFIG)
        assert again is root
        assert not any("join" in line.lower() for line in log)


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        rows = num_rows(50)
        first = plan_fingerprint(chain(rows))
        second = plan_fingerprint(chain(rows))
        assert first is not None and second is not None
        assert first[0] == second[0]

    def test_distinguishes_sources_and_predicates(self):
        rows, other = num_rows(50), num_rows(50)
        base = plan_fingerprint(chain(rows))[0]
        assert plan_fingerprint(chain(other))[0] != base
        different = P.ProjectNode(
            restrict(P.ScanNode(rows), "n % 5 != 0"), ["n"]
        )
        assert plan_fingerprint(different)[0] != base

    def test_unseeded_sample_is_unfingerprintable(self):
        rows = num_rows(50)
        assert plan_fingerprint(P.SampleNode(P.ScanNode(rows), 0.5)) is None

    def test_fingerprints_through_lazy_boundary(self):
        # Two CacheNodes over *different* lazies with identical plans over
        # the same source must agree — that is what lets independent engines
        # share one cache entry.
        rows = num_rows(50)
        one = P.CacheNode(P.LazyRowSet(chain(rows)))
        two = P.CacheNode(P.LazyRowSet(chain(rows)))
        assert plan_fingerprint(one)[0] == plan_fingerprint(two)[0]

    def test_parallelized_plan_keeps_its_fingerprint(self):
        rows = num_rows(1000)
        serial_key = plan_fingerprint(chain(rows))[0]
        root, __ = parallelize_plan(chain(rows), CONFIG)
        assert plan_fingerprint(root)[0] == serial_key

    def test_pins_reference_leaf_sources(self):
        rows = num_rows(20)
        __, pins = plan_fingerprint(chain(rows))
        assert rows in pins
