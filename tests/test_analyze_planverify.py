"""Plan-IR invariant verification (repro.analyze.planverify): well-formed
plans verify clean; corrupted plans are caught before execution; the
REPRO_PLAN_VERIFY=1 hook wires the verifier into PlanNode.open()."""

from __future__ import annotations

import pytest

from repro.analyze.planverify import (
    assert_valid_plan,
    verify_plan,
)
from repro.config import ExecConfig, from_env, use_config
from repro.dbms import plan as P
from repro.dbms.parser import parse_predicate
from repro.dbms.plan_rewrite import optimize_plan
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Schema
from repro.errors import StaticAnalysisError

NUMS = Schema([("n", "int"), ("label", "text")])
MORE = Schema([("n", "int"), ("extra", "float")])


def num_rows(count: int) -> RowSet:
    return RowSet.from_dicts(
        NUMS, [{"n": i, "label": f"row{i}"} for i in range(count)]
    )


def more_rows(count: int) -> RowSet:
    return RowSet.from_dicts(
        MORE, [{"n": i, "extra": i * 0.5} for i in range(count)]
    )


def restrict_over(rows: RowSet, source: str) -> P.RestrictNode:
    return P.RestrictNode(
        P.ScanNode(rows), parse_predicate(source, rows.schema)
    )


def deep_plan() -> P.PlanNode:
    """Exercise one of every streaming operator class."""
    left = P.ProjectNode(restrict_over(num_rows(50), "n < 40"), ["n", "label"])
    right = P.ScanNode(more_rows(30))
    join = P.HashJoinNode(left, right, "n", "n")
    renamed = P.RenameNode(join, "extra", "weight")
    ordered = P.OrderByNode(renamed, ["n"], descending=True)
    return P.LimitNode(P.DistinctNode(ordered), 10)


class TestCleanPlans:
    def test_deep_plan_verifies(self):
        report = verify_plan(deep_plan())
        assert report.ok and len(report) == 0

    def test_every_operator_class(self):
        scan = P.ScanNode(num_rows(20))
        plans = [
            restrict_over(num_rows(5), "n < 3"),
            P.SampleNode(scan, 0.5, seed=7),
            P.GroupByNode(
                P.ScanNode(num_rows(10)), ["label"], [("sum", "n", "total")]
            ),
            P.UnionNode(P.ScanNode(num_rows(3)), P.ScanNode(num_rows(4))),
            P.CrossProductNode(P.ScanNode(num_rows(2)),
                               P.ScanNode(more_rows(2))),
            P.NestedLoopJoinNode(P.ScanNode(num_rows(3)),
                                 P.ScanNode(more_rows(3)), "n", "n"),
            P.CacheNode(P.LazyRowSet(P.ScanNode(num_rows(5)))),
        ]
        for plan in plans:
            assert verify_plan(plan).ok, plan.describe()

    def test_theta_join_verifies(self):
        theta = P.ThetaJoinNode(
            P.ScanNode(num_rows(4)), P.ScanNode(more_rows(4)),
            "n < right_n",
        )
        assert verify_plan(theta).ok

    def test_assert_valid_plan_on_good_plan(self):
        assert_valid_plan(deep_plan())  # does not raise


class TestCorruptedPlans:
    def test_project_with_phantom_name(self):
        plan = P.ProjectNode(P.ScanNode(num_rows(5)), ["n"])
        plan._names = ("n", "phantom")  # corrupt after construction
        report = verify_plan(plan)
        assert "T2-E111" in report.codes()

    def test_predicate_not_closed_over_schema(self):
        plan = restrict_over(num_rows(5), "n < 3")
        # Projecting away a column the predicate uses, *below* the restrict.
        plan._children = (P.ProjectNode(P.ScanNode(num_rows(5)), ["label"]),)
        report = verify_plan(plan)
        findings = report.by_code("T2-E111")
        assert findings
        assert any("n" in d.message for d in findings)

    def test_schema_not_matching_children(self):
        plan = P.ProjectNode(P.ScanNode(num_rows(5)), ["n"])
        plan._schema = NUMS  # claims both columns survive projection
        assert not verify_plan(plan).ok

    def test_union_schema_mismatch(self):
        union = P.UnionNode(P.ScanNode(num_rows(3)), P.ScanNode(num_rows(3)))
        union._children = (P.ScanNode(num_rows(3)), P.ScanNode(more_rows(3)))
        assert not verify_plan(union).ok

    def test_limit_negative_count(self):
        plan = P.LimitNode(P.ScanNode(num_rows(5)), 3)
        plan._count = -2
        assert not verify_plan(plan).ok

    def test_children_list_instead_of_tuple(self):
        plan = P.ProjectNode(P.ScanNode(num_rows(5)), ["n"])
        plan._children = list(plan._children)
        report = verify_plan(plan)
        assert any("tuple" in d.message for d in report)

    def test_cycle_detected(self):
        a = P.DistinctNode(P.ScanNode(num_rows(3)))
        b = P.DistinctNode(a)
        a._children = (b,)  # a <-> b
        report = verify_plan(b)
        assert any("cycle" in d.message.lower() for d in report)

    def test_assert_valid_plan_raises_with_report(self):
        plan = P.ProjectNode(P.ScanNode(num_rows(5)), ["n"])
        plan._names = ("ghost",)
        with pytest.raises(StaticAnalysisError) as exc:
            assert_valid_plan(plan)
        assert exc.value.report is not None
        assert "T2-E111" in exc.value.report.codes()


class TestRewriteSafety:
    def test_optimizer_output_verifies(self):
        plan = P.ProjectNode(
            restrict_over(num_rows(100), "n < 50"), ["n"]
        )
        optimized, _log = optimize_plan(plan, ExecConfig())
        assert verify_plan(optimized).ok
        # Rewrites preserve the root schema.
        assert optimized.schema.names == ("n",)

    def test_optimizer_runs_installed_verifier(self):
        calls = []
        previous = P.plan_verifier()
        P.set_plan_verifier(lambda node: calls.append(node))
        try:
            optimize_plan(restrict_over(num_rows(10), "n < 5"), ExecConfig())
        finally:
            P.set_plan_verifier(previous)
        assert calls  # the verifier hook observed the optimized plan


class TestEnvironmentHook:
    @pytest.fixture(autouse=True)
    def _verifier_off(self):
        with use_config(verify=False):
            yield

    def test_install_from_env_off(self):
        with use_config(from_env({})):
            assert P.plan_verifier() is None

    def test_install_from_env_on(self):
        with use_config(from_env({"REPRO_PLAN_VERIFY": "1"})):
            assert P.plan_verifier() is assert_valid_plan
        assert P.plan_verifier() is None

    def test_open_hook_rejects_corrupt_plan(self):
        plan = P.ProjectNode(P.ScanNode(num_rows(5)), ["n"])
        plan._names = ("ghost",)
        with use_config(verify=True), pytest.raises(StaticAnalysisError):
            plan.execute()

    def test_open_hook_passes_good_plan(self):
        with use_config(verify=True):
            result = restrict_over(num_rows(10), "n < 4").execute()
        assert len(result) == 4
