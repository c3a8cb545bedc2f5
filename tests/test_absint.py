"""Abstract interpretation (repro.analyze.absint): domains, hazard proofs,
guard elision, the parallel-region effect lint (T2-E112), and deep program
checking (T2-W204/T2-W205/T2-I301)."""

from __future__ import annotations

import math

import pytest

from repro.analyze import absint
from repro.analyze.absint import (
    AbstractValue,
    HazardProofs,
    Interval,
    abstract_eval,
    absint_enabled,
    analyze_hazards,
    check_program_deep,
    env_from_stats,
    install_from_env,
    plan_column_facts,
    set_absint_enabled,
    top_env,
)
from repro.analyze.diagnostics import CODES, register_code
from repro.analyze.planverify import assert_valid_plan, verify_plan
from repro.dbms import plan as P
from repro.dbms import types as T
from repro.dbms.catalog import stats_for
from repro.dbms.columnar import ColumnarConfig
from repro.dbms.expr import Binary, Call, FieldRef, Literal
from repro.dbms.parser import parse_expression, parse_predicate
from repro.dbms.plan_parallel import (
    ParallelConfig,
    ParallelHashJoinNode,
    ParallelMapNode,
    parallelize_plan,
)
from repro.dbms.plan_rewrite import columnarize_plan, optimize_plan
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Schema
from repro.obs import global_registry

NUMS = Schema([("n", "int"), ("x", "float"), ("label", "text")])


def num_rows(count: int) -> RowSet:
    return RowSet.from_dicts(
        NUMS,
        [{"n": i, "x": i * 0.5, "label": f"row{i}"} for i in range(count)],
    )


def ev(source: str, env=None, schema: Schema = NUMS, proofs=None):
    return abstract_eval(
        parse_expression(source, schema), env or {}, schema, proofs
    )


@pytest.fixture(autouse=True)
def _absint_off():
    """Every test starts (and ends) with the interpreter uninstalled."""
    set_absint_enabled(False)
    yield
    set_absint_enabled(False)


class TestInterval:
    def test_top_and_point(self):
        assert Interval().is_top and not Interval().bounded
        assert Interval.point(3) == Interval(3, 3)
        assert Interval(1, 5).contains(3) and not Interval(1, 5).contains(6)

    def test_join_meet(self):
        assert Interval(0, 2).join(Interval(5, 9)) == Interval(0, 9)
        assert Interval(0, 7).meet(Interval(5, 9)) == Interval(5, 7)

    def test_excludes_zero(self):
        assert Interval(1, 9).excludes_zero()
        assert Interval(-9, -1).excludes_zero()
        assert not Interval(-1, 1).excludes_zero()
        assert not Interval(0, 5).excludes_zero()

    def test_within_exact_int(self):
        assert Interval(-(2**53), 2**53).within_exact_int()
        assert not Interval(0, 2**53 + 1).within_exact_int()


class TestAbstractValue:
    def test_constant(self):
        av = AbstractValue.constant(4)
        assert av.is_const and av.const == 4
        assert av.interval == Interval(4, 4) and av.sign == "+"

    def test_float_constant_cannot_be_nan(self):
        # Stored floats can never be NaN (the type system rejects them);
        # NaN enters only through arithmetic, tracked by ``maybe_nan``.
        av = AbstractValue.constant(2.5)
        assert av.type is T.FLOAT and not av.maybe_nan

    def test_top_by_type(self):
        assert AbstractValue.top(T.INT).maybe_nan is False
        assert AbstractValue.top(T.FLOAT).maybe_nan is True
        assert AbstractValue.top(T.TEXT).interval is None

    def test_sign(self):
        assert AbstractValue(T.FLOAT, Interval(-5, -1)).sign == "-"
        assert AbstractValue(T.INT, Interval(0, 0)).sign == "0"
        assert AbstractValue(T.INT, Interval(-1, 1)).sign == "±"
        assert AbstractValue(T.TEXT).sign == "?"

    def test_contains_soundness_checks(self):
        av = AbstractValue(T.FLOAT, Interval(0, 10))
        assert av.contains(5.0) and not av.contains(11.0)
        assert not av.contains(float("nan"))
        assert not av.contains(None)
        assert AbstractValue(T.FLOAT, Interval(0, 1),
                             maybe_nan=True).contains(float("nan"))

    def test_join_widens_numeric_types(self):
        joined = AbstractValue(T.INT, Interval(0, 5)).join(
            AbstractValue(T.FLOAT, Interval(2, 9))
        )
        assert joined.type is T.FLOAT
        assert joined.interval == Interval(0, 9)


class TestAbstractEval:
    def test_arithmetic_intervals(self):
        env = {"n": AbstractValue(T.INT, Interval(1, 10))}
        assert ev("n + 5", env).interval == Interval(6, 15)
        assert ev("-n", env).interval == Interval(-10, -1)
        assert ev("n * 2", env).interval == Interval(2, 20)

    def test_square_is_never_negative(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(-4, 3))}
        av = ev("x * x", env)
        assert av.interval.lo >= 0 and av.interval.hi == 16
        assert not av.maybe_nan

    def test_division_by_zero_free_divisor(self):
        env = {"n": AbstractValue(T.INT, Interval(2, 4))}
        av = ev("10 / n", env)
        assert av.type is T.FLOAT
        assert av.interval == Interval(2.5, 5.0)

    def test_division_by_possibly_zero_is_top(self):
        env = {"n": AbstractValue(T.INT, Interval(-1, 1))}
        av = ev("10 / n", env)
        assert av.interval.is_top and av.maybe_nan

    def test_comparison_const_folds(self):
        env = {"n": AbstractValue(T.INT, Interval(0, 9))}
        assert ev("n < 100", env).const is True
        assert ev("n > 100", env).const is False
        assert not ev("n < 5", env).is_const

    def test_nan_blocks_always_true_not_always_false(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(0, 9), maybe_nan=True)}
        # NaN < 100 is False at runtime, so "always true" may not be claimed.
        assert not ev("x < 100.0", env).is_const
        # NaN > 100 is also False, so "always false" still holds.
        assert ev("x > 100.0", env).const is False

    def test_conditional_joins_branches(self):
        env = {"n": AbstractValue(T.INT, Interval(0, 9))}
        av = ev("if n < 5 then 1 else 100", env)
        assert av.interval == Interval(1, 100)

    def test_calls(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(4.0, 16.0))}
        assert ev("sqrt(x)", env).interval == Interval(2.0, 4.0)
        assert ev("abs(0.0 - x)", env).interval == Interval(4.0, 16.0)
        assert ev("floor(x)", env).interval == Interval(4, 16)
        assert ev("min(x, 6.0)", env).interval == Interval(4.0, 6.0)
        assert ev("month(d)", schema=Schema([("d", "date")])
                  ).interval == Interval(1, 12)

    def test_structural_proof_without_any_facts(self):
        # y*y + 1 >= 1 with no entry facts at all: typed top is enough.
        proofs = HazardProofs()
        ev("x / (x * x + 1.0)", {}, NUMS, proofs)
        assert len(proofs) == 1
        assert any("div_zero" in note for note in proofs.notes)


class TestHazardProofs:
    def test_div_zero_proof(self):
        env = {"n": AbstractValue(T.INT, Interval(1, 9))}
        proofs = analyze_hazards(parse_expression("10 / n", NUMS), NUMS, env)
        expr = parse_expression("10 / n", NUMS)
        assert len(proofs) >= 1
        assert any("div_zero" in n for n in proofs.notes)

    def test_no_proof_when_divisor_spans_zero(self):
        env = {"n": AbstractValue(T.INT, Interval(-5, 5))}
        proofs = analyze_hazards(parse_expression("10 / n", NUMS), NUMS, env)
        assert not any("div_zero" in n for n in proofs.notes)

    def test_exact_int_proof_for_bounded_division(self):
        env = {"n": AbstractValue(T.INT, Interval(1, 1000))}
        expr = parse_expression("n / 4", NUMS)
        proofs = HazardProofs()
        abstract_eval(expr, env, NUMS, proofs)
        assert proofs.proves(expr, "div_zero")
        assert proofs.proves(expr, "exact_int")

    def test_sqrt_nonneg_proof(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(0.0, 100.0))}
        expr = parse_expression("sqrt(x)", NUMS)
        proofs = HazardProofs()
        abstract_eval(expr, env, NUMS, proofs)
        assert proofs.proves(expr, "sqrt_nonneg")

    def test_no_sqrt_proof_for_possibly_negative(self):
        env = {"x": AbstractValue(T.FLOAT, Interval(-1.0, 100.0))}
        expr = parse_expression("sqrt(x)", NUMS)
        proofs = HazardProofs()
        abstract_eval(expr, env, NUMS, proofs)
        assert not proofs.proves(expr, "sqrt_nonneg")

    def test_dead_conditional_branch_proves_nothing(self):
        # The else branch is statically dead, but the compiler compiles
        # both branches — a dead-branch proof must not elide a live guard.
        env = {
            "n": AbstractValue(T.INT, Interval(0, 9)),
            "x": AbstractValue(T.FLOAT, Interval(1.0, 2.0)),
        }
        expr = parse_expression("if 1 < 2 then x else x / x", NUMS)
        proofs = HazardProofs()
        abstract_eval(expr, env, NUMS, proofs)
        assert len(proofs) == 0


class TestEntryFacts:
    def test_env_from_stats(self):
        rows = num_rows(10)
        env = env_from_stats(stats_for(rows), rows.schema)
        assert env["n"].interval == Interval(0, 9)
        assert env["x"].interval == Interval(0.0, 4.5)
        assert not env["x"].maybe_nan  # observed data had no NaN
        assert env["label"].interval is None

    def test_nan_enters_only_through_arithmetic(self):
        # Stored columns are NaN-free, but dividing by a zero-spanning
        # value taints the result with ``maybe_nan``.
        rows = num_rows(10)
        env = env_from_stats(stats_for(rows), rows.schema)
        assert not env["x"].maybe_nan
        tainted = ev("x / (n - 5)", env)
        assert tainted.maybe_nan

    def test_constant_column(self):
        rows = RowSet.from_dicts(
            NUMS, [{"n": 7, "x": 1.0, "label": "a"}] * 3
        )
        env = env_from_stats(stats_for(rows), rows.schema)
        assert env["n"].is_const and env["n"].const == 7


class TestPlanColumnFacts:
    def test_scan_uses_stats(self):
        facts = plan_column_facts(P.ScanNode(num_rows(10)))
        assert facts["n"].interval == Interval(0, 9)

    def test_restrict_refines(self):
        scan = P.ScanNode(num_rows(10))
        node = P.RestrictNode(scan, parse_predicate("n > 5", NUMS))
        facts = plan_column_facts(node)
        assert facts["n"].interval == Interval(5, 9)

    def test_project_and_rename(self):
        scan = P.ScanNode(num_rows(10))
        project = P.ProjectNode(scan, ["n"])
        assert set(plan_column_facts(project)) == {"n"}
        renamed = P.RenameNode(scan, "n", "m")
        assert plan_column_facts(renamed)["m"].interval == Interval(0, 9)

    def test_row_subset_ops_pass_through(self):
        scan = P.ScanNode(num_rows(10))
        node = P.LimitNode(P.OrderByNode(scan, ["n"]), 3)
        assert plan_column_facts(node)["n"].interval == Interval(0, 9)

    def test_unknown_op_is_typed_top_not_none(self):
        join = P.HashJoinNode(
            P.ScanNode(num_rows(3)), P.ScanNode(num_rows(3)), "n", "n"
        )
        facts = plan_column_facts(join)
        assert set(facts) == set(join.schema.names)
        assert all(v is not None for v in facts.values())

    def test_lazy_scan_is_not_forced(self):
        lazy = P.LazyRowSet(P.ScanNode(num_rows(10)))
        facts = plan_column_facts(P.ScanNode(lazy))
        assert facts["n"].interval == Interval(0, 9)
        assert not lazy.has_started


class TestGuardElision:
    """End-to-end: enabling the interpreter elides proven guards while
    producing identical rows, and EXPLAIN shows the proof."""

    PREDICATE = "x / (x * x + 1.0) > 0.25"

    def _plan(self):
        scan = P.ScanNode(num_rows(50))
        return P.RestrictNode(scan, parse_predicate(self.PREDICATE, NUMS))

    def test_rows_identical_with_and_without(self):
        config = ColumnarConfig(batch_rows=16)
        baseline, _ = columnarize_plan(self._plan(), config)
        rows_off = list(baseline.execute())
        set_absint_enabled(True)
        proven, _ = columnarize_plan(self._plan(), config)
        rows_on = list(proven.execute())
        assert rows_on == rows_off

    def test_proof_attached_and_counters_advance(self):
        proofs_before = global_registry().counter(
            *absint.PROOFS_COUNTER).value()
        from repro.dbms.expr_compile import ELIDED_COUNTER

        elided_before = global_registry().counter(*ELIDED_COUNTER).value()
        set_absint_enabled(True)
        plan, _ = columnarize_plan(self._plan(), ColumnarConfig())
        restrict = plan.children[0]
        assert isinstance(restrict, P.ColumnarRestrictNode)
        assert restrict.proof is not None and "div_zero" in restrict.proof
        assert global_registry().counter(
            *absint.PROOFS_COUNTER).value() > proofs_before
        assert global_registry().counter(
            *ELIDED_COUNTER).value() > elided_before

    def test_explain_text_shows_proof(self):
        set_absint_enabled(True)
        plan, _ = columnarize_plan(self._plan(), ColumnarConfig())
        assert "proof=" in P.explain_plan(plan)

    def test_explain_json_shows_proof(self):
        from repro.dataflow.explain import _plan_to_dict

        set_absint_enabled(True)
        plan, _ = columnarize_plan(self._plan(), ColumnarConfig())
        tree = _plan_to_dict(plan, [0])
        assert tree["children"][0]["proof"]

    def test_no_proof_without_interpreter(self):
        plan, _ = columnarize_plan(self._plan(), ColumnarConfig())
        assert plan.children[0].proof is None
        assert "proof=" not in P.explain_plan(plan)

    def test_parallel_map_carries_proof(self):
        set_absint_enabled(True)
        config = ParallelConfig(workers=2, morsel_size=8)
        plan, _ = parallelize_plan(
            self._plan(), config, columnar=ColumnarConfig()
        )
        assert isinstance(plan, ParallelMapNode)
        assert plan.proof is not None and "div_zero" in plan.proof
        rows = list(plan.execute())
        serial = list(self._plan().execute())
        assert rows == serial

    def test_enable_disable_roundtrip(self):
        assert absint_enabled() is False
        assert set_absint_enabled(True) is False
        assert absint_enabled() is True
        assert set_absint_enabled(False) is True
        assert absint_enabled() is False

    def test_install_from_env(self):
        assert install_from_env({}) is False
        assert not absint_enabled()
        assert install_from_env({"REPRO_ABSINT": "1"}) is True
        assert absint_enabled()


class TestCertifiedRewrites:
    """T2-W204 / T2-W205 are ``lint --deep`` diagnostics only: backend
    selection never removes or prunes operators, so EXPLAIN trees are
    identical with the interpreter on or off."""

    def test_optimize_plan_keeps_dead_restricts_when_enabled(self):
        set_absint_enabled(True)
        previous = P.plan_verifier()
        P.set_plan_verifier(assert_valid_plan)
        try:
            always_true = P.RestrictNode(
                P.ScanNode(num_rows(10)), parse_predicate("n >= 0", NUMS)
            )
            always_false = P.RestrictNode(
                P.ScanNode(num_rows(10)), parse_predicate("n > 100", NUMS)
            )
            for plan in (always_true, always_false):
                optimized, log = optimize_plan(plan)
                assert optimized is plan and log == []
        finally:
            P.set_plan_verifier(previous)

    def test_optimize_plan_untouched_when_disabled(self):
        plan = P.RestrictNode(
            P.ScanNode(num_rows(10)), parse_predicate("n >= 0", NUMS)
        )
        optimized, log = optimize_plan(plan)
        assert not any("absint" in line for line in log)


class TestEffectsTable:
    def test_every_plan_operator_declares_an_effect(self):
        undeclared = [
            name
            for name, obj in vars(P).items()
            if isinstance(obj, type)
            and issubclass(obj, P.PlanNode)
            and obj not in (P.PlanNode, P.ColumnarNode)
            and P.declared_effect(obj) is None
        ]
        assert undeclared == []

    def test_parallel_operators_declare_parallel(self):
        assert P.declared_effect(ParallelMapNode) == P.EFFECT_PARALLEL
        assert P.declared_effect(ParallelHashJoinNode) == P.EFFECT_PARALLEL

    def test_subclasses_do_not_inherit(self):
        class ShadowRestrict(P.RestrictNode):
            pass

        assert P.declared_effect(ShadowRestrict) is None
        node = ShadowRestrict(
            P.ScanNode(num_rows(3)), parse_predicate("n < 2", NUMS)
        )
        assert P.declared_effect(node) is None


class TestRaceLint:
    """T2-E112: only declared-pure operators may run inside a parallel
    region, and the partitioned leaf must be a declared source."""

    def _parallel(self, chain_root, leaf, chain, sample=None):
        return ParallelMapNode(
            chain_root, leaf, chain, sample, ParallelConfig(workers=2)
        )

    def test_clean_region_verifies(self):
        plan = P.RestrictNode(
            P.ScanNode(num_rows(100)), parse_predicate("n < 50", NUMS)
        )
        wrapped, _ = parallelize_plan(
            plan, ParallelConfig(workers=2, morsel_size=8)
        )
        assert isinstance(wrapped, ParallelMapNode)
        report = verify_plan(wrapped)
        assert report.ok, report.render()

    def test_undeclared_impure_template_rejected(self):
        class ImpureRestrict(P.RestrictNode):
            """A test double with (hypothetical) side effects — undeclared."""

        node = ImpureRestrict(
            P.ScanNode(num_rows(10)), parse_predicate("n < 5", NUMS)
        )
        region = self._parallel(node, node.children[0], [node])
        report = verify_plan(region)
        findings = report.by_code("T2-E112")
        assert findings and not report.ok
        assert any("declared effect" in d.message for d in findings)

    def test_parallelize_never_accepts_undeclared_subclass(self):
        class ImpureRestrict(P.RestrictNode):
            pass

        plan = ImpureRestrict(
            P.ScanNode(num_rows(100)), parse_predicate("n < 50", NUMS)
        )
        wrapped, _ = parallelize_plan(
            plan, ParallelConfig(workers=2, morsel_size=8)
        )
        assert not isinstance(wrapped, ParallelMapNode)

    def test_blocking_leaf_rejected(self):
        distinct = P.DistinctNode(P.ScanNode(num_rows(10)))
        restrict = P.RestrictNode(distinct, parse_predicate("n < 5", NUMS))
        region = self._parallel(restrict, distinct, [restrict])
        report = verify_plan(region)
        assert "T2-E112" in report.codes()

    def test_unseeded_sample_rejected(self):
        sample = P.SampleNode(P.ScanNode(num_rows(20)), 0.5, seed=3)
        restrict = P.RestrictNode(sample, parse_predicate("n < 5", NUMS))
        region = self._parallel(
            restrict, sample.children[0], [restrict], sample=sample
        )
        assert verify_plan(region).ok
        sample._seed = None
        report = verify_plan(self._parallel(
            restrict, sample.children[0], [restrict], sample=sample
        ))
        assert "T2-E112" in report.codes()


class TestDiagnosticCatalog:
    def test_new_codes_registered(self):
        for code in ("T2-W204", "T2-W205", "T2-E112", "T2-I301"):
            assert code in CODES

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError):
            register_code("T2-W204", "something else")

    def test_info_severity_excluded_from_warnings(self):
        from repro.analyze.diagnostics import Diagnostic, Report

        report = Report([Diagnostic("T2-I301", "proof: note")])
        assert report.ok and not report.warnings()
        assert len(report.infos()) == 1


class TestCheckProgramDeep:
    def _program(self, predicate):
        from repro.dataflow.boxes_db import AddTableBox, RestrictBox
        from repro.dataflow.graph import Program
        from repro.viewer.viewer import ViewerBox

        program = Program("deep")
        source = program.add_box(AddTableBox(table="Stations"))
        restrict = program.add_box(RestrictBox(predicate=predicate))
        viewer = program.add_box(ViewerBox(name="win"))
        program.connect(source, "out", restrict, "in")
        program.connect(restrict, "out", viewer, "in")
        return program

    def test_clean_program(self, stations_db):
        report = check_program_deep(
            self._program("altitude > 50.0"), stations_db
        )
        assert "T2-W204" not in report.codes()
        assert "T2-W205" not in report.codes()

    def test_always_true_predicate_w204(self, stations_db):
        # Every station altitude is >= 7.0.
        report = check_program_deep(
            self._program("altitude > 0.0"), stations_db
        )
        found = report.by_code("T2-W204")
        assert found and "always true" in found[0].message

    def test_always_false_predicate_w204_and_empty_viewer_w205(
        self, stations_db
    ):
        report = check_program_deep(
            self._program("altitude > 10000.0"), stations_db
        )
        assert "T2-W204" in report.codes()
        assert "T2-W205" in report.codes()

    def test_proof_notes_i301(self, stations_db):
        # station_id is in [1, 5], so the division can never trap; the
        # ratio spans 50.0, so the predicate itself is not constant.
        report = check_program_deep(
            self._program("altitude / station_id > 50.0"), stations_db
        )
        notes = report.by_code("T2-I301")
        assert notes and any("div_zero" in d.message for d in notes)
        assert report.ok and not report.warnings()  # notes are not warnings

    def test_refinement_chains_through_restricts(self, stations_db):
        from repro.dataflow.boxes_db import AddTableBox, RestrictBox
        from repro.dataflow.graph import Program
        from repro.viewer.viewer import ViewerBox

        program = Program("chain")
        source = program.add_box(AddTableBox(table="Stations"))
        first = program.add_box(RestrictBox(predicate="altitude > 100.0"))
        second = program.add_box(RestrictBox(predicate="altitude > 50.0"))
        viewer = program.add_box(ViewerBox(name="win"))
        program.connect(source, "out", first, "in")
        program.connect(first, "out", second, "in")
        program.connect(second, "out", viewer, "in")
        report = check_program_deep(program, stations_db)
        # Downstream of "altitude > 100", the second predicate is dead-true.
        found = report.by_code("T2-W204")
        assert found and "always true" in found[0].message

    def test_lint_deep_cli(self, capsys):
        from repro.cli import main

        assert main(["lint", "--deep", "--figure", "fig4", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"diagnostics"' in out
