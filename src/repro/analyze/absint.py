"""Abstract interpretation over expressions, plans, and programs.

This is the static mirror of the *values* that flow through a Tioga-2
program, the way :mod:`repro.analyze.checker` is the static mirror of the
*schemas*.  Four abstract domains are tracked per attribute:

* **interval** — a closed range ``[lo, hi]`` over the extended reals
  covering every possible (non-NaN) value; ``maybe_nan`` records whether a
  float NaN can occur, since a NaN lies outside every interval;
* **nullability** — whether the value may be missing.  Tioga-2 tuples are
  total (typed columns admit no NULL), so facts derived from stored data
  are always non-null; the domain is carried so future NULL-bearing
  sources degrade soundly rather than silently;
* **constancy** — a known concrete value, when one is provable;
* **sign** — derived from the interval (``+``, ``-``, ``0``, ``±``).

Entry facts come from :func:`repro.dbms.catalog.stats_for` (per-column
min/max over immutable row sets, memoized per table version); the
evaluator then runs the same structural recursion as ``Expr.infer`` but
over abstract values, collecting **hazard proofs** at every site where the
columnar compiler would otherwise emit a runtime guard:

``div_zero``
    the divisor's interval excludes 0 (sound even for NaN-bearing columns:
    ``NaN != 0``, so the zero-divide guard can never fire);
``exact_int``
    both int operands are bounded within ±2**53, so numpy's float64
    promotion is exact;
``sqrt_nonneg``
    the argument's interval lies in ``[0, inf)`` (a NaN argument never
    trips the ``x < 0`` guard either way).

Proofs are keyed by the *identity* of the expression node — the plan node
holds the same live ``Expr`` objects the compiler walks, so the keys line
up by construction.

The same machinery powers:

* guard elision in :func:`repro.dbms.expr_compile.compile_expression`
  (``hazards=`` parameter), surfaced as ``proof=`` in EXPLAIN and counted
  in ``absint.proofs`` / ``absint.guards_elided``;
* :func:`check_program_deep` — whole-program propagation along the wires
  (``repro lint --deep``), reusing the per-box transfer registry for
  schemas, reporting dead predicates (``T2-W204``) and statically empty
  results (``T2-W205``), and emitting ``T2-I301`` proof notes with source
  positions.  These are diagnostics only: plans are never rewritten from
  them, so EXPLAIN is identical with the interpreter on or off.

Enable with ``REPRO_ABSINT=1`` or :func:`set_absint_enabled`; everything
here is advisory — with the interpreter off, compiled kernels keep their
runtime guards and behave exactly as before.
"""

from __future__ import annotations

import math
import os
from typing import Any, Callable, Iterable, Mapping

from repro.analyze.diagnostics import Diagnostic, Report
from repro.dbms import plan as P
from repro.dbms import types as T
from repro.dbms.catalog import Database, TableStats, stats_for
from repro.dbms.expr import (
    Binary,
    Call,
    Conditional,
    Expr,
    FieldRef,
    Literal,
    Unary,
)
from repro.dbms.expr_compile import ELIDED_COUNTER
from repro.dbms.relation import RowSet
from repro.dbms.tuples import Schema

__all__ = [
    "AbstractValue",
    "HazardProofs",
    "Interval",
    "PROOFS_COUNTER",
    "abstract_eval",
    "absint_enabled",
    "analyze_hazards",
    "check_program_deep",
    "env_from_stats",
    "install_from_env",
    "plan_column_facts",
    "prove_plan_predicate",
    "set_absint_enabled",
    "top_env",
]

_INF = float("inf")

#: Largest int magnitude float64 represents exactly (mirror of expr_compile).
_EXACT_INT = 2 ** 53

#: Canonical declaration for the proof counter; ``stats --check`` verifies
#: every declaration site uses the identical description.
PROOFS_COUNTER = (
    "absint.proofs",
    "hazard-impossibility proofs produced by the abstract interpreter",
)

_UNKNOWN = object()  # constancy lattice top ("no known constant")


def _fmt_bound(value: Any) -> str:
    if isinstance(value, float):
        if value == _INF:
            return "inf"
        if value == -_INF:
            return "-inf"
        return f"{value:g}"
    return str(value)


class Interval:
    """A closed interval over the extended reals (the value-range domain).

    ``Interval()`` is top.  There is no bottom element: emptiness of a
    *relation* is tracked separately (an empty column satisfies any
    interval vacuously).  No widening operator is needed — expressions and
    plans are DAGs, so abstract evaluation always terminates.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Any = -_INF, hi: Any = _INF):
        self.lo = lo
        self.hi = hi

    @staticmethod
    def point(value: Any) -> "Interval":
        return Interval(value, value)

    @property
    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF

    @property
    def bounded(self) -> bool:
        return self.lo != -_INF and self.hi != _INF

    def contains(self, value: Any) -> bool:
        return self.lo <= value <= self.hi

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        """Intersection; may produce an inverted (vacuous) interval."""
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def excludes_zero(self) -> bool:
        return self.lo > 0 or self.hi < 0

    def within_exact_int(self) -> bool:
        return self.lo >= -_EXACT_INT and self.hi <= _EXACT_INT

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Interval)
            and self.lo == other.lo
            and self.hi == other.hi
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{_fmt_bound(self.lo)}, {_fmt_bound(self.hi)}]"


_TOP_IV = Interval()


class AbstractValue:
    """One attribute's abstract value across all four domains."""

    __slots__ = ("type", "interval", "maybe_nan", "nullable", "const")

    def __init__(
        self,
        type_: T.AtomicType | None,
        interval: Interval | None = None,
        *,
        maybe_nan: bool = False,
        nullable: bool = False,
        const: Any = _UNKNOWN,
    ):
        self.type = type_
        self.interval = interval
        self.maybe_nan = maybe_nan
        self.nullable = nullable
        self.const = const

    # -- constructors ---------------------------------------------------

    @staticmethod
    def top(atomic: T.AtomicType | None) -> "AbstractValue":
        if atomic is T.INT:
            return AbstractValue(atomic, _TOP_IV)
        if atomic is T.FLOAT:
            return AbstractValue(atomic, _TOP_IV, maybe_nan=True)
        return AbstractValue(atomic)

    @staticmethod
    def constant(value: Any) -> "AbstractValue":
        atomic = T.infer_type(value)
        interval = None
        maybe_nan = False
        if atomic in (T.INT, T.FLOAT):
            if isinstance(value, float) and value != value:
                interval, maybe_nan = _TOP_IV, True
            else:
                interval = Interval.point(value)
        return AbstractValue(
            atomic, interval, maybe_nan=maybe_nan, const=value
        )

    # -- queries --------------------------------------------------------

    @property
    def is_const(self) -> bool:
        return self.const is not _UNKNOWN

    @property
    def sign(self) -> str:
        """Derived sign domain: '+', '-', '0', '±', or '?' (non-numeric)."""
        if self.interval is None:
            return "?"
        if self.interval.lo > 0:
            return "+"
        if self.interval.hi < 0:
            return "-"
        if self.interval.lo == 0 == self.interval.hi:
            return "0"
        return "±"

    def contains(self, value: Any) -> bool:
        """Soundness check: could a concrete run produce ``value``?"""
        if value is None:
            return self.nullable
        if isinstance(value, float) and value != value:
            return self.maybe_nan
        if self.is_const:
            try:
                if not (value == self.const):
                    return False
            except Exception:
                return True
        if self.interval is not None and isinstance(value, (int, float)) \
                and not isinstance(value, bool):
            return self.interval.contains(value)
        return True

    def join(self, other: "AbstractValue") -> "AbstractValue":
        if self.type is other.type:
            atomic = self.type
        elif (
            self.type is not None and other.type is not None
            and T.numeric(self.type) and T.numeric(other.type)
        ):
            atomic = T.FLOAT
        else:
            atomic = None
        interval = None
        if self.interval is not None and other.interval is not None:
            interval = self.interval.join(other.interval)
        const = _UNKNOWN
        if self.is_const and other.is_const:
            try:
                if self.const == other.const:
                    const = self.const
            except Exception:
                pass
        return AbstractValue(
            atomic,
            interval,
            maybe_nan=self.maybe_nan or other.maybe_nan,
            nullable=self.nullable or other.nullable,
            const=const,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [f"{self.type}"]
        if self.interval is not None:
            parts.append(repr(self.interval))
        if self.maybe_nan:
            parts.append("nan?")
        if self.nullable:
            parts.append("null?")
        if self.is_const:
            parts.append(f"={self.const!r}")
        return f"AbstractValue({' '.join(parts)})"


def _bool_const(value: bool) -> AbstractValue:
    return AbstractValue(T.BOOL, const=value)


_BOOL_TOP = AbstractValue(T.BOOL)


# ---------------------------------------------------------------------------
# Interval arithmetic (conservative; bounds may be Python ints or floats)
# ---------------------------------------------------------------------------


def _candidates(fn: Callable[[Any, Any], Any], l: Interval, r: Interval):
    out = []
    for a in (l.lo, l.hi):
        for b in (r.lo, r.hi):
            try:
                out.append(fn(a, b))
            except OverflowError:
                out.append(math.nan)
    return out


def _from_candidates(values: Iterable[Any]) -> tuple[Interval, bool]:
    lo, hi = _INF, -_INF
    nan = False
    for v in values:
        if isinstance(v, float) and v != v:
            nan = True
            continue
        lo = min(lo, v)
        hi = max(hi, v)
    if nan or lo > hi:
        return _TOP_IV, True
    return Interval(lo, hi), False


def _add_iv(l: Interval, r: Interval) -> tuple[Interval, bool]:
    nan = (l.hi == _INF and r.lo == -_INF) or (l.lo == -_INF and r.hi == _INF)
    lo = -_INF if (l.lo == -_INF or r.lo == -_INF) else l.lo + r.lo
    hi = _INF if (l.hi == _INF or r.hi == _INF) else l.hi + r.hi
    return Interval(lo, hi), nan


def _neg_iv(iv: Interval) -> Interval:
    return Interval(-iv.hi, -iv.lo)


def _mul_iv(l: Interval, r: Interval) -> tuple[Interval, bool]:
    if (not l.bounded and r.contains(0)) or (not r.bounded and l.contains(0)):
        return _TOP_IV, True  # 0 * inf is NaN at runtime
    iv, nan = _from_candidates(_candidates(lambda a, b: a * b, l, r))
    if not l.bounded or not r.bounded:
        # Infinite bounds survive candidate arithmetic but the interior of
        # the product is still covered; keep the candidate hull.
        pass
    return iv, nan


def _div_iv(l: Interval, r: Interval) -> tuple[Interval, bool]:
    if not r.excludes_zero():
        return _TOP_IV, True  # divide-by-zero possible: no range claim
    if not l.bounded or not r.bounded:
        return _TOP_IV, l.lo == -_INF or l.hi == _INF  # inf/inf is NaN
    return _from_candidates(_candidates(lambda a, b: a / b, l, r))


def _mod_iv(l: Interval, r: Interval) -> tuple[Interval, bool]:
    del l
    if r.lo > 0:
        return Interval(0, r.hi), False
    if r.hi < 0:
        return Interval(r.lo, 0), False
    return _TOP_IV, True


def _abs_iv(iv: Interval) -> Interval:
    if iv.lo >= 0:
        return iv
    if iv.hi <= 0:
        return _neg_iv(iv)
    return Interval(0, max(-iv.lo, iv.hi))


def _square_iv(iv: Interval) -> Interval:
    """The interval of ``x * x`` for x in ``iv`` — never negative."""
    if not iv.bounded:
        return Interval(0, _INF)
    a = _abs_iv(iv)
    try:
        return Interval(a.lo * a.lo, a.hi * a.hi)
    except OverflowError:
        return Interval(0, _INF)


# ---------------------------------------------------------------------------
# Hazard proofs
# ---------------------------------------------------------------------------


class HazardProofs:
    """Proof facts collected during one abstract evaluation.

    ``proven`` is keyed by ``(id(expr_node), kind)`` — the compiler walks
    the very same live ``Expr`` objects, so identity keys are stable for
    the lifetime of the plan that holds them.
    """

    __slots__ = ("proven", "notes")

    def __init__(self) -> None:
        self.proven: set[tuple[int, str]] = set()
        self.notes: list[str] = []

    def prove(self, node: Expr, kind: str, note: str) -> None:
        key = (id(node), kind)
        if key not in self.proven:
            self.proven.add(key)
            self.notes.append(note)

    def proves(self, node: Expr, kind: str) -> bool:
        return (id(node), kind) in self.proven

    def __len__(self) -> int:
        return len(self.proven)

    def proof_text(self) -> str:
        return "; ".join(self.notes)


# ---------------------------------------------------------------------------
# The abstract evaluator
# ---------------------------------------------------------------------------


def _numeric_avs(*avs: AbstractValue) -> bool:
    return all(
        av.type is not None and T.numeric(av.type) and av.interval is not None
        for av in avs
    )


def _result_numeric_type(op: str, l: AbstractValue, r: AbstractValue):
    if op == "/":
        return T.FLOAT
    return T.FLOAT if T.FLOAT in (l.type, r.type) else T.INT


def abstract_eval(
    expr: Expr,
    env: Mapping[str, AbstractValue],
    schema: Schema,
    proofs: HazardProofs | None = None,
) -> AbstractValue:
    """Evaluate ``expr`` over abstract values, collecting hazard proofs.

    ``env`` maps attribute names to facts; attributes absent from ``env``
    fall back to the typed top of their schema type, so structural proofs
    (``y*y + 1`` excludes 0) work even with no data facts at all.  The
    expression is assumed to typecheck against ``schema``; anything the
    evaluator does not model precisely returns a sound top.
    """
    if isinstance(expr, Literal):
        return AbstractValue.constant(expr.value)

    if isinstance(expr, FieldRef):
        fact = env.get(expr.name)
        if fact is not None:
            return fact
        atomic = schema.type_of(expr.name) if expr.name in schema else None
        return AbstractValue.top(atomic)

    if isinstance(expr, Unary):
        inner = abstract_eval(expr.operand, env, schema, proofs)
        if expr.op == "not":
            if inner.is_const:
                return _bool_const(not inner.const)
            return _BOOL_TOP
        # numeric negation
        if inner.is_const and not inner.maybe_nan:
            return AbstractValue.constant(-inner.const)
        if inner.interval is None:
            return AbstractValue.top(inner.type)
        return AbstractValue(
            inner.type, _neg_iv(inner.interval), maybe_nan=inner.maybe_nan
        )

    if isinstance(expr, Binary):
        return _eval_binary(expr, env, schema, proofs)

    if isinstance(expr, Conditional):
        condition = abstract_eval(expr.condition, env, schema, proofs)
        if condition.is_const:
            branch = (
                expr.then_branch if condition.const else expr.else_branch
            )
            # Still walk the dead branch for proof collection? No: a proof
            # from a branch that never executes must not elide a live
            # guard, and the compiler compiles both branches — so only
            # facts that hold on *all* paths may prove anything.  Evaluate
            # the dead branch without recording proofs.
            if proofs is not None:
                dead = (
                    expr.else_branch if condition.const else expr.then_branch
                )
                abstract_eval(dead, env, schema, None)
            return abstract_eval(branch, env, schema, proofs)
        then_av = abstract_eval(expr.then_branch, env, schema, proofs)
        else_av = abstract_eval(expr.else_branch, env, schema, proofs)
        return then_av.join(else_av)

    if isinstance(expr, Call):
        return _eval_call(expr, env, schema, proofs)

    return AbstractValue(None)


def _eval_binary(
    expr: Binary,
    env: Mapping[str, AbstractValue],
    schema: Schema,
    proofs: HazardProofs | None,
) -> AbstractValue:
    op = expr.op

    if op in ("and", "or"):
        l = abstract_eval(expr.left, env, schema, proofs)
        r = abstract_eval(expr.right, env, schema, proofs)
        if op == "and":
            if (l.is_const and l.const is False) or \
                    (r.is_const and r.const is False):
                return _bool_const(False)
            if l.is_const and r.is_const:
                return _bool_const(bool(l.const) and bool(r.const))
            return _BOOL_TOP
        if (l.is_const and l.const is True) or \
                (r.is_const and r.const is True):
            return _bool_const(True)
        if l.is_const and r.is_const:
            return _bool_const(bool(l.const) or bool(r.const))
        return _BOOL_TOP

    l = abstract_eval(expr.left, env, schema, proofs)
    r = abstract_eval(expr.right, env, schema, proofs)

    if op in ("+", "-", "*", "/", "%"):
        if l.is_const and r.is_const and not (l.maybe_nan or r.maybe_nan):
            try:
                return AbstractValue.constant(
                    Binary(op, Literal(l.const), Literal(r.const)).evaluate({})
                )
            except Exception:
                pass  # e.g. constant zero divide: fall through to top
        if not _numeric_avs(l, r):
            return AbstractValue.top(
                T.FLOAT if op == "/" else None
            )
        atomic = _result_numeric_type(op, l, r)
        li, ri = l.interval, r.interval
        nan_in = l.maybe_nan or r.maybe_nan
        if op == "+":
            iv, nan = _add_iv(li, ri)
        elif op == "-":
            iv, nan = _add_iv(li, _neg_iv(ri))
        elif op == "*":
            if str(expr.left) == str(expr.right):
                # x*x is a square: never negative, never NaN for real x.
                iv, nan = _square_iv(li), False
            else:
                iv, nan = _mul_iv(li, ri)
        elif op == "/":
            if proofs is not None:
                if ri.excludes_zero():
                    proofs.prove(
                        expr, "div_zero",
                        f"div_zero: divisor ({expr.right}) in {ri}",
                    )
                if l.type is T.INT and r.type is T.INT and \
                        li.within_exact_int() and ri.within_exact_int():
                    proofs.prove(
                        expr, "exact_int",
                        f"exact_int: ({expr.left}) in {li}, "
                        f"({expr.right}) in {ri}",
                    )
            iv, nan = _div_iv(li, ri)
        else:  # "%"
            if proofs is not None and ri.excludes_zero():
                proofs.prove(
                    expr, "div_zero",
                    f"div_zero: modulus ({expr.right}) in {ri}",
                )
            iv, nan = _mod_iv(li, ri)
        return AbstractValue(atomic, iv, maybe_nan=nan_in or nan)

    if op in ("=", "!=", "<", "<=", ">", ">="):
        if proofs is not None and {l.type, r.type} == {T.INT, T.FLOAT}:
            # Mixed int/float comparisons guard the int side's magnitude;
            # prove it bounded and the guard is dead.
            int_side_bounded = all(
                av.interval is not None and av.interval.within_exact_int()
                for av in (l, r) if av.type is T.INT
            )
            if int_side_bounded:
                proofs.prove(
                    expr, "exact_int",
                    f"exact_int: int side of ({expr}) bounded within 2^53",
                )
        return _compare(op, l, r)

    return AbstractValue.top(T.TEXT)  # "||"


def _compare(op: str, l: AbstractValue, r: AbstractValue) -> AbstractValue:
    if l.is_const and r.is_const and not (l.maybe_nan or r.maybe_nan):
        try:
            return _bool_const(
                Binary(op, Literal(l.const), Literal(r.const)).evaluate({})
            )
        except Exception:
            return _BOOL_TOP
    if not _numeric_avs(l, r):
        return _BOOL_TOP
    li, ri = l.interval, r.interval
    no_nan = not (l.maybe_nan or r.maybe_nan)
    # "Always true" claims require NaN-freedom (NaN comparisons are False);
    # "always false" claims hold regardless (NaN makes them False too).
    if op == "<":
        if no_nan and li.hi < ri.lo:
            return _bool_const(True)
        if li.lo >= ri.hi:
            return _bool_const(False)
    elif op == "<=":
        if no_nan and li.hi <= ri.lo:
            return _bool_const(True)
        if li.lo > ri.hi:
            return _bool_const(False)
    elif op == ">":
        if no_nan and li.lo > ri.hi:
            return _bool_const(True)
        if li.hi <= ri.lo:
            return _bool_const(False)
    elif op == ">=":
        if no_nan and li.lo >= ri.hi:
            return _bool_const(True)
        if li.hi < ri.lo:
            return _bool_const(False)
    elif op == "=":
        if li.hi < ri.lo or li.lo > ri.hi:
            return _bool_const(False)
    elif op == "!=":
        if li.hi < ri.lo or li.lo > ri.hi:
            # Disjoint intervals: non-NaN values differ, and NaN != x is
            # True as well — so the claim holds even with NaN present.
            return _bool_const(True)
    return _BOOL_TOP


_DATE_PART_RANGES = {
    "year": Interval(1, 9999),
    "month": Interval(1, 12),
    "day": Interval(1, 31),
    "day_of_year": Interval(1, 366),
}


def _eval_call(
    expr: Call,
    env: Mapping[str, AbstractValue],
    schema: Schema,
    proofs: HazardProofs | None,
) -> AbstractValue:
    name = expr.fn.name
    args = [abstract_eval(arg, env, schema, proofs) for arg in expr.args]

    if name == "sqrt" and len(args) == 1:
        a = args[0]
        if a.interval is not None:
            if proofs is not None and a.interval.lo >= 0:
                proofs.prove(
                    expr, "sqrt_nonneg",
                    f"sqrt_nonneg: ({expr.args[0]}) in {a.interval}",
                )
            if a.interval.hi >= 0:
                lo = math.sqrt(max(a.interval.lo, 0))
                hi = (
                    _INF if a.interval.hi == _INF
                    else math.sqrt(a.interval.hi)
                )
                return AbstractValue(
                    T.FLOAT, Interval(lo, hi),
                    maybe_nan=a.maybe_nan or a.interval.lo < 0,
                )
        return AbstractValue.top(T.FLOAT)

    if name == "abs" and len(args) == 1:
        a = args[0]
        if a.interval is not None:
            return AbstractValue(
                a.type, _abs_iv(a.interval), maybe_nan=a.maybe_nan
            )
        return AbstractValue.top(a.type)

    if name in ("floor", "ceil", "round") and len(args) == 1:
        a = args[0]
        if a.interval is not None and a.interval.bounded and not a.maybe_nan:
            return AbstractValue(
                T.INT,
                Interval(
                    int(math.floor(a.interval.lo)),
                    int(math.ceil(a.interval.hi)),
                ),
            )
        return AbstractValue(T.INT, _TOP_IV)

    if name in ("min", "max") and len(args) >= 2 and _numeric_avs(*args):
        if any(a.maybe_nan for a in args):
            return AbstractValue.top(
                T.FLOAT if T.FLOAT in [a.type for a in args] else T.INT
            )
        pick = min if name == "min" else max
        lo = pick(a.interval.lo for a in args)
        hi = pick(a.interval.hi for a in args)
        atomic = T.FLOAT if T.FLOAT in [a.type for a in args] else T.INT
        return AbstractValue(atomic, Interval(lo, hi))

    if name == "length" and len(args) == 1:
        return AbstractValue(T.INT, Interval(0, _INF))

    if name in _DATE_PART_RANGES and len(args) == 1:
        return AbstractValue(T.INT, _DATE_PART_RANGES[name])

    if all(a.is_const for a in args) and not any(a.maybe_nan for a in args):
        try:
            return AbstractValue.constant(
                expr.fn.apply(*[a.const for a in args])
            )
        except Exception:
            pass

    try:
        atomic = expr.fn.infer([a.type for a in args])
    except Exception:
        atomic = None
    return AbstractValue.top(atomic)


def analyze_hazards(
    expr: Expr, schema: Schema, env: Mapping[str, AbstractValue]
) -> HazardProofs:
    """Run the evaluator purely for its proofs."""
    proofs = HazardProofs()
    abstract_eval(expr, env, schema, proofs)
    return proofs


# ---------------------------------------------------------------------------
# Entry facts: catalog stats -> abstract environments
# ---------------------------------------------------------------------------


def top_env(schema: Schema) -> dict[str, AbstractValue]:
    """The no-information environment: typed top for every attribute."""
    return {
        field.name: AbstractValue.top(field.type) for field in schema
    }


def env_from_stats(
    stats: TableStats, schema: Schema
) -> dict[str, AbstractValue]:
    """Column stats as entry facts (NaN-bearing columns keep their bounds
    with ``maybe_nan`` set; empty columns are typed top)."""
    env: dict[str, AbstractValue] = {}
    for field in schema:
        cs = stats.column(field.name)
        if cs is None or cs.minimum is None or \
                field.type not in (T.INT, T.FLOAT):
            env[field.name] = AbstractValue.top(field.type)
            continue
        interval = Interval(cs.minimum, cs.maximum)
        const = cs.minimum if cs.constant else _UNKNOWN
        env[field.name] = AbstractValue(
            field.type, interval, maybe_nan=cs.has_nan, const=const
        )
    return env


# ---------------------------------------------------------------------------
# Plan-level facts and predicate refinement
# ---------------------------------------------------------------------------

#: Unary plan ops that only drop or reorder rows: child facts pass through.
_ROW_SUBSET_OPS = frozenset((
    "SampleNode", "LimitNode", "OrderByNode", "DistinctNode",
    "ToColumnsNode", "ToRowsNode", "ParallelMapNode",
    "ColumnarLimitNode", "ColumnarDistinctNode", "ColumnarOrderByNode",
))


def _refine_env(
    env: dict[str, AbstractValue], predicate: Expr, schema: Schema
) -> dict[str, AbstractValue]:
    """Tighten facts with what a passed predicate implies (conjuncts of
    ``field cmp expr`` only — everything else is ignored, conservatively).

    Rows where the comparison is False (including NaN operands) are
    dropped, so a surviving ``x > c`` row has a non-NaN ``x >= c``."""
    if isinstance(predicate, Binary) and predicate.op == "and":
        env = _refine_env(env, predicate.left, schema)
        return _refine_env(env, predicate.right, schema)
    if not isinstance(predicate, Binary):
        return env
    op = predicate.op
    flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
    ref, other = predicate.left, predicate.right
    if not isinstance(ref, FieldRef) and isinstance(predicate.right, FieldRef):
        ref, other = predicate.right, predicate.left
        op = flip.get(op, op)
    if not isinstance(ref, FieldRef) or op not in flip:
        return env
    fact = env.get(ref.name)
    if fact is None or fact.interval is None:
        return env
    bound = abstract_eval(other, env, schema)
    if bound.interval is None:
        return env
    iv = fact.interval
    if op in ("<", "<="):
        iv = iv.meet(Interval(-_INF, bound.interval.hi))
    elif op in (">", ">="):
        iv = iv.meet(Interval(bound.interval.lo, _INF))
    elif op == "=":
        iv = iv.meet(bound.interval)
    else:
        return env
    if iv.lo > iv.hi:
        iv = fact.interval  # vacuous meet: inputs were already contradictory
    out = dict(env)
    out[ref.name] = AbstractValue(
        fact.type, iv, maybe_nan=False, const=fact.const
    )
    return out


def plan_column_facts(node: P.PlanNode) -> dict[str, AbstractValue]:
    """Abstract facts about the columns ``node`` produces.

    Facts over-approximate: any operator that only drops/reorders rows
    passes its child's facts through unchanged.  Unknown operators (joins,
    aggregates, ...) return the typed top of their schema, so structural
    proofs still apply downstream of them."""
    if isinstance(node, P.ScanNode):
        source = getattr(node, "_source", None)
        if isinstance(source, P.LazyRowSet):
            # Never force the lazy set: derive facts from its plan instead.
            return plan_column_facts(source.plan)
        if isinstance(source, RowSet):
            return env_from_stats(stats_for(source), node.schema)
        return top_env(node.schema)
    if isinstance(node, P.CacheNode):
        # The cached plan appears as the child (for EXPLAIN continuity).
        return plan_column_facts(node.children[0])
    if isinstance(node, (P.RestrictNode, P.ColumnarRestrictNode)):
        env = plan_column_facts(node.children[0])
        predicate = getattr(node, "predicate", None)
        if predicate is not None:
            env = _refine_env(env, predicate, node.children[0].schema)
        return env
    if isinstance(node, (P.ProjectNode, P.ColumnarProjectNode)):
        child = plan_column_facts(node.children[0])
        return {
            name: child.get(name, AbstractValue.top(node.schema.type_of(name)))
            for name in node.schema.names
        }
    if isinstance(node, (P.RenameNode, P.ColumnarRenameNode)):
        child = plan_column_facts(node.children[0])
        mapping = _rename_mapping(node)
        out: dict[str, AbstractValue] = {}
        for name in node.schema.names:
            old = mapping.get(name, name)
            out[name] = child.get(
                old, AbstractValue.top(node.schema.type_of(name))
            )
        return out
    if type(node).__name__ in _ROW_SUBSET_OPS and node.children:
        return plan_column_facts(node.children[0])
    return top_env(node.schema)


def _rename_mapping(node: P.PlanNode) -> dict[str, str]:
    """new-name -> old-name for a (columnar) rename node."""
    mapping = getattr(node, "mapping", None)
    if isinstance(mapping, dict):  # ColumnarRenameNode: old -> new
        return {new: old for old, new in mapping.items()}
    old = getattr(node, "_old", None)
    new = getattr(node, "_new", None)
    if isinstance(old, str) and isinstance(new, str):
        return {new: old}
    return {}


# ---------------------------------------------------------------------------
# The plan annotator (hook installed into repro.dbms.plan)
# ---------------------------------------------------------------------------


def _proofs_counter():
    from repro.obs import global_registry

    return global_registry().counter(*PROOFS_COUNTER)


def prove_plan_predicate(
    predicate: Expr, child: P.PlanNode
) -> HazardProofs:
    """The annotator: prove away hazards in a plan predicate.

    Called by compiled plan nodes at construction; the returned proofs are
    handed to :func:`repro.dbms.expr_compile.compile_predicate` to elide
    the corresponding runtime guards."""
    env = plan_column_facts(child)
    proofs = analyze_hazards(predicate, child.schema, env)
    if proofs.proven:
        _proofs_counter().inc(len(proofs.proven))
    return proofs


def absint_enabled() -> bool:
    """Is the abstract interpreter installed as the plan annotator?"""
    return P.plan_annotator() is not None


def set_absint_enabled(enabled: bool) -> bool:
    """Install (or remove) the plan annotator; returns the previous state."""
    previous = absint_enabled()
    P.set_plan_annotator(prove_plan_predicate if enabled else None)
    return previous


def install_from_env(environ: Mapping[str, str] | None = None) -> bool:
    """Enable the interpreter when ``REPRO_ABSINT=1`` (the CLI/env hook)."""
    environ = os.environ if environ is None else environ
    if environ.get("REPRO_ABSINT") == "1":
        set_absint_enabled(True)
        return True
    return False


# ---------------------------------------------------------------------------
# Whole-program propagation: repro lint --deep
# ---------------------------------------------------------------------------


class _Facts:
    """Per-wire abstract state: attribute facts plus static emptiness."""

    __slots__ = ("env", "empty")

    def __init__(
        self, env: dict[str, AbstractValue] | None, empty: bool = False
    ):
        self.env = env
        self.empty = empty


def _deep_expr(source: str, schema: Schema) -> Expr | None:
    from repro.analyze.exprcheck import analyze_expression

    expr, __, diagnostics = analyze_expression(source, schema)
    if expr is None or any(d.is_error for d in diagnostics):
        return None
    return expr


def _note_proofs(
    report: Report, box, source: str, proofs: HazardProofs
) -> None:
    for note in proofs.notes:
        report.add(
            Diagnostic(
                "T2-I301",
                f"proof: {note}",
                box_id=box.box_id,
                box=box.describe(),
                source=source,
            )
        )


def check_program_deep(program, database: Database | None = None) -> Report:
    """Abstract interpretation along the program's wires.

    Complements :func:`repro.analyze.checker.check_program` (which should
    be run first — this pass assumes a schema-checked program and stays
    silent about anything it cannot prove).  Emits:

    * ``T2-W204`` — a Restrict/Switch predicate that is statically always
      true or always false;
    * ``T2-W205`` — a viewer demanded from a statically empty wire;
    * ``T2-I301`` — hazard-impossibility proof notes for predicates and
      attribute definitions, with source positions.
    """
    from repro.analyze.checker import CheckContext, _check_edges
    from repro.dataflow.registry import schema_transfer
    from repro.analyze.values import RelValue

    report = Report()
    ctx = CheckContext(program, database, Report())  # scratch: schemas only
    bad_edges = _check_edges(program, ctx)
    produced: dict[tuple[int, str], Any] = {}
    facts: dict[tuple[int, str], _Facts] = {}
    unknown = _Facts(None)

    for box_id in program.topological_order():
        box = program.box(box_id)
        inputs: dict[str, Any] = {}
        in_facts: dict[str, _Facts] = {}
        for port in box.inputs:
            edge = program.edge_into_port(box_id, port.name)
            if edge is None or edge in bad_edges:
                inputs[port.name] = None
                in_facts[port.name] = unknown
            else:
                key = (edge.src_box, edge.src_port)
                inputs[port.name] = produced.get(key)
                in_facts[port.name] = facts.get(key, unknown)
        transfer = schema_transfer(box.type_name)
        result = (transfer(box, inputs, ctx) or {}) if transfer else {}
        out_facts = _deep_box_facts(
            box, inputs, in_facts, result, database, report, RelValue
        )
        for port in box.outputs:
            produced[(box_id, port.name)] = result.get(port.name)
            facts[(box_id, port.name)] = out_facts.get(port.name, unknown)
        if not box.outputs:  # a sink: demanded output
            fact = in_facts.get("in", unknown)
            if fact.empty:
                report.add(
                    Diagnostic(
                        "T2-W205",
                        "statically empty result: no tuple can ever reach "
                        "this viewer",
                        box_id=box.box_id,
                        box=box.describe(),
                        hint="an upstream restriction is provably "
                        "unsatisfiable for the current data",
                    )
                )
    return report


def _deep_box_facts(
    box,
    inputs: dict[str, Any],
    in_facts: dict[str, "_Facts"],
    result: dict[str, Any],
    database: Database | None,
    report: Report,
    RelValue,
) -> dict[str, "_Facts"]:
    """Transfer abstract facts through one box (best-effort, sound)."""
    kind = box.type_name
    unknown = _Facts(None)
    fact_in = in_facts.get("in", unknown)
    rel_in = inputs.get("in")

    if kind == "AddTable":
        table = box.param("table")
        if database is not None and table and database.has_table(table):
            stats = database.table_stats(table)
            schema = database.table(table).schema
            return {"out": _Facts(
                env_from_stats(stats, schema), empty=stats.row_count == 0
            )}
        return {}

    if kind in ("Restrict", "Switch"):
        source = box.param("predicate")
        if not isinstance(rel_in, RelValue) or not source:
            passthrough = _Facts(fact_in.env, fact_in.empty)
            if kind == "Switch":
                return {"true": passthrough, "false": passthrough}
            return {"out": passthrough}
        schema = rel_in.extended_schema
        expr = _deep_expr(source, schema)
        if expr is None:
            return {}
        env = fact_in.env if fact_in.env is not None else top_env(schema)
        proofs = HazardProofs()
        verdict = abstract_eval(expr, env, schema, proofs)
        _note_proofs(report, box, source, proofs)
        truth = (
            verdict.const
            if verdict.is_const and isinstance(verdict.const, bool)
            else None
        )
        if truth is not None:
            report.add(
                Diagnostic(
                    "T2-W204",
                    f"{kind} predicate {source!r} is statically always "
                    f"{'true' if truth else 'false'}",
                    box_id=box.box_id,
                    box=box.describe(),
                    source=source,
                    pos=expr.pos,
                    hint=(
                        "the restriction never filters anything"
                        if truth else
                        "no tuple of the current data can satisfy it"
                    ),
                )
            )
        kept = _Facts(
            _refine_env(env, expr, schema),
            fact_in.empty or truth is False,
        )
        dropped = _Facts(dict(env), fact_in.empty or truth is True)
        if kind == "Switch":
            return {"true": kept, "false": dropped}
        return {"out": kept}

    if kind in ("SetAttribute", "AddAttribute"):
        name = box.param("name")
        source = box.param("definition")
        if not isinstance(rel_in, RelValue) or not name or not source:
            return {"out": _Facts(fact_in.env, fact_in.empty)}
        schema = rel_in.reference_schema()
        expr = _deep_expr(source, schema)
        if expr is None:
            return {"out": _Facts(fact_in.env, fact_in.empty)}
        env = fact_in.env if fact_in.env is not None else top_env(schema)
        proofs = HazardProofs()
        value = abstract_eval(expr, env, schema, proofs)
        _note_proofs(report, box, source, proofs)
        out = dict(env)
        out[name] = value
        return {"out": _Facts(out, fact_in.empty)}

    if kind == "Project":
        if fact_in.env is None or not isinstance(
            result.get("out"), RelValue
        ):
            return {"out": _Facts(None, fact_in.empty)}
        names = set(result["out"].extended_schema.names)
        return {"out": _Facts(
            {k: v for k, v in fact_in.env.items() if k in names},
            fact_in.empty,
        )}

    if kind == "Rename":
        old, new = box.param("old"), box.param("new")
        if fact_in.env is None or not old or not new:
            return {"out": _Facts(None, fact_in.empty)}
        env = dict(fact_in.env)
        if old in env:
            env[new] = env.pop(old)
        return {"out": _Facts(env, fact_in.empty)}

    if kind in ("ScaleAttribute", "TranslateAttribute"):
        name = box.param("name")
        if fact_in.env is None:
            return {"out": _Facts(None, fact_in.empty)}
        env = dict(fact_in.env)
        if name in env:
            env[name] = AbstractValue.top(T.FLOAT)
        return {"out": _Facts(env, fact_in.empty)}

    if kind in ("Sample", "SetRange", "OrderBy", "Distinct", "Limit",
                "Threshold"):
        return {"out": _Facts(fact_in.env, fact_in.empty)}

    if kind == "T":
        passthrough = _Facts(fact_in.env, fact_in.empty)
        return {"out1": passthrough, "out2": passthrough}

    if kind == "Union":
        lf = in_facts.get("left", unknown)
        rf = in_facts.get("right", unknown)
        env = None
        if lf.env is not None and rf.env is not None:
            env = {
                name: lf.env[name].join(rf.env[name])
                for name in lf.env
                if name in rf.env
            }
        return {"out": _Facts(env, lf.empty and rf.empty)}

    if kind == "Join":
        lf = in_facts.get("left", unknown)
        rf = in_facts.get("right", unknown)
        return {
            port.name: _Facts(None, lf.empty or rf.empty)
            for port in box.outputs
        }

    return {}
