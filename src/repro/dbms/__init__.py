"""Object-relational DBMS substrate (the POSTGRES stand-in).

Typed schemas and tuples, an expression language with a parser, stored tables
with computed-attribute methods, relational algebra, a catalog of
tables/boxes/programs, JSON persistence, and the Section-8 update machinery.
"""

from repro.dbms.algebra import (
    distinct,
    group_by,
    join,
    join_hash,
    join_nested_loop,
    join_theta,
    limit,
    order_by,
    project,
    rename,
    restrict,
    restrict_predicate,
    sample,
    union,
)
from repro.dbms.catalog import Database
from repro.dbms.expr import (
    Binary,
    Call,
    Conditional,
    Expr,
    FieldRef,
    FunctionDef,
    Literal,
    Unary,
    register_function,
)
from repro.dbms.parser import parse_expression, parse_predicate
from repro.dbms.relation import Method, MethodSet, RowSet, Table, VirtualRow
from repro.dbms.storage import (
    dump_database,
    load_database,
    load_database_file,
    save_database_file,
)
from repro.dbms.tuples import Field, Schema, Tuple
from repro.dbms.types import (
    BOOL,
    DATE,
    DRAWABLES,
    FLOAT,
    INT,
    TEXT,
    AtomicType,
    infer_type,
    type_by_name,
)
from repro.dbms.update import ScriptedDialog, UpdateDialog, UpdateResult, generic_update

__all__ = [
    "AtomicType",
    "BOOL",
    "Binary",
    "Call",
    "Conditional",
    "DATE",
    "DRAWABLES",
    "Database",
    "Expr",
    "Field",
    "FieldRef",
    "FLOAT",
    "FunctionDef",
    "INT",
    "Literal",
    "Method",
    "MethodSet",
    "RowSet",
    "Schema",
    "ScriptedDialog",
    "TEXT",
    "Table",
    "Tuple",
    "Unary",
    "UpdateDialog",
    "UpdateResult",
    "VirtualRow",
    "distinct",
    "dump_database",
    "generic_update",
    "group_by",
    "infer_type",
    "join",
    "join_hash",
    "join_nested_loop",
    "join_theta",
    "limit",
    "load_database",
    "load_database_file",
    "order_by",
    "parse_expression",
    "parse_predicate",
    "project",
    "register_function",
    "rename",
    "restrict",
    "restrict_predicate",
    "sample",
    "save_database_file",
    "type_by_name",
    "union",
]
