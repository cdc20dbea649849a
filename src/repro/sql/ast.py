"""Abstract syntax tree for the supported SQL dialect.

Nodes are plain frozen dataclasses; the parser produces them and the binder
annotates/validates them (producing a :class:`repro.sql.binder.BoundQuery`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Optional, Union

# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


class SqlExpr:
    """Base class for SQL scalar/boolean expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class Literal(SqlExpr):
    value: Union[int, float, str]

    def __repr__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class ColumnRef(SqlExpr):
    """A possibly qualified column reference (``alias.column`` or ``column``)."""

    table: Optional[str]
    column: str

    def __repr__(self) -> str:
        return f"{self.table}.{self.column}" if self.table else self.column


@dataclass(frozen=True)
class Star(SqlExpr):
    """``*`` — only valid inside ``count(*)``."""

    def __repr__(self) -> str:
        return "*"


@dataclass(frozen=True)
class Arith(SqlExpr):
    """Binary arithmetic: ``+ - * /``."""

    op: str
    left: SqlExpr
    right: SqlExpr

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class UnaryMinus(SqlExpr):
    operand: SqlExpr

    def __repr__(self) -> str:
        return f"(-{self.operand!r})"


@dataclass(frozen=True)
class Comparison(SqlExpr):
    """``= <> != < <= > >=`` between two scalar expressions."""

    op: str
    left: SqlExpr
    right: SqlExpr

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class BoolOp(SqlExpr):
    """N-ary AND / OR."""

    op: str  # "AND" | "OR"
    operands: tuple[SqlExpr, ...]

    def __repr__(self) -> str:
        sep = f" {self.op} "
        return "(" + sep.join(repr(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(SqlExpr):
    operand: SqlExpr

    def __repr__(self) -> str:
        return f"(NOT {self.operand!r})"


@dataclass(frozen=True)
class AggregateCall(SqlExpr):
    """``sum/count/avg/min/max`` over an expression (or ``*`` for count).

    ``distinct`` marks ``COUNT(DISTINCT expr)`` — the only aggregate the
    dialect accepts a DISTINCT qualifier on.
    """

    func: str  # upper-case
    argument: SqlExpr
    distinct: bool = False

    def __repr__(self) -> str:
        inner = f"DISTINCT {self.argument!r}" if self.distinct else repr(self.argument)
        return f"{self.func}({inner})"


@dataclass(frozen=True)
class ScalarSubquery(SqlExpr):
    """A parenthesised subquery used as a scalar value."""

    query: "SelectQuery"

    def __repr__(self) -> str:
        return f"({self.query!r})"


@dataclass(frozen=True)
class ExistsExpr(SqlExpr):
    query: "SelectQuery"

    def __repr__(self) -> str:
        return f"EXISTS ({self.query!r})"


@dataclass(frozen=True)
class InExpr(SqlExpr):
    needle: SqlExpr
    query: "SelectQuery"

    def __repr__(self) -> str:
        return f"({self.needle!r} IN ({self.query!r}))"


@dataclass(frozen=True)
class BetweenExpr(SqlExpr):
    operand: SqlExpr
    low: SqlExpr
    high: SqlExpr

    def __repr__(self) -> str:
        return f"({self.operand!r} BETWEEN {self.low!r} AND {self.high!r})"


# --------------------------------------------------------------------------
# Query structure
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    """A FROM-clause item: relation name plus optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias if self.alias else self.name

    def __repr__(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class SelectItem:
    expr: SqlExpr
    alias: Optional[str] = None

    def __repr__(self) -> str:
        return f"{self.expr!r} AS {self.alias}" if self.alias else repr(self.expr)


@dataclass(frozen=True)
class SelectQuery:
    """A SELECT [DISTINCT] ... FROM ... [WHERE] [GROUP BY] query."""

    items: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: Optional[SqlExpr] = None
    group_by: tuple[ColumnRef, ...] = ()
    distinct: bool = False

    def __repr__(self) -> str:
        head = "SELECT DISTINCT " if self.distinct else "SELECT "
        parts = [
            head + ", ".join(repr(i) for i in self.items),
            "FROM " + ", ".join(repr(t) for t in self.tables),
        ]
        if self.where is not None:
            parts.append(f"WHERE {self.where!r}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(repr(g) for g in self.group_by))
        return " ".join(parts)


def walk(node) -> Iterator:
    """``node`` and every expression, select item and query below it,
    subqueries included, depth first."""
    yield node
    for field in fields(node):
        value = getattr(node, field.name)
        for child in value if isinstance(value, tuple) else (value,):
            if isinstance(child, (SqlExpr, SelectItem, SelectQuery)):
                yield from walk(child)


# --------------------------------------------------------------------------
# DDL
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type_name: str  # upper-case SQL type keyword


@dataclass(frozen=True)
class CreateRelation:
    """``CREATE TABLE name (...)`` or ``CREATE STREAM name (...)``."""

    name: str
    columns: tuple[ColumnDef, ...]
    is_stream: bool


Statement = Union[SelectQuery, CreateRelation]
