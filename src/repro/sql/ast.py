"""AST for the SQL subset hosted by :mod:`repro.sql`.

Value expressions reuse the GPML expression nodes
(:mod:`repro.gpml.expr`) — a deliberate echo of the paper's Figure 9:
SQL/PGQ and GQL share one expression language, and the hosts differ only
in where the expressions sit.  The SQL-specific additions are
:class:`SqlAggregate` (vertical aggregation over result rows, with
``COUNT(*)`` and arbitrary argument expressions — distinct from GPML's
*horizontal* aggregates over group variables inside COLUMNS) and the
statement shapes below.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.errors import SqlError
from repro.gpml import ast as gpml_ast
from repro.gpml.expr import Expr
from repro.pgq.graph_table import GraphTableStatement


@dataclass(frozen=True)
class SqlAggregate(Expr):
    """A vertical SQL aggregate: ``COUNT(*)``, ``SUM(expr)``, ...

    ``arg`` is None only for ``COUNT(*)``.  The node never evaluates
    directly — the binder replaces it with a reference to the aggregate
    operator's output column; reaching :meth:`evaluate` means the
    aggregate appeared somewhere aggregates are not allowed.
    """

    func: str
    arg: Optional[Expr]
    distinct: bool = False
    separator: str = ", "

    def evaluate(self, ctx):
        raise SqlError(f"aggregate {self} is not allowed in this context")

    def children(self) -> Sequence[Expr]:
        return () if self.arg is None else (self.arg,)

    def __str__(self) -> str:
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.func}({distinct}{'*' if self.arg is None else self.arg})"


def contains_aggregate(expr: Optional[Expr]) -> bool:
    if expr is None:
        return False
    if isinstance(expr, SqlAggregate):
        return True
    return any(contains_aggregate(child) for child in expr.children())


def collect_aggregates(expr: Optional[Expr]) -> list[SqlAggregate]:
    """All SqlAggregate nodes in *expr*, outermost first, in textual order."""
    if expr is None:
        return []
    if isinstance(expr, SqlAggregate):
        if contains_aggregate(expr.arg):
            raise SqlError(f"nested aggregate in {expr}")
        return [expr]
    found: list[SqlAggregate] = []
    for child in expr.children():
        found.extend(collect_aggregates(child))
    return found


# ----------------------------------------------------------------------
# FROM items
# ----------------------------------------------------------------------
@dataclass
class TableRef:
    """A base table in FROM: ``accounts [AS] a``."""

    name: str
    alias: Optional[str] = None

    @property
    def binding_name(self) -> Optional[str]:
        return self.alias or self.name

    def describe(self) -> str:
        return self.name + (f" AS {self.alias}" if self.alias else "")


@dataclass
class GraphTableRef:
    """``GRAPH_TABLE(g MATCH ... COLUMNS (...)) [AS] t`` in FROM.

    ``statement.pattern`` holds the parsed :class:`GraphPattern` so the
    planner can conjoin pushed-down predicates before preparing it.
    """

    graph_name: str
    statement: GraphTableStatement
    alias: Optional[str] = None

    @property
    def binding_name(self) -> Optional[str]:
        return self.alias

    @property
    def pattern(self) -> gpml_ast.GraphPattern:
        return self.statement.pattern

    def describe(self) -> str:
        suffix = f" AS {self.alias}" if self.alias else ""
        return f"GRAPH_TABLE({self.graph_name} ...){suffix}"


FromItem = Union[TableRef, GraphTableRef]


@dataclass
class FromSource:
    """One FROM item with how it joins the items before it.

    ``kind`` is ``"from"`` for the first item, ``"cross"`` for a
    comma-separated item, ``"join"`` for ``[INNER] JOIN ... ON``.
    """

    item: FromItem
    kind: str = "from"
    on: Optional[Expr] = None


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------
@dataclass
class SelectItem:
    """One SELECT-list entry; ``expr`` is None for a bare ``*``."""

    expr: Optional[Expr]
    alias: Optional[str] = None


@dataclass
class OrderItem:
    expr: Expr
    descending: bool = False


@dataclass
class SelectCore:
    """One ``SELECT ... FROM ... [WHERE] [GROUP BY] [HAVING]`` block."""

    items: list[SelectItem]
    sources: list[FromSource] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    distinct: bool = False


@dataclass
class SelectStatement:
    """A full query: cores chained by UNION [ALL], then ORDER/LIMIT."""

    cores: list[SelectCore]
    set_ops: list[str] = field(default_factory=list)  # "UNION" | "UNION ALL"
    order_by: list[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0


@dataclass
class ExplainStatement:
    inner: SelectStatement
    #: EXPLAIN ANALYZE: execute, then render the plan with actuals
    analyze: bool = False


@dataclass
class CreateGraphStatement:
    """CREATE PROPERTY GRAPH passthrough (parsed by :mod:`repro.pgq.ddl`)."""

    text: str
