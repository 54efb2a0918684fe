"""Name resolution: SQL expressions over operator schemas.

The parser reuses GPML expression nodes, so a column reference arrives
as either ``VarRef("amount")`` (unqualified) or
``PropertyRef("t", "amount")`` (alias-qualified).  The binder resolves
each against a :class:`Scope` — the ordered column list an operator
produces — and rewrites it into a positional :class:`BoundColumn`.
Everything else in the expression tree is rebuilt unchanged, which keeps
one evaluator for both languages: a bound SQL expression evaluates with
the ordinary GPML machinery against a :class:`RowContext`.

Resolution is where SQL's error surface lives: unknown columns, unknown
table aliases, ambiguous unqualified names, aggregates outside
GROUP BY/HAVING/SELECT, and graph-only predicates (``IS DIRECTED``,
``SAME``...) leaking out of GRAPH_TABLE all raise :class:`SqlError`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.errors import ReproError, SqlError
from repro.gpml.expr import (
    Aggregate,
    AllDifferent,
    EvalContext,
    Expr,
    IsDestinationOf,
    IsDirected,
    IsSourceOf,
    Literal,
    PropertyRef,
    Same,
    VarRef,
)
from repro.sql.ast import SqlAggregate
from repro.values import TRUE

#: GPML-only expression nodes that cannot appear in SQL clauses
_GRAPH_ONLY = (Aggregate, Same, AllDifferent, IsDirected, IsSourceOf, IsDestinationOf)


@dataclass(frozen=True)
class Column:
    """One output column of an operator: optional qualifier, bare name,
    and the index of the FROM item it descends from (for pushdown)."""

    table: Optional[str]
    name: str
    source: int = 0

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


class Scope:
    """An ordered column list with SQL name-resolution rules."""

    def __init__(self, columns: Iterable[Column]):
        self.columns = list(columns)

    def __len__(self) -> int:
        return len(self.columns)

    def resolve(self, qualifier: Optional[str], name: str) -> int:
        """Index of the referenced column, or raise SqlError."""
        if qualifier is None:
            hits = [i for i, c in enumerate(self.columns) if c.name == name]
            if len(hits) == 1:
                return hits[0]
            if len(hits) > 1:
                tables = ", ".join(
                    sorted(self.columns[i].qualified for i in hits)
                )
                raise SqlError(f"ambiguous column {name!r} (could be {tables})")
            raise SqlError(
                f"unknown column {name!r} (available: {self._available()})"
            )
        hits = [
            i
            for i, c in enumerate(self.columns)
            if c.table == qualifier and c.name == name
        ]
        if len(hits) == 1:
            return hits[0]
        if not any(c.table == qualifier for c in self.columns):
            raise SqlError(f"unknown table alias {qualifier!r} in {qualifier}.{name}")
        raise SqlError(
            f"unknown column {qualifier}.{name} (available: {self._available()})"
        )

    def _available(self) -> str:
        return ", ".join(c.qualified for c in self.columns) or "<no columns>"


@dataclass(frozen=True)
class BoundColumn(Expr):
    """A resolved column reference: positional index into the input row."""

    index: int
    label: str

    def evaluate(self, ctx: "RowContext") -> Any:
        return ctx.row[self.index]

    def __str__(self) -> str:
        return self.label


class RowContext(EvalContext):
    """Evaluation context over one operator row (a plain value tuple)."""

    __slots__ = ("row",)

    def __init__(self, row: tuple):
        self.row = row
        self._bindings = {}
        self.graph = None


def evaluate(expr: Expr, row: tuple) -> Any:
    return expr.evaluate(RowContext(row))


def holds(expr: Expr, row: tuple) -> bool:
    """SQL predicate semantics: keep the row only when the truth is TRUE."""
    return expr.truth(RowContext(row)) is TRUE


# ----------------------------------------------------------------------
# Binding
# ----------------------------------------------------------------------
def bind(expr: Expr, scope: Scope, *, where: str = "this context") -> Expr:
    """Rewrite column references in *expr* to :class:`BoundColumn`.

    Aggregates are rejected — clauses that accept them (SELECT, HAVING,
    ORDER BY) go through the aggregation path in the planner, which
    replaces :class:`SqlAggregate` nodes before delegating here.
    """
    if isinstance(expr, _GRAPH_ONLY):
        raise SqlError(
            f"{expr} is a graph pattern predicate; it is only valid inside "
            f"GRAPH_TABLE, not in {where}"
        )
    if isinstance(expr, SqlAggregate):
        raise SqlError(f"aggregate {expr} is not allowed in {where}")
    if isinstance(expr, VarRef):
        return BoundColumn(scope.resolve(None, expr.name), str(expr))
    if isinstance(expr, PropertyRef):
        return BoundColumn(scope.resolve(expr.var, expr.prop), str(expr))
    return rebuild(expr, lambda child: bind(child, scope, where=where))


def rebuild(expr: Expr, transform) -> Expr:
    """Rebuild a frozen expression node with *transform* applied to every
    child expression (including those inside tuple-valued fields)."""
    changes = {}
    for f in dataclasses.fields(expr):
        value = getattr(expr, f.name)
        if isinstance(value, Expr):
            changes[f.name] = transform(value)
        elif isinstance(value, tuple) and any(isinstance(v, Expr) for v in value):
            changes[f.name] = tuple(
                transform(v) if isinstance(v, Expr) else v for v in value
            )
    return dataclasses.replace(expr, **changes) if changes else expr


def referenced_columns(expr: Expr, scope: Scope) -> set[int]:
    """Scope indexes of every column reference in *expr*."""
    found: set[int] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, VarRef):
            found.add(scope.resolve(None, node.name))
            return
        if isinstance(node, PropertyRef):
            found.add(scope.resolve(node.var, node.prop))
            return
        for child in node.children():
            walk(child)

    walk(expr)
    return found


def substitute_columns(expr: Expr, scope: Scope, replacements: dict[int, Expr]) -> Expr:
    """Replace every column reference by its entry in *replacements*.

    Used by predicate pushdown: references to GRAPH_TABLE output columns
    are substituted by the defining COLUMNS expressions, turning a SQL
    conjunct into a GPML predicate over pattern variables.
    """
    if isinstance(expr, VarRef):
        return replacements[scope.resolve(None, expr.name)]
    if isinstance(expr, PropertyRef):
        return replacements[scope.resolve(expr.var, expr.prop)]
    return rebuild(expr, lambda child: substitute_columns(child, scope, replacements))


def bind_post_aggregate(
    expr: Expr,
    group_keys: list[tuple[Expr, int]],
    aggregates: list[tuple[SqlAggregate, int]],
    post_scope: Scope,
    *,
    where: str = "SELECT list",
) -> Expr:
    """Bind an expression against the output of the aggregate operator.

    A subexpression structurally equal to a GROUP BY expression maps to
    its key column; a :class:`SqlAggregate` maps to its aggregate column;
    remaining column references resolve against the post-aggregate scope
    by name (``GROUP BY t.sender`` keeps ``sender`` addressable).  Any
    other column reference is the classic SQL error: it must appear in
    GROUP BY or be used in an aggregate.
    """
    for unbound, index in group_keys:
        if expr == unbound:
            return BoundColumn(index, str(expr))
    if isinstance(expr, SqlAggregate):
        for aggregate, index in aggregates:
            if expr == aggregate:
                return BoundColumn(index, str(expr))
        raise SqlError(f"uncollected aggregate {expr}")  # pragma: no cover
    if isinstance(expr, (VarRef, PropertyRef)):
        qualifier = expr.var if isinstance(expr, PropertyRef) else None
        name = expr.prop if isinstance(expr, PropertyRef) else expr.name
        try:
            return BoundColumn(post_scope.resolve(qualifier, name), str(expr))
        except SqlError:
            raise SqlError(
                f"column {expr} in {where} must appear in GROUP BY or be "
                f"used inside an aggregate"
            ) from None
    if isinstance(expr, _GRAPH_ONLY):
        raise SqlError(
            f"{expr} is a graph pattern predicate; it is only valid inside "
            f"GRAPH_TABLE, not in {where}"
        )
    return rebuild(
        expr,
        lambda child: bind_post_aggregate(
            child, group_keys, aggregates, post_scope, where=where
        ),
    )


def output_name(expr: Optional[Expr], alias: Optional[str], index: int) -> str:
    """SELECT-item output column name (mirrors COLUMNS default naming)."""
    if alias is not None:
        return alias
    text = str(expr)
    if text.isidentifier():
        return text
    if isinstance(expr, (PropertyRef, BoundColumn)):
        tail = text.rpartition(".")[2]
        if tail.isidentifier():
            return tail
    return f"col{index + 1}"


# ----------------------------------------------------------------------
# ORDER BY (shared by the SQL planner and GQL's RETURN)
# ----------------------------------------------------------------------
def order_by_ordinal(
    expr: Expr, num_outputs: int, error: type[ReproError] = SqlError
) -> Optional[int]:
    """Positional sort: ``ORDER BY 2`` names the second output column.

    Returns the 0-based output index, or None for non-literal keys.  Any
    other bare constant is rejected — a literal sort key would otherwise
    be a silent no-op.
    """
    if not isinstance(expr, Literal):
        return None
    value = expr.value
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"non-integer constant {expr} in ORDER BY")
    if not 1 <= value <= num_outputs:
        raise error(
            f"ORDER BY position {value} is not in the select list "
            f"(1..{num_outputs})"
        )
    return value - 1


def bind_order_keys(
    order_by: list,
    named_items: list[tuple[str, Expr]],
    bind_order: Callable[[Expr], Expr],
    distinct: bool,
    error: type[ReproError] = SqlError,
) -> list[tuple[Expr, bool]]:
    """Bind ORDER BY items to ``(expr, descending)`` sort keys.

    A key naming an output column — by position, by name, or by the
    dotted default name of a property output (``a.x``) — sorts on that
    output's expression.  Any other key is an expression over the
    query's input, bound by *bind_order*; DISTINCT forbids those, since
    duplicates of one output row may disagree on them.
    """
    keys: list[tuple[Expr, bool]] = []
    for item in order_by:
        bound: Optional[Expr] = None
        ordinal = order_by_ordinal(item.expr, len(named_items), error)
        if ordinal is not None:
            bound = named_items[ordinal][1]
        elif isinstance(item.expr, (VarRef, PropertyRef)):
            hits = [expr for name, expr in named_items if name == str(item.expr)]
            if len(hits) == 1:
                bound = hits[0]
        if bound is None and distinct:
            raise error(
                f"ORDER BY {item.expr} with DISTINCT must name an output column"
            )
        if bound is None:
            bound = bind_order(item.expr)
        keys.append((bound, item.descending))
    return keys
