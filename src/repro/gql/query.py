"""GQL read queries: linear statement composition ending in RETURN.

A query is a *linear composition* of statements — ``MATCH``, ``OPTIONAL
MATCH``, ``LET`` and ``FILTER``, in any order and number — followed by a
final ``RETURN ... [ORDER BY] [LIMIT/OFFSET]`` (PAPER.md §2, §6).  Each
statement is a streaming transformer over the working table of binding
rows (see :mod:`repro.gql.pipeline`); RETURN compiles onto the SQL
host's relational operators (:mod:`repro.sql.operators`), so both hosts
share one relational tail.

Execution is streaming end to end when the query allows it:
:func:`execute_gql_iter` yields projected records as the underlying
pattern searches discover matches, and — when no ORDER BY and no vertical
aggregate intervenes — pushes a :class:`~repro.gpml.streaming.RowBudget`
of ``OFFSET + LIMIT`` rows down *through the whole chain*, so ``LIMIT 1``
on a multi-statement pipeline stops the first statement's NFA search
after one delivered record.  DISTINCT streams too (the budget counts
*distinct* delivered records).  ORDER BY and vertical aggregation are
pipeline breakers: the full result is materialized first, then sliced.
:func:`execute_gql` is a thin materializing wrapper — ``list()`` of the
iterator, same rows, same order.

A chained ``MATCH`` joins on the variables already bound upstream.  When
the pattern pins an end element to such a variable, the matcher is
*seeded* with the bound node per incoming row (reusing the planner's
anchor machinery); otherwise it falls back to hash-join semantics.
``OPTIONAL MATCH`` NULL-pads rows without join partners.  ``EXPLAIN``
(:func:`explain_gql`) renders the statement pipeline with a
[streaming]/[blocking] classification per stage.

Aggregation semantics (documented refinement, matching Cypher/PGQL
practice and the paper's Section 3 discussion):

* an aggregate over a **group variable** (one declared under a
  quantifier) is *horizontal*: it folds over the iterations within one
  binding row, like PGQL's group variables — ``SUM(e.amount)`` per path;
* an aggregate over a **singleton** (or path, or LET-defined) variable
  is *vertical*: it folds over binding rows, with implicit grouping by
  the non-aggregate RETURN items, like Cypher's ``count(x)``.

Paths are first-class: ``RETURN p`` yields :class:`~repro.graph.path.Path`
values, and ``length(p)`` / ``nodes(p)`` / ``edges(p)`` work on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional

from repro.errors import GqlError
from repro.gpml.expr import Aggregate as AggregateExpr
from repro.gpml.expr import EvalContext, Expr, PropertyRef, VarRef
from repro.gpml.matcher import MatcherConfig
from repro.gpml.parser import GpmlParser
from repro.gpml.streaming import BLOCKING, STREAMING, PipelineStats, RowBudget
from repro.gql.dml import (
    parse_delete_statement,
    parse_insert_statement,
    parse_set_statement,
)
from repro.gql.pipeline import (
    CompiledPipeline,
    FilterStatement,
    LetStatement,
    MatchStatement,
    compile_pipeline,
)
from repro.graph.model import PropertyGraph
from repro.graph.path import to_ids
from repro.obs.trace import counted_in
from repro.sql.binder import BoundColumn, Column, bind_order_keys, rebuild
from repro.sql.operators import (
    Aggregate,
    BoundAggregate,
    Distinct,
    Limit,
    Operator,
    Project,
    Sort,
    attach_spans,
)


@dataclass
class ReturnItem:
    expr: Expr
    alias: str
    vertical_aggregate: bool = False


@dataclass
class OrderItem:
    expr: Expr
    descending: bool


@dataclass
class GqlQuery:
    """A parsed GQL read query: a statement list plus the RETURN clause."""

    graph_name: Optional[str]
    statements: list
    items: list[ReturnItem]
    distinct: bool
    order_by: list[OrderItem]
    limit: Optional[int]
    offset: Optional[int]

    @property
    def pattern_text(self) -> str:
        """The first MATCH statement's pattern text (convenience/compat)."""
        for statement in self.statements:
            if isinstance(statement, MatchStatement):
                return statement.pattern_text
        raise GqlError("query has no MATCH statement")


class GqlResult:
    """Rows of projected values; elements and paths stay first-class.

    For write queries, :attr:`mutations` carries the committed
    transaction's summary counts (``{"nodes_created": 1, ...}``); it is
    None for read queries.
    """

    def __init__(
        self,
        columns: list[str],
        records: list[dict[str, Any]],
        mutations: Optional[dict] = None,
    ):
        self.columns = columns
        self.records = records
        self.mutations = mutations

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.records)

    def column(self, name: str) -> list[Any]:
        if name not in self.columns:
            raise GqlError(f"unknown result column {name!r}")
        return [record[name] for record in self.records]

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.records) != 1 or len(self.columns) != 1:
            raise GqlError(
                f"scalar() requires a 1x1 result, got "
                f"{len(self.records)}x{len(self.columns)}"
            )
        return self.records[0][self.columns[0]]

    def to_table(self):
        """Project into a relational table (ids for elements/paths)."""
        from repro.pgq.table import Table

        rows = [
            tuple(to_ids(record[c]) for c in self.columns)
            for record in self.records
        ]
        return Table(self.columns, rows, name="gql_result")

    def __repr__(self) -> str:
        return f"GqlResult({len(self.records)} rows, columns={self.columns})"


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def parse_gql_query(text: str) -> GqlQuery:
    parser = GpmlParser(text)
    graph_name = None
    if parser.accept_word("USE"):
        graph_name = parser.expect_ident()
    statements: list = []
    has_writes = False
    while True:
        if parser.at_keyword("MATCH"):
            statements.append(_parse_match_statement(parser, text, optional=False))
        elif parser.at_word("OPTIONAL"):
            start = parser.peek().position
            parser.advance()
            if not parser.at_keyword("MATCH"):
                parser.error("expected MATCH after OPTIONAL")
            statements.append(
                _parse_match_statement(parser, text, optional=True, start=start)
            )
        elif parser.at_word("LET"):
            statements.append(_parse_let_statement(parser, text))
        elif parser.at_word("FILTER"):
            statements.append(_parse_filter_statement(parser, text))
        elif parser.at_word("INSERT"):
            statements.append(parse_insert_statement(parser, text))
            has_writes = True
        elif parser.at_word("SET"):
            statements.append(parse_set_statement(parser, text))
            has_writes = True
        elif parser.at_word("DELETE", "DETACH"):
            statements.append(parse_delete_statement(parser, text))
            has_writes = True
        else:
            break
    if not statements:
        parser.error(
            "GQL query must start with MATCH, OPTIONAL MATCH, LET, FILTER, "
            "INSERT, SET or DELETE"
        )
    items: list[ReturnItem] = []
    distinct = False
    order_by: list[OrderItem] = []
    limit = offset = None
    if not parser.at_keyword("RETURN"):
        # Write-only queries may omit RETURN; read queries may not.
        if not has_writes:
            parser.error("GQL query requires a RETURN clause")
        parser.expect_eof()
        return GqlQuery(
            graph_name=graph_name,
            statements=statements,
            items=items,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )
    parser.advance()  # RETURN
    distinct = bool(parser.accept_keyword("DISTINCT"))
    while True:
        expr = parser.parse_expression()
        if parser.accept_keyword("AS"):
            alias = parser.expect_name()
        else:
            alias = _default_alias(expr, len(items))
        items.append(ReturnItem(expr=expr, alias=alias))
        if not parser.accept_punct(","):
            break
    if parser.accept_keyword("ORDER"):
        parser.expect_keyword("BY")
        while True:
            expr = parser.parse_expression()
            descending = False
            if parser.accept_keyword("DESC"):
                descending = True
            else:
                parser.accept_keyword("ASC")
            order_by.append(OrderItem(expr=expr, descending=descending))
            if not parser.accept_punct(","):
                break
    # LIMIT and OFFSET may come in either order.
    for _ in range(2):
        if parser.accept_keyword("LIMIT"):
            limit = parser.expect_number()
        elif parser.accept_keyword("OFFSET"):
            offset = parser.expect_number()
    parser.expect_eof()
    return GqlQuery(
        graph_name=graph_name,
        statements=statements,
        items=items,
        distinct=distinct,
        order_by=order_by,
        limit=limit,
        offset=offset,
    )


def _parse_match_statement(
    parser: GpmlParser, text: str, optional: bool, start: Optional[int] = None
) -> MatchStatement:
    if start is None:
        start = parser.peek().position
    parser.expect_keyword("MATCH")
    body_start = parser.peek().position
    pattern = parser.parse_graph_pattern_body()
    end = parser.peek().position
    return MatchStatement(
        pattern=pattern,
        text=" ".join(text[start:end].split()),
        pattern_text=text[body_start:end],
        optional=optional,
    )


def _parse_let_statement(parser: GpmlParser, text: str) -> LetStatement:
    start = parser.peek().position
    parser.advance()  # LET
    assignments: list[tuple[str, Expr]] = []
    while True:
        name = parser.expect_ident()
        parser.expect_punct("=")
        assignments.append((name, parser.parse_expression()))
        if not parser.accept_punct(","):
            break
    end = parser.peek().position
    return LetStatement(
        assignments=assignments, text=" ".join(text[start:end].split())
    )


def _parse_filter_statement(parser: GpmlParser, text: str) -> FilterStatement:
    start = parser.peek().position
    parser.advance()  # FILTER
    parser.accept_keyword("WHERE")  # GQL allows FILTER [WHERE] <cond>
    condition = parser.parse_expression()
    end = parser.peek().position
    return FilterStatement(
        condition=condition, text=" ".join(text[start:end].split())
    )


def _default_alias(expr: Expr, index: int) -> str:
    text = str(expr)
    if text.isidentifier():
        return text
    head, dot, tail = text.partition(".")
    if dot and head.isidentifier() and tail.isidentifier():
        return text
    return f"col{index + 1}"


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_gql(
    graph: PropertyGraph, query: "str | GqlQuery", config: MatcherConfig | None = None
) -> GqlResult:
    """Materializing wrapper: ``list()`` of :func:`execute_gql_iter`.

    Write queries additionally surface the transaction summary on
    :attr:`GqlResult.mutations`.
    """
    parsed, records, summary = _execute(graph, query, config, None)
    columns = [item.alias for item in parsed.items]
    return GqlResult(columns=columns, records=list(records), mutations=summary)


def execute_gql_iter(
    graph: PropertyGraph,
    query: "str | GqlQuery",
    config: MatcherConfig | None = None,
    stats: Optional[PipelineStats] = None,
) -> Iterator[dict[str, Any]]:
    """Execute a GQL query as a stream of projected records.

    Read queries stream whenever they have no ORDER BY and no vertical
    aggregate (the two record-level pipeline breakers), pushing an
    ``OFFSET+LIMIT`` row budget down through every statement's pattern
    search; otherwise the breaker's input is materialized and the sliced
    records are yielded.  Either way the records equal
    :func:`execute_gql`'s, in the same order.

    Write queries (any INSERT/SET/DELETE statement) execute **eagerly at
    call time** inside a graph transaction — commit on success, rollback
    to the bit-identical pre-query state on any error — and the returned
    iterator replays the already-projected records.  Eager execution is
    deliberate: mutations must not depend on whether the caller drains
    the iterator.  With ``stats`` given, ``stats.mutations`` and
    ``stats.transaction`` record the outcome.
    """
    return _execute(graph, query, config, stats)[1]


def _execute(
    graph: PropertyGraph,
    query: "str | GqlQuery",
    config: MatcherConfig | None,
    stats: Optional[PipelineStats],
) -> tuple[GqlQuery, Iterator[dict[str, Any]], Optional[dict[str, int]]]:
    """The one execution path: statements feed the RETURN operator tree.

    RETURN compiles before anything runs, so its errors (an unbindable
    ORDER BY key) precede every search and every write.  A write query
    drains inside an apply-or-rollback transaction: any error restores
    the pre-query graph (elements, indexes, stats caches, ``version``).
    """
    parsed = parse_gql_query(query) if isinstance(query, str) else query
    compiled = compile_pipeline(parsed.statements, config)
    tail = _compile_return(graph, parsed, compiled)
    records = _run_tail(graph, compiled, tail, config, stats)
    if not compiled.has_writes:
        return parsed, records, None
    txn = graph.begin_mutation()
    try:
        materialized = list(records)
    except BaseException:
        txn.rollback()
        if stats is not None:
            # Rolled-back mutations never happened; only the outcome counts.
            stats.transaction = "rollback"
        raise
    summary = txn.counts()
    txn.commit()
    if stats is not None:
        stats.transaction = "commit"
        stats.mutations = summary
        stats.rows += len(materialized)
    return parsed, iter(materialized), summary


def _run_tail(
    graph: PropertyGraph,
    compiled: CompiledPipeline,
    tail: Optional["_ReturnTail"],
    config: MatcherConfig | None,
    stats: Optional[PipelineStats],
) -> Iterator[dict[str, Any]]:
    rows = compiled.run(graph, config, budget=tail and tail.budget, stats=stats)
    if tail is None:  # write-only query: the statements run for their effects
        for _ in rows:
            pass
        return
    if compiled.has_writes:
        # Every mutation happens before RETURN: a LIMIT must never
        # truncate the writes, only the returned records.
        rows = iter(list(rows))
    root = tail.root
    trace = stats.trace if stats is not None else None
    if trace is not None:
        # The RETURN statement span is the root operator's span (rows
        # out, inclusive time, the LIMIT's budget event); the operators
        # below it get child spans.
        if tail.blocking:
            label, mode = "RETURN (vertical aggregation / ORDER BY)", BLOCKING
        else:
            label, mode = "RETURN projection", STREAMING
        span = trace.root.child(label, kind="statement", mode=mode)
        rows = counted_in(span, rows)
        root.span = span
        for child in root.children:
            attach_spans(child, span)
    tail.leaf.source = rows
    names = [column.name for column in root.columns]
    count = stats is not None and not compiled.has_writes
    for row in root.run():
        if count:
            stats.rows += 1
        yield dict(zip(names, row))


# ----------------------------------------------------------------------
# RETURN on the relational operators
# ----------------------------------------------------------------------
class BindingRows(Operator):
    """Leaf of the RETURN tail: the statement pipeline's binding rows.

    Each row is a one-column tuple holding the binding row's evaluation
    context, which :class:`OverBindings` expressions read — so elements
    and paths stay first-class all the way into the returned records.
    """

    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        self.source: Iterable[dict[str, Any]] = ()
        self.columns = [Column(table=None, name="bindings")]
        self.children = []

    def rows(self) -> Iterator[tuple]:
        graph = self.graph
        for bindings in self.source:
            yield (EvalContext(bindings=bindings, graph=graph),)

    def describe(self) -> str:
        return "binding rows"


@dataclass(frozen=True, eq=False)
class OverBindings(Expr):
    """A RETURN or ORDER BY expression over :class:`BindingRows` rows."""

    expr: Expr

    def evaluate(self, ctx) -> Any:
        return self.expr.evaluate(ctx.row[0])

    def __str__(self) -> str:
        return str(self.expr)


@dataclass
class _ReturnTail:
    leaf: BindingRows
    root: Operator
    #: an ORDER BY or vertical aggregate materializes the binding rows
    blocking: bool
    #: the LIMIT's row budget, threaded into the statement pipeline when
    #: the tail streams and the query does not write (None otherwise)
    budget: Optional[RowBudget]


def _compile_return(
    graph: PropertyGraph, parsed: GqlQuery, compiled: CompiledPipeline
) -> Optional[_ReturnTail]:
    """RETURN as a relational operator tree over the binding rows.

    ``BindingRows → [Aggregate] → Project → [Distinct] → [Sort] →
    [Limit]`` on the SQL host's operators (the Sort moves below Project
    when a key is an expression over the bindings).  GQL's own
    semantics are settled here, at compile time: horizontal
    aggregates are plain per-row expressions, vertical ones become
    Aggregate columns grouped by the other RETURN items, and ORDER BY
    keys bind like SQL's (output name, else an expression over the
    bindings).  None for a write-only query without RETURN.
    """
    if not parsed.items:
        return None
    has_vertical = _mark_vertical_aggregates(parsed, compiled.group_vars)
    leaf = BindingRows(graph)
    if has_vertical:
        op, items, bind_order = _compile_grouping(leaf, parsed, compiled.group_vars)
    else:
        op = leaf
        items = [(item.alias, OverBindings(item.expr)) for item in parsed.items]
        visible = set(compiled.variables)

        def bind_order(expr: Expr) -> Expr:
            unknown = expr.variables() - visible
            if unknown:
                raise GqlError(
                    f"ORDER BY {expr} names no RETURN column and references "
                    f"unknown variable(s) {', '.join(sorted(unknown))}"
                )
            if any(agg.var not in compiled.group_vars for agg in expr.aggregates()):
                raise GqlError(
                    f"ORDER BY {expr} aggregates across rows; return it as a "
                    f"RETURN column and order by that column"
                )
            return OverBindings(expr)

    # Keys naming RETURN columns sort the projected (and deduplicated)
    # records, so each key is evaluated once; a key over the bindings
    # must sort the binding rows, before projection drops them.
    outputs = [(alias, BoundColumn(i, alias)) for i, (alias, _) in enumerate(items)]
    keys = bind_order_keys(parsed.order_by, outputs, bind_order, parsed.distinct, GqlError)
    late = all(isinstance(key, BoundColumn) for key, _ in keys)
    if not late:
        op = Sort(op, bind_order_keys(parsed.order_by, items, bind_order, False, GqlError))
    op = Project(op, items)
    if parsed.distinct:
        op = Distinct(op)
    if keys and late:
        op = Sort(op, keys)
    blocking = has_vertical or bool(keys)
    budget = None
    if parsed.limit is not None and not blocking and not compiled.has_writes:
        budget = RowBudget(parsed.limit + (parsed.offset or 0))
    if parsed.limit is not None or parsed.offset:
        op = Limit(op, parsed.limit, parsed.offset or 0, budget)
    return _ReturnTail(leaf=leaf, root=op, blocking=blocking, budget=budget)


def _compile_grouping(leaf: BindingRows, parsed: GqlQuery, group_vars: frozenset[str]):
    """Implicit grouping onto the Aggregate operator.

    The RETURN items without a vertical aggregate are the group keys;
    each distinct vertical aggregate is one aggregate column folding one
    value per binding row.  Returns the operator, the post-aggregate
    RETURN items, and the ORDER BY binder (keys must be RETURN columns:
    after grouping, no binding row remains to evaluate them over).
    """
    keys: list[tuple[Column, Expr]] = []
    aggregates: list[AggregateExpr] = []
    for item in parsed.items:
        if not item.vertical_aggregate:
            keys.append((Column(table=None, name=item.alias), OverBindings(item.expr)))
            continue
        for agg in item.expr.aggregates():
            if agg.var not in group_vars and agg not in aggregates:
                aggregates.append(agg)
    columns = {
        agg: BoundColumn(len(keys) + position, str(agg))
        for position, agg in enumerate(aggregates)
    }

    def replace(expr: Expr) -> Expr:
        if isinstance(expr, AggregateExpr) and expr in columns:
            return columns[expr]
        return rebuild(expr, replace)

    items: list[tuple[str, Expr]] = []
    key_position = 0
    for item in parsed.items:
        if not item.vertical_aggregate:
            items.append((item.alias, BoundColumn(key_position, item.alias)))
            key_position += 1
            continue
        bound = replace(item.expr)
        if bound.variables():
            raise GqlError(
                f"RETURN item {item.expr} mixes a vertical aggregate with "
                f"per-row values; return those as separate items"
            )
        items.append((item.alias, bound))
    specs = []
    for agg in aggregates:
        arg = VarRef(agg.var) if agg.prop is None else PropertyRef(agg.var, agg.prop)
        spec = BoundAggregate(agg.func, OverBindings(arg), agg.distinct, agg.separator)
        specs.append((Column(table=None, name=str(agg)), spec))

    def bind_order(expr: Expr) -> Expr:
        for index, item in enumerate(parsed.items):
            if expr == item.expr:
                return BoundColumn(index, item.alias)
        raise GqlError(
            f"ORDER BY {expr} must name a RETURN column when RETURN aggregates"
        )

    return Aggregate(leaf, keys, specs), items, bind_order


def explain_gql(
    query: "str | GqlQuery", config: MatcherConfig | None = None
) -> str:
    """Render the statement pipeline of a GQL query as text.

    One block per statement with its execution mode (seeded / direct /
    hash join, LET/FILTER row transforms) classified [streaming] or
    [blocking], the internal GPML pipeline of each MATCH, and the RETURN
    stage's classification (whether LIMIT/OFFSET push a row budget down
    the chain).  Pass the same ``config`` execution will use so the
    rendered modes match (``seed_chained_match=False`` shows the
    hash-join fallback, not the seeded search).
    """
    parsed = parse_gql_query(query) if isinstance(query, str) else query
    compiled = compile_pipeline(parsed.statements, config)
    has_vertical = _mark_vertical_aggregates(parsed, compiled.group_vars)
    tail = "RETURN" if parsed.items else "no RETURN"
    lines = [f"GQL pipeline: {len(parsed.statements)} statement(s) + {tail}"]
    lines.extend(compiled.describe())
    items = ", ".join(item.alias for item in parsed.items)
    lines.append(f"RETURN: {items or '(none — write-only query)'}")
    if compiled.has_writes:
        lines.append(
            f"  [{BLOCKING}] DML transaction: statements run eagerly, "
            f"commit on success or rollback to the pre-query graph; "
            f"LIMIT/OFFSET slice the returned records"
        )
    elif has_vertical or parsed.order_by:
        breakers = []
        if has_vertical:
            breakers.append("vertical aggregation")
        if parsed.order_by:
            breakers.append("ORDER BY")
        lines.append(
            f"  [{BLOCKING}] {' + '.join(breakers)} materializes all records; "
            f"LIMIT/OFFSET slice afterwards"
        )
    else:
        # An OFFSET without LIMIT gives an unlimited budget — the chain
        # still runs to exhaustion, so only a LIMIT earns the budget line.
        budget = (
            "row budget = OFFSET+LIMIT stops the chain's searches"
            if parsed.limit is not None
            else "no LIMIT: runs to exhaustion"
        )
        distinct = "DISTINCT streams (counts distinct records); " if parsed.distinct else ""
        lines.append(f"  [{STREAMING}] projection — {distinct}{budget}")
    return "\n".join(lines)


def _mark_vertical_aggregates(parsed: GqlQuery, group_vars: frozenset[str]) -> bool:
    """Tag RETURN items that fold over rows; True when any item does.

    ``group_vars`` is the union of the group variables of every MATCH
    statement (quantified declarations); aggregates over anything else —
    singletons, paths, LET values — are vertical.
    """
    has_vertical = False
    for item in parsed.items:
        item.vertical_aggregate = any(
            agg.var not in group_vars for agg in item.expr.aggregates()
        )
        has_vertical = has_vertical or item.vertical_aggregate
    return has_vertical
