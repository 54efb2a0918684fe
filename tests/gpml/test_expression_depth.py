"""Expression depth limit: deep WHERE clauses fail as typed syntax errors.

Every host parses value expressions with the shared GPML parser, which
rejects expression trees deeper than ``MAX_EXPRESSION_DEPTH`` (a chain of
``MAX_EXPRESSION_DEPTH - 1`` comparisons joined by AND is the longest
conjunction) and parentheses nested deeper than
``MAX_EXPRESSION_NESTING``.  Beyond either, GPML and GQL raise
``GpmlSyntaxError`` and SQL raises ``SqlSyntaxError``, never a bare
``RecursionError``.  Input at the limits must run with room to spare, so
those tests run it under ``HOST_FRAMES`` extra frames of call stack.
"""

import pytest

from repro.datasets import figure1_graph
from repro.errors import GpmlSyntaxError, SqlSyntaxError
from repro.gpml import match
from repro.gpml.parser import (
    MAX_EXPRESSION_DEPTH,
    MAX_EXPRESSION_NESTING,
    parse_expression,
)
from repro.gql import execute_gql
from repro.pgq.tabular import tabular_representation
from repro.sql import Database

CONJUNCT = "a.owner <> 'x'"
HOST_FRAMES = 100


def conjunction(count: int) -> str:
    """``count`` comparisons joined by AND: a tree ``count + 1`` levels deep."""
    return " AND ".join([CONJUNCT] * count)


def parenthesized(count: int) -> str:
    return "(" * count + CONJUNCT + ")" * count


def under_host_stack(run, frames: int = HOST_FRAMES):
    """Call *run* beneath *frames* extra stack frames."""
    if frames == 0:
        return run()
    return under_host_stack(run, frames - 1)


AT_LIMIT = [conjunction(MAX_EXPRESSION_DEPTH - 1), parenthesized(MAX_EXPRESSION_NESTING)]
OVER_LIMIT = [
    conjunction(MAX_EXPRESSION_DEPTH),
    parenthesized(MAX_EXPRESSION_NESTING + 1),
    conjunction(600),
    "NOT " * 600 + CONJUNCT,
    "1" + " + 1" * 600 + " > 0",
    parenthesized(600),
]
SHAPES = ["conjunction", "parentheses"]
OVER_SHAPES = SHAPES + [
    "600 conjuncts", "600 NOTs", "600 additions", "600 parentheses"
]


@pytest.fixture(scope="module")
def graph():
    return figure1_graph()


@pytest.fixture(scope="module")
def db(graph):
    database = Database()
    database.register_graph("figure1", graph)
    for name, table in tabular_representation(graph).items():
        database.register_table(name, table)
    return database


def test_depth_is_counted_per_level():
    parse_expression(conjunction(MAX_EXPRESSION_DEPTH - 1))
    with pytest.raises(GpmlSyntaxError, match=f"deeper than {MAX_EXPRESSION_DEPTH} levels"):
        parse_expression(conjunction(MAX_EXPRESSION_DEPTH))
    parse_expression(parenthesized(MAX_EXPRESSION_NESTING))
    with pytest.raises(
        GpmlSyntaxError, match=f"deeper than {MAX_EXPRESSION_NESTING} parentheses"
    ):
        parse_expression(parenthesized(MAX_EXPRESSION_NESTING + 1))


@pytest.mark.parametrize("where", AT_LIMIT, ids=SHAPES)
def test_match_at_limit(graph, where):
    for query in (f"MATCH (a:Account) WHERE {where}", f"MATCH (a:Account WHERE {where})"):
        assert len(under_host_stack(lambda: match(graph, query))) == 6


@pytest.mark.parametrize("where", OVER_LIMIT, ids=OVER_SHAPES)
def test_match_over_limit(graph, where):
    with pytest.raises(GpmlSyntaxError, match="nested deeper"):
        match(graph, f"MATCH (a:Account) WHERE {where}")
    # An element WHERE is parsed under the node-or-path backtrack, which
    # must not swallow the depth error.
    with pytest.raises(GpmlSyntaxError, match="nested deeper"):
        match(graph, f"MATCH (a WHERE {where})")
    with pytest.raises(GpmlSyntaxError, match="nested deeper"):
        match(graph, f"MATCH ((a)-[t]->(b) WHERE {where})")


@pytest.mark.parametrize("where", AT_LIMIT, ids=SHAPES)
def test_execute_gql_at_limit(graph, where):
    query = f"MATCH (a:Account) WHERE {where} RETURN a.owner AS o"
    result = under_host_stack(lambda: execute_gql(graph, query))
    assert len(result.records) == 6


@pytest.mark.parametrize("where", OVER_LIMIT, ids=OVER_SHAPES)
def test_execute_gql_over_limit(graph, where):
    with pytest.raises(GpmlSyntaxError, match="nested deeper"):
        execute_gql(graph, f"MATCH (a:Account) FILTER {where} RETURN a.owner AS o")


def _graph_table(where: str) -> str:
    return (
        "SELECT g.o FROM GRAPH_TABLE(figure1 MATCH (a:Account) "
        f"WHERE {where} COLUMNS (a.owner AS o)) AS g"
    )


@pytest.mark.parametrize("where", AT_LIMIT, ids=SHAPES)
def test_database_execute_at_limit(db, where):
    for query in (_graph_table(where), f"SELECT a.owner FROM Account AS a WHERE {where}"):
        assert len(under_host_stack(lambda: db.execute(query).rows)) == 6


def test_pushdown_stays_within_limit(db):
    """Outer WHERE conjuncts are pushed into the GRAPH_TABLE WHERE only
    while the conjoined WHERE stays within the limit; the rest filter in
    SQL, with the same rows."""
    inner = conjunction(MAX_EXPRESSION_DEPTH - 1)
    outer = " AND ".join(["g.o <> 'y'"] * (MAX_EXPRESSION_DEPTH - 1))
    query = f"{_graph_table(inner)} WHERE {outer}"
    assert len(under_host_stack(lambda: db.execute(query).rows)) == 6
    shallow = f"{_graph_table(CONJUNCT)} WHERE {outer}"
    assert len(under_host_stack(lambda: db.execute(shallow).rows)) == 6


@pytest.mark.parametrize("where", OVER_LIMIT, ids=OVER_SHAPES)
def test_database_execute_over_limit(db, where):
    with pytest.raises(SqlSyntaxError, match="nested deeper"):
        db.execute(_graph_table(where))
    with pytest.raises(SqlSyntaxError, match="nested deeper"):
        db.execute(f"SELECT a.owner FROM Account AS a WHERE {where}")
