"""Differential property test: GQL RETURN == SELECT over GRAPH_TABLE.

Both hosts run the same relational tail over the same pattern output, so
every generated GQL ``MATCH ... RETURN`` query must agree with its
SQL/PGQ twin ``SELECT ... FROM GRAPH_TABLE(g MATCH ... COLUMNS (...))``:

* projection, DISTINCT, and vertical COUNT/SUM/MIN/MAX (implicit
  grouping in GQL, an explicit GROUP BY in SQL);
* ORDER BY over NULLs and mixed int/float/bool values, ascending and
  descending, by alias or by the dotted default name (``a.x``);
* OFFSET and LIMIT.

Elements compare by id (GQL returns them first-class, SQL as ids) and
values by type and value, so ``1`` and ``True`` stay apart.  Rows must
match in sequence when the ORDER BY keys order them totally; otherwise
the results compare as bags, with the ORDER BY key sequence still
required to match, and a LIMIT without ORDER BY must be a sub-bag of
the unlimited result.
"""

from collections import Counter

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.gql.query import execute_gql
from repro.graph import GraphBuilder
from repro.graph.path import to_ids
from repro.sql import Database
from repro.values import NULL, is_null, sort_key

#: property values spanning NULL (a missing property), ints, floats and
#: bools, so ORDER BY and the folds meet the numeric-class rule
VALUES = [None, 0, 1, 2, 3, 0.5, 2.5, 1.0, True, False]


@st.composite
def graphs(draw):
    builder = GraphBuilder("g")
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    for i in range(num_nodes):
        props = {}
        for name in ("x", "y"):
            value = draw(st.sampled_from(VALUES))
            if value is not None:
                props[name] = value
        builder.node(f"n{i}", "N", **props)
    for j in range(draw(st.integers(min_value=0, max_value=8))):
        builder.directed(
            f"e{j}",
            f"n{draw(st.integers(0, num_nodes - 1))}",
            f"n{draw(st.integers(0, num_nodes - 1))}",
            "E",
            x=draw(st.sampled_from(VALUES[1:])),
        )
    return builder.build()


PATTERNS = {
    "node": ("(a:N)", ["a", "a.x", "a.y"]),
    "edge": ("(a:N)-[e:E]->(b:N)", ["a", "b", "e", "a.x", "b.y", "e.x"]),
}


@st.composite
def queries(draw):
    """A (gql, sql, shape) triple; ``shape`` drives the comparison."""
    pattern, exprs = PATTERNS[draw(st.sampled_from(sorted(PATTERNS)))]
    kind = draw(st.sampled_from(["projection", "distinct", "aggregate"]))
    keys = draw(st.lists(st.sampled_from(exprs), min_size=1, max_size=2, unique=True))
    gql_items, sql_items, columns = [], [], []
    for index, expr in enumerate(keys):
        gql_items.append(f"{expr} AS c{index}")
        sql_items.append(f"c{index}")
        columns.append(f"{expr} AS c{index}")
    group_by = ""
    if kind == "aggregate":
        # At least one group key: a global aggregate over no rows yields
        # no row in GQL but one row in SQL (documented difference).
        folds = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["COUNT", "SUM", "MIN", "MAX"]),
                    st.sampled_from([e for e in exprs if "." in e]),
                ),
                min_size=1,
                max_size=2,
            )
        )
        for offset, (func, arg) in enumerate(folds):
            index = len(keys) + offset
            gql_items.append(f"{func}({arg}) AS c{index}")
            sql_items.append(f"{func}(k{index}) AS c{index}")
            columns.append(f"{arg} AS k{index}")
        group_by = " GROUP BY " + ", ".join(f"c{i}" for i in range(len(keys)))
    # Any item order: aggregates may precede the group keys.
    perm = draw(st.permutations(range(len(gql_items))))
    gql_items = [gql_items[i] for i in perm]
    sql_items = [sql_items[i] for i in perm]
    names = [f"c{i}" for i in perm]
    order = draw(st.lists(st.sampled_from(names), max_size=2, unique=True))
    descending = [draw(st.booleans()) for _ in order]
    offset = draw(st.one_of(st.none(), st.integers(0, 3)))
    limit = draw(st.one_of(st.none(), st.integers(0, 4)))

    distinct = "DISTINCT " if kind == "distinct" else ""
    gql_order_names = list(order)
    if kind == "projection" and len(keys) == 1 and "." in keys[0] and order == ["c0"]:
        # The dotted default name must bind like an alias.
        gql_items[0] = keys[0]
        gql_order_names = [keys[0]]
    order_sql = ", ".join(
        f"{name}{' DESC' if desc else ''}" for name, desc in zip(order, descending)
    )
    order_gql = ", ".join(
        f"{name}{' DESC' if desc else ''}"
        for name, desc in zip(gql_order_names, descending)
    )
    tail_gql = tail_sql = ""
    if order:
        tail_gql += f" ORDER BY {order_gql}"
        tail_sql += f" ORDER BY {order_sql}"
    if limit is not None:
        tail_gql += f" LIMIT {limit}"
        tail_sql += f" LIMIT {limit}"
    if offset is not None:
        tail_gql += f" OFFSET {offset}"
        tail_sql += f" OFFSET {offset}"
    gql = f"MATCH {pattern} RETURN {distinct}{', '.join(gql_items)}{tail_gql}"
    sql = (
        f"SELECT {distinct}{', '.join(sql_items)} FROM GRAPH_TABLE(g MATCH {pattern} "
        f"COLUMNS ({', '.join(columns)})){group_by}{tail_sql}"
    )
    shape = {
        "order": [names.index(name) for name in order],
        "limit": limit,
        "offset": offset or 0,
        "untailed_sql": (
            f"SELECT {distinct}{', '.join(sql_items)} FROM GRAPH_TABLE(g MATCH "
            f"{pattern} COLUMNS ({', '.join(columns)})){group_by}"
        ),
    }
    return gql, sql, shape


def _value(value):
    """Type-and-value identity: elements by id, 1 apart from True."""
    value = to_ids(value)
    if is_null(value):
        return ("NULL",)
    if isinstance(value, list):
        return ("list", tuple(_value(v) for v in value))
    return (type(value).__name__, value)


def _rows(records):
    return [tuple(_value(v) for v in record) for record in records]


def _gql_rows(graph, query):
    result = execute_gql(graph, query)
    return _rows([record[c] for c in result.columns] for record in result.records)


def _sql_rows(db, query):
    return _rows(db.execute(query).rows)


def _sort_key(value):
    return sort_key(NULL if value == ("NULL",) else value[1])


@given(graphs(), queries())
@settings(max_examples=150, deadline=None)
def test_gql_return_matches_select_over_graph_table(graph, query):
    gql, sql, shape = query
    db = Database()
    db.register_graph("g", graph)
    got = _gql_rows(graph, gql)
    want = _sql_rows(db, sql)
    full = _sql_rows(db, shape["untailed_sql"])
    sliced = shape["limit"] is not None or shape["offset"]
    order = shape["order"]
    if order:
        def keys(rows):
            return [tuple(_sort_key(row[i]) for i in order) for row in rows]

        assert keys(got) == keys(want), gql
        if len(set(keys(full))) == len(full):  # a total order: same sequence
            assert got == want, gql
            return
    if not sliced:
        assert Counter(got) == Counter(want), gql
        return
    # A LIMIT/OFFSET cut without a total order (none at all, or ties at
    # the cut): any sub-bag of the full result of the right size.
    assert len(got) == len(want) and not Counter(got) - Counter(full), gql
