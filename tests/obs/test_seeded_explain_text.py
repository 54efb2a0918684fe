"""Seeded searches render the same EXPLAIN and EXPLAIN ANALYZE text.

GQL's chained MATCH and the SQL seeded join both run one anchored search
per seed through :class:`~repro.gpml.engine.SeededSearch`.  These tests
pin the full plan text and the annotated actuals (timings masked) of a
left- and a right-end GQL seed and of the element- and property-probe
SQL seeded joins, including the aggregated ``steps``, ``seeded_runs``
and ``seed_memo_*`` counters on the seeded span, so a change to how a
seeded run executes cannot silently change what it reports.  The
engine and rule set are fixed explicitly, so the text is the same in
every CI mode.
"""

import re

import pytest

from repro.datasets import figure1_graph
from repro.gpml.matcher import MatcherConfig
from repro.gql import GqlSession
from repro.pgq.tabular import tabular_representation
from repro.sql import SEEDED_JOIN, Database, SqlConfig

CONFIG = MatcherConfig(use_columnar=True)
SEEDED_ONLY = SqlConfig(optimizer_rules=frozenset({SEEDED_JOIN}))
_TIMING = re.compile(r"\d+(?:\.\d+)?ms")

GT = (
    "GRAPH_TABLE(fig1 MATCH (a:Account)-[t:Transfer]->(b:Account) "
    "COLUMNS (a AS src_el, a.owner AS src, b.owner AS dst))"
)
LEFT_SEED = (
    "MATCH (a:Account WHERE a.isBlocked='no')-[:Transfer]->(b:Account) "
    "MATCH (b)-[t:Transfer]->(c:Account) WHERE t.amount > 1000000 "
    "RETURN a.owner AS src, c.owner AS dst"
)
RIGHT_SEED = (
    "MATCH (c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-(b:Account) "
    "MATCH (x:Account)-[:Transfer]->(b) KEEP ANY SHORTEST "
    "RETURN b.owner AS b, x.owner AS x"
)
ELEMENT_JOIN = (
    f"SELECT tr.amount, gt.dst FROM Transfer AS tr JOIN {GT} AS gt "
    "ON gt.src_el = tr.SRC"
)
PROPERTY_JOIN = (
    f"SELECT acc.owner, gt.dst FROM Account AS acc JOIN {GT} AS gt "
    "ON gt.src = acc.owner"
)


def _masked(text: str) -> str:
    return _TIMING.sub("<ms>", text)


@pytest.fixture()
def graph():
    return figure1_graph()


@pytest.fixture()
def db(graph):
    database = Database()
    database.register_graph("fig1", graph)
    for name, table in tabular_representation(graph).items():
        database.register_table(name, table)
    return database


LEFT_SEED_EXPLAIN_TEXT = '''\
GQL pipeline: 2 statement(s) + RETURN
statement #1: MATCH (a:Account WHERE a.isBlocked='no')-[:Transfer]->(b:Account)
  [streaming] direct pattern search (unit incoming table; drives the shared row budget)
  pipeline:
      [streaming] pattern #1 search (enumerate) — DFS emits each accepted binding as it is discovered
      [streaming] pattern #1 reduce + dedup — incremental seen-set over reduced bindings
      [streaming] row delivery — rows surface as the pipeline produces them
statement #2: MATCH (b)-[t:Transfer]->(c:Account) WHERE t.amount > 1000000
  [streaming] seeded search on b (left end bound upstream), one anchored run per incoming row
  join variables: b
  pipeline:
      [streaming] pattern #1 search (enumerate) — DFS emits each accepted binding as it is discovered
      [streaming] pattern #1 reduce + dedup — incremental seen-set over reduced bindings
      [streaming] postfilter WHERE — per-row predicate
      [streaming] row delivery — rows surface as the pipeline produces them
RETURN: src, dst
  [streaming] projection — no LIMIT: runs to exhaustion
'''

LEFT_SEED_ANALYZE_TEXT = '''\
EXPLAIN ANALYZE (gql)
actual: 9 record(s), 13 matcher steps, 13 raw matches, <ms>
  statement #1: MATCH (a:Account WHERE a.isBlocked='no')-[:Transfer]->(b:Account) (rows=7, rows_in=1, time=<ms>)
    row delivery (rows=7, time=<ms>)
    pattern #1 search (enumerate) (rows=7, steps=7, time=<ms>, frontier_slices=5, frontier_entries=7, frontier_survivors=7)
      engine: columnar (vector selectivity=1.000)
      anchor: left via property index Account(isBlocked='no')
      est candidates=3 actual=5
      est rows=0.734694 actual=7
    pattern #1 reduce + dedup (rows=7, time=<ms>)
  statement #2: MATCH (b)-[t:Transfer]->(c:Account) WHERE t.amount > 1000000 (rows=9, rows_in=7, steps=6, time=<ms>, seed_memo_miss=5, seeded_runs=5, seed_memo_hit=2)
  RETURN projection (rows=9, time=<ms>)
    binding rows (rows=9, time=<ms>)
'''

RIGHT_SEED_EXPLAIN_TEXT = '''\
GQL pipeline: 2 statement(s) + RETURN
statement #1: MATCH (c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-(b:Account)
  [streaming] direct pattern search (unit incoming table; drives the shared row budget)
  pipeline:
      [streaming] pattern #1 search (enumerate) — DFS emits each accepted binding as it is discovered
      [streaming] pattern #1 reduce + dedup — incremental seen-set over reduced bindings
      [streaming] row delivery — rows surface as the pipeline produces them
statement #2: MATCH (x:Account)-[:Transfer]->(b) KEEP ANY SHORTEST
  [streaming] seeded search on b (right end bound upstream), one anchored run per incoming row
  join variables: b
  pipeline:
      [streaming] pattern #1 search (enumerate) — DFS emits each accepted binding as it is discovered
      [streaming] pattern #1 reduce + dedup — incremental seen-set over reduced bindings
      [blocking ] KEEP ANY_SHORTEST — selects per endpoint partition after the final WHERE
      [streaming] row delivery — rows surface as the pipeline produces them
RETURN: b, x
  [streaming] projection — no LIMIT: runs to exhaustion
'''

RIGHT_SEED_ANALYZE_TEXT = '''\
EXPLAIN ANALYZE (gql)
actual: 3 record(s), 6 matcher steps, 6 raw matches, <ms>
  statement #1: MATCH (c:City WHERE c.name='Ankh-Morpork')<-[:isLocatedIn]-(b:Account) (rows=3, rows_in=1, time=<ms>)
    row delivery (rows=3, time=<ms>)
    pattern #1 search (enumerate) (rows=3, steps=3, time=<ms>, frontier_slices=1, frontier_entries=3, frontier_survivors=3)
      engine: columnar (vector selectivity=1.000)
      anchor: left via property index City(name='Ankh-Morpork')
      est candidates=1 actual=1
      est rows=0.183673 actual=3
    pattern #1 reduce + dedup (rows=3, time=<ms>)
  statement #2: MATCH (x:Account)-[:Transfer]->(b) KEEP ANY SHORTEST (rows=3, steps=3, time=<ms>, seed_memo_miss=3, seeded_runs=3)
  RETURN projection (rows=3, time=<ms>)
    binding rows (rows=3, time=<ms>)
'''

ELEMENT_JOIN_EXPLAIN_TEXT = '''\
project: tr.amount AS amount, gt.dst AS dst
  seeded graph join on tr.SRC = gt.src_el (probe left streams, one anchored search per row)
    join strategy: seeded graph join (probe side streams into anchored searches)
    join keys: tr.SRC = gt.src_el
    scan Transfer AS tr [8 rows]
    seeded graph_table scan fig1 AS gt
      mode: seeded join — probe value src_el anchors a (left end), one run per probe row
      pattern: MATCH (a:Account)-[t:Transfer]->(b:Account)
      columns: src_el, src, dst
      pipeline:
        [streaming] pattern #1 search (enumerate) — DFS emits each accepted binding as it is discovered
        [streaming] pattern #1 reduce + dedup — incremental seen-set over reduced bindings
        [streaming] row delivery — rows surface as the pipeline produces them
'''

ELEMENT_JOIN_ANALYZE_TEXT = '''\
EXPLAIN ANALYZE (sql)
actual: 12 row(s), 8 matcher steps, <ms>
event: plan_rewrite (rule=seeded_join, graph_table=fig1, anchor=a, side=left, probe=src_el)
project: tr.amount AS amount, gt.dst AS dst (rows=12, time=<ms>)
  seeded graph join on tr.SRC = gt.src_el (probe left streams, one anchored search per row) (rows=12, time=<ms>)
    scan Transfer AS tr [8 rows] (rows=8, time=<ms>)
    seeded graph_table scan fig1 AS gt (rows=0, steps=8, time=<ms>, seed_memo_miss=6, seeded_runs=6, seed_memo_hit=2)
'''

PROPERTY_JOIN_EXPLAIN_TEXT = '''\
project: acc.owner AS owner, gt.dst AS dst
  seeded graph join on acc.owner = gt.src (probe left streams, one anchored search per row)
    join strategy: seeded graph join (probe side streams into anchored searches)
    join keys: acc.owner = gt.src
    scan Account AS acc [6 rows]
    seeded graph_table scan fig1 AS gt
      mode: seeded join — probe value src anchors a (left end), one run per probe row
      pattern: MATCH (a:Account)-[t:Transfer]->(b:Account)
      columns: src_el, src, dst
      pipeline:
        [streaming] pattern #1 search (enumerate) — DFS emits each accepted binding as it is discovered
        [streaming] pattern #1 reduce + dedup — incremental seen-set over reduced bindings
        [streaming] row delivery — rows surface as the pipeline produces them
'''

PROPERTY_JOIN_ANALYZE_TEXT = '''\
EXPLAIN ANALYZE (sql)
actual: 8 row(s), 8 matcher steps, <ms>
event: plan_rewrite (rule=seeded_join, graph_table=fig1, anchor=a, side=left, probe=src)
project: acc.owner AS owner, gt.dst AS dst (rows=8, time=<ms>)
  seeded graph join on acc.owner = gt.src (probe left streams, one anchored search per row) (rows=8, time=<ms>)
    scan Account AS acc [6 rows] (rows=6, time=<ms>)
    seeded graph_table scan fig1 AS gt (rows=0, steps=8, time=<ms>, seed_memo_miss=6, seeded_runs=6)
'''


@pytest.mark.parametrize(
    "query, explain_text, analyze_text",
    [
        (LEFT_SEED, LEFT_SEED_EXPLAIN_TEXT, LEFT_SEED_ANALYZE_TEXT),
        (RIGHT_SEED, RIGHT_SEED_EXPLAIN_TEXT, RIGHT_SEED_ANALYZE_TEXT),
    ],
    ids=["left-seed", "right-seed"],
)
def test_gql_seeded_chain_text(graph, query, explain_text, analyze_text):
    session = GqlSession(graph)
    assert session.explain(query, CONFIG) == explain_text.rstrip("\n")
    report = session.explain_analyze(query, config=CONFIG)
    assert _masked(report) == analyze_text.rstrip("\n")


@pytest.mark.parametrize(
    "query, explain_text, analyze_text",
    [
        (ELEMENT_JOIN, ELEMENT_JOIN_EXPLAIN_TEXT, ELEMENT_JOIN_ANALYZE_TEXT),
        (PROPERTY_JOIN, PROPERTY_JOIN_EXPLAIN_TEXT, PROPERTY_JOIN_ANALYZE_TEXT),
    ],
    ids=["element-probe", "property-probe"],
)
def test_sql_seeded_join_text(db, query, explain_text, analyze_text):
    assert db.explain(query, CONFIG, sql_config=SEEDED_ONLY) == explain_text.rstrip("\n")
    report = db.explain_analyze(query, CONFIG, sql_config=SEEDED_ONLY)
    assert _masked(report) == analyze_text.rstrip("\n")
