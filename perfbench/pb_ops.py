"""Workload definitions: seeded operation streams, execution, oracle checks.

Every workload runs on ``random_transfer_network(30000, 60000, seed)`` and
draws its query literals from the same seed, so the engine only ever sees
generated text.  An operation stream is infinite and deterministic: the
``i``-th operation of a workload depends only on the seed and ``i`` (and,
for ``path_search``, on the seeded graph it walks to pick reachable
targets).  Classes rotate in a fixed cycle, so every seed runs the same
class mix and only the literals differ.

Operations go through the public entry points only:
``parse_gql_query``/``execute_gql_iter``, ``Database.execute_iter``,
``prepare``/``match_iter`` and ``StandingQuery.refresh``.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Iterator, Optional

from repro.datasets import random_transfer_network
from repro.gpml.engine import BindingRow, match_iter, prepare
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.gql.pipeline import MatchStatement
from repro.gql.query import execute_gql, execute_gql_iter, parse_gql_query
from repro.gql.session import GqlSession
from repro.graph.model import Edge, Node
from repro.pgq.tabular import tabular_representation
from repro.planner.plan import plan_query
from repro.sql.config import SqlConfig
from repro.sql.database import Database
from repro.sql.parser import parse_sql

ACCOUNTS = 30000
TRANSFERS = 60000

#: the standing query ``read_write_mix`` registers at setup; inserted
#: accounts are blocked, so every INSERT and DETACH DELETE changes its view
STANDING_QUERY = (
    "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(b:Account) "
    "RETURN a.owner AS src, b.owner AS dst, t.amount AS amount"
)


#: every operation class, per workload, in stream order
CLASSES = {
    "point_lookup": ("pl_gql_hop", "pl_gql_chain", "pl_sql_where", "pl_gpml_first"),
    "analytic_scan": (
        "as_blocked_hop", "as_gql_two_hop_count", "as_gql_group_order",
        "as_gql_distinct_order", "as_sql_count", "as_sql_group_order",
        "as_sql_seeded_join",
    ),
    "path_search": (
        "ps_any_shortest_9", "ps_any_shortest_8", "ps_gql_trail",
        "ps_any_shortest_7", "ps_all_shortest_6",
    ),
    "read_write_mix": (
        "rw_insert", "rw_set", "rw_delete", "rw_refresh",
        "rw_gql_hop", "rw_gql_chain", "rw_sql_where", "rw_gpml_first",
    ),
}


@dataclass(frozen=True)
class Op:
    """One generated operation."""

    index: int
    #: operation class, unique across workloads (``ops.<cls>.p50_ms``)
    cls: str
    #: "read" | "write" | "refresh"
    kind: str
    #: "gql" | "sql" | "gpml" | "standing"
    host: str
    text: str
    #: starts from one owner's account (a point anchor)
    anchored: bool
    #: GPML MATCH texts the operation plans (side calls in the traced run)
    patterns: tuple = ()
    #: how results are compared with the oracles:
    #: "bag", "ordered", "subbag" (LIMIT without ORDER BY), "shortest"
    #: (ANY SHORTEST: endpoints and length), "summary" (write counts)
    compare: str = "bag"
    limit: Optional[int] = None
    #: ORDER BY aliases, for "ordered" comparisons
    order_by: tuple = ()
    #: expected mutation summary of a write
    expect: Optional[dict] = None


@dataclass
class Env:
    """What one workload's operations run against (see :func:`build_env`)."""

    graph: Any
    db: Database
    standing: Any = None
    #: Transfer out-neighbours per account id (path_search sources and
    #: targets; see :func:`transfer_adjacency`)
    adjacency: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def build_env(workload: str, seed: int, accounts: int, transfers: int, telemetry=None) -> Env:
    """Generate the graph, register it and its tables, and (for
    ``read_write_mix``) register the standing query.

    ``path_search`` also needs :attr:`Env.adjacency`, which is the
    benchmark's own work and is filled in outside the timed set-up."""
    graph = random_transfer_network(accounts, transfers, seed=seed)
    db = Database(telemetry=telemetry)
    db.register_graph("bank", graph)
    for name, table in tabular_representation(graph).items():
        db.register_table(name, table)
    env = Env(graph=graph, db=db)
    if workload == "read_write_mix":
        session = GqlSession()
        session.register_graph("bank", graph, default=True)
        env.standing = session.register_standing(STANDING_QUERY)
    return env


def warm_up(workload: str, seed: int, env: Env, accounts: int) -> None:
    """Run one operation of every read class with warm-up literals.

    Fills the snapshot, CSR and statistics caches the timed loop relies
    on.  The literals come from a separate stream, so the timed loop's
    own operations are not pre-executed.
    """
    wanted = set(CLASSES[workload])
    for op in op_stream(workload, seed, accounts, env, salt="warmup"):
        if not wanted:
            break
        if op.cls not in wanted:
            continue
        wanted.discard(op.cls)
        if op.kind == "read":
            execute(op, env, PipelineStats())


# ----------------------------------------------------------------------
# Operation streams
# ----------------------------------------------------------------------
def _owner(rng: random.Random, accounts: int) -> str:
    return f"owner{rng.randrange(accounts)}"


def _point_reads(rng: random.Random, accounts: int, prefix: str) -> list[tuple]:
    """The four anchored point-read classes (shared with read_write_mix)."""
    hop = (
        "MATCH (a:Account WHERE a.owner='{o}')-[t:Transfer]->(b:Account)"
    )
    return [
        (
            f"{prefix}_gql_hop", "gql",
            lambda: _gql(
                hop.format(o=_owner(rng, accounts))
                + " RETURN b.owner AS dst, t.amount AS amount"
            ),
        ),
        (
            f"{prefix}_gql_chain", "gql",
            lambda: _gql(
                f"MATCH (a:Account WHERE a.owner='{_owner(rng, accounts)}')"
                "-[:Transfer]->(b:Account) MATCH (b)-[:Transfer]->(c:Account) "
                "RETURN b.owner AS mid, c.owner AS dst"
            ),
        ),
        (
            f"{prefix}_sql_where", "sql",
            lambda: dict(
                text=(
                    "SELECT dst, amount FROM GRAPH_TABLE(bank MATCH "
                    "(a:Account)-[t:Transfer]->(b:Account) COLUMNS "
                    "(a.owner AS src, b.owner AS dst, t.amount AS amount)) "
                    f"WHERE src = '{_owner(rng, accounts)}'"
                ),
                patterns=("MATCH (a:Account)-[t:Transfer]->(b:Account)",),
            ),
        ),
        (
            f"{prefix}_gpml_first", "gpml",
            lambda: dict(
                text=hop.format(o=_owner(rng, accounts)), compare="subbag", limit=1
            ),
        ),
    ]


def _gql(text: str, **extra) -> dict:
    """Fields of a GQL read: the MATCH texts come from the query itself."""
    statements = parse_gql_query(text).statements
    patterns = tuple(s.text for s in statements if isinstance(s, MatchStatement))
    return dict(text=text, patterns=patterns, **extra)


def _analytic(rng: random.Random) -> list[tuple]:
    yes_no = lambda: rng.choice(("yes", "no"))  # noqa: E731
    # Small literal domains, so the same text recurs often.
    month = lambda: rng.choice((1, 4, 7, 10))  # noqa: E731
    threshold = lambda: rng.choice((5, 10, 15)) * 1_000_000  # noqa: E731

    # Every class starts from the blocked accounts (about a tenth), so a
    # literal changes which rows come back, not how much is scanned.
    def blocked_hop():
        return dict(
            text=(
                "MATCH (a:Account WHERE a.isBlocked='yes')"
                f"-[t:Transfer WHERE t.date='{month()}/1/2020']->"
                f"(b:Account WHERE b.isBlocked='{yes_no()}')"
            )
        )

    def sql_group():
        return dict(
            text=(
                "SELECT city, COUNT(*) AS n, SUM(amount) AS total FROM GRAPH_TABLE(bank "
                "MATCH (c:City)<-[:isLocatedIn]-(a:Account WHERE a.isBlocked='yes')"
                f"-[t:Transfer WHERE t.date='{month()}/1/2020']->(b:Account) "
                "COLUMNS (c.name AS city, t.amount AS amount)) "
                "GROUP BY city ORDER BY n DESC, city"
            ),
            patterns=(
                "MATCH (c:City)<-[:isLocatedIn]-(a:Account WHERE a.isBlocked='yes')"
                "-[t:Transfer]->(b:Account)",
            ),
            compare="ordered",
            order_by=("n", "city"),
        )

    def sql_count():
        return dict(
            text=(
                "SELECT COUNT(*) AS n FROM GRAPH_TABLE(bank MATCH "
                "(a:Account WHERE a.isBlocked='yes')-[t:Transfer]->"
                "(b:Account WHERE b.isBlocked='yes') "
                f"COLUMNS (t.amount AS amount)) WHERE amount >= {threshold()}"
            ),
            patterns=(
                "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->"
                "(b:Account WHERE b.isBlocked='yes')",
            ),
        )

    def sql_seeded_join():
        # Owners whose number starts with one digit from 3 to 8: about
        # 1,111 of the 30,000 accounts, of which a tenth are blocked and
        # probe the graph.
        digit = rng.randrange(3, 9)
        return dict(
            text=(
                "SELECT acc.ID, gt.dst FROM Account AS acc JOIN GRAPH_TABLE(bank "
                "MATCH (a:Account)-[t:Transfer]->(b:Account) "
                "COLUMNS (a AS src_el, b.owner AS dst, t.amount AS amount)) AS gt "
                "ON gt.src_el = acc.ID WHERE acc.isBlocked = 'yes' "
                f"AND acc.owner >= 'owner{digit}' AND acc.owner < 'owner{digit + 1}' "
                f"AND gt.amount >= {threshold()}"
            ),
            patterns=("MATCH (a:Account)-[t:Transfer]->(b:Account)",),
        )

    return [
        ("as_blocked_hop", "gpml", blocked_hop),
        (
            "as_gql_two_hop_count", "gql",
            lambda: _gql(
                f"MATCH (a:Account WHERE a.isBlocked='yes')-[:Transfer]->(b:Account)"
                f"-[t:Transfer WHERE t.date='{month()}/1/2020']->(c:Account) "
                "RETURN COUNT(c) AS n"
            ),
        ),
        (
            "as_gql_group_order", "gql",
            lambda: _gql(
                "MATCH (a:Account WHERE a.isBlocked='yes')"
                f"-[t:Transfer WHERE t.date='{month()}/1/2020']->(b:Account) "
                "RETURN b.isBlocked AS blocked, COUNT(t) AS n, SUM(t.amount) AS total "
                "ORDER BY n DESC, blocked",
                compare="ordered", order_by=("n", "blocked"),
            ),
        ),
        (
            "as_gql_distinct_order", "gql",
            lambda: _gql(
                "MATCH (a:Account WHERE a.isBlocked='yes')"
                f"-[t:Transfer WHERE t.amount >= {threshold()}]->"
                "(b:Account WHERE b.isBlocked='yes') "
                "RETURN DISTINCT t.date AS month ORDER BY month LIMIT 5",
                compare="ordered", order_by=("month",),
            ),
        ),
        ("as_sql_count", "sql", sql_count),
        ("as_sql_group_order", "sql", sql_group),
        ("as_sql_seeded_join", "sql", sql_seeded_join),
    ]


def _walk(rng: random.Random, adjacency: dict, start: str, steps: int) -> str:
    node = start
    for _ in range(steps):
        nxt = adjacency.get(node)
        if not nxt:
            break
        node = rng.choice(nxt)
    return node


def _search_steps(adjacency: dict, start: str, depth: int, cap: int) -> int:
    """Edge expansions of a breadth-first search to *depth* Transfer hops
    from *start*: the work an ANY SHORTEST {1,depth} search does.
    Counting stops once it exceeds *cap*."""
    seen = {start}
    frontier = [start]
    steps = 0
    for _ in range(depth):
        reached = []
        for node in frontier:
            for other in adjacency.get(node, ()):
                steps += 1
                if other not in seen:
                    seen.add(other)
                    reached.append(other)
        frontier = reached
        if steps > cap or not frontier:
            break
    return steps


#: ANY SHORTEST {1,k} explores the whole k-hop ball around its source,
#: so sources are drawn until that search takes between these many
#: steps.  Every search then does comparable work, and the figures
#: follow the matcher, not the luck of the draw.
STEP_BANDS = {6: (20, 400), 7: (180, 240), 8: (360, 440), 9: (720, 880)}


def transfer_adjacency(graph) -> dict[str, list[str]]:
    """Transfer out-neighbours per account id, in edge order."""
    adjacency: dict[str, list[str]] = {}
    for edge in graph.edges_with_label("Transfer"):
        adjacency.setdefault(edge.source.id, []).append(edge.target.id)
    return adjacency


def _paths(rng: random.Random, accounts: int, env: Env) -> list[tuple]:
    # Bands are set for 30,000 accounts; smaller graphs scale them down.
    scale = accounts / ACCOUNTS

    def pick(upper: int, walk_steps: int) -> tuple[str, str]:
        low, high = STEP_BANDS[upper]
        low, high = int(low * scale), int(high * scale)
        for _ in range(1000):
            src = rng.randrange(accounts)
            if low <= _search_steps(env.adjacency, f"a{src}", upper, high) <= high:
                break
        # A random-walk end: usually reachable, so a path is found.
        dst_id = _walk(rng, env.adjacency, f"a{src}", walk_steps)
        return f"owner{src}", env.graph.node(dst_id)["owner"]

    def shortest(upper: int, walk_steps: int):
        def make():
            src, dst = pick(upper, walk_steps)
            return dict(
                text=(
                    f"MATCH ANY SHORTEST (a:Account WHERE a.owner='{src}')"
                    f"-[:Transfer]->{{1,{upper}}}(b:Account WHERE b.owner='{dst}')"
                ),
                compare="shortest",
            )
        return make

    def all_shortest():
        src, dst = pick(6, 4)
        return dict(
            text=(
                f"MATCH ALL SHORTEST (a:Account WHERE a.owner='{src}')"
                f"-[:Transfer]->{{1,6}}(b:Account WHERE b.owner='{dst}')"
            )
        )

    trail = (
        "ps_gql_trail", "gql",
        lambda: _gql(
            f"MATCH TRAIL (a:Account WHERE a.owner='{_owner(rng, accounts)}')"
            "-[:Transfer]->{1,3}(b:Account) RETURN b.owner AS dst"
        ),
    )
    any_8 = ("ps_any_shortest_8", "gpml", shortest(8, 5))
    any_9 = ("ps_any_shortest_9", "gpml", shortest(9, 6))
    # k stays at most 9, well below the {1,20} blow-up.  In cost order
    # the cycle is three cheap classes, four {1,8} searches and two
    # {1,9} searches, so the median falls inside the {1,8} block and the
    # 90th percentile inside the {1,9} block, not on a gap between
    # classes.
    return [
        any_9,
        any_8,
        trail,
        any_8,
        ("ps_all_shortest_6", "gpml", all_shortest),
        any_8,
        ("ps_any_shortest_7", "gpml", shortest(7, 4)),
        any_8,
        any_9,
    ]


def op_stream(
    workload: str, seed: int, accounts: int, env: Env, salt: str = "timed"
) -> Iterator[Op]:
    """The workload's infinite, deterministic operation stream."""
    rng = random.Random(f"{workload}:{seed}:{salt}")
    if workload == "point_lookup":
        cycle = _point_reads(rng, accounts, "pl")
    elif workload == "analytic_scan":
        cycle = _analytic(rng)
    elif workload == "path_search":
        cycle = _paths(rng, accounts, env)
    elif workload == "read_write_mix":
        yield from _read_write_stream(rng, seed, accounts, salt)
        return
    else:
        raise ValueError(f"unknown workload {workload!r}")
    index = 0
    while True:
        for cls, host, make in cycle:
            fields = make()
            yield Op(
                index=index, cls=cls, kind="read", host=host,
                anchored=workload != "analytic_scan",
                patterns=fields.pop("patterns", None) or (fields["text"],),
                **fields,
            )
            index += 1


def _read_write_stream(
    rng: random.Random, seed: int, accounts: int, salt: str
) -> Iterator[Op]:
    """Write, refresh, then five point reads, cycling INSERT / SET /
    DETACH DELETE.  Deletes remove the oldest account this run inserted.

    Five reads per write rotate which read class comes first (cold)
    after a write, and put the median inside the warm reads."""
    reads = _point_reads(rng, accounts, "rw")
    read_index = 0
    inserted: list[str] = []
    serial = 0
    index = 0

    def emit(**fields) -> Op:
        nonlocal index
        op = Op(index=index, **fields)
        index += 1
        return op

    while True:
        for write in ("insert", "set", "delete"):
            serial += 1
            if write == "insert":
                name = f"bench_{salt}_{seed}_{serial}"
                inserted.append(name)
                match = f"MATCH (b:Account WHERE b.owner='{_owner(rng, accounts)}')"
                text = (
                    f"{match} INSERT (n:Account {{owner: '{name}', isBlocked: 'yes'}})"
                    f"-[:Transfer {{amount: {rng.randrange(1, 20) * 1_000_000}, "
                    f"date: '{rng.randrange(1, 13)}/1/2020'}}]->(b)"
                )
                expect = {"nodes_created": 1, "edges_created": 1}
            elif write == "set":
                match = f"MATCH (a:Account WHERE a.owner='{_owner(rng, accounts)}')"
                text = f"{match} SET a.reviewed = {serial}"
                expect = {"properties_set": 1}
            else:
                match = f"MATCH (a:Account WHERE a.owner='{inserted.pop(0)}')"
                text = f"{match} DETACH DELETE a"
                expect = {"nodes_deleted": 1, "edges_deleted": 1}
            yield emit(
                cls=f"rw_{write}", kind="write", host="gql", text=text,
                anchored=True, patterns=(match,), compare="summary", expect=expect,
            )
            yield emit(
                cls="rw_refresh", kind="refresh", host="standing",
                text="refresh", anchored=False, compare="none",
            )
            for _ in range(5):
                cls, host, make = reads[read_index % len(reads)]
                read_index += 1
                fields = make()
                yield emit(
                    cls=cls, kind="read", host=host, anchored=True,
                    patterns=fields.pop("patterns", None) or (fields["text"],),
                    **fields,
                )


def digest(ops: list[Op]) -> str:
    """sha256 over the operation texts, in order (the determinism record)."""
    h = hashlib.sha256()
    for op in ops:
        h.update(op.cls.encode())
        h.update(b"\0")
        h.update(op.text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class _NoSpans:
    """Stand-in span log for untraced execution."""

    def span(self, name, op_id=None):
        return nullcontext()


NO_SPANS = _NoSpans()


def execute(
    op: Op,
    env: Env,
    stats: PipelineStats,
    spans=NO_SPANS,
    config: Optional[MatcherConfig] = None,
    pushdown: bool = True,
    sql_config: Optional[SqlConfig] = None,
) -> Any:
    """Run *op* through its public entry point and drain the result.

    Returns the delivered rows (a list), or the ``StandingDelta`` of a
    refresh.  ``spans`` records one span per call into a layer.
    """
    op_id = op.index
    if op.host == "gql":
        with spans.span("gql.parse", op_id):
            parsed = parse_gql_query(op.text)
        with spans.span("gql.execute", op_id):
            return list(execute_gql_iter(env.graph, parsed, config, stats=stats))
    if op.host == "sql":
        with spans.span("sql.execute", op_id):
            return list(
                env.db.execute_iter(
                    op.text, config, stats=stats, pushdown=pushdown, sql_config=sql_config
                )
            )
    if op.host == "gpml":
        with spans.span("gpml.prepare", op_id):
            prepared = prepare(op.text)
        if spans is not NO_SPANS and (config is None or config.use_planner):
            # Plans into the prepared query's cache; match_iter reuses it.
            with spans.span("planner.plan", op_id):
                plan_query(env.graph, prepared)
        with spans.span("gpml.match_iter", op_id):
            return list(
                match_iter(env.graph, prepared, config, limit=op.limit, stats=stats)
            )
    if op.host == "standing":
        with spans.span("gql.standing", op_id):
            return env.standing.refresh()
    raise ValueError(f"unknown host {op.host!r}")


def side_calls(op: Op, env: Env, spans) -> None:
    """Time the parse/prepare/plan work an entry point does internally.

    ``Database.execute_iter`` parses its text and the GQL/SQL hosts
    prepare and plan their patterns inside the call, where the
    benchmark cannot put a span; these calls repeat that work on their
    own, after the operation, so the operation itself is unchanged.
    """
    if op.host not in ("gql", "sql"):
        return
    op_id = op.index
    if op.host == "sql":
        with spans.span("sql.parse", op_id):
            parse_sql(op.text)
    for pattern in op.patterns:
        with spans.span("gpml.prepare", op_id):
            prepared = prepare(pattern)
        with spans.span("planner.plan", op_id):
            plan_query(env.graph, prepared)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def _value(value: Any) -> Any:
    if isinstance(value, (Node, Edge)):
        return ("el", value.id)
    if isinstance(value, (list, tuple)):
        return tuple(_value(v) for v in value)
    return value


def normalize(op: Op, rows: list) -> list[tuple]:
    """Hashable, engine-independent rows for bag comparison."""
    out = []
    for row in rows:
        if isinstance(row, BindingRow):
            if op.compare == "shortest":
                # ANY SHORTEST may pick any of several shortest paths:
                # compare the endpoints and the length only.
                ends = tuple(
                    sorted((k, v.id) for k, v in row.values.items() if isinstance(v, Node))
                )
                out.append((ends, tuple(p.length for p in row.paths)))
            else:
                values = tuple(sorted((k, _value(v)) for k, v in row.values.items()))
                out.append((values, tuple(p.element_ids for p in row.paths)))
        else:
            out.append(_record_key(row))
    return out


def _record_key(record: dict) -> tuple:
    return tuple(sorted((k, _value(v)) for k, v in record.items()))


def oracles(op: Op) -> list[tuple[str, dict]]:
    """The oracle configurations a read of *op*'s host is checked against."""
    out = [
        ("object_matcher", dict(config=MatcherConfig(use_columnar=False))),
        ("no_planner", dict(config=MatcherConfig(use_planner=False))),
    ]
    if op.host == "sql":
        out.append(("no_pushdown", dict(pushdown=False)))
        out.append(("no_rewrite_rules", dict(sql_config=SqlConfig(optimizer_rules=frozenset()))))
    return out


def check_read(op: Op, env: Env, rows: list, oracle: int) -> list[str]:
    """Compare a read's rows with oracle number *oracle* (modulo the
    oracles of its host); returns mismatch messages."""
    choices = oracles(op)
    name, kwargs = choices[oracle % len(choices)]
    # LIMIT without ORDER BY: any sub-bag of the full result is right.
    oracle_op = replace(op, limit=None) if op.compare == "subbag" else op
    expected = execute(oracle_op, env, PipelineStats(), **kwargs)
    if not _agrees(op, rows, expected):
        return [f"{op.cls}#{op.index} differs from the {name} oracle"]
    return []


def _agrees(op: Op, rows: list, expected_rows: list) -> bool:
    got, expected = Counter(normalize(op, rows)), Counter(normalize(op, expected_rows))
    if op.compare == "subbag":
        want = min(op.limit or 0, sum(expected.values()))
        return sum(got.values()) == want and not (got - expected)
    if got != expected:
        return False
    if op.compare == "ordered":
        # The ORDER BY keys must come out in the same sequence too.
        def keys(records):
            return [tuple(r[k] for k in op.order_by) for r in records]

        return keys(rows) == keys(expected_rows)
    return True


def check_write(op: Op, stats: PipelineStats) -> list[str]:
    if stats.transaction != "commit" or stats.mutations != op.expect:
        return [
            f"{op.cls}#{op.index}: expected {op.expect} committed, got "
            f"{stats.mutations} ({stats.transaction})"
        ]
    return []


def check_standing(env: Env) -> list[str]:
    """The maintained view must equal a from-scratch evaluation."""
    env.standing.refresh()
    view = Counter(map(_record_key, env.standing.rows()))
    scratch = Counter(map(_record_key, execute_gql(env.graph, STANDING_QUERY).records))
    if view != scratch:
        return [
            f"standing view ({sum(view.values())} rows) differs from "
            f"from-scratch execute_gql ({sum(scratch.values())} rows)"
        ]
    return []

