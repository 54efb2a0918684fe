"""Machine-readable perf reporting: the ``repro.bench/v1`` trajectory.

Runs a fixed suite of representative queries — GPML core, GQL pipeline,
SQL/PGQ host — against a scaled banking graph with tracing-free
:class:`~repro.gpml.streaming.PipelineStats`, and writes one trajectory
entry (per-query delivered rows, matcher steps, raw matches, wall time)
to ``BENCH_observability.json``.  Later perf PRs append entries with
``--append --label <change>`` so the file accumulates the repo's perf
history in one schema-validated document.

Usage::

    python benchmarks/reporting.py                      # full scale, 60k edges
    python benchmarks/reporting.py --accounts 2000 --transfers 4000 \
        --label ci --out BENCH_observability.ci.json    # CI-sized run

``--compare BASELINE_LABEL`` turns the run into a perf-regression gate:
after measuring, the new entry is diffed per query against the most
recent prior entry with that label, and the process exits non-zero when
any query's wall time regresses beyond ``--fail-threshold`` (ratio,
default 1.5x) plus ``--fail-epsilon-ms`` (absolute slack for
microsecond-scale queries, default 25 ms).  Compare same-scale runs on
the same machine — CI records its own baseline entry first.

``--prom-out FILE`` additionally records every suite query into a
workload :class:`~repro.obs.worklog.Telemetry` and writes the registry
as a Prometheus text-exposition snapshot.

The suite asserts nothing about timings — it records them.  Each query
does assert a sanity condition on its result (non-crash + shape), so a
reporting run doubles as a smoke pass on the big graph.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from time import perf_counter

_SRC = str(Path(__file__).parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.datasets import random_transfer_network  # noqa: E402
from repro.gpml.engine import match_iter, prepare  # noqa: E402
from repro.gpml.streaming import PipelineStats  # noqa: E402
from repro.gql.query import execute_gql_iter, parse_gql_query  # noqa: E402
from repro.obs.schema import BENCH_SCHEMA, validate_bench_document  # noqa: E402
from repro.pgq.tabular import tabular_representation  # noqa: E402
from repro.sql.database import Database  # noqa: E402

SUITE = "observability"


def _run_gpml(graph, query, limit=None):
    def run(stats):
        return sum(1 for _ in match_iter(graph, prepare(query), limit=limit, stats=stats))

    return run


def _run_gql(graph, query):
    parsed = parse_gql_query(query)

    def run(stats):
        return sum(1 for _ in execute_gql_iter(graph, parsed, stats=stats))

    return run


def _run_sql(database, query):
    def run(stats):
        return sum(1 for _ in database.execute_iter(query, stats=stats))

    return run


def _run_gql_fresh_keys(graph, template, keys):
    """Run *template* once per key, parsing each text anew (no repeats)."""

    def run(stats):
        rows = 0
        for key in keys:
            parsed = parse_gql_query(template.format(owner=key))
            rows += sum(1 for _ in execute_gql_iter(graph, parsed, stats=stats))
        return rows

    return run


#: fresh owners per ``gql_point_lookup_fresh`` run; each lookup is one
#: warm anchored read, so the entry records the anchor cost, not set-up
POINT_LOOKUPS = 20


def build_suite(graph, seed=7):
    """(name, engine, query, runner) for every tracked benchmark query."""
    database = Database()
    database.register_graph("bank", graph)
    for name, table in tabular_representation(graph).items():
        database.register_table(name, table)

    gpml_hop = (
        "MATCH (a:Account WHERE a.isBlocked='yes')"
        "-[t:Transfer]->(b:Account WHERE b.isBlocked='yes')"
    )
    gpml_probe = "MATCH (a:Account)-[t:Transfer]->(a)"
    gql_chain = (
        "MATCH (a:Account WHERE a.isBlocked='yes')-[:Transfer]->(b:Account) "
        "MATCH (b)-[:Transfer]->(c:Account) "
        "RETURN a.owner AS src, c.owner AS dst LIMIT 100"
    )
    gql_ordered = (
        "MATCH (a:Account WHERE a.isBlocked='yes')-[:isLocatedIn]->(c:City) "
        "RETURN DISTINCT c.name AS city ORDER BY city"
    )
    sql_pushdown = (
        "SELECT src, amount FROM GRAPH_TABLE(bank "
        "MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.isBlocked='yes') "
        "COLUMNS (a.owner AS src, t.amount AS amount)"
        ") WHERE amount > 10000000 FETCH FIRST 50 ROWS ONLY"
    )
    sql_aggregate = (
        "SELECT COUNT(*) AS n FROM GRAPH_TABLE(bank "
        "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(b:Account) "
        "COLUMNS (a.owner AS src)"
        ")"
    )
    # Cross-model optimizer: the blocked-account watchlist joins the
    # transfer pattern on a COLUMNS element output, so the seeded-join
    # rewrite anchors one NFA run per probe row instead of enumerating
    # every transfer.
    sql_cross_model = (
        "SELECT acc.ID, gt.dst FROM Account AS acc JOIN GRAPH_TABLE(bank "
        "MATCH (a:Account)-[t:Transfer]->(b:Account) "
        "COLUMNS (a AS src_el, b.owner AS dst)"
        ") AS gt ON gt.src_el = acc.ID WHERE acc.isBlocked = 'yes'"
    )
    # Point reads on owners drawn afresh from the seed, so no key repeats
    # and no per-value cache can help: the anchor probe's cost per lookup
    # is what this entry tracks.
    gql_point_lookup = (
        "MATCH (a:Account WHERE a.owner='{owner}')-[t:Transfer]->(b:Account) "
        "RETURN b.owner AS dst, t.amount AS amount"
    )
    # Sample ids, not Node wrappers: 30k throwaway objects here shift where
    # the collector's next full pass lands, billing it to a cold query below.
    accounts = sorted(
        node_id for node_id in graph.node_ids() if "Account" in graph.labels_of(node_id)
    )
    fresh_owners = [
        graph.property_of(node_id, "owner")
        for node_id in random.Random(seed).sample(
            accounts, min(POINT_LOOKUPS, len(accounts))
        )
    ]
    # Net-zero DML round trip: every blocked account gains a review node
    # + edge and loses both in the same transaction, so the graph is
    # byte-identical afterwards and the entry stays order-independent.
    # Runs LAST anyway so its version churn cannot warm or chill the
    # read-only queries' caches.
    gql_dml = (
        "MATCH (a:Account WHERE a.isBlocked='yes') "
        "INSERT (a)-[:FlaggedBy]->(r:Review {src: a.owner}) "
        "DETACH DELETE r "
        "RETURN a.owner AS owner"
    )
    return [
        ("gpml_blocked_hop", "gpml", gpml_hop, _run_gpml(graph, gpml_hop)),
        (
            "gpml_first_row_probe",
            "gpml",
            gpml_probe,
            _run_gpml(graph, gpml_probe, limit=1),
        ),
        ("gql_chained_limit", "gql", gql_chain, _run_gql(graph, gql_chain)),
        ("gql_distinct_order", "gql", gql_ordered, _run_gql(graph, gql_ordered)),
        ("sql_pushdown_fetch", "sql", sql_pushdown, _run_sql(database, sql_pushdown)),
        ("sql_vertical_count", "sql", sql_aggregate, _run_sql(database, sql_aggregate)),
        (
            "sql_cross_model_seeded",
            "sql",
            sql_cross_model,
            _run_sql(database, sql_cross_model),
        ),
        (
            "gql_point_lookup_fresh",
            "gql",
            gql_point_lookup.format(owner="?"),
            _run_gql_fresh_keys(graph, gql_point_lookup, fresh_owners),
        ),
        ("gql_dml_roundtrip", "gql", gql_dml, _run_gql(graph, gql_dml)),
    ]


def measure(graph, telemetry=None, seed=7) -> list[dict]:
    results = []
    for name, engine, query, run in build_suite(graph, seed):
        stats = PipelineStats()
        start = perf_counter()
        rows = run(stats)
        wall_s = perf_counter() - start
        wall_ms = wall_s * 1000.0
        assert rows == stats.rows, f"{name}: delivered {rows} != stats.rows {stats.rows}"
        if telemetry is not None:
            telemetry.record_query(engine, query, wall_s, stats)
        results.append(
            {
                "name": name,
                "engine": engine,
                "query": " ".join(query.split()),
                "rows": rows,
                "steps": stats.steps,
                "matches": stats.matches,
                "wall_ms": round(wall_ms, 3),
            }
        )
        print(
            f"  {name:24s} [{engine}] rows={rows} steps={stats.steps} "
            f"wall={wall_ms:.1f}ms"
        )
    return results


def compare_entries(baseline, entry, threshold=1.5, epsilon_ms=25.0):
    """Per-query wall-time diff of two trajectory entries.

    Returns ``(diffs, regressions)``: one diff dict per query present in
    both entries (``name``, ``base_ms``, ``new_ms``, ``ratio``,
    ``regressed``), and the regressed subset.  A query regresses when
    ``new_ms > base_ms * threshold + epsilon_ms`` — the multiplicative
    threshold catches real slowdowns, the additive epsilon keeps
    microsecond-scale queries from tripping the gate on timer noise.
    """
    base_by_name = {result["name"]: result for result in baseline["results"]}
    diffs = []
    for result in entry["results"]:
        base = base_by_name.get(result["name"])
        if base is None:
            continue
        base_ms = base["wall_ms"]
        new_ms = result["wall_ms"]
        diffs.append(
            {
                "name": result["name"],
                "base_ms": base_ms,
                "new_ms": new_ms,
                "ratio": new_ms / base_ms if base_ms > 0 else float("inf"),
                "regressed": new_ms > base_ms * threshold + epsilon_ms,
            }
        )
    return diffs, [diff for diff in diffs if diff["regressed"]]


def _print_compare(label, diffs, regressions, threshold, epsilon_ms):
    print(
        f"compare vs {label!r} "
        f"(fail when new > {threshold}x base + {epsilon_ms}ms):"
    )
    for diff in diffs:
        marker = "REGRESSED" if diff["regressed"] else "ok"
        print(
            f"  {diff['name']:24s} {diff['base_ms']:10.1f}ms -> "
            f"{diff['new_ms']:10.1f}ms  ({diff['ratio']:.2f}x)  {marker}"
        )
    if regressions:
        names = ", ".join(diff["name"] for diff in regressions)
        print(f"FAIL: {len(regressions)} quer(ies) regressed: {names}")
    else:
        print("PASS: no wall-time regressions")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record the observability benchmark trajectory entry."
    )
    parser.add_argument("--accounts", type=int, default=30_000)
    parser.add_argument("--transfers", type=int, default=60_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--label", default="baseline",
        help="entry label (later perf PRs name the change being measured)",
    )
    parser.add_argument(
        "--out", default=str(Path(__file__).parent.parent / "BENCH_observability.json")
    )
    parser.add_argument(
        "--append", action="store_true",
        help="append one entry to an existing trajectory file",
    )
    parser.add_argument(
        "--compare", metavar="BASELINE_LABEL", default=None,
        help="diff the new entry against the most recent prior entry with "
        "this label and exit 1 on any wall-time regression beyond "
        "--fail-threshold (exit 2 if the label is missing)",
    )
    parser.add_argument(
        "--fail-threshold", type=float, default=1.5,
        help="regression ratio for --compare (default: 1.5x)",
    )
    parser.add_argument(
        "--fail-epsilon-ms", type=float, default=25.0,
        help="absolute slack added to the threshold so microsecond-scale "
        "queries don't trip the gate on timer noise (default: 25)",
    )
    parser.add_argument(
        "--prom-out", metavar="FILE", default=None,
        help="also record the suite into a workload Telemetry and write "
        "the metrics registry as a Prometheus text snapshot",
    )
    args = parser.parse_args(argv)

    print(
        f"building graph: {args.accounts} accounts, {args.transfers} transfers "
        f"(seed {args.seed})"
    )
    graph = random_transfer_network(args.accounts, args.transfers, seed=args.seed)
    print(f"graph ready: {graph.num_nodes} nodes, {graph.num_edges} edges")

    telemetry = None
    if args.prom_out:
        from repro.obs import Telemetry

        telemetry = Telemetry()

    entry = {
        "label": args.label,
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "params": {
            "accounts": args.accounts,
            "transfers": args.transfers,
            "seed": args.seed,
        },
        "results": measure(graph, telemetry=telemetry, seed=args.seed),
    }

    out = Path(args.out)
    if args.append and out.exists():
        document = json.loads(out.read_text(encoding="utf-8"))
        document["entries"].append(entry)
    else:
        document = {"schema": BENCH_SCHEMA, "suite": SUITE, "entries": [entry]}
    validate_bench_document(document)
    out.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {out} ({len(document['entries'])} entr{'y' if len(document['entries']) == 1 else 'ies'})")

    if args.prom_out:
        Path(args.prom_out).write_text(
            telemetry.render_prometheus(), encoding="utf-8"
        )
        print(f"wrote {args.prom_out} (Prometheus text exposition)")

    if args.compare is not None:
        # Most recent prior entry with the baseline label (the new entry
        # is the last one, so search everything before it).
        baseline = next(
            (
                candidate
                for candidate in reversed(document["entries"][:-1])
                if candidate["label"] == args.compare
            ),
            None,
        )
        if baseline is None:
            print(f"FAIL: no prior entry labelled {args.compare!r} to compare against")
            return 2
        diffs, regressions = compare_entries(
            baseline, entry, args.fail_threshold, args.fail_epsilon_ms
        )
        _print_compare(
            args.compare, diffs, regressions, args.fail_threshold, args.fail_epsilon_ms
        )
        if regressions:
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
