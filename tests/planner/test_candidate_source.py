"""CandidateSource.candidate_ids against a brute-force scan.

Property-index probes are served by the graph's maintained hash indexes
whether or not a columnar snapshot exists; label scans may reuse a
current snapshot's sorted member lists.  Either way the candidate list
must equal a full scan over the object graph — same ids, same order —
before and after every kind of mutation, including a rolled-back
transaction.
"""

import pytest

from repro.graph import GraphBuilder
from repro.graph.columnar import cached_snapshot, snapshot_for
from repro.planner.indexes import (
    FULL_SCAN,
    LABEL_SCAN,
    PROPERTY_INDEX,
    CandidateSource,
)

#: (prop, value) probes: str, int, float (incl. int/float cross-equality),
#: a value nobody has, and a property nobody has
VALUE_PROBES = [
    ("owner", "Scott"),
    ("owner", "Mike"),
    ("bal", 10),
    ("bal", 10.0),
    ("rate", 0.5),
    ("owner", "absent-value"),
    ("noSuchProp", "x"),
]
LABEL_PROBES = ["Account", "Vip", "City", None]
LABEL_SETS = [
    frozenset({"Account"}),
    frozenset({"Account", "City"}),
    frozenset({"NoSuchLabel"}),
]


def bank_graph():
    return (
        GraphBuilder("bank")
        .node("a1", "Account", owner="Scott", bal=10, rate=0.5)
        .node("a2", "Account", owner="Aretha", bal=20, rate=1.5)
        .node("a3", "Account", "Vip", owner="Mike", bal=10.0, rate=0.5)
        .node("a4", "Account", owner="Scott", bal="10")
        .node("c1", "City", name="Ankh-Morpork", owner="Scott")
        .node("u1", owner="Mike", bal=10)
        .directed("t1", "a1", "a2", "Transfer", amount=100)
        .directed("t2", "a2", "a3", "Transfer", amount=200)
        .directed("l1", "a1", "c1", "isLocatedIn")
        .build()
    )


def brute_probe(graph, label, prop, value):
    return sorted(
        node.id
        for node in graph.nodes()
        if (label is None or label in node.labels)
        and prop in node.properties
        and node.properties[prop] == value
    )


def brute_labels(graph, labels):
    return sorted(
        node.id for node in graph.nodes() if labels & node.labels
    )


def assert_sources_match_scan(graph):
    for label in LABEL_PROBES:
        for prop, value in VALUE_PROBES:
            source = CandidateSource(
                kind=PROPERTY_INDEX, estimate=0.0, lookups=[(label, prop, value)]
            )
            assert source.candidate_ids(graph) == brute_probe(
                graph, label, prop, value
            ), (label, prop, value)
    # a multi-probe source (IN membership / alternation ends) is the union
    union = CandidateSource(
        kind=PROPERTY_INDEX,
        estimate=0.0,
        lookups=[("Account", "owner", "Scott"), (None, "owner", "Mike")],
    )
    assert union.candidate_ids(graph) == sorted(
        set(brute_probe(graph, "Account", "owner", "Scott"))
        | set(brute_probe(graph, None, "owner", "Mike"))
    )
    for labels in LABEL_SETS:
        source = CandidateSource(kind=LABEL_SCAN, estimate=0.0, labels=labels)
        assert source.candidate_ids(graph) == brute_labels(graph, labels), labels
    assert CandidateSource(kind=FULL_SCAN, estimate=0.0).candidate_ids(graph) is None


@pytest.fixture(params=["no-snapshot", "warm-snapshot"])
def snapshot_mode(request):
    return request.param


def prepare_mode(graph, mode):
    if mode == "warm-snapshot":
        snapshot_for(graph)
        assert cached_snapshot(graph) is not None
    else:
        assert cached_snapshot(graph) is None


def test_matches_brute_force(snapshot_mode):
    graph = bank_graph()
    prepare_mode(graph, snapshot_mode)
    assert_sources_match_scan(graph)


def test_after_set_property(snapshot_mode):
    graph = bank_graph()
    assert_sources_match_scan(graph)  # indexes now exist and must track writes
    graph.set_property("a2", "owner", "Scott")
    graph.set_property("a1", "bal", 20)
    graph.set_property("c1", "rate", 0.5)
    graph.remove_property("a3", "owner")
    prepare_mode(graph, snapshot_mode)
    assert_sources_match_scan(graph)


def test_after_set_labels(snapshot_mode):
    graph = bank_graph()
    assert_sources_match_scan(graph)
    graph.set_labels("a1", ["Vip"])
    graph.set_labels("u1", ["Account", "Vip"])
    graph.set_labels("c1", [])
    prepare_mode(graph, snapshot_mode)
    assert_sources_match_scan(graph)


def test_after_remove_node(snapshot_mode):
    graph = bank_graph()
    assert_sources_match_scan(graph)
    graph.remove_node("a1")
    graph.remove_node("u1")
    prepare_mode(graph, snapshot_mode)
    assert_sources_match_scan(graph)


def test_after_rolled_back_transaction(snapshot_mode):
    graph = bank_graph()
    CandidateSource(
        kind=PROPERTY_INDEX, estimate=0.0, lookups=[("Account", "owner", "Mike")]
    ).candidate_ids(graph)
    txn = graph.begin_mutation()
    graph.set_property("a1", "owner", "Mike")
    graph.add_node("a9", labels=["Account"], properties={"owner": "Mike", "bal": 10})
    graph.set_labels("u1", ["Account"])
    # probes inside the transaction create the remaining indexes lazily,
    # over the mutated state; rollback must unwind them too
    assert_sources_match_scan(graph)
    graph.remove_node("a2")
    txn.rollback()
    prepare_mode(graph, snapshot_mode)
    assert_sources_match_scan(graph)


def test_property_probe_never_builds_a_snapshot_column():
    graph = bank_graph()
    snapshot = snapshot_for(graph)
    before = dict(snapshot._node_columns)
    for label in LABEL_PROBES:
        for prop, value in VALUE_PROBES:
            CandidateSource(
                kind=PROPERTY_INDEX, estimate=0.0, lookups=[(label, prop, value)]
            ).candidate_ids(graph)
    CandidateSource(
        kind=LABEL_SCAN, estimate=0.0, labels=frozenset({"Account"})
    ).candidate_ids(graph)
    assert cached_snapshot(graph) is snapshot  # probes do not mutate
    assert snapshot._node_columns == before  # no linear column scan
