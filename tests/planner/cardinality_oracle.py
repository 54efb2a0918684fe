"""Brute-force oracle for the planner's cardinality catalog.

:func:`eager_statistics` collects every number the planner can ask for
in one full pass over the graph's public API — the straightforward
definition that :class:`repro.graph.statistics.CardinalityStatistics`
computes lazily from the label indexes.  :func:`assert_matches_oracle`
compares the two on every label (``None`` included), every property and
every label pair, so the differential tests in ``tests/planner`` and the
DML state machine share one check.
"""

from collections import Counter
from typing import Optional

#: a label / property no element carries, probed to cover the zero paths
MISSING = "__missing__"


class EagerStatistics:
    """The catalog's read API over fully precomputed counters."""

    def __init__(self, num_nodes, num_edges, node_counts, edge_counts, pairs, distinct):
        self.num_nodes = num_nodes
        self.num_edges = num_edges
        self.node_label_counts = node_counts
        self.edge_label_counts = edge_counts
        self.edge_label_pairs = pairs
        self.distinct_values = distinct

    def node_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_nodes
        return self.node_label_counts.get(label, 0)

    def edge_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_edges
        return self.edge_label_counts.get(label, 0)

    def distinct(self, kind: str, label: Optional[str], prop: str) -> int:
        return self.distinct_values.get((kind, label, prop), 0)

    def pair_selectivity(self, edge_label, source_label, target_label) -> float:
        pairs = self.edge_label_pairs.get(edge_label)
        total = self.edge_count(edge_label)
        if not pairs or not total:
            return 1.0
        return pairs.get((source_label, target_label), 0) / total


def eager_statistics(graph) -> EagerStatistics:
    """One full pass over *graph* collecting the planner's catalog."""
    node_counts: Counter = Counter()
    edge_counts: Counter = Counter()
    pairs: dict = {}
    distinct_sets: dict = {}

    def record_properties(kind, labels, properties):
        for prop, value in properties.items():
            try:
                hash(value)
            except TypeError:
                value = repr(value)
            for label in (*labels, None):
                distinct_sets.setdefault((kind, label, prop), set()).add(value)

    for node in graph.nodes():
        node_counts.update(node.labels)
        record_properties("node", node.labels, node.properties)

    for edge in graph.edges():
        edge_counts.update(edge.labels)
        record_properties("edge", edge.labels, edge.properties)
        first, second = edge.endpoint_ids
        sources = tuple(graph.labels_of(first)) or (None,)
        targets = tuple(graph.labels_of(second)) or (None,)
        orientations = [(sources, targets)]
        if not edge.is_directed:
            orientations.append((targets, sources))
        # ``None`` as the edge label collects the unlabeled edges' pairs.
        for label in edge.labels or (None,):
            counter = pairs.setdefault(label, Counter())
            for src_labels, dst_labels in orientations:
                for src in src_labels:
                    for dst in dst_labels:
                        counter[(src, dst)] += 1

    return EagerStatistics(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        node_counts=dict(node_counts),
        edge_counts=dict(edge_counts),
        pairs={label: dict(counter) for label, counter in pairs.items()},
        distinct={key: len(values) for key, values in distinct_sets.items()},
    )


def assert_matches_oracle(stats, graph) -> None:
    """*stats* answers every catalog question exactly like the oracle."""
    oracle = eager_statistics(graph)
    assert (stats.num_nodes, stats.num_edges) == (oracle.num_nodes, oracle.num_edges)
    node_labels = [None, MISSING, *oracle.node_label_counts]
    edge_labels = [None, MISSING, *oracle.edge_label_counts]
    props = {MISSING} | {prop for (_, _, prop) in oracle.distinct_values}
    for label in node_labels:
        assert stats.node_count(label) == oracle.node_count(label), label
    for label in edge_labels:
        assert stats.edge_count(label) == oracle.edge_count(label), label
    for kind, labels in (("node", node_labels), ("edge", edge_labels)):
        for label in labels:
            for prop in sorted(props):
                assert stats.distinct(kind, label, prop) == oracle.distinct(
                    kind, label, prop
                ), (kind, label, prop)
    for edge_label in edge_labels:
        for src in node_labels:
            for dst in node_labels:
                assert stats.pair_selectivity(
                    edge_label, src, dst
                ) == oracle.pair_selectivity(edge_label, src, dst), (edge_label, src, dst)
