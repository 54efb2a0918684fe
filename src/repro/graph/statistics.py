"""Summary statistics of a property graph.

Two layers:

* :func:`graph_statistics` — the structural summary used by EXPLAIN and
  benchmarks (node/edge counts, label histograms, degrees),
* :class:`CardinalityStatistics` — the planner-facing catalog: per-label
  node/edge cardinalities, label-pair edge selectivities and
  per-(label, property) distinct-value counts, each computed on first
  use.  The cost-based planner (:mod:`repro.planner`) consumes it through
  a per-graph cache keyed on :attr:`PropertyGraph.version`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from repro.graph.model import OUT, PropertyGraph


@dataclass(frozen=True)
class GraphStatistics:
    """A structural summary of a property graph."""

    num_nodes: int
    num_edges: int
    num_directed_edges: int
    num_undirected_edges: int
    num_self_loops: int
    node_label_histogram: dict[str, int]
    edge_label_histogram: dict[str, int]
    max_out_degree: int
    mean_degree: float

    def __str__(self) -> str:
        return (
            f"{self.num_nodes} nodes, {self.num_edges} edges "
            f"({self.num_directed_edges} directed, "
            f"{self.num_undirected_edges} undirected, "
            f"{self.num_self_loops} self-loops); "
            f"mean degree {self.mean_degree:.2f}"
        )


def graph_statistics(graph: PropertyGraph) -> GraphStatistics:
    node_labels: Counter[str] = Counter()
    for node in graph.nodes():
        node_labels.update(node.labels)
    edge_labels: Counter[str] = Counter()
    directed = undirected = self_loops = 0
    for edge in graph.edges():
        edge_labels.update(edge.labels)
        if edge.is_directed:
            directed += 1
        else:
            undirected += 1
        if edge.is_self_loop:
            self_loops += 1
    max_out = 0
    total_inc = 0
    for node_id in graph.node_ids():
        incidences = graph.incidences(node_id)
        total_inc += len(incidences)
        out_degree = sum(1 for inc in incidences if inc.direction == OUT)
        max_out = max(max_out, out_degree)
    mean_degree = total_inc / graph.num_nodes if graph.num_nodes else 0.0
    return GraphStatistics(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_directed_edges=directed,
        num_undirected_edges=undirected,
        num_self_loops=self_loops,
        node_label_histogram=dict(node_labels),
        edge_label_histogram=dict(edge_labels),
        max_out_degree=max_out,
        mean_degree=mean_degree,
    )


# ----------------------------------------------------------------------
# Planner-facing cardinality catalog
# ----------------------------------------------------------------------
#: label key standing for elements (or endpoints) carrying no label at all
UNLABELED = None


class CardinalityStatistics:
    """Cardinalities and selectivities backing cost-based planning.

    Each number is computed on first use from the graph's
    always-maintained label indexes, so planning on a 60k-node graph
    costs milliseconds rather than a full graph pass:

    * ``node_count`` / ``edge_count`` — elements carrying a label (an
      element with several labels counts once per label); ``None`` means
      every element.  O(1): ``len()`` of an index set.
    * ``distinct`` — the number of distinct values a property takes on
      elements carrying a label (``None``: on every element; unhashable
      values count by ``repr``).  Scans only that label's members.
    * ``pair_selectivity`` — the fraction of an edge label's edges that
      join a (source-label, target-label) pair; undirected edges count
      both orientations and ``None`` in a slot stands for an unlabeled
      endpoint (or, as the edge label, for unlabeled edges).  Scans only
      that edge label's members.

    An instance is valid for one graph version; the planner's catalog
    cache (:mod:`repro.planner.stats`) discards it when
    :attr:`PropertyGraph.version` moves.
    """

    def __init__(self, graph: PropertyGraph):
        self._graph = graph
        self.version = graph.version
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges
        self._distinct: dict[tuple[str, Optional[str], str], int] = {}
        self._pairs: dict[Optional[str], dict] = {}

    def node_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_nodes
        return len(self._graph._node_label_index.get(label, ()))

    def edge_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_edges
        return len(self._graph._edge_label_index.get(label, ()))

    def distinct(self, kind: str, label: Optional[str], prop: str) -> int:
        """Distinct values of *prop*; 0 when no element carries it."""
        key = (kind, label, prop)
        cached = self._distinct.get(key)
        if cached is not None:
            return cached
        graph = self._graph
        store = graph._nodes if kind == "node" else graph._edges
        if label is None:
            members = store
        else:
            index = (
                graph._node_label_index if kind == "node" else graph._edge_label_index
            )
            members = index.get(label, ())
        values = set()
        for element_id in members:
            properties = store[element_id].properties
            if prop in properties:
                value = properties[prop]
                try:
                    hash(value)
                except TypeError:
                    value = repr(value)
                values.add(value)
        count = len(values)
        self._distinct[key] = count
        return count

    def pair_selectivity(
        self,
        edge_label: Optional[str],
        source_label: Optional[str],
        target_label: Optional[str],
    ) -> float:
        """Fraction of *edge_label* edges joining the given label pair."""
        pairs = self._pairs.get(edge_label)
        if pairs is None:
            pairs = self._collect_pairs(edge_label)
            self._pairs[edge_label] = pairs
        total = self.edge_count(edge_label)
        if not pairs or not total:
            return 1.0
        count = pairs.get((source_label, target_label), 0)
        return count / total

    def _collect_pairs(self, edge_label: Optional[str]) -> dict:
        graph = self._graph
        if edge_label is None:
            members = (
                eid for eid, data in graph._edges.items() if not data.labels
            )
        else:
            members = graph._edge_label_index.get(edge_label, ())
        pairs: Counter = Counter()
        labels_of = graph.labels_of
        edges = graph._edges
        for eid in members:
            data = edges[eid]
            source_labels = tuple(labels_of(data.first)) or (UNLABELED,)
            target_labels = tuple(labels_of(data.second)) or (UNLABELED,)
            orientations = [(source_labels, target_labels)]
            if not data.directed:
                orientations.append((target_labels, source_labels))
            for src_labels, dst_labels in orientations:
                for src in src_labels:
                    for dst in dst_labels:
                        pairs[(src, dst)] += 1
        return dict(pairs)
