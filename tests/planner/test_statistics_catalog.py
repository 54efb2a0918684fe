"""Cardinality statistics and the version-keyed planner catalog."""

from cardinality_oracle import assert_matches_oracle, eager_statistics
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import GraphBuilder, PropertyGraph
from repro.graph.statistics import CardinalityStatistics
from repro.planner.stats import StatisticsCatalog


class TestCardinalityStatistics:
    def test_label_counts(self, fig1):
        stats = CardinalityStatistics(fig1)
        assert stats.node_count("Account") == 6
        assert stats.node_count("Phone") == 4
        assert stats.edge_count("Transfer") == 8
        assert stats.node_count("Nope") == 0
        assert stats.node_count(None) == stats.num_nodes == fig1.num_nodes
        assert stats.edge_count(None) == stats.num_edges == fig1.num_edges

    def test_multi_label_nodes_count_once_per_label(self, fig1):
        stats = CardinalityStatistics(fig1)
        # Ankh-Morpork carries both City and Country in Figure 1.
        assert stats.node_count("City") == 1
        assert stats.node_count("Country") == 2

    def test_distinct_values(self, fig1):
        stats = CardinalityStatistics(fig1)
        assert stats.distinct("node", "Account", "owner") == 6
        assert stats.distinct("node", "Account", "isBlocked") == 2
        assert stats.distinct("node", "Account", "missing") == 0
        # The None label aggregates across labels.
        assert stats.distinct("node", None, "number") == 6  # 4 phones + 2 IPs

    def test_label_pair_counts(self, fig1):
        stats = CardinalityStatistics(fig1)
        # Every Transfer edge connects Account -> Account.
        assert stats.pair_selectivity("Transfer", "Account", "Account") == 1.0
        assert stats.pair_selectivity("Transfer", "Phone", "Account") == 0.0
        # All 6 isLocatedIn edges end at a Country; 3 of the targets are
        # also the City Ankh-Morpork (multi-label endpoints count per label).
        assert stats.edge_count("isLocatedIn") == 6
        assert stats.pair_selectivity("isLocatedIn", "Account", "Country") == 1.0
        assert stats.pair_selectivity("isLocatedIn", "Account", "City") == 0.5

    def test_undirected_edges_count_both_orientations(self):
        graph = (
            GraphBuilder("u")
            .node("a", "A")
            .node("b", "B")
            .undirected("e", "a", "b", "E")
            .build()
        )
        stats = CardinalityStatistics(graph)
        assert stats.pair_selectivity("E", "A", "B") == 1.0
        assert stats.pair_selectivity("E", "B", "A") == 1.0

    def test_unlabeled_bucket(self):
        graph = GraphBuilder("plain").node("x", v=1).node("y", v=2).build()
        graph.add_edge("e", "x", "y", properties={"w": [1]})
        stats = CardinalityStatistics(graph)
        assert stats.node_count(None) == 2
        assert stats.distinct("node", None, "v") == 2
        # None as the edge label collects unlabeled edges and endpoints.
        assert stats.pair_selectivity(None, None, None) == 1.0
        assert stats.distinct("edge", None, "w") == 1  # unhashable, by repr


# ----------------------------------------------------------------------
# Differential: the production collector against the brute-force oracle
# ----------------------------------------------------------------------
NODE_LABELS = ("A", "B", "C")
EDGE_LABELS = ("E", "F")
VALUES = st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from(["x", "y"]),
    st.lists(st.integers(min_value=0, max_value=1), max_size=2),  # unhashable
)
PROPERTIES = st.dictionaries(st.sampled_from(["p", "q"]), VALUES, max_size=2)


@st.composite
def graphs(draw):
    graph = PropertyGraph("random")
    num_nodes = draw(st.integers(min_value=0, max_value=8))
    for index in range(num_nodes):
        graph.add_node(
            f"n{index}",
            labels=draw(st.sets(st.sampled_from(NODE_LABELS), max_size=2)),
            properties=draw(PROPERTIES),
        )
    if num_nodes:
        node_ids = st.sampled_from([f"n{index}" for index in range(num_nodes)])
        for index in range(draw(st.integers(min_value=0, max_value=12))):
            graph.add_edge(
                f"e{index}",
                draw(node_ids),
                draw(node_ids),  # self-loops included
                labels=draw(st.sets(st.sampled_from(EDGE_LABELS), max_size=2)),
                properties=draw(PROPERTIES),
                directed=draw(st.booleans()),
            )
        removed = draw(st.sets(node_ids, max_size=2))
        for node_id in sorted(removed):
            graph.remove_node(node_id)
    return graph


def mutate(graph, data):
    """A handful of random mutations: relabels, property writes, removals."""
    for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
        node_ids = sorted(graph.node_ids())
        if not node_ids:
            graph.add_node(None, labels=["A"], properties={"p": 0})
            continue
        target = data.draw(st.sampled_from(node_ids))
        action = data.draw(st.sampled_from(["labels", "property", "remove", "add"]))
        if action == "labels":
            graph.set_labels(target, data.draw(st.sets(st.sampled_from(NODE_LABELS))))
        elif action == "property":
            graph.set_property(target, "p", data.draw(VALUES))
        elif action == "remove":
            graph.remove_node(target)
        else:
            graph.add_edge(None, target, target, labels=["F"], directed=False)


class TestOracleDifferential:
    def test_oracle_matches_figure1(self, fig1):
        oracle = eager_statistics(fig1)
        assert oracle.node_count("Account") == 6
        assert oracle.pair_selectivity("isLocatedIn", "Account", "City") == 0.5
        assert_matches_oracle(CardinalityStatistics(fig1), fig1)

    @settings(max_examples=80, deadline=None)
    @given(graph=graphs())
    def test_collector_matches_oracle(self, graph):
        assert_matches_oracle(CardinalityStatistics(graph), graph)
        assert_matches_oracle(StatisticsCatalog.for_graph(graph).stats, graph)

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(), data=st.data())
    def test_collector_matches_oracle_after_rollback(self, graph, data):
        with graph.begin_mutation() as txn:
            mutate(graph, data)
            # Catalog numbers read inside the transaction are discarded.
            assert_matches_oracle(StatisticsCatalog.for_graph(graph).stats, graph)
            txn.rollback()
        assert_matches_oracle(StatisticsCatalog.for_graph(graph).stats, graph)
        assert_matches_oracle(CardinalityStatistics(graph), graph)
        mutate(graph, data)
        assert_matches_oracle(StatisticsCatalog.for_graph(graph).stats, graph)


class TestCatalogCache:
    def test_catalog_is_cached_per_version(self, fig1):
        first = StatisticsCatalog.for_graph(fig1)
        assert StatisticsCatalog.for_graph(fig1) is first

    def test_mutation_invalidates_catalog(self, fig1):
        stale = StatisticsCatalog.for_graph(fig1)
        assert stale.stats.node_count("Account") == 6
        fig1.add_node("extra", labels=["Account"], properties={"owner": "Zed"})
        fresh = StatisticsCatalog.for_graph(fig1)
        assert fresh is not stale
        assert fresh.stats.node_count("Account") == 7
        assert fresh.version == fig1.version

    def test_property_mutation_invalidates_catalog(self, fig1):
        stale = StatisticsCatalog.for_graph(fig1)
        fig1.set_property("a1", "owner", "Mike")  # now a duplicate owner
        fresh = StatisticsCatalog.for_graph(fig1)
        assert fresh is not stale
        assert fresh.stats.distinct("node", "Account", "owner") == 5

    def test_estimates(self, fig1):
        catalog = StatisticsCatalog.for_graph(fig1)
        assert catalog.label_scan_estimate(frozenset({"Account"})) == 6.0
        assert catalog.label_scan_estimate(None) == fig1.num_nodes
        # 6 accounts / 6 distinct owners = 1 expected match
        assert catalog.equality_estimate(frozenset({"Account"}), "owner") == 1.0
        # An unknown property estimates to zero matches.
        assert catalog.equality_estimate(frozenset({"Account"}), "nope") == 0.0
        assert catalog.edge_fanout("Transfer") == 8 / fig1.num_nodes
