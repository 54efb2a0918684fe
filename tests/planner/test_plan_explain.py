"""Plan caching, join ordering, EXPLAIN PLAN rendering, and the CLI."""

from repro.cli import main
from repro.datasets import random_transfer_network
from repro.gpml.engine import match, prepare
from repro.gpml.explain import explain_plan
from repro.gpml.matcher import MatcherConfig
from repro.planner.plan import plan_query

NAIVE = MatcherConfig(use_planner=False)


def canon(result):
    return sorted(
        (
            tuple(sorted((k, repr(v)) for k, v in row.values.items())),
            tuple(str(p) for p in row.paths),
        )
        for row in result.rows
    )


class TestPlanCaching:
    def test_plan_cached_until_mutation(self, fig1):
        prepared = prepare("MATCH (x:Account)-[t:Transfer]->(y:Account)")
        first = plan_query(fig1, prepared)
        assert plan_query(fig1, prepared) is first
        fig1.add_node("new_account", labels=["Account"])
        second = plan_query(fig1, prepared)
        assert second is not first
        assert second.graph_version == fig1.version

    def test_plan_from_rolled_back_transaction_is_not_served(self, fig1):
        # Rollback restores the old version number, so a plan keyed on
        # the version alone would come back once later writes reach the
        # in-transaction number again — carrying discarded statistics.
        prepared = prepare("MATCH (a:Account WHERE a.owner='Mike')-[t:Transfer]->(b)")
        txn = fig1.begin_mutation()
        for index in range(50):
            fig1.add_node(f"extra{index}", labels=["Account"])
        inside = plan_query(fig1, prepared)
        assert inside.num_nodes == 64
        txn_version = fig1.version
        txn.rollback()
        for index in range(50):
            fig1.set_property("a1", "touch", index)
        assert fig1.version == txn_version
        after = plan_query(fig1, prepared)
        assert after is not inside
        assert after.num_nodes == fig1.num_nodes == 14

    def test_plans_are_per_graph(self, fig1):
        prepared = prepare("MATCH (x:Account)")
        other = random_transfer_network(20, 30, seed=1)
        plan_fig1 = plan_query(fig1, prepared)
        plan_other = plan_query(other, prepared)
        assert plan_other is not plan_fig1
        assert plan_other.num_nodes == other.num_nodes


class TestJoinOrdering:
    def test_selective_pattern_joins_first(self, fig1):
        prepared = prepare(
            "MATCH (a:Account)-[t1:Transfer]->(b:Account), "
            "(b)-[t2:Transfer]->(c:Account WHERE c.owner='Mike')"
        )
        plan = plan_query(fig1, prepared)
        assert plan.join_order == [1, 0]
        assert plan.join_sharing[0] == ["b"]

    def test_connected_before_smaller_cross_product(self, fig1):
        # #3 is tiny but unconnected; #2 shares b with #1 and must join first.
        prepared = prepare(
            "MATCH (a:Account)-[t1:Transfer]->(b:Account), "
            "(b)-[t2:Transfer]->(c:Account), "
            "(p:Phone WHERE p.number = 14)"
        )
        plan = plan_query(fig1, prepared)
        order = plan.join_order
        assert order.index(2) > order.index(1) or order[0] == 2
        # Whatever the order, both patterns sharing b join connectedly.
        assert set(order) == {0, 1, 2}

    def test_rows_identical_and_in_textual_order(self, fig1):
        query = (
            "MATCH (a:Account)-[t1:Transfer]->(b:Account), "
            "(b)-[t2:Transfer]->(c:Account WHERE c.owner='Mike'), "
            "(p:Phone)~[h:hasPhone]~(a)"
        )
        planned = match(fig1, query)
        naive = match(fig1, query, NAIVE)
        assert canon(planned) == canon(naive)
        # Not just the same bag: the same row order (textual nested-loop).
        assert planned.to_dicts() == naive.to_dicts()
        assert [
            [str(p) for p in row.paths] for row in planned.rows
        ] == [[str(p) for p in row.paths] for row in naive.rows]


class TestExplainPlan:
    def test_shows_anchor_index_estimates_and_join_order(self, fig1):
        text = explain_plan(
            fig1,
            "MATCH (a:Account)-[t1:Transfer]->(b:Account), "
            "(b)-[t2:Transfer]->(c:Account WHERE c.owner='Mike')",
        )
        assert "anchor: left at (a:Account) via label scan Account" in text
        assert "anchor: right at (c:Account WHERE c.owner = 'Mike') "
        assert "property index Account(owner='Mike')" in text
        assert "[est 1 of 14 nodes]" in text
        assert "estimated result size:" in text
        assert "considered:" in text
        assert "join order: #2 -> #1 (join on b)" in text

    def test_full_scan_rendered(self, fig1):
        text = explain_plan(fig1, "MATCH (x)")
        assert "full node scan" in text

    def test_huge_quantifier_lower_bound_does_not_overflow(self, fig1):
        # fan-out > 1 raised to a large lower bound must saturate, not
        # crash planning (estimates only need relative order).
        query = "MATCH ACYCLIC (a:Account) (-[e:Transfer]->(n)){2000,} (z)"
        text = explain_plan(fig1, query)
        assert "estimated result size:" in text
        result = match(fig1, query)
        assert len(result.rows) == 0  # 2000 hops can't fit 14 nodes

    def test_observed_candidates_after_execution(self, fig1):
        prepared = prepare("MATCH (a:Account)-[t:Transfer]->(b)")
        match(fig1, prepared)
        text = explain_plan(fig1, prepared)
        assert "observed start candidates: 6" in text


class TestCli:
    def test_explain_plan_flag(self, capsys):
        exit_code = main(
            ["--explain-plan", "MATCH (x:Account WHERE x.owner='Mike')"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "EXPLAIN PLAN" in captured.out
        assert "property index Account(owner='Mike')" in captured.out

    def test_query_still_runs_with_planner(self, capsys):
        exit_code = main(["MATCH (x:Account WHERE x.owner='Mike')"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "1 row(s)" in captured.out
