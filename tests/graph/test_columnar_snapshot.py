"""Unit tests for the columnar snapshot: caching, CSR layout, scans."""

import pytest

from repro.graph import GraphBuilder
from repro.graph.columnar import (
    DIR_IN,
    DIR_OUT,
    DIR_UNDIRECTED,
    MISSING,
    cached_snapshot,
    snapshot_for,
    storage_stats,
)
from repro.graph.model import IN, OUT, UNDIRECTED


def bank_graph():
    return (
        GraphBuilder("bank")
        .node("a1", "Account", owner="Scott", isBlocked="no", bal=10)
        .node("a2", "Account", owner="Aretha", isBlocked="yes", bal=20)
        .node("a3", "Account", "Vip", owner="Mike", isBlocked="no", bal=10)
        .node("c1", "City", name="Ankh-Morpork")
        .directed("t1", "a1", "a2", "Transfer", amount=100)
        .directed("t2", "a2", "a3", "Transfer", amount=200)
        .directed("t3", "a3", "a3", "Transfer", amount=300)
        .undirected("f1", "a1", "a3", "Friend")
        .undirected("f2", "a2", "a2", "Friend")
        .directed("l1", "a1", "c1", "isLocatedIn")
        .build()
    )


class TestSnapshotCache:
    def test_cached_until_mutation(self):
        g = bank_graph()
        assert cached_snapshot(g) is None  # never builds on its own
        snap = snapshot_for(g)
        assert snapshot_for(g) is snap
        assert cached_snapshot(g) is snap
        g.add_node("a9", labels=["Account"])
        assert cached_snapshot(g) is None  # version bumped → stale
        rebuilt = snapshot_for(g)
        assert rebuilt is not snap
        assert rebuilt.version == g.version

    def test_property_mutation_invalidates(self):
        g = bank_graph()
        snap = snapshot_for(g)
        g.set_property("a1", "isBlocked", "yes")
        rebuilt = snapshot_for(g)
        assert rebuilt is not snap
        column = rebuilt.node_column("isBlocked")
        assert column.get(rebuilt.node_code["a1"]) == "yes"

    def test_storage_stats_counters(self):
        g = bank_graph()
        before = dict(storage_stats(g))
        snapshot_for(g)
        snapshot_for(g)
        snapshot_for(g)
        after = storage_stats(g)
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 2
        assert after["build_ms"] > before["build_ms"]


class TestCsrLayout:
    def test_entry_order_matches_incidences(self):
        g = bank_graph()
        snap = snapshot_for(g)
        block = snap.csr(None)
        to_model = {DIR_OUT: OUT, DIR_IN: IN, DIR_UNDIRECTED: UNDIRECTED}
        for nid in g.node_ids():
            code = snap.node_code[nid]
            start, end = block.indptr[code], block.indptr[code + 1]
            entries = [
                (
                    block.edge_ids[block.local[k]],
                    snap.node_ids[block.other[k]],
                    to_model[block.dir[k]],
                )
                for k in range(start, end)
            ]
            expected = [(i.edge, i.other, i.direction) for i in g.incidences(nid)]
            assert entries == expected, nid

    def test_label_partition(self):
        g = bank_graph()
        block = snapshot_for(g).csr("Transfer")
        assert sorted(block.edge_ids) == ["t1", "t2", "t3"]
        # Directed self-loop t3 contributes an OUT and an IN slot at a3.
        assert sum(1 for d in block.dir if d == DIR_OUT) == 3
        assert sum(1 for d in block.dir if d == DIR_IN) == 3

    def test_undirected_self_loop_single_entry(self):
        g = bank_graph()
        snap = snapshot_for(g)
        block = snap.csr("Friend")
        code = snap.node_code["a2"]
        start, end = block.indptr[code], block.indptr[code + 1]
        assert end - start == 1  # f2 appears once, not twice
        assert block.dir[start] == DIR_UNDIRECTED

    def test_need_specialization(self):
        g = bank_graph()
        snap = snapshot_for(g)
        out_block = snap.csr("Transfer", "out")
        assert set(out_block.dir) == {DIR_OUT}
        assert len(out_block.other) == 3
        in_block = snap.csr("Transfer", "in")
        assert set(in_block.dir) == {DIR_IN}
        # Specialized blocks see the same edges as the full block.
        assert sorted(out_block.edge_ids) == sorted(in_block.edge_ids)

    def test_specialized_request_reuses_any_block(self):
        g = bank_graph()
        snap = snapshot_for(g)
        full = snap.csr("Transfer", "any")
        assert snap.csr("Transfer", "out") is full  # superset reused

    def test_mixed_direction_label_ignores_need(self):
        g = (
            GraphBuilder("mixed")
            .node("x")
            .node("y")
            .directed("d1", "x", "y", "M")
            .undirected("u1", "x", "y", "M")
            .build()
        )
        block = snapshot_for(g).csr("M", "out")
        # Not all-directed: the generic block is built (and is correct —
        # the matcher's admit check still filters orientations).
        assert DIR_UNDIRECTED in set(block.dir)

    def test_empty_label_block(self):
        g = bank_graph()
        block = snapshot_for(g).csr("NoSuchLabel")
        assert block.edge_ids == []
        assert block.indptr == [0] * (g.num_nodes + 1)


class TestLabelBitsets:
    def test_membership(self):
        g = bank_graph()
        snap = snapshot_for(g)
        bits = snap.node_label_bitset("Account")
        members = {
            nid for nid in g.node_ids() if (bits >> snap.node_code[nid]) & 1
        }
        assert members == {"a1", "a2", "a3"}
        assert snap.node_label_bitset("NoSuchLabel") == 0

    def test_label_members_sorted(self):
        g = bank_graph()
        snap = snapshot_for(g)
        assert snap.label_members_sorted("Account") == ["a1", "a2", "a3"]
        assert snap.label_members_sorted("Nope") == []


class TestScans:
    def test_string_column_dictionary(self):
        snap = snapshot_for(bank_graph())
        column = snap.node_column("isBlocked")
        assert column.codes is not None  # all-string → dictionary-encoded
        assert column.codes.count(-1) == 1  # c1 lacks the property
        mixed = snap.node_column("bal")
        assert mixed.codes is None  # int column: no dictionary
        assert mixed.values.count(MISSING) == 1


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
