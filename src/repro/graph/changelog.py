"""Graph change journal: mutation transactions, rollback, change feeds.

Every mutator on :class:`~repro.graph.model.PropertyGraph` can journal
what it did.  Two consumers share the journal hooks:

* :class:`GraphTransaction` — apply-or-rollback for the GQL DML
  statements.  While a transaction is active, every mutation appends an
  *undo entry* capturing enough state to restore the graph
  **bit-identically**: node and edge order, incidence order,
  property-index membership, the ``version`` counter and the auto-id
  counter all come back exactly as they were.  Undoing a removal re-adds
  the element at the end of its dict, so the transaction records the
  node and edge key order once, at its first removal, and each touched
  node's incidence order once, at the first removal touching it; a
  rollback restores each recorded order once.  Deleting k elements
  therefore costs O(k) plus one pass over the dicts it reorders, not
  one pass per element.  Bit-identical
  matters because downstream caches (the columnar snapshot, the
  statistics catalog) are keyed on ``graph.version``: a rollback restores
  the pre-transaction version, so the restored state must be
  indistinguishable from the state that version originally described.

* Watchers (see :meth:`PropertyGraph.add_watcher`) — standing queries
  subscribe to a stream of :class:`ChangeRecord` values.  Inside a
  transaction the records buffer and flush on *commit* only; a rolled
  back transaction publishes nothing.  Mutations outside any transaction
  publish immediately.

Versions are reused after a rollback (that is the contract: rollback
restores the prior version).  Caches populated *during* the rolled-back
window would otherwise match the reused version numbers while describing
discarded state, so rollback evicts every graph-attached cache whose
recorded version is newer than the transaction start — the columnar
snapshot, the incidence memo and the planner's statistics catalog.
Cached query plans need no eviction of their own: they are keyed on the
catalog object (:func:`repro.planner.plan.plan_query`), so evicting a
catalog built inside the transaction retires every plan made against
it, even when later writes bring the version number back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.model import PropertyGraph

# Change operations (also the undo-entry tags).
ADD_NODE = "add_node"
ADD_EDGE = "add_edge"
REMOVE_NODE = "remove_node"
REMOVE_EDGE = "remove_edge"
SET_PROPERTY = "set_property"
SET_LABELS = "set_labels"

#: every mutation operation, in a stable order (metrics, summaries)
MUTATION_OPS = (
    ADD_NODE, ADD_EDGE, REMOVE_NODE, REMOVE_EDGE, SET_PROPERTY, SET_LABELS
)

#: op -> human-readable summary key (GqlResult.mutations, CLI output)
SUMMARY_KEYS = {
    ADD_NODE: "nodes_created",
    ADD_EDGE: "edges_created",
    REMOVE_NODE: "nodes_deleted",
    REMOVE_EDGE: "edges_deleted",
    SET_PROPERTY: "properties_set",
    SET_LABELS: "labels_set",
}


@dataclass(frozen=True)
class ChangeRecord:
    """One published mutation, as watchers see it.

    ``first``/``second`` are the endpoints of the touched edge (or of the
    edge whose property/labels changed) — the seeds an incremental
    standing-query refresh grows its re-match region from.  Node changes
    carry ``None`` for both.
    """

    op: str
    kind: str  # "node" | "edge"
    element_id: str
    first: Optional[str] = None
    second: Optional[str] = None


class GraphTransaction:
    """Apply-or-rollback scope over a :class:`PropertyGraph`.

    Usage (the GQL executor's pattern)::

        txn = graph.begin_mutation()
        try:
            ... mutate ...
        except BaseException:
            txn.rollback()
            raise
        else:
            txn.commit()   # publishes the change records to watchers

    Also usable as a context manager (commit on success, rollback on
    exception).  Transactions do not nest.
    """

    def __init__(self, graph: "PropertyGraph"):
        if graph._txn is not None:
            raise GraphError("a mutation transaction is already active")
        self.graph = graph
        self.active = True
        self._start_version = graph._version
        self._start_counter = graph._auto_counter
        self._undo: list[tuple] = []
        self._changes: list[ChangeRecord] = []
        #: node and edge key order before the first removal, and each
        #: touched node's incidence order before its first removal
        self._key_order: Optional[tuple[list[str], list[str]]] = None
        self._incidence_order: dict[str, list] = {}
        graph._txn = self

    # -- journal hooks (called from the graph's mutators) ---------------
    def record(self, undo: tuple, change: ChangeRecord) -> None:
        self._undo.append(undo)
        self._changes.append(change)

    def remember_order(self, *endpoints: str) -> None:
        """Record, before a removal, the orders that rollback restores.

        The node and edge key order is recorded at the first removal,
        and the incidence order of each of *endpoints* at the first
        removal touching it.  Elements added before that point appear in
        the records too, but their own undo entries remove them again.
        """
        graph = self.graph
        if self._key_order is None:
            self._key_order = (list(graph._nodes), list(graph._edges))
        for endpoint in endpoints:
            if endpoint not in self._incidence_order:
                self._incidence_order[endpoint] = list(graph._incidence[endpoint])

    @property
    def changes(self) -> list[ChangeRecord]:
        return list(self._changes)

    def counts(self) -> dict[str, int]:
        """Mutation summary: ``{"nodes_created": 2, ...}`` (non-zero only)."""
        out: dict[str, int] = {}
        for change in self._changes:
            key = SUMMARY_KEYS[change.op]
            out[key] = out.get(key, 0) + 1
        return out

    # -- outcomes -------------------------------------------------------
    def commit(self) -> list[ChangeRecord]:
        """Finish the transaction, publishing its changes to watchers."""
        self._finish()
        if self._changes:
            self.graph._notify(self._changes)
        return self._changes

    def rollback(self) -> None:
        """Undo every journaled mutation (LIFO) and restore the version."""
        self._finish()
        graph = self.graph
        for entry in reversed(self._undo):
            _undo_entry(graph, entry)
        if self._key_order is not None:
            node_order, edge_order = self._key_order
            _restore_order(graph._nodes, node_order)
            _restore_order(graph._edges, edge_order)
        for node_id, order in self._incidence_order.items():
            if node_id in graph._incidence:
                _restore_order(graph._incidence[node_id], order)
        graph._version = self._start_version
        graph._auto_counter = self._start_counter
        _evict_stale_caches(graph, self._start_version)

    def _finish(self) -> None:
        if not self.active:
            raise GraphError("transaction already finished")
        self.active = False
        self.graph._txn = None

    def __enter__(self) -> "GraphTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:  # already resolved explicitly
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()


# ----------------------------------------------------------------------
# Undo replay
# ----------------------------------------------------------------------
def _restore_order(store: dict, order: list) -> None:
    """Rebuild ``store`` with its keys in ``order``.

    Keeps iteration order (and therefore columnar snapshot layouts and
    result emission order) bit-identical after a rollback.  Keys in
    ``order`` that the undo already dropped are skipped.
    """
    items = [(key, store[key]) for key in order if key in store]
    if len(items) != len(store):  # pragma: no cover - undo invariant
        raise GraphError("rollback restored an element missing from the key order")
    store.clear()
    store.update(items)


def _undo_entry(graph: "PropertyGraph", entry: tuple) -> None:
    from repro.graph.model import _edge_incidences

    op = entry[0]
    if op == ADD_NODE:
        _, node_id = entry
        data = graph._nodes.pop(node_id)
        del graph._incidence[node_id]
        graph._incidence_label_cache.pop(node_id, None)
        for label in data.labels:
            graph._node_label_index[label].discard(node_id)
        graph._index_element_removed("node", node_id, data)
    elif op == ADD_EDGE:
        _, edge_id = entry
        data = graph._edges.pop(edge_id)
        for endpoint, incidence in _edge_incidences(edge_id, data):
            del graph._incidence[endpoint][incidence]
            graph._incidence_label_cache.pop(endpoint, None)
        for label in data.labels:
            graph._edge_label_index[label].discard(edge_id)
        graph._index_element_removed("edge", edge_id, data)
    elif op == REMOVE_EDGE:
        _, edge_id, data = entry
        graph._edges[edge_id] = data
        for endpoint, incidence in _edge_incidences(edge_id, data):
            graph._incidence[endpoint][incidence] = None
            graph._incidence_label_cache.pop(endpoint, None)
        for label in data.labels:
            graph._edge_label_index.setdefault(label, set()).add(edge_id)
        graph._index_element_added("edge", edge_id, data)
    elif op == REMOVE_NODE:
        _, node_id, data = entry
        graph._nodes[node_id] = data
        # Incident edges come back via their own (later-undone) entries;
        # rollback then restores the recorded incidence order.
        graph._incidence[node_id] = {}
        for label in data.labels:
            graph._node_label_index.setdefault(label, set()).add(node_id)
        graph._index_element_added("node", node_id, data)
    elif op == SET_PROPERTY:
        _, kind, element_id, key, old = entry
        store = graph._nodes if kind == "node" else graph._edges
        graph._set_property_impl(kind, store[element_id], element_id, key, old)
    elif op == SET_LABELS:
        _, kind, element_id, old_labels = entry
        store = graph._nodes if kind == "node" else graph._edges
        graph._set_labels_impl(kind, store[element_id], element_id, old_labels)
    else:  # pragma: no cover - the mutators produce only the six kinds
        raise GraphError(f"unknown undo entry {op!r}")


def _evict_stale_caches(graph: "PropertyGraph", start_version: int) -> None:
    """Drop graph-attached caches built during the rolled-back window.

    Their version stamps would collide with post-rollback versions while
    describing the discarded state.  Caches from *before* the
    transaction stay: the restored state is bit-identical to what they
    describe.
    """
    from repro.graph.columnar import _SNAPSHOT_ATTR
    from repro.planner.stats import _CACHE_ATTR

    snapshot = getattr(graph, _SNAPSHOT_ATTR, None)
    if snapshot is not None and snapshot.version > start_version:
        setattr(graph, _SNAPSHOT_ATTR, None)
    catalog = getattr(graph, _CACHE_ATTR, None)
    if catalog is not None and catalog.stats.version > start_version:
        setattr(graph, _CACHE_ATTR, None)
    if graph._incidence_memo_version > start_version:
        graph._incidence_memo.clear()
        graph._incidence_memo_version = -1
