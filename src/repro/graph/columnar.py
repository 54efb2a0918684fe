"""Columnar snapshot of a property graph: CSR adjacency + property columns.

The object model (:mod:`repro.graph.model`) stores the graph as dicts of
objects — ideal for mutation, slow to traverse: every matcher step chases
pointers and rebuilds ``Incidence`` lists.  This module compiles a
read-only **columnar snapshot** of a graph on demand:

* nodes and edges get dense integer codes (insertion order, so code order
  reproduces the object model's deterministic iteration order),
* adjacency is CSR (compressed sparse row): one ``indptr`` array over
  node codes plus parallel ``local``/``other``/``dir`` arrays, built
  **per edge label** (the traversal fast path) and once for all edges,
* label membership is a bitset (one big int per label; bit = node code),
* property values are columns — one array per (kind, property), with a
  value dictionary for all-string columns so equality tests compare ints.

Snapshots are immutable and cached on the graph, keyed on
:attr:`PropertyGraph.version`: any mutation bumps the version and the
next query rebuilds.  Everything inside a snapshot is *lazy* — per-label
CSR blocks, bitsets and columns are built on first use, so a query pays
only for the labels and properties it touches.

The per-node entry order of every CSR block equals
``PropertyGraph.incidences(node)`` order exactly (edge-insertion order;
directed self-loops contribute their OUT slot before their IN slot;
undirected self-loops appear once) — the frontier matcher relies on this
to reproduce the object engine's emission order bit for bit.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from time import perf_counter
from typing import Any, Optional

from repro.gpml.label_expr import (
    LabelAnd,
    LabelAtom,
    LabelExpr,
    LabelNot,
    LabelOr,
    LabelWildcard,
)
from repro.graph.model import PropertyGraph

#: CSR direction codes (mirroring model.OUT / model.IN / model.UNDIRECTED)
DIR_OUT = 0
DIR_IN = 1
DIR_UNDIRECTED = 2

#: sentinel for "property absent" inside a column (NULL is a legal value)
MISSING = object()

_SNAPSHOT_ATTR = "_columnar_snapshot"
_STORAGE_ATTR = "_columnar_storage_stats"


class Column:
    """One property column over all elements of a kind, indexed by code.

    ``values[code]`` is the raw property value, or :data:`MISSING` when
    the element lacks the property.  ``codes``/``code_of`` are set on
    all-string columns: ``codes[code]`` is the int id of the value's
    string (−1 = missing) and ``code_of`` maps each string to its id, so a
    string equality test becomes one list index + one int compare.
    """

    __slots__ = ("values", "codes", "code_of")

    def __init__(self, values: list):
        self.values = values
        self.codes: Optional[list[int]] = None
        self.code_of: Optional[dict[str, int]] = None
        self._try_encode()

    def _try_encode(self) -> None:
        code_of: dict[str, int] = {}
        codes: list[int] = []
        append = codes.append
        for value in self.values:
            if value is MISSING:
                append(-1)
                continue
            if type(value) is not str:
                return  # mixed/non-string column: no dictionary
            code = code_of.get(value)
            if code is None:
                code = len(code_of)
                code_of[value] = code
            append(code)
        self.codes = codes
        self.code_of = code_of

    def get(self, code: int) -> Any:
        return self.values[code]


class CsrBlock:
    """CSR adjacency for one edge-label partition (or all edges).

    ``indptr[code] .. indptr[code+1]`` delimits the entries of one node;
    parallel arrays per entry: ``local`` (index into this block's
    ``edge_ids``), ``other`` (neighbour node code), ``dir`` (DIR_* code).
    ``edge_ids`` lists the member edges' string ids; per-edge property
    columns over the block live in ``columns`` (built lazily).
    """

    __slots__ = ("indptr", "local", "other", "dir", "edge_ids", "_columns", "_snapshot")

    def __init__(self, snapshot: "ColumnarGraph", indptr, local, other, dirs, edge_ids):
        self.indptr = indptr
        self.local = local
        self.other = other
        self.dir = dirs
        self.edge_ids = edge_ids
        self._columns: dict[str, Column] = {}
        self._snapshot = snapshot

    def column(self, prop: str) -> Column:
        """Property column over this block's edges, keyed by local index."""
        column = self._columns.get(prop)
        if column is None:
            edges = self._snapshot.graph._edges
            column = Column(
                [edges[eid].properties.get(prop, MISSING) for eid in self.edge_ids]
            )
            self._columns[prop] = column
        return column


class ColumnarGraph:
    """Immutable columnar view of one :class:`PropertyGraph` version."""

    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        self.version = graph.version
        self.node_ids: list[str] = list(graph._nodes)
        self.node_code: dict[str, int] = {
            nid: code for code, nid in enumerate(self.node_ids)
        }
        self.num_nodes = len(self.node_ids)
        # lazy parts
        # keyed (edge_label_or_None, need); None label = all edges
        self._csr: dict[tuple[Optional[str], str], CsrBlock] = {}
        self._node_bitsets: dict[str, int] = {}
        self._node_columns: dict[str, Column] = {}
        self._labeled_mask: Optional[int] = None
        self._label_members_sorted: dict[str, list[str]] = {}

    # -- adjacency -----------------------------------------------------
    def csr(self, edge_label: Optional[str], need: str = "any") -> CsrBlock:
        """The CSR block for *edge_label* (None = every edge).

        ``need`` specializes the block to the entries a traversal can
        admit: ``"out"`` keeps only OUT entries of directed edges,
        ``"in"`` only IN entries, ``"any"`` everything.  Orientation
        filtering happens *before* the matcher counts a step, so a
        specialized block changes neither results nor step counts — it
        just halves build and scan cost for one-directional hops (the
        common ``->`` case).
        """
        key = (edge_label, need)
        block = self._csr.get(key)
        if block is None and need != "any":
            # An existing full block is a superset — the scan's admit
            # check filters it — so never build a specialization twice.
            block = self._csr.get((edge_label, "any"))
        if block is None:
            block = self._build_csr(edge_label, need)
            self._csr[key] = block
        return block

    def _build_csr(self, edge_label: Optional[str], need: str) -> CsrBlock:
        node_code = self.node_code
        # One pass over the edge dict in insertion order: per node this
        # appends entries in exactly add_edge's incidence order.
        if edge_label is None:
            rows = [
                (eid, node_code[data.first], node_code[data.second], data.directed)
                for eid, data in self.graph._edges.items()
            ]
        else:
            rows = [
                (eid, node_code[data.first], node_code[data.second], data.directed)
                for eid, data in self.graph._edges.items()
                if edge_label in data.labels
            ]
        if not rows:
            return CsrBlock(self, [0] * (self.num_nodes + 1), [], [], [], [])
        edge_ids, srcs, dsts, directed_flags = map(list, zip(*rows))
        all_directed = all(directed_flags)

        if need != "any" and all_directed:
            # One entry per edge: at its source (out) or target (in).
            anchors = srcs if need == "out" else dsts
            others = dsts if need == "out" else srcs
            direction = DIR_OUT if need == "out" else DIR_IN
            degree = Counter(anchors)
            counts = [0] * (self.num_nodes + 1)
            for code, n in degree.items():
                counts[code + 1] = n
            indptr = list(accumulate(counts))
            local = [0] * indptr[-1]
            other = [0] * indptr[-1]
            cursor = indptr[:-1]
            for k, (a, o) in enumerate(zip(anchors, others)):
                pos = cursor[a]
                cursor[a] = pos + 1
                local[pos] = k
                other[pos] = o
            dirs = [direction] * indptr[-1]
            return CsrBlock(self, indptr, local, other, dirs, edge_ids)

        degree = Counter(srcs)
        if all_directed:
            degree.update(dsts)
        else:
            degree.update(
                d
                for d, s, flag in zip(dsts, srcs, directed_flags)
                if flag or d != s
            )
        counts = [0] * (self.num_nodes + 1)
        for code, n in degree.items():
            counts[code + 1] = n
        indptr = list(accumulate(counts))
        total = indptr[-1]
        local = [0] * total
        other = [0] * total
        dirs = [0] * total
        cursor = indptr[:-1]
        if all_directed:
            for k, (s, d) in enumerate(zip(srcs, dsts)):
                pos = cursor[s]
                cursor[s] = pos + 1
                local[pos] = k
                other[pos] = d
                dirs[pos] = DIR_OUT
                pos = cursor[d]
                cursor[d] = pos + 1
                local[pos] = k
                other[pos] = s
                dirs[pos] = DIR_IN
            return CsrBlock(self, indptr, local, other, dirs, edge_ids)
        for k, (s, d, flag) in enumerate(zip(srcs, dsts, directed_flags)):
            if flag:
                pos = cursor[s]
                cursor[s] = pos + 1
                local[pos] = k
                other[pos] = d
                dirs[pos] = DIR_OUT
                pos = cursor[d]
                cursor[d] = pos + 1
                local[pos] = k
                other[pos] = s
                dirs[pos] = DIR_IN
            else:
                pos = cursor[s]
                cursor[s] = pos + 1
                local[pos] = k
                other[pos] = d
                dirs[pos] = DIR_UNDIRECTED
                if d != s:
                    pos = cursor[d]
                    cursor[d] = pos + 1
                    local[pos] = k
                    other[pos] = s
                    dirs[pos] = DIR_UNDIRECTED
        return CsrBlock(self, indptr, local, other, dirs, edge_ids)

    # -- label bitsets -------------------------------------------------
    def node_label_bitset(self, label: str) -> int:
        """Big-int bitset over node codes of the label's members."""
        bitset = self._node_bitsets.get(label)
        if bitset is None:
            # Build through a bytearray: |= (1 << code) on a big int is
            # O(num_nodes) per member; byte writes keep the build linear.
            mask = bytearray((self.num_nodes + 7) // 8)
            node_code = self.node_code
            for nid in self.graph._node_label_index.get(label, ()):
                code = node_code[nid]
                mask[code >> 3] |= 1 << (code & 7)
            bitset = int.from_bytes(bytes(mask), "little")
            self._node_bitsets[label] = bitset
        return bitset

    def labeled_node_mask(self) -> int:
        """Bitset of nodes carrying at least one label (wildcard ``%``)."""
        if self._labeled_mask is None:
            mask = 0
            for label in self.graph._node_label_index:
                mask |= self.node_label_bitset(label)
            self._labeled_mask = mask
        return self._labeled_mask

    def compile_node_label_expr(self, expr: LabelExpr) -> Optional[int]:
        """Compile a label expression to a node bitset (None = unsupported).

        The bitset covers *all* nodes whose label set matches the
        expression, so the membership test is ``(bits >> code) & 1``.
        """
        if isinstance(expr, LabelAtom):
            return self.node_label_bitset(expr.name)
        if isinstance(expr, LabelWildcard):
            return self.labeled_node_mask()
        if isinstance(expr, LabelNot):
            inner = self.compile_node_label_expr(expr.inner)
            if inner is None:
                return None
            full = (1 << self.num_nodes) - 1
            return full & ~inner
        if isinstance(expr, LabelAnd):
            bits = (1 << self.num_nodes) - 1
            for item in expr.items:
                member = self.compile_node_label_expr(item)
                if member is None:
                    return None
                bits &= member
            return bits
        if isinstance(expr, LabelOr):
            bits = 0
            for item in expr.items:
                member = self.compile_node_label_expr(item)
                if member is None:
                    return None
                bits |= member
            return bits
        return None

    def label_members_sorted(self, label: str) -> list[str]:
        """Node ids carrying *label*, sorted (the label-scan anchor order)."""
        members = self._label_members_sorted.get(label)
        if members is None:
            members = sorted(self.graph._node_label_index.get(label, ()))
            self._label_members_sorted[label] = members
        return members

    # -- property columns ----------------------------------------------
    def node_column(self, prop: str) -> Column:
        """Property column over all nodes, keyed by node code."""
        column = self._node_columns.get(prop)
        if column is None:
            column = Column(
                [data.properties.get(prop, MISSING) for data in self.graph._nodes.values()]
            )
            self._node_columns[prop] = column
        return column


# ----------------------------------------------------------------------
# Per-graph snapshot cache + storage observability
# ----------------------------------------------------------------------
def snapshot_for(graph: PropertyGraph) -> ColumnarGraph:
    """The columnar snapshot of *graph*, rebuilt after any mutation.

    Cached on the graph object keyed on ``graph.version``; hit/miss and
    build-time counters feed the CLI's ``-- storage:`` stats line.
    """
    stats = storage_stats(graph)
    cached = getattr(graph, _SNAPSHOT_ATTR, None)
    if cached is not None and cached.version == graph.version:
        stats["hits"] += 1
        return cached
    start = perf_counter()
    snapshot = ColumnarGraph(graph)
    stats["misses"] += 1
    stats["build_ms"] += (perf_counter() - start) * 1000.0
    setattr(graph, _SNAPSHOT_ATTR, snapshot)
    return snapshot


def cached_snapshot(graph: PropertyGraph) -> Optional[ColumnarGraph]:
    """The current snapshot if one is already built — never builds.

    Lets optional fast paths (planner candidate scans) piggyback on a
    snapshot the frontier engine created without forcing columnar costs
    onto oracle-mode runs, where no snapshot ever exists.
    """
    cached = getattr(graph, _SNAPSHOT_ATTR, None)
    if cached is not None and cached.version == graph.version:
        return cached
    return None


def storage_stats(graph: PropertyGraph) -> dict:
    """Mutable snapshot-cache counters for *graph* (hits/misses/build_ms)."""
    stats = getattr(graph, _STORAGE_ATTR, None)
    if stats is None:
        stats = {"hits": 0, "misses": 0, "build_ms": 0.0}
        setattr(graph, _STORAGE_ATTR, stats)
    return stats
