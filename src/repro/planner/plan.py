"""Query plans: anchors, candidate sources, join order, EXPLAIN PLAN.

:func:`plan_query` turns a :class:`~repro.gpml.engine.PreparedQuery` plus
a concrete graph into a :class:`QueryPlan`:

* per path pattern, every candidate anchor (leftmost, rightmost via
  pattern reversal, interior fixed elements) is scored by estimated start
  cardinality; the cheapest *executable* anchor wins,
* path patterns are ordered for the cross-pattern join by estimated
  result size, preferring patterns that share singleton variables with
  the patterns already joined (connected joins before cross products) —
  used by the materializing assembly (reference engine, baselines) and
  surfaced in EXPLAIN PLAN; the streaming engine joins in textual order
  with hash builds, where build order is immaterial,
* the plan carries the streaming/blocking pipeline classification that
  EXPLAIN PLAN renders (see :mod:`repro.gpml.streaming`),
* the plan caches the reversed pattern + NFA for right anchors and is
  itself cached on the prepared query, keyed on the graph's statistics
  catalog — mutating the graph invalidates the plan.

:func:`plan_seed` plans the other kind of anchor: a node bound at run
time (GQL chained MATCH, the SQL seeded join).  Its :class:`SeedSpec`
holds an ordinary :class:`PatternPlan` whose start candidates are filled
in per seed (:meth:`PatternPlan.seeded`), so a seeded search runs the
same planned-pattern pipeline as any anchored query.

Plans only reorder exploration; the bag of results is unchanged (joined
rows always come out in textual nested-loop order, and reversed runs map
bindings back to forward orientation).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.gpml import ast
from repro.gpml.analysis import PathAnalysis
from repro.gpml.automaton import PatternNFA
from repro.gpml.streaming import classify_pipeline, render_pipeline
from repro.graph.model import PropertyGraph
from repro.planner.anchor import (
    INTERIOR,
    LEFT,
    RIGHT,
    compile_reversed,
    interior_fixed_nodes,
    is_reversible,
    pinned_end_nodes,
)
from repro.planner.indexes import (
    FULL_SCAN,
    SEED,
    CandidateSource,
    candidate_source,
    required_labels,
    sargable_equalities,
    sargable_memberships,
    union_source,
)
from repro.planner.stats import StatisticsCatalog


@dataclass
class AnchorOption:
    """One scored anchor candidate of a path pattern."""

    side: str  # left | right | interior
    source: CandidateSource
    executable: bool
    element: Optional[str] = None  # pretty-printed anchor element

    def describe(self) -> str:
        element = f" at {self.element}" if self.element else ""
        note = "" if self.executable else " (not executable)"
        return (
            f"{self.side}{element} via {self.source.describe()} "
            f"[est {_fmt(self.source.estimate)}]{note}"
        )


@dataclass
class PatternPlan:
    """The chosen execution strategy of one path pattern."""

    index: int
    side: str  # left | right
    source: CandidateSource
    options: list[AnchorOption]
    est_result: float
    reversed_path: Optional[ast.PathPattern] = None
    reversed_nfa: Optional[PatternNFA] = None
    #: actual start-candidate count and matcher steps, recorded by the
    #: engine when the pattern's search closes
    observed_candidates: Optional[int] = None
    observed_steps: Optional[int] = None

    @property
    def est_candidates(self) -> float:
        return self.source.estimate

    def start_candidates(self, graph: PropertyGraph) -> Optional[list[str]]:
        """Materialized start candidates; None lets the matcher scan."""
        return self.source.candidate_ids(graph)

    def seeded(self, seed_id: str) -> "PatternPlan":
        """A fresh copy of this anchor that starts from exactly *seed_id*."""
        return replace(
            self,
            source=CandidateSource(kind=SEED, estimate=1.0, seed=seed_id),
            observed_candidates=None,
            observed_steps=None,
        )


@dataclass
class QueryPlan:
    """A full plan: one PatternPlan per path pattern plus the join order."""

    graph_name: str
    graph_version: int
    num_nodes: int
    num_edges: int
    patterns: list[PatternPlan]
    join_order: list[int]
    join_sharing: dict[int, list[str]] = field(default_factory=dict)
    #: streaming/blocking classification of every execution stage
    #: (see repro.gpml.streaming.classify_pipeline)
    pipeline: list = field(default_factory=list)

    def render(self, query_text: Optional[str] = None, paths: Optional[list] = None) -> str:
        lines: list[str] = []
        if query_text:
            lines.append(f"EXPLAIN PLAN for: {query_text.strip()}")
        lines.append(
            f"graph: {self.graph_name} ({self.num_nodes} nodes, "
            f"{self.num_edges} edges; statistics v{self.graph_version})"
        )
        for plan in self.patterns:
            if paths is not None:
                lines.append(f"path pattern #{plan.index + 1}: {paths[plan.index]}")
            else:
                lines.append(f"path pattern #{plan.index + 1}:")
            chosen = next(
                (o for o in plan.options if o.side == plan.side and o.executable), None
            )
            anchor_at = f" at {chosen.element}" if chosen and chosen.element else ""
            lines.append(
                f"  anchor: {plan.side}{anchor_at} via {plan.source.describe()} "
                f"[est {_fmt(plan.source.estimate)} of {self.num_nodes} nodes]"
            )
            if plan.observed_candidates is not None:
                lines.append(f"  observed start candidates: {plan.observed_candidates}")
            for option in plan.options:
                marker = "*" if option.side == plan.side and option.executable else " "
                lines.append(f"  {marker} considered: {option.describe()}")
            lines.append(f"  estimated result size: {_fmt(plan.est_result)}")
        if len(self.patterns) > 1:
            parts = []
            for position, index in enumerate(self.join_order):
                shared = self.join_sharing.get(index, [])
                tag = f"#{index + 1}"
                if position and shared:
                    tag += f" (join on {', '.join(shared)})"
                elif position:
                    tag += " (cross product)"
                parts.append(tag)
            lines.append(f"join order: {' -> '.join(parts)}")
            lines.append(
                "  (materializing assembly only; the streaming engine "
                "probes pattern #1 and hash-builds the rest — see pipeline)"
            )
        if self.pipeline:
            lines.extend(render_pipeline(self.pipeline))
        return "\n".join(lines)


def _fmt(value: float) -> str:
    if value >= 1e15:
        return f"{value:.2e}"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_query(graph: PropertyGraph, prepared) -> QueryPlan:
    """Plan *prepared* against *graph*; cached while its catalog stands.

    The cache key is the identity of the graph's statistics catalog, not
    its version number: a mutation replaces the catalog and a rollback
    evicts one built inside the discarded transaction, whose version
    number recurs afterwards.  The weak reference keeps a prepared query
    from pinning the graph.
    """
    catalog = StatisticsCatalog.for_graph(graph)
    cache = getattr(prepared, "plan_cache", None)
    if cache is not None:
        entry = cache.get("plan")
        if entry is not None and entry[0]() is catalog:
            return entry[1]

    patterns = [
        _plan_pattern(catalog, prepared, index)
        for index in range(prepared.num_path_patterns)
    ]
    join_order, join_sharing = _order_joins(prepared, patterns)
    plan = QueryPlan(
        graph_name=graph.name,
        graph_version=graph.version,
        num_nodes=catalog.num_nodes,
        num_edges=catalog.num_edges,
        patterns=patterns,
        join_order=join_order,
        join_sharing=join_sharing,
        pipeline=classify_pipeline(prepared),
    )
    if cache is not None:
        cache["plan"] = (weakref.ref(catalog), plan)
    return plan


def _plan_pattern(catalog: StatisticsCatalog, prepared, index: int) -> PatternPlan:
    path = prepared.normalized.paths[index]
    analysis: PathAnalysis = prepared.analysis.paths[index]
    where = prepared.normalized.where

    options: list[AnchorOption] = []
    end_sources: dict[str, CandidateSource] = {}
    for side in (LEFT, RIGHT):
        nodes = pinned_end_nodes(path.pattern, side)
        source = _end_source(catalog, analysis, nodes, where)
        executable = side == LEFT or is_reversible(analysis)
        element = str(nodes[0]) if nodes and len(nodes) == 1 else None
        end_sources[side] = source
        options.append(
            AnchorOption(side=side, source=source, executable=executable, element=element)
        )
    for node in interior_fixed_nodes(path.pattern):
        source = candidate_source(catalog, node, _pushable_where(analysis, node, where))
        options.append(
            AnchorOption(
                side=INTERIOR, source=source, executable=False, element=str(node)
            )
        )

    executable = [o for o in options if o.executable]
    # Left wins ties: it needs no reversal machinery.
    chosen = min(
        executable, key=lambda o: (o.source.estimate, 0 if o.side == LEFT else 1)
    )

    reversed_path = reversed_nfa = None
    if chosen.side == RIGHT:
        try:
            reversed_path, reversed_nfa = compile_reversed(path)
        except ReproError:
            # Defensive: if the reversed pattern will not analyze/compile,
            # fall back to the forward anchor rather than failing the query.
            chosen = next(o for o in options if o.side == LEFT)

    est_result = _estimate_result(catalog, path.pattern)
    return PatternPlan(
        index=index,
        side=chosen.side,
        source=chosen.source,
        options=options,
        est_result=est_result,
        reversed_path=reversed_path,
        reversed_nfa=reversed_nfa,
    )


# ----------------------------------------------------------------------
# Seed planning (GQL chained MATCH, SQL seeded joins)
# ----------------------------------------------------------------------
@dataclass
class SeedSpec:
    """How a pattern search anchors at a node bound at run time.

    Produced by :func:`plan_seed`; consumed through
    :class:`~repro.gpml.engine.SeededSearch`.  ``plan`` is the anchor:
    LEFT, or RIGHT with the pre-compiled reversed pattern and NFA.
    """

    var: str
    plan: PatternPlan

    @property
    def side(self) -> str:
        return self.plan.side

    def describe(self) -> str:
        return (
            f"seeded search on {self.var} ({self.side} end bound upstream), "
            f"one anchored run per incoming row"
        )


def seed_plan(
    side: str = LEFT,
    reversed_path: Optional[ast.PathPattern] = None,
    reversed_nfa: Optional[PatternNFA] = None,
) -> PatternPlan:
    """The plan of a single path pattern anchored at a run-time seed.

    Its seed source is empty until :meth:`PatternPlan.seeded` fills in
    the node of one run; the result size is not estimated.
    """
    return PatternPlan(
        index=0,
        side=side,
        source=CandidateSource(kind=SEED, estimate=1.0),
        options=[],
        est_result=0.0,
        reversed_path=reversed_path,
        reversed_nfa=reversed_nfa,
    )


def plan_seed(prepared, candidate_vars: Sequence[str]) -> Optional[SeedSpec]:
    """Pick a sound anchor variable among *candidate_vars*, or None.

    Seeding is sound when every match pins one end of the (single) path
    pattern to the same unconditional singleton variable: restricting the
    search to start at the bound node then selects whole endpoint
    partitions, so selectors/KEEP inside the pattern are unaffected.  The
    right end requires the reversal machinery (and a reversible pattern);
    left wins ties because it needs none.

    ``prepared`` is a :class:`~repro.gpml.engine.PreparedQuery` (typed
    loosely to keep this module independent of the engine).
    """
    if prepared.num_path_patterns != 1:
        return None
    path = prepared.normalized.paths[0]
    analysis = prepared.analysis.paths[0]
    for side in (LEFT, RIGHT):
        nodes = pinned_end_nodes(path.pattern, side)
        if not nodes:
            continue
        vars_ = {node.var for node in nodes}
        if len(vars_) != 1:
            continue
        var = next(iter(vars_))
        if var is None or var not in candidate_vars:
            continue
        info = analysis.vars.get(var)
        if info is None or info.group or info.conditional or info.anonymous:
            continue
        if side == LEFT:
            return SeedSpec(var=var, plan=seed_plan())
        if not is_reversible(analysis):
            continue
        try:
            reversed_path, reversed_nfa = compile_reversed(path)
        except ReproError:  # pragma: no cover - defensive, mirrors planner
            continue
        return SeedSpec(var=var, plan=seed_plan(RIGHT, reversed_path, reversed_nfa))
    return None


def _end_source(
    catalog: StatisticsCatalog,
    analysis: PathAnalysis,
    nodes: Optional[list[ast.NodePattern]],
    where,
) -> CandidateSource:
    if not nodes:
        return CandidateSource(kind=FULL_SCAN, estimate=float(catalog.num_nodes))
    sources = []
    for node in nodes:
        extra = _pushable_where(analysis, node, where) if len(nodes) == 1 else None
        sources.append(candidate_source(catalog, node, extra))
    return union_source(sources, catalog)


def _pushable_where(analysis: PathAnalysis, node: ast.NodePattern, where):
    """The final WHERE, when its conjuncts on this anchor var may be pushed.

    Requires an unconditional non-group singleton: every solution then
    binds the variable to the anchor element, so dropping a start node
    only removes rows the final WHERE would reject (see planner.indexes).
    """
    if where is None or node.var is None:
        return None
    info = analysis.vars.get(node.var)
    if info is None or info.group or info.conditional or info.anonymous:
        return None
    if not sargable_equalities(where, node.var) and not sargable_memberships(
        where, node.var
    ):
        return None
    return where


# ----------------------------------------------------------------------
# Result-size estimation (for join ordering only; deliberately crude)
# ----------------------------------------------------------------------
#: estimates saturate here — only their relative order matters, and
#: unclamped powers of fan-out overflow floats on large quantifiers
_EST_CAP = 1e18


def _clamp(value: float) -> float:
    if value != value or value > _EST_CAP:  # NaN or huge
        return _EST_CAP
    return max(value, 0.0)


def _estimate_result(catalog: StatisticsCatalog, pattern: ast.Pattern) -> float:
    return _clamp(catalog.num_nodes * _expansion(catalog, pattern))


def _expansion(catalog: StatisticsCatalog, pattern: ast.Pattern) -> float:
    """Multiplicative growth factor of the match count for *pattern*.

    Node patterns contribute their label/equality selectivity as a
    fraction; edge patterns contribute their mean fan-out; quantifiers
    exponentiate by their lower bound (the dominant term for unbounded
    quantifiers under restrictors/selectors).
    """
    if isinstance(pattern, ast.NodePattern):
        if not catalog.num_nodes:
            return 0.0
        labels = required_labels(pattern.label)
        equalities = sargable_equalities(pattern.where, pattern.var)
        if equalities:
            prop = min(
                equalities, key=lambda p: catalog.equality_estimate(labels, p)
            )
            count = catalog.equality_estimate(labels, prop, len(equalities))
        else:
            count = catalog.label_scan_estimate(labels)
        return count / catalog.num_nodes
    if isinstance(pattern, ast.EdgePattern):
        labels = required_labels(pattern.label)
        if labels is None:
            return max(catalog.edge_fanout(None), 0.0)
        return sum(catalog.edge_fanout(label) for label in labels)
    if isinstance(pattern, ast.Concatenation):
        factor = 1.0
        for item in pattern.items:
            factor = _clamp(factor * _expansion(catalog, item))
        return factor
    if isinstance(pattern, ast.Quantified):
        inner = _expansion(catalog, pattern.inner)
        if pattern.lower <= 0:
            return _clamp(max(inner, 1.0))
        try:
            return _clamp(inner ** max(pattern.lower, 1))
        except OverflowError:
            return _EST_CAP
    if isinstance(pattern, ast.OptionalPattern):
        return _clamp(1.0 + _expansion(catalog, pattern.inner))
    if isinstance(pattern, ast.ParenPattern):
        return _expansion(catalog, pattern.inner)
    if isinstance(pattern, ast.Alternation):
        return _clamp(sum(_expansion(catalog, branch) for branch in pattern.branches))
    return 1.0


# ----------------------------------------------------------------------
# Join ordering
# ----------------------------------------------------------------------
def _order_joins(prepared, patterns: list[PatternPlan]):
    """Greedy order: smallest first, then connected-and-small.

    Patterns sharing a bound singleton variable join with equality
    filtering; unconnected patterns form cross products and go last among
    equals.  Returns the order and, per pattern, the variables it shares
    with previously joined patterns (for EXPLAIN PLAN).
    """
    num = len(patterns)
    if num <= 1:
        return list(range(num)), {}
    singleton_vars: list[set[str]] = []
    for analysis in prepared.analysis.paths:
        singleton_vars.append(
            {
                name
                for name, info in analysis.vars.items()
                if not info.anonymous and not info.group
            }
        )
    remaining = set(range(num))
    order: list[int] = []
    sharing: dict[int, list[str]] = {}
    bound: set[str] = set()
    while remaining:
        if not order:
            choice = min(remaining, key=lambda i: (patterns[i].est_result, i))
        else:
            choice = min(
                remaining,
                key=lambda i: (
                    0 if singleton_vars[i] & bound else 1,
                    patterns[i].est_result,
                    i,
                ),
            )
            sharing[choice] = sorted(singleton_vars[choice] & bound)
        order.append(choice)
        remaining.discard(choice)
        bound |= singleton_vars[choice]
    return order, sharing
