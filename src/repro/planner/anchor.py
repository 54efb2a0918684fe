"""Anchor selection: where the product-graph search should start.

The matcher anchors a path pattern at its leftmost element.  This module
lets the planner anchor at the *rightmost* element instead, by reversing
the pattern — flipping edge orientations and concatenation order — and
mapping accepted bindings back to forward orientation afterwards.  The
mapping is exact: walked elements are reversed, elementary-binding entries
are re-ordered, and quantifier-iteration annotations are renumbered so
group variables and multiset provenance tags come out identical to a
forward run (iteration *i* of *k* becomes iteration *k+1-i*).

Interior fixed elements are scored as well (they often dominate both
ends on selectivity) but are not executable anchors in this engine — the
plan records them so EXPLAIN PLAN shows what a bidirectional matcher
would buy.

One reversal hazard is order-sensitive aggregation: LISTAGG inside a
*prefilter* folds group bindings in iteration order, which a reversed run
visits backwards.  Patterns whose element/paren WHEREs use LISTAGG are
therefore marked non-reversible.  (The final WHERE is unaffected: it sees
reduced bindings, which are already mapped back to forward order.)

Seeded searches use the same machinery: :func:`repro.planner.plan.plan_seed`
anchors a GQL chained MATCH or a SQL seeded join at a node bound at run
time through :func:`pinned_end_nodes`, :func:`is_reversible` and
:func:`compile_reversed`, so a right-end seed runs the reversed pattern
from the bound node and maps bindings back exactly as a right-anchored
plan does.
"""

from __future__ import annotations

from typing import Optional

from repro.gpml import ast
from repro.gpml.analysis import PathAnalysis, analyze
from repro.gpml.automaton import PatternNFA, compile_path_pattern
from repro.gpml.bindings import ElementaryBinding, PathBinding

LEFT = "left"
RIGHT = "right"
INTERIOR = "interior"

_REVERSED_ORIENTATION = {
    ast.Orientation.LEFT: ast.Orientation.RIGHT,
    ast.Orientation.RIGHT: ast.Orientation.LEFT,
    ast.Orientation.UNDIRECTED: ast.Orientation.UNDIRECTED,
    ast.Orientation.LEFT_OR_UNDIRECTED: ast.Orientation.UNDIRECTED_OR_RIGHT,
    ast.Orientation.UNDIRECTED_OR_RIGHT: ast.Orientation.LEFT_OR_UNDIRECTED,
    ast.Orientation.LEFT_OR_RIGHT: ast.Orientation.LEFT_OR_RIGHT,
    ast.Orientation.ANY: ast.Orientation.ANY,
}


# ----------------------------------------------------------------------
# Pattern reversal
# ----------------------------------------------------------------------
def reverse_pattern(pattern: ast.Pattern) -> ast.Pattern:
    """Mirror a (normalized) pattern left-to-right.

    Node patterns are shared (they are immutable in practice); all
    containers and edge patterns are rebuilt.  Quantifier/paren/alternation
    ids are preserved so annotations line up with the forward pattern.
    """
    if isinstance(pattern, ast.NodePattern):
        return pattern
    if isinstance(pattern, ast.EdgePattern):
        return ast.EdgePattern(
            orientation=_REVERSED_ORIENTATION[pattern.orientation],
            var=pattern.var,
            label=pattern.label,
            where=pattern.where,
            anonymous=pattern.anonymous,
        )
    if isinstance(pattern, ast.Concatenation):
        return ast.Concatenation(
            items=[reverse_pattern(item) for item in reversed(pattern.items)]
        )
    if isinstance(pattern, ast.Quantified):
        return ast.Quantified(
            inner=reverse_pattern(pattern.inner),
            lower=pattern.lower,
            upper=pattern.upper,
            quant_id=pattern.quant_id,
        )
    if isinstance(pattern, ast.OptionalPattern):
        return ast.OptionalPattern(inner=reverse_pattern(pattern.inner))
    if isinstance(pattern, ast.ParenPattern):
        return ast.ParenPattern(
            inner=reverse_pattern(pattern.inner),
            where=pattern.where,
            restrictor=pattern.restrictor,
            square=pattern.square,
            paren_id=pattern.paren_id,
        )
    if isinstance(pattern, ast.Alternation):
        return ast.Alternation(
            branches=[reverse_pattern(branch) for branch in pattern.branches],
            operators=list(pattern.operators),
            alt_id=pattern.alt_id,
        )
    raise TypeError(f"cannot reverse pattern node {type(pattern).__name__}")


def reverse_path_pattern(path: ast.PathPattern) -> ast.PathPattern:
    return ast.PathPattern(
        pattern=reverse_pattern(path.pattern),
        selector=path.selector,
        restrictor=path.restrictor,
        path_var=path.path_var,
    )


def compile_reversed(path: ast.PathPattern) -> tuple[ast.PathPattern, PatternNFA]:
    """Reverse a normalized path pattern and compile its NFA.

    The reversed pattern is re-analyzed so deferred-WHERE decisions follow
    the reversed evaluation order (a clause referencing variables bound
    further right *in reversed order* must now be deferred).
    """
    reversed_path = reverse_path_pattern(path)
    analysis = analyze(ast.GraphPattern(paths=[reversed_path], where=None, keep=None))
    nfa = compile_path_pattern(reversed_path, analysis.paths[0])
    return reversed_path, nfa


def is_reversible(analysis: PathAnalysis) -> bool:
    """Reversal is unsound only for order-sensitive prefilter aggregates."""
    for node in analysis.path.pattern.walk():
        where = getattr(node, "where", None)
        if where is None:
            continue
        if any(agg.func == "LISTAGG" for agg in where.aggregates()):
            return False
    return True


# ----------------------------------------------------------------------
# Binding reversal
# ----------------------------------------------------------------------
def reverse_binding(binding: PathBinding) -> PathBinding:
    """Map a binding of the reversed pattern back to forward orientation.

    Quantifier annotations are renumbered per enclosing context: a
    quantifier that ran k iterations has iteration i relabeled k+1-i, so
    the renumbered annotations equal what a forward run would have
    produced.  (Iterations are contiguous 1..k by construction, and
    ``ann`` records true iteration numbers — counters saturate, the
    annotations do not.)
    """
    annotations = {entry.annotation for entry in binding.entries}
    annotations.update(ann for _, _, ann in binding.bag_tags)
    max_iteration: dict[tuple, int] = {}
    for ann in annotations:
        for depth in range(len(ann)):
            quant_id, iteration = ann[depth]
            key = (ann[:depth], quant_id)
            max_iteration[key] = max(max_iteration.get(key, 0), iteration)

    def remap(ann: tuple) -> tuple:
        return tuple(
            (quant_id, max_iteration[(ann[:depth], quant_id)] + 1 - iteration)
            for depth, (quant_id, iteration) in enumerate(ann)
        )

    entries = tuple(
        ElementaryBinding(entry.var, remap(entry.annotation), entry.element_id)
        for entry in reversed(binding.entries)
    )
    bag_tags = frozenset(
        (alt_id, dedup_class, remap(ann)) for alt_id, dedup_class, ann in binding.bag_tags
    )
    return PathBinding(
        elements=tuple(reversed(binding.elements)),
        entries=entries,
        bag_tags=bag_tags,
    )


# ----------------------------------------------------------------------
# Pinned end elements
# ----------------------------------------------------------------------
def pinned_end_nodes(pattern: ast.Pattern, side: str) -> Optional[list[ast.NodePattern]]:
    """The node patterns the *side* end of every match must satisfy.

    Returns one node pattern per alternation branch reaching that end, or
    None when the end cannot be pinned (an optional or {0,...}-quantified
    prefix means the first tested element varies by match).
    """
    if isinstance(pattern, ast.NodePattern):
        return [pattern]
    if isinstance(pattern, ast.EdgePattern):
        return None
    if isinstance(pattern, ast.Concatenation):
        ordered = pattern.items if side == LEFT else list(reversed(pattern.items))
        out: list[ast.NodePattern] = []
        for item in ordered:
            result = _taken_end_nodes(item, side)
            if result is None:
                return None
            out.extend(result)
            if not _may_be_empty(item):
                # The end element is one of the pinned nodes collected so
                # far (skippable prefixes contribute their own ends too).
                return out
        return None  # the whole concatenation can match empty
    if isinstance(pattern, ast.ParenPattern):
        return pinned_end_nodes(pattern.inner, side)
    if isinstance(pattern, ast.Quantified):
        if pattern.lower == 0:
            return None
        return pinned_end_nodes(pattern.inner, side)
    if isinstance(pattern, ast.Alternation):
        out: list[ast.NodePattern] = []
        for branch in pattern.branches:
            result = pinned_end_nodes(branch, side)
            if result is None:
                return None
            out.extend(result)
        return out
    return None


def _taken_end_nodes(pattern: ast.Pattern, side: str) -> Optional[list[ast.NodePattern]]:
    """End nodes of *pattern* when it matches non-empty (skips handled by
    the caller, which also considers the elements after the skip)."""
    if isinstance(pattern, ast.OptionalPattern):
        return pinned_end_nodes(pattern.inner, side)
    if isinstance(pattern, ast.Quantified) and pattern.lower == 0:
        return pinned_end_nodes(pattern.inner, side)
    return pinned_end_nodes(pattern, side)


def _may_be_empty(pattern: ast.Pattern) -> bool:
    if isinstance(pattern, ast.Quantified):
        return pattern.lower == 0
    if isinstance(pattern, ast.OptionalPattern):
        return True
    if isinstance(pattern, ast.ParenPattern):
        return _may_be_empty(pattern.inner)
    if isinstance(pattern, ast.Concatenation):
        return all(_may_be_empty(item) for item in pattern.items)
    return False


def interior_fixed_nodes(pattern: ast.Pattern) -> list[ast.NodePattern]:
    """Interior node patterns matched exactly once per match.

    Only top-level concatenation members count (descending through
    parens); anything under a quantifier, optional, or alternation is not
    at a fixed position.  Ends are excluded — they are scored separately.
    """
    items = _fixed_sequence(pattern)
    return [item for item in items[1:-1] if isinstance(item, ast.NodePattern)]


def _fixed_sequence(pattern: ast.Pattern) -> list[ast.Pattern]:
    if isinstance(pattern, ast.Concatenation):
        out: list[ast.Pattern] = []
        for item in pattern.items:
            out.extend(_fixed_sequence(item))
        return out
    if isinstance(pattern, ast.ParenPattern):
        return _fixed_sequence(pattern.inner)
    return [pattern]
