"""Recursive-descent parser for GPML (and the shared GQL/PGQ clauses).

The grammar implemented here covers every construct of Section 4 of the
paper:

.. code-block:: text

    match        := MATCH path_pattern (',' path_pattern)* [WHERE expr]
    path_pattern := [selector] [restrictor] [ident '='] alternation
    alternation  := concatenation (('|' | '|+|') concatenation)*
    concatenation:= element+
    element      := (node | edge | paren) [quantifier]
    node         := '(' [ident] [':' label_expr] [WHERE expr] ')'
    edge         := the seven orientations of Figure 5, full or abbreviated
    paren        := ('[' | '(') [restrictor] alternation [WHERE expr] (']' | ')')
    quantifier   := '{' m [',' [n]] '}' | '*' | '+' | '?'
    selector     := ANY | ANY k | ANY SHORTEST | ALL SHORTEST
                  | SHORTEST k [GROUP] | ANY CHEAPEST [COST p]
                  | TOP k CHEAPEST [COST p]
    restrictor   := TRAIL | ACYCLIC | SIMPLE

The lexer emits ``< - ~ > [ ]`` as single tokens; this parser assembles
them into edge patterns (the only place the sequences are valid), so
``a < -1`` in a WHERE clause and ``(a)<-[e]-(b)`` in a pattern coexist.

Parsing ``(`` is ambiguous between a node pattern and a parenthesized path
pattern; we first attempt the node-pattern parse and backtrack on failure.

Value expressions are bounded by :data:`MAX_EXPRESSION_DEPTH` and
:data:`MAX_EXPRESSION_NESTING` (see docs/gpml.md): every host parses its expressions here, so GQL and SQL
share the limit, and deeper input is a syntax error instead of a
``RecursionError`` in some later visitor.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import GpmlSyntaxError
from repro.gpml import ast
from repro.gpml import expr as E
from repro.gpml.label_expr import (
    LabelAnd,
    LabelAtom,
    LabelExpr,
    LabelNot,
    LabelOr,
    LabelWildcard,
)
from repro.gpml.lexer import EOF, IDENT, KEYWORD, NUMBER, PUNCT, STRING, Token, tokenize

#: keywords that terminate a pattern at the top level (host-language clauses)
_CLAUSE_KEYWORDS = ("WHERE", "RETURN", "ORDER", "LIMIT", "OFFSET", "COLUMNS", "KEEP", "MATCH")

#: deepest value expression tree accepted: each operator and operand is
#: one level, so n comparisons joined by AND are n + 1 levels deep.  The
#: tree visitors (analysis, evaluation, ``str``, pushdown substitution)
#: recurse about three frames per level; the shallowest entry points (an
#: element WHERE, a GRAPH_TABLE WHERE run by SQL) handle 328 levels from
#: a script's top level under the default recursion limit, so 256 leaves
#: some 200 frames for the host's own call stack.
MAX_EXPRESSION_DEPTH = 256

#: deepest nesting of parentheses, function arguments and aggregates: the
#: parser recurses about ten frames per level and handles 97 from a
#: script's top level, so 64 leaves some 300 frames for the host.
MAX_EXPRESSION_NESTING = 64


class ExpressionTooDeep(GpmlSyntaxError):
    """An expression deeper than :data:`MAX_EXPRESSION_DEPTH` or nested
    deeper than :data:`MAX_EXPRESSION_NESTING`; never backtracked over."""


class GpmlParser:
    """A parser instance over one query text.

    The class is reused by the GQL and PGQ hosts, which parse their own
    clauses around the shared MATCH grammar.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self._expression_nesting = 0

    # ------------------------------------------------------------------
    # Token-stream helpers
    # ------------------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type != EOF:
            self.pos += 1
        return token

    def at_punct(self, *values: str) -> bool:
        return self.peek().is_punct(*values)

    def at_keyword(self, *names: str) -> bool:
        return self.peek().is_keyword(*names)

    def accept_punct(self, *values: str) -> bool:
        if self.at_punct(*values):
            self.advance()
            return True
        return False

    def accept_keyword(self, *names: str) -> bool:
        if self.at_keyword(*names):
            self.advance()
            return True
        return False

    # Host words: GQL statement words (LET, FILTER, INSERT, ...), SQL
    # clauses and DDL words are ordinary identifiers to the shared lexer,
    # so every host matches them here, textually and case-insensitively.
    # None of them is a GPML keyword, but a keyword token matches too.
    def at_word(self, *words: str) -> bool:
        token = self.peek()
        return token.type in (IDENT, KEYWORD) and str(token.value).upper() in words

    def accept_word(self, *words: str) -> bool:
        if self.at_word(*words):
            self.advance()
            return True
        return False

    def expect_word(self, word: str) -> None:
        if not self.accept_word(word):
            self.error(f"expected {word}, found {self._describe(self.peek())}")

    def expect_punct(self, value: str) -> Token:
        if not self.at_punct(value):
            self.error(f"expected {value!r}, found {self._describe(self.peek())}")
        return self.advance()

    def expect_keyword(self, name: str) -> Token:
        if not self.at_keyword(name):
            self.error(f"expected {name}, found {self._describe(self.peek())}")
        return self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.type != IDENT:
            self.error(f"expected identifier, found {self._describe(token)}")
        self.advance()
        return str(token.value)

    def expect_name(self) -> str:
        """An identifier where keywords are allowed (property names).

        Keyword tokens carry their uppercased form; the original spelling
        is recovered from the source text so ``x.cost`` keeps its case.
        """
        token = self.peek()
        if token.type == IDENT:
            self.advance()
            return str(token.value)
        if token.type == KEYWORD:
            self.advance()
            raw = self.text[token.position : token.position + len(str(token.value))]
            return raw
        self.error(f"expected a name, found {self._describe(token)}")
        raise AssertionError("unreachable")

    def expect_number(self) -> int:
        token = self.peek()
        if token.type != NUMBER or not isinstance(token.value, int):
            self.error(f"expected integer, found {self._describe(token)}")
        self.advance()
        return int(token.value)

    def expect_eof(self) -> None:
        if self.peek().type != EOF:
            self.error(f"unexpected trailing input: {self._describe(self.peek())}")

    def error(self, message: str) -> None:
        raise GpmlSyntaxError(message, self.peek().position, self.text)

    @staticmethod
    def _describe(token: Token) -> str:
        if token.type == EOF:
            return "end of input"
        return repr(token.value)

    # ------------------------------------------------------------------
    # MATCH statement
    # ------------------------------------------------------------------
    def parse_match_statement(self) -> ast.GraphPattern:
        self.expect_keyword("MATCH")
        return self.parse_graph_pattern_body()

    def parse_graph_pattern_body(self) -> ast.GraphPattern:
        """Path-pattern list and optional postfilter (MATCH already consumed)."""
        paths = [self.parse_path_pattern()]
        while self.accept_punct(","):
            # PGQL writes a repeated MATCH before each pattern; accept it.
            self.accept_keyword("MATCH")
            paths.append(self.parse_path_pattern())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        keep = None
        if self.accept_keyword("KEEP"):
            # Section 7.2 syntax: a selector applied *after* the final
            # WHERE (unlike head selectors, which precede it).
            keep = self._parse_selector()
            if keep is None:
                self.error("expected a selector after KEEP")
        return ast.GraphPattern(paths=paths, where=where, keep=keep)

    def parse_path_pattern(self) -> ast.PathPattern:
        selector = self._parse_selector()
        restrictor = None
        if self.at_keyword(*ast.RESTRICTORS):
            restrictor = str(self.advance().value)
        path_var = None
        if self.peek().type == IDENT and self.peek(1).is_punct("="):
            path_var = self.expect_ident()
            self.expect_punct("=")
        pattern = self.parse_alternation()
        return ast.PathPattern(
            pattern=pattern, selector=selector, restrictor=restrictor, path_var=path_var
        )

    def _parse_selector(self) -> Optional[ast.Selector]:
        if self.at_keyword("ANY"):
            self.advance()
            if self.accept_keyword("SHORTEST"):
                return ast.Selector("ANY_SHORTEST")
            if self.accept_keyword("CHEAPEST"):
                return ast.Selector("ANY_CHEAPEST", cost_property=self._parse_cost())
            if self.peek().type == NUMBER:
                return ast.Selector("ANY_K", k=self.expect_number())
            return ast.Selector("ANY")
        if self.at_keyword("ALL"):
            self.advance()
            self.expect_keyword("SHORTEST")
            return ast.Selector("ALL_SHORTEST")
        if self.at_keyword("SHORTEST"):
            self.advance()
            k = self.expect_number()
            if self.accept_keyword("GROUP"):
                return ast.Selector("SHORTEST_K_GROUP", k=k)
            return ast.Selector("SHORTEST_K", k=k)
        if self.at_keyword("TOP"):
            self.advance()
            k = self.expect_number()
            self.expect_keyword("CHEAPEST")
            return ast.Selector("TOP_K_CHEAPEST", k=k, cost_property=self._parse_cost())
        return None

    def _parse_cost(self) -> Optional[str]:
        if self.accept_keyword("COST"):
            return self.expect_name()
        return None

    # ------------------------------------------------------------------
    # Patterns
    # ------------------------------------------------------------------
    def parse_alternation(self) -> ast.Pattern:
        branches = [self.parse_concatenation()]
        operators: list[str] = []
        while True:
            if self.at_punct("|+|"):
                self.advance()
                operators.append("|+|")
            elif self.at_punct("|"):
                self.advance()
                operators.append("|")
            else:
                break
            branches.append(self.parse_concatenation())
        if len(branches) == 1:
            return branches[0]
        return ast.Alternation(branches=branches, operators=operators)

    def parse_concatenation(self) -> ast.Pattern:
        items = [self.parse_element()]
        while self._at_element_start():
            items.append(self.parse_element())
        if len(items) == 1:
            return items[0]
        return ast.Concatenation(items=items)

    def _at_element_start(self) -> bool:
        return self.at_punct("(", "[", "<", "-", "~")

    def parse_element(self) -> ast.Pattern:
        if self.at_punct("("):
            element = self._parse_round_bracket()
        elif self.at_punct("["):
            element = self._parse_paren_pattern("[", "]")
        elif self.at_punct("<", "-", "~"):
            element = self._parse_edge_pattern()
        else:
            self.error(f"expected a pattern element, found {self._describe(self.peek())}")
        return self._parse_quantifier(element)

    def _parse_round_bracket(self) -> ast.Pattern:
        """Disambiguate node pattern vs parenthesized path pattern."""
        saved = self.pos
        try:
            return self._parse_node_pattern()
        except ExpressionTooDeep:
            raise
        except GpmlSyntaxError:
            self.pos = saved
            return self._parse_paren_pattern("(", ")")

    def _parse_node_pattern(self) -> ast.NodePattern:
        self.expect_punct("(")
        var = None
        if self.peek().type == IDENT:
            var = self.expect_ident()
        label = None
        if self.accept_punct(":"):
            label = self.parse_label_expression()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        self.expect_punct(")")
        return ast.NodePattern(var=var, label=label, where=where)

    def _parse_paren_pattern(self, open_b: str, close_b: str) -> ast.ParenPattern:
        self.expect_punct(open_b)
        restrictor = None
        if self.at_keyword(*ast.RESTRICTORS):
            restrictor = str(self.advance().value)
        inner = self.parse_alternation()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        self.expect_punct(close_b)
        return ast.ParenPattern(
            inner=inner, where=where, restrictor=restrictor, square=(open_b == "[")
        )

    def _parse_edge_pattern(self) -> ast.EdgePattern:
        """Assemble one of the seven orientations of Figure 5."""
        O = ast.Orientation
        if self.accept_punct("<"):
            if self.accept_punct("-"):
                if self.at_punct("["):
                    spec = self._parse_edge_spec()
                    self.expect_punct("]")
                    self.expect_punct("-")
                    orientation = O.LEFT_OR_RIGHT if self.accept_punct(">") else O.LEFT
                    return self._finish_edge(orientation, spec)
                orientation = O.LEFT_OR_RIGHT if self.accept_punct(">") else O.LEFT
                return self._finish_edge(orientation, None)
            if self.accept_punct("~"):
                if self.at_punct("["):
                    spec = self._parse_edge_spec()
                    self.expect_punct("]")
                    self.expect_punct("~")
                    return self._finish_edge(O.LEFT_OR_UNDIRECTED, spec)
                return self._finish_edge(O.LEFT_OR_UNDIRECTED, None)
            self.error("expected '-' or '~' after '<' in edge pattern")
        if self.accept_punct("-"):
            if self.at_punct("["):
                spec = self._parse_edge_spec()
                self.expect_punct("]")
                self.expect_punct("-")
                orientation = O.RIGHT if self.accept_punct(">") else O.ANY
                return self._finish_edge(orientation, spec)
            orientation = O.RIGHT if self.accept_punct(">") else O.ANY
            return self._finish_edge(orientation, None)
        if self.accept_punct("~"):
            if self.at_punct("["):
                spec = self._parse_edge_spec()
                self.expect_punct("]")
                self.expect_punct("~")
                orientation = O.UNDIRECTED_OR_RIGHT if self.accept_punct(">") else O.UNDIRECTED
                return self._finish_edge(orientation, spec)
            orientation = O.UNDIRECTED_OR_RIGHT if self.accept_punct(">") else O.UNDIRECTED
            return self._finish_edge(orientation, None)
        self.error("expected an edge pattern")
        raise AssertionError("unreachable")

    def _parse_edge_spec(self) -> tuple:
        self.expect_punct("[")
        var = None
        if self.peek().type == IDENT:
            var = self.expect_ident()
        label = None
        if self.accept_punct(":"):
            label = self.parse_label_expression()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return (var, label, where)

    @staticmethod
    def _finish_edge(orientation: ast.Orientation, spec: tuple | None) -> ast.EdgePattern:
        var, label, where = spec if spec is not None else (None, None, None)
        return ast.EdgePattern(orientation=orientation, var=var, label=label, where=where)

    def _parse_quantifier(self, element: ast.Pattern) -> ast.Pattern:
        lower: int
        upper: Optional[int]
        if self.at_punct("{") and self.peek(1).type == NUMBER:
            self.advance()
            lower = self.expect_number()
            if self.accept_punct(","):
                upper = self.expect_number() if self.peek().type == NUMBER else None
            else:
                upper = lower
            self.expect_punct("}")
        elif self.accept_punct("*"):
            lower, upper = 0, None
        elif self.accept_punct("+"):
            lower, upper = 1, None
        elif self.accept_punct("?"):
            self._check_quantifiable(element, "?")
            return ast.OptionalPattern(inner=element)
        else:
            return element
        self._check_quantifiable(element, "quantifier")
        if upper is not None and upper < lower:
            self.error(f"quantifier upper bound {upper} below lower bound {lower}")
        return ast.Quantified(inner=element, lower=lower, upper=upper)

    def _check_quantifiable(self, element: ast.Pattern, what: str) -> None:
        if isinstance(element, ast.NodePattern):
            self.error(f"a {what} cannot be applied to a node pattern")
        if isinstance(element, (ast.Quantified, ast.OptionalPattern)):
            self.error(f"a {what} cannot be applied to an already-quantified pattern")

    # ------------------------------------------------------------------
    # Label expressions
    # ------------------------------------------------------------------
    def parse_label_expression(self) -> LabelExpr:
        return self._parse_label_or()

    def _parse_label_or(self) -> LabelExpr:
        items = [self._parse_label_and()]
        while self.at_punct("|") and not self._label_bar_is_union():
            self.advance()
            items.append(self._parse_label_and())
        if len(items) == 1:
            return items[0]
        return LabelOr(items=tuple(items))

    def _label_bar_is_union(self) -> bool:
        """Inside a label expression ``|`` always belongs to the labels.

        A label expression only occurs inside node/edge brackets, where a
        path-pattern union cannot start, so there is no real ambiguity;
        hook kept for clarity and future extension.
        """
        return False

    def _parse_label_and(self) -> LabelExpr:
        items = [self._parse_label_factor()]
        while self.accept_punct("&"):
            items.append(self._parse_label_factor())
        if len(items) == 1:
            return items[0]
        return LabelAnd(items=tuple(items))

    def _parse_label_factor(self) -> LabelExpr:
        if self.accept_punct("!"):
            return LabelNot(inner=self._parse_label_factor())
        if self.accept_punct("%"):
            return LabelWildcard()
        if self.accept_punct("("):
            inner = self._parse_label_or()
            self.expect_punct(")")
            return inner
        return LabelAtom(name=self.expect_ident())

    # ------------------------------------------------------------------
    # Value expressions (precedence-climbing)
    # ------------------------------------------------------------------
    def parse_expression(self) -> E.Expr:
        start = self.peek().position
        if self._expression_nesting > MAX_EXPRESSION_NESTING:
            raise ExpressionTooDeep(
                f"expression nested deeper than {MAX_EXPRESSION_NESTING} "
                "parentheses",
                start,
                self.text,
            )
        self._expression_nesting += 1
        try:
            expression = self._parse_or()
        finally:
            self._expression_nesting -= 1
        if (
            self._expression_nesting == 0
            and expression_depth(expression) > MAX_EXPRESSION_DEPTH
        ):
            raise ExpressionTooDeep(
                f"expression nested deeper than {MAX_EXPRESSION_DEPTH} levels",
                start,
                self.text,
            )
        return expression

    def _parse_or(self) -> E.Expr:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = E.Or(left, self._parse_and())
        return left

    def _parse_and(self) -> E.Expr:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = E.And(left, self._parse_not())
        return left

    def _parse_not(self) -> E.Expr:
        # Iterative, like the binary chains: only parentheses recurse.
        negations = 0
        while self.accept_keyword("NOT"):
            negations += 1
        expression = self._parse_predicate()
        for _ in range(negations):
            expression = E.Not(expression)
        return expression

    def _parse_predicate(self) -> E.Expr:
        left = self._parse_additive()
        if self.at_punct("=", "<>", "<", "<=", ">", ">="):
            op = str(self.advance().value)
            right = self._parse_additive()
            return E.Comparison(op, left, right)
        if self.at_keyword("IS"):
            return self._parse_is_predicate(left)
        return left

    def _parse_is_predicate(self, left: E.Expr) -> E.Expr:
        self.expect_keyword("IS")
        negated = bool(self.accept_keyword("NOT"))
        if self.accept_keyword("NULL"):
            return E.IsNull(left, negated=negated)
        if self.accept_keyword("DIRECTED"):
            return E.IsDirected(self._as_var(left, "IS DIRECTED"), negated=negated)
        if self.accept_keyword("SOURCE"):
            self.expect_keyword("OF")
            edge = self.expect_ident()
            return E.IsSourceOf(self._as_var(left, "IS SOURCE OF"), edge, negated=negated)
        if self.accept_keyword("DESTINATION"):
            self.expect_keyword("OF")
            edge = self.expect_ident()
            return E.IsDestinationOf(
                self._as_var(left, "IS DESTINATION OF"), edge, negated=negated
            )
        self.error("expected NULL, DIRECTED, SOURCE OF or DESTINATION OF after IS")
        raise AssertionError("unreachable")

    def _as_var(self, expression: E.Expr, context: str) -> str:
        if not isinstance(expression, E.VarRef):
            self.error(f"{context} requires a variable reference")
        return expression.name

    def _parse_additive(self) -> E.Expr:
        left = self._parse_multiplicative()
        while self.at_punct("+", "-"):
            op = str(self.advance().value)
            left = E.Arithmetic(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> E.Expr:
        left = self._parse_unary()
        while self.at_punct("*", "/"):
            op = str(self.advance().value)
            left = E.Arithmetic(op, left, self._parse_unary())
        return left

    def _parse_unary(self) -> E.Expr:
        negations = 0
        while self.at_punct("-", "+"):
            if str(self.advance().value) == "-":
                negations += 1
        expression = self._parse_primary()
        for _ in range(negations):
            expression = E.Negate(expression)
        return expression

    def _parse_primary(self) -> E.Expr:
        token = self.peek()
        if token.type == NUMBER or token.type == STRING:
            self.advance()
            return E.Literal(token.value)
        if token.is_keyword("TRUE"):
            self.advance()
            return E.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return E.Literal(False)
        if token.is_keyword("NULL"):
            self.advance()
            return E.Literal(None)
        if token.is_keyword(*E.AGGREGATE_FUNCS):
            return self._parse_aggregate()
        if token.is_keyword("SAME"):
            self.advance()
            return E.Same(vars=self._parse_var_list())
        if token.is_keyword("ALL_DIFFERENT"):
            self.advance()
            return E.AllDifferent(vars=self._parse_var_list())
        if token.type == IDENT:
            self.advance()
            name = str(token.value)
            if self.at_punct("(") :
                return self._parse_function_call(name)
            if self.at_punct(".") and self.peek(1).type in (IDENT, KEYWORD):
                self.advance()
                prop = self.expect_name()
                return E.PropertyRef(var=name, prop=prop)
            return E.VarRef(name=name)
        if self.accept_punct("("):
            inner = self.parse_expression()
            self.expect_punct(")")
            return inner
        self.error(f"expected an expression, found {self._describe(token)}")
        raise AssertionError("unreachable")

    def _parse_var_list(self) -> tuple[str, ...]:
        self.expect_punct("(")
        names = [self.expect_ident()]
        while self.accept_punct(","):
            names.append(self.expect_ident())
        self.expect_punct(")")
        return tuple(names)

    def _parse_function_call(self, name: str) -> E.Expr:
        self.expect_punct("(")
        args: list[E.Expr] = []
        if not self.at_punct(")"):
            args.append(self.parse_expression())
            while self.accept_punct(","):
                args.append(self.parse_expression())
        self.expect_punct(")")
        return E.FunctionCall(name=name, args=tuple(args))

    def _parse_aggregate(self) -> E.Aggregate:
        func = str(self.advance().value)
        self.expect_punct("(")
        distinct = bool(self.accept_keyword("DISTINCT"))
        var = self.expect_ident()
        prop: Optional[str] = None
        if self.accept_punct("."):
            if self.accept_punct("*"):
                prop = None  # COUNT(e.*) counts iterations, like COUNT(e)
            else:
                prop = self.expect_name()
        separator = ", "
        if self.accept_punct(","):
            sep_token = self.peek()
            if sep_token.type != STRING:
                self.error("aggregate separator must be a string literal")
            self.advance()
            separator = str(sep_token.value)
        self.expect_punct(")")
        return E.Aggregate(
            func=func, var=var, prop=prop, distinct=distinct, separator=separator
        )


def expression_depth(expression: E.Expr) -> int:
    """Levels in the expression tree (iterative, so measuring a deep tree
    cannot itself recurse)."""
    deepest = 0
    stack = [(expression, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((child, depth + 1) for child in node.children())
    return deepest


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def parse_match(text: str) -> ast.GraphPattern:
    """Parse a complete ``MATCH ... [WHERE ...]`` statement."""
    parser = GpmlParser(text)
    statement = parser.parse_match_statement()
    parser.expect_eof()
    return statement


def parse_path_pattern(text: str) -> ast.PathPattern:
    """Parse a single path pattern (no MATCH keyword)."""
    parser = GpmlParser(text)
    pattern = parser.parse_path_pattern()
    parser.expect_eof()
    return pattern


def parse_expression(text: str) -> E.Expr:
    """Parse a standalone value expression."""
    parser = GpmlParser(text)
    expression = parser.parse_expression()
    parser.expect_eof()
    return expression
