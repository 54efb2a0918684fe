"""Recursive-descent parser for the hosted SQL subset.

Grammar (keywords case-insensitive; identifiers case-sensitive)::

    statement    := select_stmt | EXPLAIN [ANALYZE] select_stmt
                  | CREATE PROPERTY GRAPH ...           (handed to pgq.ddl)
    select_stmt  := select_core (UNION [ALL] select_core)*
                    [ORDER BY order_item (',' order_item)*]
                    [LIMIT n] [OFFSET n [ROW|ROWS]]
                    [FETCH FIRST [n] (ROW|ROWS) ONLY]
    select_core  := SELECT [DISTINCT] ('*' | item (',' item)*)
                    [FROM from_item (from_join)*]
                    [WHERE expr] [GROUP BY expr (',' expr)*] [HAVING expr]
    item         := expr [[AS] name]
    from_item    := table_name [[AS] name] | graph_table [[AS] name]
    from_join    := ',' from_item | [INNER] JOIN from_item ON expr
    graph_table  := GRAPH_TABLE '(' graph MATCH ... COLUMNS '(' ... ')' ')'
    order_item   := expr [ASC | DESC]

The parser extends :class:`~repro.gpml.parser.GpmlParser`: value
expressions, the MATCH body inside GRAPH_TABLE, and the COLUMNS clause
are all parsed by the shared GPML machinery over one token stream, which
is how the two languages of the paper's Figure 9 literally nest.  The
single divergence is aggregate syntax — SQL's vertical ``COUNT(*)`` /
``SUM(expr)`` outside GRAPH_TABLE, GPML's horizontal ``SUM(e.amount)``
over group variables inside it — switched by ``_gpml_mode``.

SQL-specific keywords (SELECT, FROM, JOIN, ...) are ordinary identifiers
to the shared lexer, so they are matched textually by the parser's word
helpers (:meth:`~repro.gpml.parser.GpmlParser.at_word`), like every other
host's words.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import GpmlSyntaxError, SqlSyntaxError
from repro.gpml.lexer import IDENT, NUMBER, STRING
from repro.gpml.parser import GpmlParser
from repro.pgq.graph_table import GraphTableStatement, parse_columns_clause
from repro.sql import ast

#: words that terminate an expression / cannot be bare aliases
_RESERVED = frozenset(
    {
        "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
        "ORDER", "LIMIT", "OFFSET", "FETCH", "FIRST", "ROW", "ROWS", "ONLY",
        "UNION", "ALL", "JOIN", "INNER", "ON", "AS", "ASC", "DESC",
        "EXPLAIN", "GRAPH_TABLE", "MATCH", "COLUMNS",
    }
)


class SqlParser(GpmlParser):
    """Parser for one SQL statement (shares the GPML token stream)."""

    def __init__(self, text: str):
        super().__init__(text)
        self._gpml_mode = False

    def sql_error(self, message: str) -> None:
        raise SqlSyntaxError(message, self.peek().position, self.text)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def parse_statement(self):
        if self.at_word("CREATE"):
            return ast.CreateGraphStatement(text=self.text)
        if self.accept_word("EXPLAIN"):
            analyze = self.accept_word("ANALYZE")
            statement = self.parse_select_statement()
            self.expect_eof()
            return ast.ExplainStatement(inner=statement, analyze=analyze)
        statement = self.parse_select_statement()
        self.expect_eof()
        return statement

    def parse_select_statement(self) -> ast.SelectStatement:
        cores = [self.parse_select_core()]
        set_ops: list[str] = []
        while self.accept_word("UNION"):
            set_ops.append("UNION ALL" if self.accept_word("ALL") else "UNION")
            cores.append(self.parse_select_core())
        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self._parse_order_item())
            while self.accept_punct(","):
                order_by.append(self._parse_order_item())
        limit, offset = self._parse_limit_offset()
        return ast.SelectStatement(
            cores=cores, set_ops=set_ops, order_by=order_by,
            limit=limit, offset=offset,
        )

    def _parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expression()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr=expr, descending=descending)

    def _parse_limit_offset(self) -> tuple[Optional[int], int]:
        limit: Optional[int] = None
        offset: Optional[int] = None
        while True:
            if self.at_keyword("LIMIT"):
                if limit is not None:
                    self.sql_error("duplicate LIMIT / FETCH FIRST")
                self.advance()
                limit = self.expect_number()
            elif self.at_keyword("OFFSET"):
                if offset is not None:
                    self.sql_error("duplicate OFFSET")
                self.advance()
                offset = self.expect_number()
                self.accept_word("ROW", "ROWS")
            elif self.at_word("FETCH"):
                if limit is not None:
                    self.sql_error("duplicate LIMIT / FETCH FIRST")
                self.advance()
                self.expect_word("FIRST")
                limit = self.expect_number() if self.peek().type == NUMBER else 1
                self.accept_word("ROW", "ROWS")
                self.expect_word("ONLY")
            else:
                return limit, offset or 0

    # ------------------------------------------------------------------
    # SELECT core
    # ------------------------------------------------------------------
    def parse_select_core(self) -> ast.SelectCore:
        self.expect_word("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        items = self._parse_select_items()
        sources: list[ast.FromSource] = []
        if self.accept_word("FROM"):
            sources.append(ast.FromSource(item=self._parse_from_item(), kind="from"))
            while True:
                if self.accept_punct(","):
                    sources.append(
                        ast.FromSource(item=self._parse_from_item(), kind="cross")
                    )
                    continue
                if self.at_word("JOIN", "INNER"):
                    if self.accept_word("INNER"):
                        self.expect_word("JOIN")
                    else:
                        self.advance()
                    item = self._parse_from_item()
                    self.expect_word("ON")
                    condition = self.parse_expression()
                    sources.append(
                        ast.FromSource(item=item, kind="join", on=condition)
                    )
                    continue
                break
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        group_by: list = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self.accept_punct(","):
                group_by.append(self.parse_expression())
        having = self.parse_expression() if self.accept_word("HAVING") else None
        return ast.SelectCore(
            items=items, sources=sources, where=where,
            group_by=group_by, having=having, distinct=distinct,
        )

    def _parse_select_items(self) -> list[ast.SelectItem]:
        if self.accept_punct("*"):
            return [ast.SelectItem(expr=None)]
        items = [self._parse_select_item()]
        while self.accept_punct(","):
            items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> ast.SelectItem:
        expr = self.parse_expression()
        return ast.SelectItem(expr=expr, alias=self._parse_alias())

    def _parse_alias(self) -> Optional[str]:
        if self.accept_keyword("AS"):
            return self.expect_name()
        token = self.peek()
        if token.type == IDENT and str(token.value).upper() not in _RESERVED:
            self.advance()
            return str(token.value)
        return None

    # ------------------------------------------------------------------
    # FROM items
    # ------------------------------------------------------------------
    def _parse_from_item(self) -> ast.FromItem:
        if self.at_word("GRAPH_TABLE"):
            return self._parse_graph_table_ref()
        name = self.expect_name()
        return ast.TableRef(name=name, alias=self._parse_alias())

    def _parse_graph_table_ref(self) -> ast.GraphTableRef:
        self.advance()  # GRAPH_TABLE
        self.expect_punct("(")
        graph_name = self.expect_name()
        if not self.at_keyword("MATCH"):
            self.sql_error(
                f"expected MATCH after GRAPH_TABLE({graph_name}, "
                f"found {self._describe(self.peek())}"
            )
        match_position = self.peek().position
        previous_mode = self._gpml_mode
        self._gpml_mode = True
        try:
            self.advance()  # MATCH
            pattern = self.parse_graph_pattern_body()
            if not self.at_keyword("COLUMNS"):
                self.sql_error(
                    f"GRAPH_TABLE over {graph_name!r} must end with a "
                    f"COLUMNS clause"
                )
            pattern_text = self.text[match_position : self.peek().position]
            self.advance()  # COLUMNS
            columns = parse_columns_clause(self)
        except GpmlSyntaxError as exc:
            raise SqlSyntaxError(f"in GRAPH_TABLE over {graph_name!r}: {exc}") from exc
        finally:
            self._gpml_mode = previous_mode
        self.expect_punct(")")
        statement = GraphTableStatement(
            pattern_text=pattern_text, columns=columns, pattern=pattern
        )
        return ast.GraphTableRef(
            graph_name=graph_name, statement=statement, alias=self._parse_alias()
        )

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_primary(self):
        # SQL's clause keywords are plain identifiers to the shared lexer;
        # reject them as expression operands so `SELECT x + FROM t` fails
        # at the right place instead of binding a column named "FROM".
        token = self.peek()
        if (
            not self._gpml_mode
            and token.type == IDENT
            and str(token.value).upper() in _RESERVED
        ):
            self.sql_error(
                f"unexpected {str(token.value).upper()} in an expression"
            )
        return super()._parse_primary()

    # ------------------------------------------------------------------
    # Aggregates: SQL's vertical form outside GRAPH_TABLE, GPML's
    # horizontal form (group variables) inside it
    # ------------------------------------------------------------------
    def _parse_aggregate(self):
        if self._gpml_mode:
            return super()._parse_aggregate()
        func = str(self.advance().value)
        self.expect_punct("(")
        distinct = bool(self.accept_keyword("DISTINCT"))
        if self.accept_punct("*"):
            if func != "COUNT":
                self.sql_error(f"only COUNT accepts the * argument, not {func}")
            arg: Optional[object] = None
        else:
            arg = self.parse_expression()
        separator = ", "
        if func == "LISTAGG" and self.accept_punct(","):
            token = self.peek()
            if token.type != STRING:
                self.sql_error("LISTAGG separator must be a string literal")
            self.advance()
            separator = str(token.value)
        self.expect_punct(")")
        return ast.SqlAggregate(
            func=func, arg=arg, distinct=distinct, separator=separator
        )


def parse_sql(text: str):
    """Parse one SQL statement; wraps GPML syntax errors as SQL ones."""
    parser = SqlParser(text)
    try:
        return parser.parse_statement()
    except SqlSyntaxError:
        raise
    except GpmlSyntaxError as exc:
        raise SqlSyntaxError(str(exc)) from exc
