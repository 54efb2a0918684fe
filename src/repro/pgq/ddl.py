"""Parser for ``CREATE PROPERTY GRAPH`` statements (SQL/PGQ DDL subset).

Grammar (case-insensitive keywords, identifiers case-sensitive):

.. code-block:: text

    CREATE PROPERTY GRAPH <name>
      VERTEX TABLES ( vertex_entry [, vertex_entry]* )
      [ EDGE TABLES ( edge_entry [, edge_entry]* ) ]

    vertex_entry := <table> [KEY (<col>)] label_spec* [property_spec]
    edge_entry   := <table> [KEY (<col>)]
                    SOURCE KEY (<col>) REFERENCES <table>
                    DESTINATION KEY (<col>) REFERENCES <table>
                    [UNDIRECTED] label_spec* [property_spec]
    label_spec   := LABEL <label>
    property_spec:= PROPERTIES ( <col> [, <col>]* ) | NO PROPERTIES

Defaults follow the standard's spirit: the key is the first column, the
label is the table name, and all non-key/non-endpoint columns become
properties.
"""

from __future__ import annotations

from repro.errors import DdlError
from repro.gpml.lexer import IDENT, KEYWORD
from repro.gpml.parser import GpmlParser
from repro.pgq.graph_view import EdgeTableSpec, GraphSpec, VertexTableSpec


class _DdlParser(GpmlParser):
    """Word-oriented parser: DDL keywords are ordinary identifiers to the
    shared lexer, matched by the shared word helpers
    (:meth:`~repro.gpml.parser.GpmlParser.at_word`)."""

    def error(self, message: str) -> None:
        raise DdlError(message)

    def expect_ident(self) -> str:
        """A table, column or label name (keyword spellings allowed)."""
        token = self.peek()
        if token.type not in (IDENT, KEYWORD):
            self.error(f"expected identifier, found {self._describe(token)}")
        self.advance()
        return str(token.value)

    # ------------------------------------------------------------------
    def parse(self) -> GraphSpec:
        self.expect_word("CREATE")
        self.expect_word("PROPERTY")
        self.expect_word("GRAPH")
        name = self.expect_ident()
        spec = GraphSpec(name=name)
        self.expect_word("VERTEX")
        self.expect_word("TABLES")
        self.expect_punct("(")
        spec.vertex_tables.append(self._vertex_entry())
        while self.peek().is_punct(","):
            self.advance()
            spec.vertex_tables.append(self._vertex_entry())
        self.expect_punct(")")
        if self.accept_word("EDGE"):
            self.expect_word("TABLES")
            self.expect_punct("(")
            spec.edge_tables.append(self._edge_entry())
            while self.peek().is_punct(","):
                self.advance()
                spec.edge_tables.append(self._edge_entry())
            self.expect_punct(")")
        self.expect_eof()
        return spec

    def _vertex_entry(self) -> VertexTableSpec:
        table = self.expect_ident()
        entry = VertexTableSpec(table=table)
        entry.key = self._optional_key()
        labels, properties, no_properties = self._labels_and_properties()
        entry.labels = labels
        entry.properties = properties
        entry.no_properties = no_properties
        return entry

    def _edge_entry(self) -> EdgeTableSpec:
        table = self.expect_ident()
        entry = EdgeTableSpec(table=table)
        entry.key = self._optional_key()
        self.expect_word("SOURCE")
        self.expect_word("KEY")
        entry.source_key = self._parenthesized_ident()
        self.expect_word("REFERENCES")
        entry.source_table = self.expect_ident()
        self.expect_word("DESTINATION")
        self.expect_word("KEY")
        entry.destination_key = self._parenthesized_ident()
        self.expect_word("REFERENCES")
        entry.destination_table = self.expect_ident()
        if self.accept_word("UNDIRECTED"):
            entry.directed = False
        labels, properties, no_properties = self._labels_and_properties()
        entry.labels = labels
        entry.properties = properties
        entry.no_properties = no_properties
        return entry

    def _optional_key(self) -> str | None:
        if self.accept_word("KEY"):
            return self._parenthesized_ident()
        return None

    def _parenthesized_ident(self) -> str:
        self.expect_punct("(")
        name = self.expect_ident()
        self.expect_punct(")")
        return name

    def _labels_and_properties(self):
        labels: list[str] = []
        properties: tuple[str, ...] | None = None
        no_properties = False
        while True:
            if self.accept_word("LABEL"):
                labels.append(self.expect_ident())
                continue
            if self.at_word("NO"):
                self.advance()
                self.expect_word("PROPERTIES")
                no_properties = True
                continue
            if self.at_word("PROPERTIES"):
                self.advance()
                self.expect_punct("(")
                columns = [self.expect_ident()]
                while self.peek().is_punct(","):
                    self.advance()
                    columns.append(self.expect_ident())
                self.expect_punct(")")
                properties = tuple(columns)
                continue
            break
        return tuple(labels), properties, no_properties


def parse_create_property_graph(text: str) -> GraphSpec:
    """Parse one CREATE PROPERTY GRAPH statement into a GraphSpec."""
    return _DdlParser(text).parse()
