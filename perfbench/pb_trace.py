"""In-memory spans for the traced run, and per-layer attribution.

Two sources feed the per-layer metrics:

* :class:`SpanLog` — spans the benchmark records around each call into a
  layer's public functions (name, start, end, parent, operation id).  A
  span's self time is its duration minus the time its child spans cover.
* the program's own span tree (``PipelineStats.traced()``), whose times
  are *inclusive*: a streaming stage's time includes the stages it pulls
  from.  :func:`program_layers` turns that tree into exclusive layer
  times by subtracting the stage each span pulls from.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Any, Iterator, Optional


class SpanLog:
    """Spans kept in memory and written once, at the end of a run."""

    def __init__(self) -> None:
        #: [span_id, parent_id, op_id, name, start, end, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None) -> Iterator[list]:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [span_id, parent, op_id, name, perf_counter(), None, {}]
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record[5] = perf_counter()

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span_id, parent, _op, _name, start, end, _attrs in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out = {}
        for span_id, _parent, _op, _name, start, end, _attrs in self.spans:
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(span_id, ())):
                c_start = max(c_start, cursor)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            out[span_id] = (end - start) - covered
        return out

    def write(self, path: Path, meta: dict[str, Any]) -> None:
        """Write every span as JSON (times in ms from the first span)."""
        origin = self.spans[0][4] if self.spans else 0.0
        self_times = self.self_times()
        document = {
            "meta": meta,
            "spans": [
                {
                    "id": span_id,
                    "parent": parent,
                    "op": op_id,
                    "name": name,
                    "start_ms": round((start - origin) * 1000.0, 4),
                    "end_ms": round((end - origin) * 1000.0, 4),
                    "self_ms": round(self_times[span_id] * 1000.0, 4),
                    **attrs,
                }
                for span_id, parent, op_id, name, start, end, attrs in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))


def _segments(children: list) -> Iterator[tuple[Any, list]]:
    """Split a child list into (row delivery span, the stages it drives).

    ``match_iter`` opens its "row delivery" span before the search
    stages it pulls from, so each delivery span is followed by its own
    stages up to the next delivery span.
    """
    delivery = None
    stages: list = []
    for child in children:
        if child.name == "row delivery":
            if delivery is not None:
                yield delivery, stages
            delivery, stages = child, []
        elif delivery is not None:
            stages.append(child)
    if delivery is not None:
        yield delivery, stages


def engine_layers(root) -> dict[str, float]:
    """Exclusive GPML engine times (seconds) in a program span tree.

    ``delivery``: a "row delivery" span minus the outermost stage it
    pulls from — the matcher set-up (snapshot, CSR, anchor scan) and
    planning of a ``match_iter`` call.  ``search``: pattern-search spans.
    ``reduce``: reduce + dedup spans minus the search they pull from.
    ``engine``: the inclusive time of the outermost engine spans, which
    a host subtracts to get its own time.
    """
    out = {"delivery": 0.0, "search": 0.0, "reduce": 0.0, "engine": 0.0}
    for span in root.walk():
        searches = {}
        for child in span.children:
            if " search (" in child.name:
                searches[child.name.split(" search (")[0]] = child.elapsed
                out["search"] += child.elapsed
        for child in span.children:
            if child.name.endswith(" reduce + dedup"):
                label = child.name[: -len(" reduce + dedup")]
                out["reduce"] += max(0.0, child.elapsed - searches.get(label, 0.0))
        for delivery, stages in _segments(span.children):
            inner = max((stage.elapsed for stage in stages), default=0.0)
            out["delivery"] += max(0.0, delivery.elapsed - inner)
    for span in root.children:
        if span.name == "row delivery":
            out["engine"] += span.elapsed
    return out


def program_layers(trace, host: str, call_seconds: float) -> dict[str, float]:
    """Exclusive layer times (seconds) of one operation's program trace.

    ``call_seconds`` is the benchmark's own span around the host call
    (``gql.execute`` / ``sql.execute`` / ``gpml.match_iter``).
    """
    root = trace.root
    layers = engine_layers(root)
    out = {
        "gpml.delivery": layers["delivery"],
        "gpml.search": layers["search"],
        "gpml.reduce": layers["reduce"],
    }
    if host == "gql":
        statements = [s for s in root.children if s.name.startswith("statement #")]
        previous = 0.0
        statement_self = 0.0
        for statement in statements:
            inner = max((child.elapsed for child in statement.children), default=0.0)
            statement_self += max(0.0, statement.elapsed - previous - inner)
            previous = statement.elapsed
        out["gql.statement"] = statement_self
        # RETURN projection / ordering, pipeline compilation and commit:
        # the call's time outside the last statement's inclusive span.
        out["gql.return"] = max(0.0, call_seconds - previous)
    elif host == "sql":
        # Operators, seeded graph joins and spools: the call's time
        # outside the engine's match_iter calls.
        out["sql.execute"] = max(0.0, call_seconds - layers["engine"])
    return out
