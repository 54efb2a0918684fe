"""The benchmark loop: set-up, a closed loop of one client, metrics.

``run()`` executes one workload for one seed and returns the result
object the command prints as its last line.  See README.md for the
workloads, every metric's definition, and the layer each one covers.
"""

from __future__ import annotations

import gc
import math
import random
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Optional

import pb_ops
from pb_ops import NO_SPANS, Op
from pb_trace import SpanLog, program_layers

from repro.graph.columnar import storage_stats
from repro.gpml.streaming import PipelineStats
from repro.obs.worklog import Telemetry

WORKLOADS = ("point_lookup", "analytic_scan", "path_search", "read_write_mix")

#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3
#: the determinism record: the loop always runs at least this many
#: operations, and the exact counters and digest cover exactly these
RECORD_OPS = {
    "point_lookup": 40,
    "analytic_scan": 14,
    "path_search": 12,
    "read_write_mix": 36,
}
#: besides each class's first operation, every N-th operation is checked
#: against an oracle (outside the timed region) while the check budget
#: (seconds per run) lasts.  Successive checks of a class rotate through
#: its oracles, starting at an offset taken from the seed, so a class
#: whose oracles are slow meets a different one on each seed.
CHECK_EVERY = 10
CHECK_BUDGET_S = 0.5
#: share of operations the traced run traces; the rest run untraced, for
#: the overhead ratio and the latency metrics of that run
TRACED_SHARE = 0.5

#: the reference scan (see HostClock): objects it strides over, the
#: stride, and the time one scan takes at the speed timings are
#: reported at
REF_OBJECTS = 1 << 17
REF_STRIDE = 8
REF_NOMINAL_MS = 5.0

#: every end-to-end metric (trace 0) and per-layer metric (trace 1)
END_TO_END = {
    "setup_s": "s",
    "throughput_ops": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "rss_mb": "MB",
}
PER_LAYER_FIXED = {
    "gql.parse_ms": "ms",
    "sql.parse_ms": "ms",
    "gpml.prepare_ms": "ms",
    "planner.plan_ms": "ms",
    "gpml.delivery_ms": "ms",
    "gpml.search_ms": "ms",
    "gpml.ms_per_step": "ms",
    "gpml.reduce_ms": "ms",
    "gql.return_ms": "ms",
    "gql.statement_ms": "ms",
    "sql.execute_ms": "ms",
    "gql.standing_ms": "ms",
    "unattributed_share": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "graph.snapshot_misses": "count",
    "graph.snapshot_hit_ratio": "ratio",
    "graph.version_bumps": "count",
    "graph.cold_read_penalty_ms": "ms",
    "gpml.steps": "count",
    "gpml.matches": "count",
    "gpml.rows": "count",
    "gpml.rows_per_match": "ratio",
    "gpml.steps_per_row": "ratio",
    "gql.mutations": "count",
    "gql.rollbacks": "count",
    "gql.standing_steps": "count",
    "gql.standing_region_size": "count",
    "gql.standing_delta_rows": "count",
    "sql.rewrites": "count",
    "latency_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "cold_read_p50_ms": "ms",
    "refresh_p50_ms": "ms",
    "error_rate": "ratio",
    "repeat_share": "ratio",
    "write_share": "ratio",
    "anchored_share": "ratio",
    "host.ref_ms": "ms",
}


def per_layer_units() -> dict[str, str]:
    units = dict(PER_LAYER_FIXED)
    for workload in WORKLOADS:
        for cls in pb_ops.CLASSES[workload]:
            units[f"ops.{cls}.p50_ms"] = "ms"
    return units


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); 0.0 for an empty sample."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def tail_supported(count: int, q: int) -> bool:
    """At least ten samples lie beyond the q-th percentile."""
    return count * (100 - q) / 100 >= 10


class HostClock:
    """A fixed scan over Python objects, timed between operations.

    The host this benchmark was written on switches between speeds every
    few seconds, which moves every timing with it.  So each operation is
    bracketed by two timings of this scan, and its time is reported at
    the reference speed: raw time x ``REF_NOMINAL_MS`` / the mean of the
    two scans.  The scan reads dictionaries spread over about 30 MB,
    like the engine's column and property reads, and touches no engine
    state, so a change to the engine cannot move it.  It takes about a
    third of a point lookup, long enough to average over the host's
    jitter.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._objects = [{"key": f"k{rng.randrange(10**9)}"} for _ in range(REF_OBJECTS)]
        rng.shuffle(self._objects)
        self._offset = 0
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one scan (ms); successive scans read different objects."""
        start = perf_counter()
        hits = 0
        for obj in self._objects[self._offset :: REF_STRIDE]:
            if obj["key"] == "":
                hits += 1
        elapsed = (perf_counter() - start) * 1000.0
        self._offset = (self._offset + 1) % REF_STRIDE
        self.samples.append(elapsed)
        return elapsed

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale from raw time to the reference speed, for work timed
        between two scans."""
        return 2.0 * REF_NOMINAL_MS / (before + after)

    @property
    def median_ms(self) -> float:
        return statistics.median(self.samples)


class Loop:
    """Per-operation records of one timed loop."""

    def __init__(self) -> None:
        self.ops: list[dict[str, Any]] = []
        self.failures: list[str] = []
        self.record = {
            "ops": 0, "steps": 0, "matches": 0, "rows": 0, "mutations": 0,
            "standing_steps": 0, "standing_region_size": 0, "standing_delta_rows": 0,
        }
        self.rollbacks = 0
        self.snapshot_hits = 0
        self.snapshot_misses = 0
        self.version_bumps = 0
        self.layers: dict[str, float] = {}
        self.attributed = 0.0


def _setup(workload, seed, accounts, transfers, telemetry, reps, clock):
    """Set up *reps* times; returns the last environment and, per set-up,
    (raw seconds, seconds at the reference speed)."""
    env = None
    times = []
    for _ in range(reps):
        env = None
        gc.collect()
        before = clock.sample()
        start = perf_counter()
        env = pb_ops.build_env(workload, seed, accounts, transfers, telemetry)
        built = perf_counter() - start
        if workload == "path_search":
            env.adjacency = pb_ops.transfer_adjacency(env.graph)
        middle = clock.sample()
        start = perf_counter()
        pb_ops.warm_up(workload, seed, env, accounts)
        warmed = perf_counter() - start
        after = clock.sample()
        times.append((
            built + warmed,
            built * clock.factor(before, middle) + warmed * clock.factor(middle, after),
        ))
    return env, times


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    accounts: int = pb_ops.ACCOUNTS,
    transfers: int = pb_ops.TRANSFERS,
    out_dir: Optional[Path] = None,
    setup_reps: int = SETUP_REPS,
) -> dict[str, Any]:
    """Run *workload* for *seconds* of operation time; returns the result."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    record_ops = RECORD_OPS[workload]
    telemetry = Telemetry(autotrace=False) if trace else None
    clock = HostClock()
    env, setup_times = _setup(
        workload, seed, accounts, transfers, telemetry, setup_reps, clock
    )
    spans = SpanLog()
    coin = random.Random(f"traced:{seed}")
    stream = pb_ops.op_stream(workload, seed, accounts, env)
    loop = Loop()
    prefix: list[Op] = []
    checks = Checks(seed, inline=workload == "read_write_mix")
    seen_texts: set[str] = set()
    busy = 0.0
    hard_stop = perf_counter() + 3 * seconds + 60
    last_kind = "read"
    before = clock.sample()

    while len(loop.ops) < record_ops or (busy < seconds and perf_counter() < hard_stop):
        op = next(stream)
        traced = trace and coin.random() < TRACED_SHARE
        stats = PipelineStats.traced(engine=op.host) if traced else PipelineStats()
        log = spans if traced else NO_SPANS
        first_span = len(spans.spans)
        storage = storage_stats(env.graph)
        hits, misses, version = storage["hits"], storage["misses"], env.graph.version
        error = None
        result: Any = None
        start = perf_counter()
        try:
            with log.span(f"op {op.cls}", op.index):
                result = pb_ops.execute(op, env, stats, log)
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc(limit=3)
        latency = perf_counter() - start
        busy += latency
        after = clock.sample()
        factor = clock.factor(before, after)
        before = after
        loop.snapshot_hits += storage["hits"] - hits
        loop.snapshot_misses += storage["misses"] - misses
        loop.version_bumps += env.graph.version - version

        entry = {
            "cls": op.cls, "kind": op.kind, "raw_ms": latency * 1000.0,
            "ms": latency * 1000.0 * factor, "traced": traced,
            "cold": op.kind == "read" and last_kind != "read", "anchored": op.anchored,
        }
        if op.kind != "refresh":
            last_kind = op.kind
            entry["repeat"] = op.text in seen_texts
            seen_texts.add(op.text)
        loop.ops.append(entry)

        problems = [f"{op.cls}#{op.index} raised:\n{error}"] if error else []
        if not error:
            problems += checks.check(op, env, stats, result, len(loop.ops), entry)
        loop.failures.extend(problems)
        entry["failed"] = bool(problems)
        if stats.transaction == "rollback":
            loop.rollbacks += 1
        if len(prefix) < record_ops:
            prefix.append(op)
            _count(loop.record, op, stats, result, error)
        if traced and not error:
            pb_ops.side_calls(op, env, spans)
            _attribute(loop, spans.spans[first_span:], op, stats, latency, factor)

    # Peak memory of set-up and the timed loop, before deferred checks.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    loop.failures.extend(checks.run_deferred(env))
    if workload == "read_write_mix":
        try:
            loop.failures.extend(pb_ops.check_standing(env))
        except Exception:
            loop.failures.append("standing check raised:\n" + traceback.format_exc(limit=3))
    record = dict(loop.record, digest=pb_ops.digest(prefix))

    if trace:
        metrics = _per_layer(loop, spans, telemetry)
        metrics["host.ref_ms"] = clock.median_ms
    else:
        metrics = _end_to_end(loop, [norm for _raw, norm in setup_times], rss_mb)
    units = per_layer_units() if trace else END_TO_END
    failed = sum(1 for entry in loop.ops if entry["failed"])
    result_doc = {
        "correct": not loop.failures,
        "attempted": len(loop.ops),
        "failed": failed + (1 if loop.failures and not failed else 0),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "accounts": accounts, "transfers": transfers, "record": record,
        "setup_s_raw": [raw for raw, _norm in setup_times], "host_ref_ms": clock.median_ms,
        "failures": loop.failures[:20],
    }
    if out_dir is not None:
        spans.write(out_dir / f"{workload}-seed{seed}-trace{int(trace)}.json", meta)
    report = _report(loop, metrics, units, meta)
    return {"result": result_doc, "meta": meta, "report": report}


class Checks:
    """Which reads meet an oracle, which oracle, and when.

    Every class's first read is checked; after that every
    ``CHECK_EVERY``-th operation, while ``CHECK_BUDGET_S`` lasts.  The
    k-th check of a class uses oracle ``seed + k``.  Reads of a workload
    that never writes are checked after the timed loop (the graph is
    unchanged, so the oracles see the same state); ``inline`` checks
    right after the read, before the next write.
    """

    def __init__(self, seed: int, inline: bool) -> None:
        self.seed = seed
        self.inline = inline
        self.done: dict[str, int] = {}
        self.seconds = 0.0
        self.deferred: list[tuple] = []

    def check(self, op: Op, env, stats, result, position: int, entry: dict) -> list[str]:
        """Invariants of every operation; oracle checks of sampled reads."""
        if op.kind == "write":
            return pb_ops.check_write(op, stats)
        if op.kind == "refresh":
            return []
        if len(result) != stats.rows:
            return [f"{op.cls}#{op.index}: {len(result)} rows but stats.rows={stats.rows}"]
        count = self.done.get(op.cls, 0)
        if count and position % CHECK_EVERY:
            return []
        self.done[op.cls] = count + 1
        job = (op, result, self.seed + count, not count, entry)
        if self.inline:
            return self._run(job, env)
        self.deferred.append(job)
        return []

    def run_deferred(self, env) -> list[str]:
        problems = []
        for job in sorted(self.deferred, key=lambda job: not job[3]):
            problems += self._run(job, env)
        return problems

    def _run(self, job: tuple, env) -> list[str]:
        op, result, oracle, first, entry = job
        if not first and self.seconds >= CHECK_BUDGET_S:
            return []
        start = perf_counter()
        try:
            problems = pb_ops.check_read(op, env, result, oracle)
        except Exception:
            problems = [f"{op.cls}#{op.index} oracle raised:\n" + traceback.format_exc(limit=3)]
        self.seconds += perf_counter() - start
        if problems:
            entry["failed"] = True
        return problems


def _count(record: dict, op: Op, stats: PipelineStats, result, error) -> None:
    record["ops"] += 1
    record["steps"] += stats.steps
    record["matches"] += stats.matches
    record["rows"] += stats.rows
    if stats.mutations:
        record["mutations"] += sum(stats.mutations.values())
    if op.kind == "refresh" and error is None:
        record["standing_steps"] += result.steps
        record["standing_region_size"] += result.region_size
        record["standing_delta_rows"] += len(result.added) + len(result.retracted)


#: benchmark spans that time one layer each (inside an operation, or as
#: a side call after it)
_LAYER_SPANS = {"gql.parse", "gpml.prepare", "planner.plan", "gql.standing"}
_CALLS = ("gql.execute", "sql.execute", "gpml.match_iter")


def _attribute(loop: Loop, op_spans: list, op: Op, stats, latency: float, factor: float) -> None:
    """Fold one traced operation's spans into the layer totals (seconds
    at the reference speed).  Spans without a parent are side calls,
    made after the operation: they count for their layer but cover none
    of the operation's time."""
    attributed = 0.0
    call = 0.0
    for _id, parent, _op, name, start, end, attrs in op_spans:
        if name in _LAYER_SPANS:
            loop.layers[name] = loop.layers.get(name, 0.0) + (end - start) * factor
            if parent is not None:
                attributed += end - start
        elif name in _CALLS:
            call = end - start
            attrs["program_trace"] = stats.trace.to_dict(stats)
        elif parent is None and not name.startswith("op "):
            loop.layers[name] = loop.layers.get(name, 0.0) + (end - start) * factor
    for key, value in program_layers(stats.trace, op.host, call).items():
        loop.layers[key] = loop.layers.get(key, 0.0) + value * factor
        attributed += value
    loop.attributed += min(attributed, latency) * factor


def _latencies(loop: Loop, traced: Optional[bool] = None, key: str = "ms", **match) -> list:
    """Latencies of the matching operations: ms at the reference speed,
    or raw ms with ``key="raw_ms"``."""
    return [
        e[key] for e in loop.ops
        if (traced is None or e["traced"] == traced)
        and all(e.get(k) == v for k, v in match.items())
    ]


def _end_to_end(loop: Loop, setup_s: list[float], rss_mb: float) -> dict:
    times = _latencies(loop)
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_ops": len(times) / (sum(times) / 1000.0),
        "latency_p50_ms": percentile(times, 50),
        "latency_p90_ms": percentile(times, 90),
        "rss_mb": rss_mb,
    }


_LAYER_TIMES = (
    "gql.parse", "sql.parse", "gpml.prepare", "planner.plan", "gpml.delivery",
    "gpml.search", "gpml.reduce", "gql.return", "gql.statement", "sql.execute",
    "gql.standing",
)


def _per_layer(loop: Loop, spans: SpanLog, telemetry) -> dict[str, float]:
    traced_ops = [e for e in loop.ops if e["traced"]]
    per_op = 1000.0 / max(1, len(traced_ops))
    layers = loop.layers
    metrics = {f"{name}_ms": layers.get(name, 0.0) * per_op for name in _LAYER_TIMES}
    traced_seconds = sum(e["ms"] for e in traced_ops) / 1000.0
    metrics["unattributed_share"] = (
        1.0 - loop.attributed / traced_seconds if traced_seconds else 0.0
    )
    metrics["obs.trace_overhead_ratio"] = _overhead_ratio(loop)
    steps_traced = _traced_steps(spans)
    metrics["gpml.ms_per_step"] = (
        layers.get("gpml.search", 0.0) * 1000.0 / steps_traced if steps_traced else 0.0
    )
    record = loop.record
    hits, misses = loop.snapshot_hits, loop.snapshot_misses
    metrics.update({
        "graph.snapshot_misses": misses,
        "graph.snapshot_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "graph.version_bumps": loop.version_bumps,
        "gpml.steps": record["steps"],
        "gpml.matches": record["matches"],
        "gpml.rows": record["rows"],
        "gpml.rows_per_match": record["rows"] / record["matches"] if record["matches"] else 0.0,
        "gpml.steps_per_row": record["steps"] / record["rows"] if record["rows"] else 0.0,
        "gql.mutations": record["mutations"],
        "gql.rollbacks": loop.rollbacks,
        "gql.standing_steps": record["standing_steps"],
        "gql.standing_region_size": record["standing_region_size"],
        "gql.standing_delta_rows": record["standing_delta_rows"],
        "sql.rewrites": sum(
            telemetry.sql_rewrites_total.value(**labels)
            for labels in telemetry.sql_rewrites_total.labelsets()
        ),
    })
    metrics.update(_latency_details(loop))
    return metrics


def _latency_details(loop: Loop) -> dict[str, float]:
    """Untraced latencies of single classes and kinds of operation, and
    the traffic shares."""
    def p50(values):
        return percentile(values, 50)

    untraced = _latencies(loop, traced=False)
    writes = _latencies(loop, traced=False, kind="write")
    cold = _latencies(loop, traced=False, kind="read", cold=True)
    warm = _latencies(loop, traced=False, kind="read", cold=False)
    metrics = {
        "latency_p99_ms": percentile(untraced, 99) if tail_supported(len(untraced), 99) else 0.0,
        "write_p50_ms": p50(writes),
        "write_p90_ms": percentile(writes, 90),
        "cold_read_p50_ms": p50(cold),
        "refresh_p50_ms": p50(_latencies(loop, traced=False, kind="refresh")),
        "graph.cold_read_penalty_ms": p50(cold) - p50(warm) if cold else 0.0,
    }
    total = len(loop.ops)
    with_text = [e for e in loop.ops if "repeat" in e]
    metrics.update({
        "error_rate": sum(1 for e in loop.ops if e["failed"]) / total,
        "repeat_share": sum(1 for e in with_text if e["repeat"]) / max(1, len(with_text)),
        "write_share": sum(1 for e in loop.ops if e["kind"] == "write") / total,
        "anchored_share": sum(1 for e in loop.ops if e["anchored"]) / total,
    })
    for cls in (c for w in WORKLOADS for c in pb_ops.CLASSES[w]):
        metrics[f"ops.{cls}.p50_ms"] = p50(_latencies(loop, traced=False, cls=cls))
    return metrics


def _traced_steps(spans: SpanLog) -> int:
    total = 0
    for record in spans.spans:
        program = record[6].get("program_trace")
        if program is not None:
            total += program["totals"]["steps"]
    return total


def _overhead_ratio(loop: Loop) -> float:
    """Traced over untraced mean latency, summed over classes."""
    traced_total = untraced_total = 0.0
    for cls in {e["cls"] for e in loop.ops}:
        traced = _latencies(loop, traced=True, key="raw_ms", cls=cls)
        untraced = _latencies(loop, traced=False, key="raw_ms", cls=cls)
        if traced and untraced:
            traced_total += statistics.fmean(traced)
            untraced_total += statistics.fmean(untraced)
    return traced_total / untraced_total if untraced_total else 0.0


def _report(loop: Loop, metrics: dict, units: dict, meta: dict) -> list[str]:
    """Human-readable lines printed before the result."""
    record = meta["record"]
    raw = _latencies(loop, key="raw_ms")
    lines = [
        f"workload={meta['workload']} seed={meta['seed']} trace={int(meta['trace'])} "
        f"ops={len(loop.ops)} failures={len(loop.failures)}",
        "record (first {ops} ops): digest={digest} steps={steps} matches={matches} "
        "rows={rows} mutations={mutations} standing_steps={standing_steps}".format(**record),
        f"host: reference scan median {meta['host_ref_ms']:.4f} ms; "
        f"raw latency p50 {percentile(raw, 50):.4g} ms, "
        f"p90 {percentile(raw, 90):.4g} ms; raw set-ups "
        + ", ".join(f"{t:.3f}" for t in meta["setup_s_raw"]) + " s",
    ]
    if not meta["trace"]:
        lines.append(
            "untraced detail: " + " ".join(
                f"{name}={value:.4g}" for name, value in _latency_details(loop).items()
                if not name.startswith("ops.") or value
            )
        )
    for name, unit in units.items():
        value = metrics[name]
        if name.startswith("ops.") and not value:
            continue
        shown = f"{value:.6g}" if isinstance(value, float) and math.isfinite(value) else value
        lines.append(f"  {name:32s} {shown} {unit}")
    lines.extend(loop.failures[:5])
    return lines


def main(argv: Optional[list[str]] = None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    out_dir = Path(__file__).resolve().parent.parent / ".perfbench_out"
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace), out_dir=out_dir)
    for line in outcome["report"]:
        print(line)
    print(json.dumps(outcome["result"]))
    sys.stdout.flush()
    return 0 if outcome["result"]["correct"] else 1
