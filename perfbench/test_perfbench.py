"""Determinism and shape checks of the benchmark itself, at a small scale.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

import json
import sys
from itertools import islice
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import pb_bench  # noqa: E402
import pb_ops  # noqa: E402

SMALL = dict(accounts=400, transfers=800, setup_reps=1)
# A small reference scan keeps these runs quick; it only scales timings.
pb_bench.REF_OBJECTS = 1 << 10


def _run(workload, seed, trace=False):
    # seconds=0: the loop runs exactly the determinism record's operations
    return pb_bench.run(workload, seed, 0.0, trace, **SMALL)


@pytest.mark.parametrize("workload", pb_bench.WORKLOADS)
def test_same_seed_same_record_and_counters(workload):
    first, second = _run(workload, 3), _run(workload, 3)
    assert first["result"]["correct"], first["meta"]["failures"]
    assert first["result"]["failed"] == 0
    assert first["meta"]["record"] == second["meta"]["record"]
    assert first["meta"]["record"]["ops"] == pb_bench.RECORD_OPS[workload]


@pytest.mark.parametrize("workload", pb_bench.WORKLOADS)
def test_other_seed_other_digest(workload):
    assert (
        _run(workload, 3)["meta"]["record"]["digest"]
        != _run(workload, 4)["meta"]["record"]["digest"]
    )


def test_untraced_run_reports_every_end_to_end_metric():
    metrics = _run("point_lookup", 5)["result"]["metrics"]
    assert set(metrics) == set(pb_bench.END_TO_END)
    assert all(entry["value"] > 0 for entry in metrics.values())


@pytest.mark.parametrize("workload", pb_bench.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    outcome = _run(workload, 5, trace=True)
    result = outcome["result"]
    assert result["correct"], outcome["meta"]["failures"]
    assert set(result["metrics"]) == set(pb_bench.per_layer_units())
    assert 0.0 <= result["metrics"]["unattributed_share"]["value"] < 1.0


def test_traced_counters_equal_untraced_counters():
    traced = _run("read_write_mix", 6, trace=True)["meta"]["record"]
    untraced = _run("read_write_mix", 6)["meta"]["record"]
    assert traced == untraced


@pytest.mark.parametrize("workload", pb_bench.WORKLOADS)
def test_streams_use_only_declared_classes(workload):
    env = pb_ops.build_env(workload, 1, SMALL["accounts"], SMALL["transfers"])
    env.adjacency = pb_ops.transfer_adjacency(env.graph)
    stream = pb_ops.op_stream(workload, 1, SMALL["accounts"], env)
    classes = {op.cls for op in islice(stream, 60)}
    assert classes == set(pb_ops.CLASSES[workload])


def test_benchmark_file_lists_every_metric():
    document = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in document["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in document["per_layer"]}
    assert end_to_end == pb_bench.END_TO_END
    assert per_layer == pb_bench.per_layer_units()
    assert [w["name"] for w in document["workloads"]] == list(pb_bench.WORKLOADS)
