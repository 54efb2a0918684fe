"""Guard: deletes inside one transaction must scale linearly.

Runs one GQL statement that DETACH DELETEs every blocked account (about
10% of the accounts, with all their transfers, phone and city edges) on
``random_transfer_network(N, 2N)`` and on the same network four times
larger, best of :data:`REPEATS` fresh graphs per size.  The deleted set
grows with the graph, so linear journaling costs about 4x at 4N, while a
per-removal scan of the whole node or edge dict (what rollback
bookkeeping once did) costs about 16x.  The script fails when the ratio
exceeds :data:`MAX_RATIO`.

It also runs the same delete followed by a failing ``LET`` on a fresh
graph and asserts the rollback leaves ``graph_to_json`` and the graph
version byte-identical.

CI runs the default sizes (1,500 and 6,000 accounts); timings are wall
clock, so the bound is loose enough for a shared runner.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

_SRC = str(Path(__file__).parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.datasets import random_transfer_network  # noqa: E402
from repro.errors import ReproError  # noqa: E402
from repro.gql import execute_gql  # noqa: E402
from repro.graph import graph_to_json  # noqa: E402

#: time(4N) / time(N) must stay at or under this (quadratic gives ~16)
MAX_RATIO = 8.0
REPEATS = 3
DEFAULT_ACCOUNTS = 1_500

DELETE = "MATCH (a:Account WHERE a.isBlocked = 'yes') DETACH DELETE a"
#: the same delete, then an error after every removal: must roll back
FAILING = DELETE + " LET boom = 1 / 'not a number' RETURN boom"


def timed_delete(accounts: int) -> tuple[float, dict]:
    """Best-of-REPEATS seconds for the delete on fresh graphs."""
    best = float("inf")
    mutations: dict = {}
    for _ in range(REPEATS):
        graph = random_transfer_network(accounts, 2 * accounts, seed=1)
        start = perf_counter()
        mutations = execute_gql(graph, DELETE).mutations
        best = min(best, perf_counter() - start)
    return best, mutations


def rollback_is_exact(accounts: int) -> bool:
    graph = random_transfer_network(accounts, 2 * accounts, seed=1)
    before, version = graph_to_json(graph), graph.version
    try:
        execute_gql(graph, FAILING)
    except ReproError:
        pass
    else:
        raise AssertionError("the failing statement did not fail")
    return graph_to_json(graph) == before and graph.version == version


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accounts", type=int, default=DEFAULT_ACCOUNTS)
    args = parser.parse_args(argv)

    small, large = args.accounts, 4 * args.accounts
    times = {}
    for accounts in (small, large):
        seconds, mutations = timed_delete(accounts)
        times[accounts] = seconds
        print(f"{accounts:>7} accounts: {seconds * 1000:8.1f} ms  {mutations}")
    ratio = times[large] / times[small]
    print(f"ratio {large}/{small}: {ratio:.2f} (bound {MAX_RATIO})")
    exact = rollback_is_exact(large)
    print(f"rollback byte-identical at {large} accounts: {exact}")
    if ratio > MAX_RATIO:
        print("FAIL: deleting inside one transaction grows superlinearly")
        return 1
    if not exact:
        print("FAIL: rollback did not restore the graph exactly")
        return 1
    print("PASS: transactional deletes scale linearly and roll back exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
