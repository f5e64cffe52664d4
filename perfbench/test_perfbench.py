"""The benchmark's own checks.  Run from the repository root::

    python3 -m pytest perfbench -q -p no:cacheprovider

Each end-to-end case builds the full 100k-row catalog, so the module
takes a few minutes; it stays out of the tier-1 suite (``testpaths``).
"""

import asyncio
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import drive  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402


def test_requests_are_a_function_of_the_seed():
    for workload in W.WORKLOADS:
        a = W.requests(W.generate(workload, 11))
        b = W.requests(W.generate(workload, 11))
        c = W.requests(W.generate(workload, 12))
        assert a == b
        assert a != c
        assert len(a) == W.CLIENTS


def test_oracle_z_order_matches_the_grid():
    grid = W.grid()
    for point in [(0, 0), (1, 0), (0, 1), (65535, 3), (12345, 54321)]:
        assert W.zcode(point) == grid.zvalue(point).bits


def test_wrong_and_failed_answers_count_as_failures_and_keep_latency():
    data = W.generate("window-mix", 3)
    first, second = W.requests(data)[0][:2]
    right = drive.Record(first, 0.0, 0.5, W.oracle(data, first))
    wrong_rows = list(W.oracle(data, second)) + [("bogus", 0, 0, 0)]
    wrong = drive.Record(second, 0.1, 0.7, wrong_rows)
    failed = drive.Record(second, 0.2, 0.9, None, "ServerError: boom")
    records = [right, wrong, failed]
    verdicts = drive.check(data, records, {})
    assert verdicts == [True, False, False]
    summary = run.latency_summary(records, verdicts, 1.0)
    assert summary["failed"] == 2
    assert summary["count"] == 3  # wrong and failed stay in the sample


def test_exclusive_time_subtracts_only_nested_spans():
    # [id, name, start, end, parent, request]
    spans = [
        [2, "proximity.knn", 1.0, 1.5, 1, "r"],
        [1, "db.knn_query", 0.5, 2.0, 3, "r"],
        [3, "bench.db_knn", 0.0, 2.0, None, "r"],
        [4, "proximity.knn", 3.0, 4.0, None, "r"],  # not nested: ignored
    ]
    assert layers.exclusive_ms(spans, "bench.db_knn", "proximity.knn") == [1500.0]


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_traced_run_replays_the_timed_run_requests(workload):
    """Same seed, same budget: the traced run's served passes issue the
    timed run's request list, and every answer checks out."""
    data = W.generate(workload, 5)
    lists = W.requests(data)

    def budget():
        return drive.Budget(max_cycles=1)

    summary, _, timed = asyncio.run(run.timed_run(data, lists, budget()))
    result = asyncio.run(
        layers.traced_run(data, lists, budget, replay_seconds=1.0)
    )

    def order(requests):
        return sorted(requests, key=lambda r: (r.client, r.index))

    timed_requests = order(r.request for r in timed)
    assert timed_requests
    assert order(result["requests"]["untraced"]) == timed_requests
    assert order(result["requests"]["traced"]) == timed_requests
    assert order(result["requests"]["untraced_after"]) == timed_requests
    assert summary["failed"] == 0 and result["failed"] == 0
    # The replay covers the whole cycle, not only what fits its seconds.
    assert result["replayed"] == sum(1 for r in timed if r.request.kind != "commit")
    assert set(result["metrics"]) == {
        m["name"] for m in run.benchmark_spec()["per_layer"]
    }
