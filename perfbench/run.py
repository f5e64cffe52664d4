"""End-to-end spatial-SQL serving benchmark with per-layer attribution.

Drives a single-tree-indexed ``SpatialDatabase(concurrency=True)`` at
100k rows and depth 16 through the TCP ``QueryService`` with two
closed-loop ``QueryClient`` connections, checks every answer against a
brute-force oracle, and prints every metric by name and unit.  The last
line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones,
measured by a separate traced run (see :mod:`layers`).

Run from the repository root::

    python3 perfbench/run.py --workload window-mix --seed 1 --seconds 30 --trace 0

Workloads (``perfbench/manifest.json`` records their parameters):

* ``window-mix`` — SQL box windows with an attribute filter plus
  protocol ``range`` ops over a read-only sky catalog;
* ``proximity-mix`` — SQL ``NEAREST 10`` plus window-pushed ``WITHIN 3``
  cross-match joins over a read-only two-epoch catalog pair;
* ``ingest-read`` — one client inserts and commits small batches while
  the other reads a window and a ``NEAREST`` at each new epoch.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import pathlib
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Full builds per run whose median is reported as the build part of
#: ``setup_s`` (the warm-up on the last build is added once).
SETUP_REPEATS = 3


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units this bench emits."""
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _percentile(values, q: int) -> float:
    """The q-th percentile (statistics.quantiles, exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def latency_summary(records, verdicts, elapsed: float) -> dict:
    """End-to-end figures of one pass: overall and per request kind."""
    ms = [r.latency * 1e3 for r in records]
    out = {
        "attempted": len(records),
        "failed": sum(1 for ok in verdicts if not ok),
        "qps": len(records) / elapsed if elapsed > 0 else 0.0,
        "p50_ms": statistics.median(ms),
        "p90_ms": _percentile(ms, 90),
        "count": len(ms),
        "kinds": {},
    }
    for kind in sorted({r.request.kind for r in records}):
        kind_ms = [r.latency * 1e3 for r in records if r.request.kind == kind]
        out["kinds"][kind] = {
            "p50_ms": statistics.median(kind_ms),
            "p90_ms": _percentile(kind_ms, 90),
            "count": len(kind_ms),
        }
    return out


#: Printed per-kind names (``commit`` is an insert batch plus ``commit``;
#: an ingest-read window includes its snapshot refresh).
KIND_METRICS = {
    "window": ("window_p50_ms", "window_p90_ms"),
    "range": ("range_p50_ms", None),
    "knn": ("knn_p50_ms", "knn_p90_ms"),
    "xmatch": ("xmatch_p50_ms", None),
    "commit": ("commit_p50_ms", None),
}


def print_summary(workload: str, summary: dict, setup: dict, rss: float):
    print(f"workload {workload}")
    print(
        f"  setup_s        {setup['setup_s']:.3f} s  (median build "
        f"{setup['build_s']:.3f} s of {setup['builds']}, warm-up "
        f"{setup['warmup_s']:.3f} s)"
    )
    print(f"  qps            {summary['qps']:.3f} 1/s")
    print(f"  p50_ms         {summary['p50_ms']:.2f} ms  (n={summary['count']})")
    print(f"  p90_ms         {summary['p90_ms']:.2f} ms  (n={summary['count']})")
    for kind, stats in summary["kinds"].items():
        p50_name, p90_name = KIND_METRICS.get(kind, (f"{kind}_p50_ms", None))
        print(f"  {p50_name:<14} {stats['p50_ms']:.2f} ms  (n={stats['count']})")
        if p90_name:
            print(
                f"  {p90_name:<14} {stats['p90_ms']:.2f} ms  (n={stats['count']})"
            )
    rate = summary["failed"] / summary["attempted"]
    print(
        f"  error_rate     {rate:.4f}  ({summary['failed']} of "
        f"{summary['attempted']} failed, rejected or wrong)"
    )
    print(f"  peak_rss_mb    {rss:.1f} MB  (after set-up and the first cycle)")


def set_up(data, repeats: int):
    """Build the database ``repeats`` times (keeping the last) and time
    each build; the warm-up is timed by the caller."""
    import workloads as W

    times = []
    db = None
    for _ in range(repeats):
        db = None
        gc.collect()
        start = time.perf_counter()
        db = W.build(data)
        times.append(time.perf_counter() - start)
    return db, times


async def timed_run(data, lists, budget):
    """The untraced run: set up, warm up, one measured pass, checks.
    Returns the summary, the set-up times and the pass's records."""
    import drive

    db, builds = set_up(data, SETUP_REPEATS)
    start = time.perf_counter()
    bench = await drive.Bench.open(db)
    try:
        await bench.warm_up(data)
        warmup = time.perf_counter() - start
        records, elapsed = await drive.run_pass(bench, data, lists, budget)
    finally:
        await bench.close()
    verdicts = drive.check(data, records, {})
    setup = {
        "build_s": statistics.median(builds),
        "builds": len(builds),
        "warmup_s": warmup,
    }
    setup["setup_s"] = setup["build_s"] + warmup
    return latency_summary(records, verdicts, elapsed), setup, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {SRC} (run from a repository checkout)")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import drive
    import workloads as W

    if args.workload not in W.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {W.WORKLOADS}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    data = W.generate(args.workload, args.seed)
    lists = W.requests(data)
    if args.trace:
        import layers

        result = asyncio.run(
            layers.traced_run(
                data,
                lists,
                # Four passes share the run: three served, one replayed.
                lambda: drive.Budget(seconds=args.seconds / 3),
                replay_seconds=args.seconds / 3,
            )
        )
        layers.print_layers(args.workload, result)
        measured = result["metrics"]
        attempted, failed = result["attempted"], result["failed"]
        section = "per_layer"
    else:
        budget = drive.Budget(seconds=args.seconds)
        summary, setup, _ = asyncio.run(timed_run(data, lists, budget))
        rss = budget.first_cycle_rss_mb
        print_summary(args.workload, summary, setup, rss)
        measured = {
            "setup_s": (setup["setup_s"], "s"),
            "qps": (summary["qps"], "1/s"),
            "p50_ms": (summary["p50_ms"], "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        attempted, failed = summary["attempted"], summary["failed"]
        section = "end_to_end"
    metrics = {}
    for spec in benchmark_spec()[section]:
        value, unit = measured[spec["name"]]
        if unit != spec["unit"]:
            _fail(f"{spec['name']} measured in {unit}, declared {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    out = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
