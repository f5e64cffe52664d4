"""The traced run: per-layer spans and metrics, timed from the bench.

No span lives inside ``src/``.  The bench wraps each layer's public
entry points (and the few private server hooks that delimit one unit
of server work) for the length of the traced run, restoring them after.
A wrapper records a span — name, start, end, parent span, request id —
in memory on a per-thread stack, so nested calls made by the program
itself (a plan estimating, a session scanning its view) land under
their caller.  Spans are written to ``perfbench/out/`` when the run
ends.  A layer's self time is its spans' time minus the time of their
child spans; time outside every span (asyncio, JSON, client) is
reported as unattributed.

The run makes four passes over the workload's request lists:

1. an untraced served pass, identical to the timed run's;
2. the same requests served again with the wrappers installed (its
   spans give each layer's self time on the serving path);
3. the same requests served untraced once more (the tracing overhead
   is pass 2's p50 against the mean of passes 1 and 3, so the order
   of the passes does not pass for overhead or its absence);
4. an in-process replay of the same requests through each layer's
   public functions one by one (parse, bind, plan, run, the range
   planner and estimates, the snapshot session, the decomposition, the
   bare tree, k-NN and Zones), each call with cold decomposition
   caches, with the program's own counters read through
   :func:`repro.obs.trace.trace`.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pathlib
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import drive
import workloads as W
from repro.core.geometry import Box
from repro.obs.trace import trace

HERE = pathlib.Path(__file__).resolve().parent
LAYERS = ("server", "sql", "db", "concurrency", "core", "storage", "proximity")

#: (module, attribute path, span name).  The span name's first part is
#: its layer.  Module-level functions are replaced in every loaded
#: ``repro`` module that imported them by name, except ``tcp`` response
#: encoding, which is wrapped where the server calls it only.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.server.service", "QueryService._execute_batch", "server.execute_batch"),
    ("repro.server.service", "QueryService._scoped", "server.execute"),
    ("repro.server.service", "QueryService._row_map", "server.row_map"),
    ("repro.server.service", "QueryService._filter_rows", "server.filter_rows"),
    ("repro.server.batching", "batched_range_matches", "server.batched_scan"),
    ("repro.sql", "compile_sql", "sql.compile"),
    ("repro.sql.parser", "parse", "sql.parse"),
    ("repro.sql.binder", "bind", "sql.bind"),
    ("repro.sql.compiler", "CompiledQuery.plan", "sql.plan"),
    ("repro.sql.compiler", "CompiledQuery.run", "sql.run"),
    ("repro.sql.compiler", "CompiledQuery.batch_window", "sql.batch_window"),
    ("repro.sql.compiler", "CompiledQuery.finish_rows", "sql.finish_rows"),
    ("repro.db.statistics", "estimate_matches", "db.estimate_matches"),
    ("repro.db.statistics", "estimate_pages", "db.estimate_pages"),
    ("repro.db.planner", "plan_range_query", "db.plan_range_query"),
    ("repro.db.planner", "plan_select", "db.plan_select"),
    ("repro.db.planner", "Plan.execute", "db.plan_execute"),
    ("repro.db.planner", "SelectPlan.execute", "db.select_execute"),
    ("repro.db.database", "SpatialDatabase.range_query", "db.range_query"),
    ("repro.db.database", "SpatialDatabase.knn_query", "db.knn_query"),
    ("repro.concurrency.session", "Session.__init__", "concurrency.pin"),
    ("repro.concurrency.session", "Session.range_query", "concurrency.session_range"),
    ("repro.concurrency.session", "Session.knn_query", "concurrency.session_knn"),
    ("repro.concurrency.session", "Session.table", "concurrency.session_table"),
    ("repro.concurrency.session", "Session.refresh", "concurrency.refresh"),
    ("repro.concurrency.session", "Session.commit", "concurrency.commit"),
    ("repro.concurrency.view", "SnapshotTreeView.range_query", "concurrency.view_range"),
    ("repro.concurrency.view", "SnapshotTreeView.interval_query", "concurrency.view_intervals"),
    ("repro.concurrency.view", "SnapshotTreeView.points", "concurrency.view_points"),
    ("repro.core.decompose", "decompose_box", "core.decompose_box"),
    ("repro.core.fastz", "DecomposeCache.box_elements", "core.box_elements"),
    ("repro.storage.prefix_btree", "ZkdTree.range_query", "storage.range_query"),
    ("repro.storage.prefix_btree", "ZkdTree.points", "storage.points"),
    ("repro.concurrency.view", "_FrozenIndexReader._load_leaf", "storage.load_leaf"),
    ("repro.proximity.knn", "knn", "proximity.knn"),
    ("repro.proximity.knn", "shifted_index_for", "proximity.shifted_index_for"),
    ("repro.proximity.shifted", "ShiftedOrderings.__init__", "proximity.orderings_build"),
    ("repro.proximity.zones", "zones_epsilon_join", "proximity.zones_join"),
)
ENCODE_TARGET = ("repro.server.tcp", "encode_frame", "server.encode_frame")


class Tracer:
    """In-memory spans: ``[id, name, start, end, parent, request]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.request_of: Callable[[str, tuple], Any] = lambda name, args: None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else None
        request = parent[5] if parent else self.request_of(name, args)
        span = [next(self._ids), name, time.perf_counter(), 0.0,
                parent[0] if parent else None, request]
        stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def span(self, name: str, request: Any, fn, *args, **kwargs):
        """Call ``fn`` inside a root bench span for ``request`` (the
        replay is single-threaded, so swapping the lookup is safe)."""
        saved = self.request_of
        self.request_of = lambda _name, _args: request
        try:
            return self.call(name, fn, args, kwargs)
        finally:
            self.request_of = saved


class Patches:
    """Install span wrappers on :data:`TARGETS`; restore on exit.  The
    wrappers record into whichever tracer is current, so one install
    serves several passes."""

    def __init__(self) -> None:
        self.tracer: Optional[Tracer] = None
        self._undo: List[Tuple[Any, str, Any]] = []

    def _wrapper(self, name: str, fn):
        patches = self

        def wrapped(*args, **kwargs):
            tracer = patches.tracer
            if tracer is None:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, args, kwargs)

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Patches":
        for module_name, path, name in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    self._set(owner, attr, classmethod(self._wrapper(name, raw.__func__)))
                else:
                    self._set(owner, attr, self._wrapper(name, raw))
                continue
            original = getattr(module, path)
            wrapped = self._wrapper(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)
        module_name, attr, name = ENCODE_TARGET
        module = importlib.import_module(module_name)
        self._set(module, attr, self._wrapper(name, getattr(module, attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------
# Request ids for server-side spans
# ---------------------------------------------------------------------


def rid(request: W.Request) -> str:
    return f"{request.client}:{request.index}"


def server_request_lookup(lists) -> Callable[[str, tuple], Any]:
    """Map a root span on the server's threads back to its request(s):
    SQL text for compiles and executor calls, boxes for batches."""
    by_text: Dict[str, str] = {}
    by_box: Dict[Any, str] = {}
    for requests in lists:
        for request in requests:
            if request.sql:
                by_text[request.sql] = rid(request)
            if request.box:
                by_box.setdefault(request.box, rid(request))

    def lookup(name: str, args: tuple):
        if name == "sql.compile" and len(args) > 1:
            return by_text.get(args[1])
        if name == "server.execute" and len(args) > 1:
            owner = getattr(args[1], "__self__", None)
            bound = getattr(owner, "bound", None)
            return by_text.get(getattr(bound, "source", None))
        if name == "server.execute_batch" and len(args) > 2:
            ids = [by_box.get(tuple(box.ranges)) for box, _, _ in args[2]]
            return ",".join(i for i in ids if i) or None
        return None

    return lookup


# ---------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------


def self_times(spans: List[list]) -> Dict[str, float]:
    """Seconds of self time per layer (bench spans excluded)."""
    child_time: Dict[int, float] = {}
    for span in spans:
        if span[4] is not None:
            child_time[span[4]] = child_time.get(span[4], 0.0) + span[3] - span[2]
    out = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        layer = span[1].split(".")[0]
        if layer in out:
            out[layer] += span[3] - span[2] - child_time.get(span[0], 0.0)
    return out


def durations(spans, name: str, requests=None) -> List[float]:
    """Durations (ms) of spans named ``name``, optionally only those of
    the given request ids."""
    return [
        (s[3] - s[2]) * 1e3
        for s in spans
        if s[1] == name and (requests is None or s[5] in requests)
    ]


def per_request(spans, names, requests) -> Dict[Any, float]:
    """Summed duration (ms) per request of spans named in ``names``."""
    out: Dict[Any, float] = {}
    for s in spans:
        if s[1] in names and s[5] in requests:
            out[s[5]] = out.get(s[5], 0.0) + (s[3] - s[2]) * 1e3
    return out


def exclusive_ms(spans, outer: str, inner: str) -> List[float]:
    """Per ``outer`` span that has ``inner`` spans nested in it (at any
    depth): its duration minus theirs, in ms."""
    by_id = {s[0]: s for s in spans}
    nested: Dict[int, float] = {}
    for s in spans:
        if s[1] != inner:
            continue
        parent = s[4]
        while parent is not None and by_id[parent][1] != outer:
            parent = by_id[parent][4]
        if parent is not None:
            nested[parent] = nested.get(parent, 0.0) + s[3] - s[2]
    return [
        (by_id[k][3] - by_id[k][2] - v) * 1e3 for k, v in nested.items()
    ]


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------
# The in-process replay
# ---------------------------------------------------------------------


def replay(db, data: W.Data, lists, session, tracer: Tracer, seconds: float, cache):
    """Replay the requests, interleaved by client as served, through
    each layer's public functions, for ``seconds`` but at least one
    cycle of each client's list, so every request class is replayed.
    Returns per-request facts the spans cannot carry (counters, page
    counts, answer checks)."""
    decompose = importlib.import_module("repro.core.decompose")
    fastz = importlib.import_module("repro.core.fastz")
    planner = importlib.import_module("repro.db.planner")
    dbstats = importlib.import_module("repro.db.statistics")
    from repro.proximity import knn, zones_epsilon_join
    from repro.sql import execute_sql

    grid = data.grid
    facts: Dict[str, dict] = {}
    order = [r for pair in itertools.zip_longest(*lists) for r in pair if r]
    at_least = W.CLIENTS * W.cycle_length(data)
    started = time.perf_counter()
    for request in order:
        if len(facts) >= at_least and time.perf_counter() - started >= seconds:
            break
        if request.kind == "commit":
            continue
        key = rid(request)
        table = "stars" if data.workload == "proximity-mix" else "sky"
        tree = db.catalog.index(f"{table}_xy").tree
        fact: Dict[str, Any] = {"kind": request.kind}
        facts[key] = fact

        def run(name, fn, *args, **kwargs):
            # Every timed call decomposes cold, as a served request over
            # a new box does, not on what the previous call cached.
            _clear_decompose_caches(db)
            return tracer.span(name, key, fn, *args, **kwargs)

        if request.refresh:
            run("bench.refresh", session.refresh)
        run("bench.pin", lambda: db.session().close())
        if request.sql:
            out = run("bench.execute_sql", execute_sql, db, request.sql, session=session)
            if data.workload != "ingest-read":
                if (request.client, request.index) not in cache:
                    cache[(request.client, request.index)] = W.oracle(data, request)
                fact["ok"] = W.same_answer(
                    request, list(out.rows), cache[(request.client, request.index)]
                )
        if request.box:
            box = Box(request.box)
            cols = ("x", "y")
            run("bench.db_range", db.range_query, table, cols, box)
            plan = run("bench.plan_range", planner.plan_range_query, db, table, cols, box)
            run("bench.plan_execute", plan.execute)
            result = run("bench.tree_range", tree.range_query, box)
            # The cached-decomposition path Plan.execute takes, for the
            # gather difference.
            run("bench.tree_range_fast", tree.range_query, box, use_fast=True)
            fact.update(
                pages=result.pages_accessed,
                matches=len(result.matches),
                records=result.records_on_pages,
                hits=result.buffer_stats.get("hits", 0),
                misses=result.buffer_stats.get("misses", 0),
            )
            run("bench.estimate", lambda: (
                dbstats.estimate_matches(tree, box),
                dbstats.estimate_pages(tree, box),
            ))
            elements = run("bench.decompose", decompose.decompose_box, grid, box)
            fact["elements"] = len(elements)
            run("bench.box_elements", fastz.DecomposeCache().box_elements, grid, box)
            run("bench.session_range", session.range_query, table, cols, box)
        if request.kind == "knn":
            run("bench.db_knn", db.knn_query, table, ("x", "y"), request.center, W.K)
            with trace("bench.knn") as counters:
                run("bench.knn", knn, tree, grid, request.center, W.K)
            fact["candidates"] = counters.total_counters().get("knn.candidates", 0)
            fact["k"] = W.K
        if request.kind == "xmatch":
            pts_a = [r[1:3] for r in data.tables["stars"] if W.in_box(r, request.box)]
            pts_b = [r[1:3] for r in data.tables["gals"]]
            with trace("bench.zones") as counters:
                run("bench.zones", zones_epsilon_join, pts_a, pts_b, W.EPS)
            totals = counters.total_counters()
            fact["zone_candidates"] = totals.get("zones.candidates", 0)
            fact["zone_pairs"] = totals.get("zones.pairs", 0)
    return facts


# ---------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------


def _clear_decompose_caches(db) -> None:
    """Forget cached decompositions (the trees' own and the per-grid
    default) so a second pass over the same boxes does the first
    pass's work, not cache hits."""
    from repro.core.fastz import default_decompose_cache

    default_decompose_cache(db.grid).clear()
    for entry in db.catalog.indexes():
        entry.tree._decompose_cache.clear()


async def _open(data):
    import run as R

    db, _ = R.set_up(data, 1)
    bench = await drive.Bench.open(db)
    await bench.warm_up(data)
    return bench


def _delta(before, after, section: str, prefix: str) -> int:
    return sum(
        value - before.get(section, {}).get(key, 0)
        for key, value in after.get(section, {}).items()
        if key.startswith(prefix)
    )


async def traced_run(data: W.Data, lists, budget, replay_seconds: float) -> dict:
    """Passes 1-3 (see the module docs); ``budget()`` makes a fresh
    :class:`drive.Budget` for each served pass."""
    import run as R

    mutates = data.workload == "ingest-read"
    cache: Dict = {}
    bench = await _open(data)

    async def reset():
        # A mutating workload needs its base state back; a read-only one
        # only forgets the decompositions the previous pass cached.
        nonlocal bench
        if mutates:
            await bench.close()
            bench = await _open(data)
        else:
            _clear_decompose_caches(bench.db)

    try:
        stats0 = await bench.stats()
        plain, plain_elapsed = await drive.run_pass(bench, data, lists, budget())
        stats1 = await bench.stats()
        await reset()
        served = Tracer()
        served.request_of = server_request_lookup(lists)
        with Patches() as patches:
            patches.tracer = served
            traced, traced_elapsed = await drive.run_pass(
                bench, data, lists, budget()
            )
            patches.tracer = None
        snapshots = (await bench.stats()).get("snapshots", {})
        # A second untraced pass after the traced one, so the overhead
        # compares against passes on both sides of it and not against
        # a colder process only.
        await reset()
        after, after_elapsed = await drive.run_pass(bench, data, lists, budget())
    finally:
        await bench.close()
    plain_ok = drive.check(data, plain, cache)
    traced_ok = drive.check(data, traced, cache)
    after_ok = drive.check(data, after, cache)

    db = bench.db
    _clear_decompose_caches(db)
    session = db.session()
    try:
        if data.workload != "window-mix":
            # Untimed: the replay's session and the live tree build their
            # shifted orderings once, as the served sessions did during
            # set-up.
            from repro.proximity import shifted_index_for

            table = "stars" if data.workload == "proximity-mix" else "sky"
            mid = data.grid.side // 2
            shifted_index_for(db.catalog.index(f"{table}_xy").tree, data.grid)
            session.knn_query(table, ("x", "y"), (mid, mid), 1)
        replayed = Tracer()
        with Patches() as patches:
            patches.tracer = replayed
            facts = replay(db, data, lists, session, replayed, replay_seconds, cache)
            patches.tracer = None
    finally:
        session.close()

    plain_sum = R.latency_summary(plain, plain_ok, plain_elapsed)
    traced_sum = R.latency_summary(traced, traced_ok, traced_elapsed)
    after_sum = R.latency_summary(after, after_ok, after_elapsed)
    result = {
        "attempted": len(plain) + len(traced) + len(after),
        "failed": plain_sum["failed"] + traced_sum["failed"] + after_sum["failed"]
        + sum(1 for f in facts.values() if f.get("ok") is False),
        "plain": plain_sum,
        "traced": traced_sum,
        "after": after_sum,
        "replayed": len(facts),
        "requests": {
            "untraced": [r.request for r in plain],
            "traced": [r.request for r in traced],
            "untraced_after": [r.request for r in after],
        },
    }
    metrics, notes = layer_metrics(
        plain, traced_elapsed, served.spans, replayed.spans,
        facts, stats0, stats1, snapshots,
        (plain_sum["p50_ms"] + after_sum["p50_ms"]) / 2, traced_sum, len(traced),
    )
    result["metrics"] = metrics
    result["notes"] = notes
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{data.workload}-{data.seed}.json"
    fields = ("id", "name", "start", "end", "parent", "request")
    path.write_text(json.dumps({
        "served": [dict(zip(fields, s)) for s in served.spans],
        "replayed": [dict(zip(fields, s)) for s in replayed.spans],
    }))
    result["spans_file"] = str(path.relative_to(HERE.parent))
    return result


def layer_metrics(plain, traced_elapsed, served_spans,
                  replay_spans, facts, stats0, stats1, snapshots,
                  untraced_p50, traced_sum, ntraced):
    """The per-layer metrics (name -> (value, unit)) and printed-only
    extras (name -> (value, unit, note))."""
    ids = set(facts)
    kinds = {key: fact["kind"] for key, fact in facts.items()}
    sql_ids = {k for k in ids if kinds[k] in ("window", "knn", "xmatch")}
    box_ids = {k for k in ids if kinds[k] in ("window", "range", "xmatch")}
    window_ids = {k for k in ids if kinds[k] == "window"}

    plain_ms = {rid(r.request): r.latency * 1e3 for r in plain}
    in_process = per_request(replay_spans, {"bench.execute_sql"}, sql_ids)
    overhead = [plain_ms[k] - v for k, v in in_process.items() if k in plain_ms]

    def med(name, wanted):
        return _median(durations(replay_spans, name, wanted))

    def summed(names, wanted):
        return _median(per_request(replay_spans, names, wanted).values())

    batches = _delta(stats0, stats1, "server", "server.batches")
    batched = _delta(stats0, stats1, "server", "server.batched_requests")
    tree_ms = med("bench.tree_range", window_ids)
    sql_window_ms = _median(v for k, v in in_process.items() if k in window_ids)
    box_facts = [facts[k] for k in box_ids]
    records = sum(f["records"] for f in box_facts)
    matches = sum(f["matches"] for f in box_facts)
    lookups = sum(f["hits"] + f["misses"] for f in box_facts)
    knn_facts = [f for f in facts.values() if "candidates" in f]
    zone_facts = [f for f in facts.values() if "zone_pairs" in f]
    k_total = sum(f["k"] for f in knn_facts)
    pairs = sum(f["zone_pairs"] for f in zone_facts)
    served_self = self_times(served_spans)
    replay_plan = per_request(replay_spans, {"bench.plan_execute"}, box_ids)
    replay_tree = per_request(replay_spans, {"bench.tree_range_fast"}, box_ids)
    gather = [replay_plan[k] - replay_tree[k] for k in replay_plan if k in replay_tree]

    metrics = {
        "server.overhead_ms": (_median(overhead), "ms"),
        "server.encode_ms": (_median(durations(served_spans, "server.encode_frame")), "ms"),
        "server.batch_size_mean": (batched / batches if batches else 0.0, "count"),
        "server.rejected": (_delta(stats0, stats1, "server", "server.rejected."), "count"),
        "sql.parse_ms": (med("sql.parse", sql_ids), "ms"),
        "sql.bind_ms": (med("sql.bind", sql_ids), "ms"),
        "sql.plan_ms": (med("sql.plan", sql_ids), "ms"),
        "sql.run_ms": (med("sql.run", sql_ids), "ms"),
        "sql.surface_overhead_x": (
            sql_window_ms / tree_ms if tree_ms else 0.0, "x"),
        "db.estimate_ms": (summed({"bench.estimate"}, box_ids), "ms"),
        "db.plan_range_ms": (med("bench.plan_range", box_ids), "ms"),
        "db.range_ms": (med("bench.db_range", box_ids), "ms"),
        "db.gather_ms": (_median(gather), "ms"),
        "concurrency.pin_ms": (med("bench.pin", ids), "ms"),
        "concurrency.session_range_ms": (med("bench.session_range", box_ids), "ms"),
        "concurrency.cow_retained": (snapshots.get("cow.retained", 0), "count"),
        "core.decompose_ms": (med("bench.decompose", box_ids), "ms"),
        "core.elements_per_window": (
            _median(f["elements"] for f in box_facts), "count"),
        "core.box_elements_ms": (med("bench.box_elements", box_ids), "ms"),
        "storage.range_ms": (med("bench.tree_range", box_ids), "ms"),
        "storage.pages_per_query": (
            _median(f["pages"] for f in box_facts), "count"),
        "storage.efficiency": (matches / records if records else 0.0, "ratio"),
        "storage.buffer_hit_rate": (
            sum(f["hits"] for f in box_facts) / lookups if lookups else 0.0,
            "ratio"),
        "proximity.knn_candidates_per_k": (
            sum(f["candidates"] for f in knn_facts) / k_total if k_total else 0.0,
            "count"),
        "proximity.zones_candidates_per_pair": (
            sum(f["zone_candidates"] for f in zone_facts) / pairs if pairs else 0.0,
            "count"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (
            100.0 * served_self[layer] / traced_elapsed, "%")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_sum["p50_ms"] - untraced_p50) / untraced_p50, "%")

    commits = durations(served_spans, "concurrency.commit")
    builds = durations(served_spans, "proximity.orderings_build")
    notes = {
        "bases": {
            "sql.surface_overhead_x": f"{sql_window_ms:.2f} ms in-process SQL window p50 / "
            f"{tree_ms:.3f} ms ZkdTree.range_query p50 over {len(window_ids)} windows",
            "storage.efficiency": f"{matches} matches / {records} records on retrieved pages",
            "storage.buffer_hit_rate": f"{sum(f['hits'] for f in box_facts)} hits / {lookups} lookups",
            "proximity.knn_candidates_per_k": f"{sum(f['candidates'] for f in knn_facts)} candidates / "
            f"k total {k_total} over {len(knn_facts)} queries",
            "proximity.zones_candidates_per_pair": f"{sum(f['zone_candidates'] for f in zone_facts)} "
            f"candidates / {pairs} pairs over {len(zone_facts)} joins",
            "server.batch_size_mean": f"{batched} batched requests / {batches} batches",
        },
        "extra": {
            "db.knn_gather_ms": (_median(
                exclusive_ms(replay_spans, "bench.db_knn", "proximity.knn")), "ms"),
            "concurrency.commit_ms": (_median(commits), "ms"),
            "proximity.orderings_build_ms": (_median(builds), "ms"),
            "proximity.knn_ms": (med("bench.knn", ids), "ms"),
            "proximity.zones_ms": (med("bench.zones", ids), "ms"),
        },
        "self_ms": {
            layer: 1e3 * served_self[layer] / max(1, ntraced) for layer in LAYERS
        },
        "unattributed_pct": 100.0 - sum(
            100.0 * v / traced_elapsed for v in served_self.values()),
        "counts": {
            "replayed": len(ids), "sql": len(sql_ids), "box": len(box_ids),
            "windows": len(window_ids), "commits": len(commits),
            "orderings_builds": len(builds),
        },
    }
    return metrics, notes


def print_layers(workload: str, result: dict) -> None:
    notes = result["notes"]
    print(f"workload {workload} (traced run)")
    for label, key in (
        ("untraced pass", "plain"), ("traced pass", "traced"),
        ("untraced again", "after"),
    ):
        p = result[key]
        print(
            f"  {label:<14} p50 {p['p50_ms']:.2f} ms  p90 {p['p90_ms']:.2f} ms"
            f"  (n={p['count']}, {p['failed']} failed)"
        )
    print(f"  replayed       {result['replayed']} requests  {notes['counts']}")
    for name, (value, unit) in result["metrics"].items():
        base = notes["bases"].get(name)
        print(f"  {name:<36} {value:.4f} {unit}" + (f"  [{base}]" if base else ""))
    for layer, value in notes["self_ms"].items():
        print(f"  {layer + '.self_ms':<36} {value:.4f} ms  (per served request)")
    print(f"  {'unattributed_pct':<36} {notes['unattributed_pct']:.4f} %")
    for name, (value, unit) in notes["extra"].items():
        print(f"  {name:<36} {value:.4f} {unit}  (printed only)")
    print(f"  spans written to {result['spans_file']}")
