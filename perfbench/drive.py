"""Closed-loop serving passes over the TCP query service.

Two :class:`~repro.server.QueryClient` connections in one process, each
an independent closed loop that sends its next request only after the
previous reply (callers that wait for answers).  The server runs on
loopback in the same process, as ``benchmarks/bench_server.py`` does.

``ingest-read`` runs its two clients in lockstep so every read lands on
a fresh epoch whose contents are known: the writer commits batch ``i``,
the reader refreshes onto it and reads a window, then a ``NEAREST``
while the writer already commits batch ``i + 1`` beside it.
"""

from __future__ import annotations

import asyncio
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.server import QueryClient, QueryService, serve
from repro.server.client import ServerError, ServerRejected
from repro.shard.executor import ResiliencePolicy

import workloads as W

#: A NEAREST at a fresh epoch rebuilds the shifted orderings (seconds
#: at 100k rows), so the service's 5 s default would turn that real
#: cost into timeout rejections.
REQUEST_TIMEOUT = 120.0
#: No client-side retries: a load-shed rejection is a failed request in
#: ``error_rate``, not a slow success.
CLIENT_POLICY = ResiliencePolicy(max_retries=0, timeout=150.0)
FAILURES = (ServerError, ServerRejected, ConnectionError, asyncio.TimeoutError)


@dataclass
class Record:
    """One issued request and what came back."""

    request: W.Request
    start: float
    latency: float
    answer: Any = None
    error: Optional[str] = None


@dataclass
class Budget:
    """When a pass stops starting cycles of requests: after ``seconds``,
    or (for tests) after ``max_cycles``."""

    seconds: Optional[float] = None
    max_cycles: Optional[int] = None
    started: float = field(default_factory=time.perf_counter)
    #: Process peak RSS once the first cycle is done: a fixed amount of
    #: work, unlike the run's end, which depends on how many cycles fit.
    first_cycle_rss_mb: Optional[float] = None

    def more(self, cycles: int) -> bool:
        if cycles >= 1 and self.first_cycle_rss_mb is None:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.first_cycle_rss_mb = usage.ru_maxrss / 1024.0
        if self.max_cycles is not None and cycles >= self.max_cycles:
            return False
        if self.seconds is not None:
            return time.perf_counter() - self.started < self.seconds
        return True


class Bench:
    """A database behind a loopback server with two connected clients."""

    def __init__(self, db, server, clients) -> None:
        self.db = db
        self.server = server
        self.clients = clients

    @classmethod
    async def open(cls, db) -> "Bench":
        service = QueryService(db, request_timeout=REQUEST_TIMEOUT)
        server = await serve(service)
        clients = []
        try:
            for _ in range(W.CLIENTS):
                clients.append(
                    await QueryClient.connect(*server.address, CLIENT_POLICY)
                )
        except BaseException:
            for client in clients:
                await client.close()
            await server.close()
            raise
        return cls(db, server, clients)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.close()

    async def warm_up(self, data: W.Data) -> None:
        """Untimed requests outside the request lists that build each
        connection's lazy state: snapshot views, the server's per-epoch
        row maps and (for NEAREST) the session's shifted orderings."""
        side = data.grid.side
        mid = side // 2
        box = ((mid, mid + side // 32), (mid, mid + side // 32))
        for i, client in enumerate(self.clients):
            if data.workload == "window-mix":
                await client.sql(W.window_sql(box, 20))
                await client.range_query("sky", ("x", "y"), box)
            elif data.workload == "proximity-mix":
                await client.sql(W.knn_sql("stars", (mid, mid)))
            elif i == 1:  # the ingest-read reader
                await client.sql(W.window_sql(box, 20))
                await client.sql(W.knn_sql("sky", (mid, mid)))

    async def stats(self) -> Dict[str, Dict[str, int]]:
        return await self.clients[0].stats()


async def issue(client: QueryClient, request: W.Request) -> Any:
    """Send one request; returns its rows (with the new epoch first for
    a refreshing read), or the epoch for a commit."""
    if request.kind == "range":
        return await client.range_query("sky", ("x", "y"), request.box)
    if request.kind == "commit":
        for row in request.rows:
            await client.insert("sky", row)
        return await client.commit()
    epoch = await client.refresh() if request.refresh else None
    response = await client.sql(request.sql)
    rows = [tuple(row) for row in response["rows"]]
    return (epoch, rows) if request.refresh else rows


async def _timed(client, request, records: List[Record]) -> Any:
    start = time.perf_counter()
    try:
        answer = await issue(client, request)
        error = None
    except FAILURES as exc:
        answer, error = None, f"{type(exc).__name__}: {exc}"
    records.append(
        Record(request, start, time.perf_counter() - start, answer, error)
    )
    return answer


async def _closed_loop(client, requests, cycle: int, budget, records) -> None:
    """One client's closed loop over its request list.  The budget is
    consulted only between whole cycles of ``cycle`` requests, so every
    run serves each client's mix of request classes whole."""
    for i, request in enumerate(requests):
        if i % cycle == 0 and not budget.more(i // cycle):
            return
        await _timed(client, request, records)


async def _ingest(bench: Bench, lists, budget, records) -> None:
    writer, reader = bench.clients
    ncycles = len(lists[0])
    committed = [asyncio.Event() for _ in range(ncycles)]
    refreshed = [asyncio.Event() for _ in range(ncycles)]
    done = [False] * ncycles

    async def write() -> None:
        try:
            for cycle, request in enumerate(lists[0]):
                if cycle:
                    await refreshed[cycle - 1].wait()
                if not budget.more(cycle):
                    return
                await _timed(writer, request, records)
                done[cycle] = True
                committed[cycle].set()
        finally:
            for event in committed:
                event.set()

    async def read() -> None:
        try:
            steps = lists[1]
            for cycle in range(ncycles):
                await committed[cycle].wait()
                if not done[cycle]:
                    return
                window, nearest = steps[2 * cycle: 2 * cycle + 2]
                await _timed(reader, window, records)
                # Pinned on batch ``cycle``: the next commit may run
                # beside this epoch's NEAREST.
                refreshed[cycle].set()
                await _timed(reader, nearest, records)
        finally:
            for event in refreshed:
                event.set()

    await asyncio.gather(write(), read())


async def run_pass(bench: Bench, data: W.Data, lists, budget: Budget):
    """One measured pass; returns the records and its wall time (from
    the first send to the last reply)."""
    records: List[Record] = []
    budget.started = time.perf_counter()
    if data.workload == "ingest-read":
        await _ingest(bench, lists, budget, records)
    else:
        cycle = W.cycle_length(data)
        await asyncio.gather(*(
            _closed_loop(client, requests, cycle, budget, records)
            for client, requests in zip(bench.clients, lists)
        ))
    end = max((r.start + r.latency for r in records), default=budget.started)
    return records, end - budget.started


def check(data: W.Data, records: List[Record], cache: Dict) -> List[bool]:
    """Judge every record against the oracle: a failed request or a
    wrong answer is ``False``.  Commits must return increasing epochs
    and a refreshing read must land on its cycle's commit.  ``cache``
    keeps oracle answers across passes that replay the same requests."""
    commit_epochs = {
        r.request.cycle: r.answer
        for r in records
        if r.request.kind == "commit" and r.error is None
    }
    epochs = [commit_epochs[c] for c in sorted(commit_epochs)]
    commits_ok = all(isinstance(e, int) for e in epochs) and epochs == sorted(
        set(epochs)
    )
    verdicts = []
    for record in records:
        request = record.request
        if record.error is not None:
            verdicts.append(False)
            continue
        answer = record.answer
        if request.kind == "commit":
            verdicts.append(commits_ok)
            continue
        ok = True
        if request.refresh:
            epoch, answer = answer
            ok = epoch == commit_epochs.get(request.cycle)
        key = (request.client, request.index)
        if key not in cache:
            cache[key] = W.oracle(data, request)
        verdicts.append(ok and W.same_answer(request, answer, cache[key]))
    return verdicts
