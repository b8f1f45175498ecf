"""Satisfiability-as-a-service: the batch engine behind a socket.

``python -m repro serve --socket PATH`` (or ``--port N``) puts **one**
long-lived :class:`~repro.engine.batch.BatchEngine` behind the shared
JSONL front door (:mod:`repro.engine.frontdoor`), so its decision
cache, plan caches and worker lanes amortize across every request the
process ever serves.

Scheduling: jobs arriving on a connection while the engine is busy
accumulate and dispatch as one engine batch (up to ``max_batch``).
Batches from all connections serialize on the engine; results stream
back per job via the engine's ``on_result`` callback.  If a batch fails
part-way, every job it did not answer gets its own ``status: error``
record carrying the job's id.

Backpressure: when admitted-but-unanswered jobs reach ``max_inflight``
(default ``workers × lane_queue_depth × group_chunk_size``, the lane
queues' worth of work), new jobs get a ``retry`` response instead of
unbounded buffering — the shed-don't-queue stance the lanes take too.

Lifecycle: after the front door's drain, ``save_state()`` snapshots the
engine's state tier (when it has one) and the engine closes;
``--snapshot-interval`` also snapshots periodically while serving.
Server health (``repro_server_*``) rides the engine's metrics registry
into the ``metrics.prom`` written next to the tier's database.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.batch import BatchEngine, Job
from repro.engine.frontdoor import Connection, FrontDoor, response_id
from repro.errors import EngineError, ReproError
from repro.obs.log import get_logger
from repro.obs.metrics import Histogram
from repro.obs.trace import FAILED, OK
from repro.sat.telemetry import LATENCY_BUCKETS_MS

_LOG = get_logger("repro.engine.server")

#: largest number of pending jobs one engine batch will take
DEFAULT_MAX_BATCH = 256
#: seconds between periodic save_state() snapshots while serving
DEFAULT_SNAPSHOT_INTERVAL = 300.0


@dataclass
class ServerStats:
    """Serving-layer counters and gauges, registered into the engine's
    unified metrics registry (so ``save_state`` snapshots them into
    ``metrics.prom`` alongside the engine's own counters)."""

    connections_total: int = 0
    connections_active: int = 0
    jobs_admitted: int = 0
    results_streamed: int = 0
    retries_shed: int = 0
    invalid_lines: int = 0
    batches: int = 0
    inflight_jobs: int = 0
    snapshots: int = 0
    #: per-batch wall time (ms), pre-binned: fixed size however long
    #: the daemon lives
    batch_ms: Histogram = field(
        default_factory=lambda: Histogram(LATENCY_BUCKETS_MS)
    )

    def register_metrics(self, registry) -> None:
        registry.counters("repro_server", self, (
            ("connections", "connections_total",
             "client connections accepted"),
            ("jobs", "jobs_admitted", "job lines admitted for execution"),
            ("results", "results_streamed",
             "result lines streamed back to clients"),
            ("retries", "retries_shed",
             "jobs shed with a retry response (backpressure)"),
            ("invalid_lines", "invalid_lines",
             "request lines that were not valid job records"),
            ("batches", "batches", "engine batches dispatched by the server"),
            ("snapshots", "snapshots", "state snapshots written while serving"),
        ))
        registry.gauge(
            "repro_server_active_connections", "currently connected clients"
        ).set(self.connections_active)
        registry.gauge(
            "repro_server_inflight_jobs",
            "jobs admitted but not yet answered",
        ).set(self.inflight_jobs)
        registry.histogram(
            "repro_server_batch_ms", LATENCY_BUCKETS_MS,
            "wall time of one server-dispatched engine batch (ms)",
        ).load(self.batch_ms.buckets, self.batch_ms.total, self.batch_ms.count)


class _Connection(Connection):
    """A serve client: jobs waiting for the next batch, and the wakeup
    the batch loop parks on."""

    def __init__(self, conn_id: int) -> None:
        super().__init__(conn_id)
        self.pending: list[Job] = []
        self.wakeup = asyncio.Event()
        self.jobs = 0
        self.batches = 0

    def kick(self) -> None:
        super().kick()
        self.wakeup.set()


class EngineServer(FrontDoor):
    """The asyncio daemon behind ``repro serve``.

    One engine, many connections: each connection's ``_answer`` is a
    batch loop that dispatches its pending jobs to the shared engine.
    The engine itself runs on a single dedicated thread — `BatchEngine`
    is not thread-safe, and one thread keeps the event loop free to
    accept, ingest, and stream while a batch decides.  That thread also
    serializes batches and snapshots from every connection.
    """

    command = "serve"
    connection_class = _Connection

    def __init__(
        self,
        engine: BatchEngine,
        *,
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        max_inflight: int | None = None,
        snapshot_interval: float | None = None,
        on_ready: Callable[["EngineServer"], None] | None = None,
    ) -> None:
        super().__init__(
            socket_path=socket_path, host=host, port=port, on_ready=on_ready
        )
        if max_batch < 1:
            raise EngineError(f"max_batch must be positive, got {max_batch}")
        if max_inflight is not None and max_inflight < 1:
            raise EngineError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        if snapshot_interval is not None and snapshot_interval <= 0:
            raise EngineError(
                f"snapshot_interval must be positive, got {snapshot_interval}"
            )
        self.engine = engine
        self.max_batch = max_batch
        # default backpressure bar: the pooled lanes' queueing capacity —
        # admitting more than the lanes can hold only grows server-side
        # buffers without making anything finish sooner
        self.max_inflight = (
            max_inflight if max_inflight is not None
            else max(
                1,
                engine.workers * engine.lane_queue_depth
                * engine.group_chunk_size,
            )
        )
        self.snapshot_interval = snapshot_interval
        self.stats = ServerStats()
        engine.metrics_sources.append(self.stats)
        self._engine_thread: ThreadPoolExecutor | None = None
        self._snapshot_task: asyncio.Task | None = None

    # -- front-door hooks ---------------------------------------------------
    async def _start(self) -> None:
        self._engine_thread = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-engine"
        )
        if self.snapshot_interval is not None and self.engine.has_state:
            self._snapshot_task = asyncio.create_task(self._snapshot_loop())
        _LOG.info(
            "serving with max_batch=%d, max_inflight=%d, workers=%d",
            self.max_batch, self.max_inflight, self.engine.workers,
        )

    async def _stop(self) -> None:
        if self._snapshot_task is not None:
            self._snapshot_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._snapshot_task
        if self.engine.has_state:
            await self._snapshot()
        self._engine_thread.shutdown(wait=True)
        if not self.engine.closed:
            self.engine.close()
        _LOG.info(
            "drained and closed (%d jobs over %d connections)",
            self.stats.jobs_admitted, self.stats.connections_total,
        )

    def _admit(self, conn: _Connection, job: Job) -> None:
        if self.stats.inflight_jobs >= self.max_inflight:
            self.stats.retries_shed += 1
            conn.out_queue.put_nowait({
                "id": response_id(job),
                "status": "retry",
                "error": (
                    f"backpressure: {self.stats.inflight_jobs} jobs in "
                    f"flight (max {self.max_inflight}); retry later"
                ),
            })
            return
        self.stats.jobs_admitted += 1
        self.stats.inflight_jobs += 1
        conn.jobs += 1
        conn.inflight += 1
        conn.pending.append(job)
        conn.kick()

    async def _answer(self, conn: _Connection) -> None:
        tracer = self.engine.tracer
        trace = None
        if tracer is not None:
            trace = tracer.begin(
                job_id=f"conn-{conn.conn_id}", query="<connection>"
            )
        try:
            while conn.pending or not conn.eof:
                if not conn.pending:
                    # single-threaded loop: nothing can append between
                    # the check above and this clear
                    conn.wakeup.clear()
                    await conn.wakeup.wait()
                    continue
                batch = conn.pending[: self.max_batch]
                del conn.pending[: len(batch)]
                conn.batches += 1
                await self._run_batch(conn, batch, trace)
        finally:
            if trace is not None:
                tracer.finish(
                    trace,
                    verdict=f"{conn.jobs} jobs/{conn.batches} batches",
                    route="serve",
                )

    # -- engine batches -----------------------------------------------------
    async def _run_batch(self, conn: _Connection, batch: list[Job], trace) -> None:
        loop = asyncio.get_running_loop()
        answered: Counter[str] = Counter()

        def stream(result) -> None:
            # called on the engine thread; call_soon_threadsafe keeps
            # FIFO order, so every result is enqueued on the loop before
            # the run_in_executor await below resumes
            loop.call_soon_threadsafe(self._emit, conn, result, answered)

        start = time.perf_counter()
        error: str | None = None
        try:
            await loop.run_in_executor(
                self._engine_thread, self.engine.run, batch, stream
            )
        except ReproError as exc:
            error = str(exc)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self.stats.batches += 1
        self.stats.batch_ms.observe(elapsed_ms)
        if trace is not None:
            attrs: dict[str, Any] = {
                "jobs": len(batch), "connection": conn.conn_id,
            }
            if error is not None:
                attrs["error"] = error
            trace.span(
                "serve.batch", ms=elapsed_ms,
                status=FAILED if error is not None else OK, attrs=attrs,
            )
        # a batch-level failure (e.g. the engine raised part-way): every
        # admitted job still gets exactly one response line, matched to
        # it by id
        unanswered = Counter(response_id(job) for job in batch) - answered
        missing = sum(unanswered.values())
        if missing:
            message = (
                error if error is not None
                else "engine returned no result for this job"
            )
            _LOG.error(
                "batch of %d jobs ended after %d results: %s",
                len(batch), len(batch) - missing, message,
            )
            self.stats.inflight_jobs -= missing
            for job_id in unanswered.elements():
                conn.answer({"id": job_id, "status": "error", "error": message})

    def _emit(self, conn: _Connection, result, answered: Counter) -> None:
        answered[result.id] += 1
        self.stats.inflight_jobs -= 1
        self.stats.results_streamed += 1
        conn.answer(result.to_record())

    # -- snapshots ----------------------------------------------------------
    async def _snapshot_loop(self) -> None:
        # cancelled by _stop, which takes the final snapshot itself
        while True:
            await asyncio.sleep(self.snapshot_interval)
            await self._snapshot()

    async def _snapshot(self) -> None:
        try:
            await asyncio.get_running_loop().run_in_executor(
                self._engine_thread, self.engine.save_state
            )
        except (ReproError, OSError) as error:
            _LOG.error("state snapshot failed: %s", error)
            return
        self.stats.snapshots += 1
        _LOG.info("state snapshot saved to %s", self.engine.state_target)
