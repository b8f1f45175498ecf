"""Multi-process scale-out: the schema-sharded front door.

``python -m repro route --workers N`` starts an asyncio router speaking
the **same JSONL job protocol** as ``repro serve`` — clients cannot tell
the difference — and fans the work out across N independent engine
processes:

* **worker fleet** — the router spawns N ``repro serve`` subprocesses
  (one unix socket each, under ``--worker-dir``) and/or attaches to
  pre-started sockets (``--attach``).  Spawned workers get the shared
  ``--state-tier`` on their command line, so every engine **warms its
  caches from the tier before its socket exists** — the router only
  accepts client traffic once every worker is connectable, hence no
  process ever plans cold;
* **schema-fingerprint sharding** — each job's schema resolves to its
  content fingerprint and ``crc32(fingerprint) % N`` picks the preferred
  shard (the persistent lanes' consistent-hash affinity trick, one
  level up), so one schema's plan cache, prepared contexts, and lane
  affinity concentrate in one process.  When the preferred shard is
  saturated (``--spill-depth`` jobs in flight) or down, the job spills
  to the least-loaded live shard (counted, like the lanes' spills);
* **exactly-once fan-in** — the router rewrites each job id to a unique
  token and keeps ``token -> (client, original id)``; the mapping is
  popped on the first response, so a worker that answers twice (or a
  retried job whose first attempt resurfaces) cannot duplicate a client
  result line.  Responses restore the client's original id (or the
  engine's query-text default, byte-compatible with ``repro serve``).
  A worker's backpressure shed (``status: retry``) never reaches the
  client: the front door owns delivery and requeues the job until a
  shard has capacity;
* **worker supervision** — a shard whose process dies or whose
  connection drops is restarted (up to ``--max-restarts`` times) and
  its in-flight jobs are re-dispatched exactly once; a job whose retry
  also dies gets an error response instead of a third attempt.

The client side is the front door ``repro serve`` uses too
(:mod:`repro.engine.frontdoor`).  After its drain the router SIGTERMs
the managed workers — each drains and snapshots the shared tier on its
own — and waits for them.  ``repro_router_*`` metrics (per-shard depth
and job gauges, spill / restart / retry counters) render into
``--metrics-out``.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.dtd.parser import parse_dtd
from repro.engine.batch import Job
from repro.engine.frontdoor import (
    Connection,
    FrontDoor,
    response_id,
    write_records,
)
from repro.engine.registry import schema_fingerprint
from repro.engine.state import _atomic_write_text
from repro.errors import EngineError
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry

_LOG = get_logger("repro.engine.router")

#: in-flight jobs a preferred shard may hold before a job spills to the
#: least-loaded shard (the lanes' DEFAULT_LANE_QUEUE_DEPTH stance, sized
#: for whole processes: one serve worker batches up to 256 jobs)
DEFAULT_SPILL_DEPTH = 64

#: times one shard's process is restarted before it is left for dead
DEFAULT_MAX_RESTARTS = 3

#: seconds to wait for a spawned worker's socket to accept
DEFAULT_WORKER_BOOT_TIMEOUT = 120.0

#: shard key for jobs without a schema (decided over unconstrained trees)
NO_SCHEMA_KEY = "-"


def pick_shard(
    key: str,
    depths: Sequence[int],
    spill_depth: int,
    alive: Sequence[bool] | None = None,
) -> tuple[int, bool]:
    """Choose a shard for ``key``: the consistent-hash preferred shard
    unless it is saturated (``>= spill_depth`` in flight) or down, in
    which case the least-loaded live shard wins.  Returns ``(index,
    spilled)``; spilling to a shard at least as loaded as the preferred
    one is pointless, so the preferred shard keeps the job then.

    Pure function of its arguments — the routing policy in one testable
    place."""
    if not depths:
        raise EngineError("no shards")
    alive = alive if alive is not None else [True] * len(depths)
    live = [index for index, up in enumerate(alive) if up]
    if not live:
        raise EngineError("no live shards")
    preferred = zlib.crc32(key.encode("utf-8")) % len(depths)
    if alive[preferred] and depths[preferred] < spill_depth:
        return preferred, False
    least = min(live, key=lambda index: (depths[index], index))
    if least == preferred:
        return preferred, False
    if alive[preferred] and depths[least] >= depths[preferred]:
        return preferred, False
    return least, True


@dataclass
class RouterStats:
    """Routing-layer counters and gauges (``repro_router_*``)."""

    connections_total: int = 0
    connections_active: int = 0
    jobs_routed: int = 0
    results_returned: int = 0
    spills: int = 0
    restarts: int = 0
    retried_jobs: int = 0
    sheds_requeued: int = 0
    failed_jobs: int = 0
    invalid_lines: int = 0
    shard_jobs: dict[int, int] = field(default_factory=dict)
    shard_depth: dict[int, int] = field(default_factory=dict)

    def shards_used(self) -> int:
        return sum(1 for count in self.shard_jobs.values() if count)

    def register_metrics(self, registry) -> None:
        registry.counters("repro_router", self, (
            ("connections", "connections_total",
             "client connections accepted by the router"),
            ("jobs", "jobs_routed", "jobs routed to engine shards"),
            ("results", "results_returned",
             "result lines fanned back to clients"),
            ("spills", "spills",
             "jobs routed off their preferred shard (hot or down)"),
            ("restarts", "restarts", "engine worker processes restarted"),
            ("retries", "retried_jobs",
             "in-flight jobs re-dispatched after a worker death"),
            ("requeues", "sheds_requeued",
             "jobs a worker shed under backpressure and the router "
             "requeued"),
            ("failures", "failed_jobs",
             "jobs answered with a router-side error"),
            ("invalid_lines", "invalid_lines",
             "request lines that were not valid job records"),
        ))
        registry.gauge(
            "repro_router_active_connections", "currently connected clients"
        ).set(self.connections_active)
        for index in sorted(self.shard_jobs):
            registry.counter(
                "repro_router_shard_jobs_total",
                "jobs routed per shard",
                {"shard": str(index)},
            ).inc(self.shard_jobs[index])
        for index in sorted(self.shard_depth):
            registry.gauge(
                "repro_router_shard_depth",
                "jobs in flight per shard",
                {"shard": str(index)},
            ).set(self.shard_depth[index])


@dataclass(slots=True)
class _Pending:
    """One routed job awaiting its result."""

    conn: Connection
    response_id: str            # the id the client gets back
    payload: dict[str, Any]     # the rewritten job record (token id)
    retried: bool = False


@dataclass(eq=False)
class _Shard:
    """One engine worker: its socket, process (when managed), connection,
    and in-flight token map."""

    index: int
    socket_path: str
    managed: bool
    process: asyncio.subprocess.Process | None = None
    reader: asyncio.StreamReader | None = None
    writer: asyncio.StreamWriter | None = None
    reader_task: asyncio.Task | None = None
    writer_task: asyncio.Task | None = None
    out_queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    inflight: dict[str, _Pending] = field(default_factory=dict)
    alive: bool = False
    restarts: int = 0

    @property
    def depth(self) -> int:
        return len(self.inflight)


class EngineRouter(FrontDoor):
    """The asyncio front door behind ``repro route`` (see the module
    docstring for the routing model).

    ``on_ready`` is called with the router once every worker is
    connectable **and** the client endpoint is bound — the warm-boot
    barrier: by then each spawned engine has already adopted the shared
    tier's plans and cached decisions."""

    command = "route"

    def __init__(
        self,
        *,
        workers: int = 0,
        attach: Sequence[str] = (),
        socket_path: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        schema_files: dict[str, str] | None = None,
        worker_args: Sequence[str] = (),
        worker_dir: str | None = None,
        spill_depth: int = DEFAULT_SPILL_DEPTH,
        max_restarts: int = DEFAULT_MAX_RESTARTS,
        boot_timeout: float = DEFAULT_WORKER_BOOT_TIMEOUT,
        metrics_out: str | None = None,
        on_ready: Callable[["EngineRouter"], None] | None = None,
    ) -> None:
        super().__init__(
            socket_path=socket_path, host=host, port=port, on_ready=on_ready
        )
        if workers < 0:
            raise EngineError(f"workers must be non-negative, got {workers}")
        if workers + len(attach) < 1:
            raise EngineError("route needs at least one worker (or --attach)")
        if spill_depth < 1:
            raise EngineError(f"spill_depth must be positive, got {spill_depth}")
        if max_restarts < 0:
            raise EngineError(
                f"max_restarts must be non-negative, got {max_restarts}"
            )
        self.spill_depth = spill_depth
        self.max_restarts = max_restarts
        self.boot_timeout = boot_timeout
        self.metrics_out = metrics_out
        self.worker_args = list(worker_args)
        self.worker_dir = worker_dir
        self.stats = RouterStats()
        # schema name -> content fingerprint: the shard key.  The router
        # never builds artifacts — fingerprinting parses the DTD once.
        self._fingerprints: dict[str, str] = {}
        for name, path in sorted((schema_files or {}).items()):
            with open(path) as handle:
                self._fingerprints[name] = schema_fingerprint(
                    parse_dtd(handle.read())
                )
        self.shards = [_Shard(index, "", managed=True) for index in range(workers)]
        self.shards += [
            _Shard(workers + offset, sock, managed=False)
            for offset, sock in enumerate(attach)
        ]
        self.stats.shard_jobs = dict.fromkeys(range(len(self.shards)), 0)
        self._next_token = 0
        self._stopping = False

    # -- worker fleet -------------------------------------------------------
    async def _spawn(self, shard: _Shard) -> None:
        """Start (or restart) a managed shard's ``repro serve`` process.
        The worker warms its caches from the shared tier during engine
        construction — before it binds its socket — so connectability
        implies a warm process."""
        shard.socket_path = os.path.join(
            self.worker_dir, f"engine-{shard.index}.sock"
        )
        if os.path.exists(shard.socket_path):
            os.unlink(shard.socket_path)
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--socket", shard.socket_path, *self.worker_args,
        ]
        shard.process = await asyncio.create_subprocess_exec(
            *argv, stdout=asyncio.subprocess.DEVNULL,
        )
        _LOG.info(
            "shard %d: spawned worker pid %d on %s",
            shard.index, shard.process.pid, shard.socket_path,
        )

    async def _connect(self, shard: _Shard) -> None:
        """Wait for the shard's socket to accept, then wire the reader
        and writer pumps."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.boot_timeout
        while True:
            if (
                shard.process is not None
                and shard.process.returncode is not None
            ):
                raise EngineError(
                    f"shard {shard.index}: worker exited with "
                    f"{shard.process.returncode} before accepting"
                )
            try:
                shard.reader, shard.writer = await asyncio.open_unix_connection(
                    shard.socket_path
                )
                break
            except (ConnectionError, OSError):
                if loop.time() >= deadline:
                    raise EngineError(
                        f"shard {shard.index}: worker socket "
                        f"{shard.socket_path} not accepting after "
                        f"{self.boot_timeout:.0f}s"
                    ) from None
                await asyncio.sleep(0.05)
        shard.alive = True
        shard.out_queue = asyncio.Queue()
        shard.reader_task = asyncio.create_task(self._shard_read_loop(shard))
        # a write error ends the pump; the reader loop sees the same death
        # and redistributes shard.inflight, unsent payloads included
        shard.writer_task = asyncio.create_task(
            write_records(shard.out_queue, shard.writer, keep_draining=False)
        )

    async def _start_shard(self, shard: _Shard) -> None:
        if shard.managed:
            await self._spawn(shard)
        await self._connect(shard)

    # -- shard responses ----------------------------------------------------
    async def _shard_read_loop(self, shard: _Shard) -> None:
        try:
            while True:
                line = await shard.reader.readline()
                if not line:
                    break
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    _LOG.error(
                        "shard %d: unparseable response line", shard.index
                    )
                    continue
                if not isinstance(record, dict):
                    continue
                self._absorb(shard, record)
        except (ConnectionError, OSError):
            pass
        finally:
            if not self._stopping:
                await self._shard_down(shard)

    def _absorb(self, shard: _Shard, record: dict[str, Any]) -> None:
        """Fan one worker response back to its client — exactly once:
        the token mapping pops on first arrival, repeats drop."""
        token = record.get("id")
        pending = shard.inflight.pop(token, None) if token is not None else None
        if pending is None:
            return
        if record.get("status") == "retry":
            # worker backpressure: the engine shed the job unexecuted.
            # The front door owns delivery — requeue after a beat (the
            # shard drains between reads) instead of surfacing the shed
            # to the client.
            self.stats.sheds_requeued += 1
            asyncio.get_running_loop().call_later(
                0.05, self._route, token, pending
            )
            return
        record["id"] = pending.response_id
        self.stats.results_returned += 1
        pending.conn.answer(record)

    async def _shard_down(self, shard: _Shard) -> None:
        """Handle a dead shard: restart the worker (managed shards, up to
        ``max_restarts``), then re-dispatch its in-flight jobs exactly
        once — a job that already burned its retry gets an error
        response."""
        if not shard.alive:
            return
        shard.alive = False
        orphans = shard.inflight
        shard.inflight = {}
        if shard.writer is not None:
            shard.writer.close()
        if (
            shard.managed and not self._stopping
            and shard.restarts < self.max_restarts
        ):
            shard.restarts += 1
            self.stats.restarts += 1
            _LOG.warning(
                "shard %d: worker died with %d jobs in flight; restarting "
                "(%d/%d)", shard.index, len(orphans), shard.restarts,
                self.max_restarts,
            )
            try:
                await self._start_shard(shard)
            except EngineError as error:
                _LOG.error("shard %d: restart failed: %s", shard.index, error)
        elif orphans:
            _LOG.error(
                "shard %d: down for good with %d jobs in flight",
                shard.index, len(orphans),
            )
        for token, pending in orphans.items():
            if pending.retried or not any(s.alive for s in self.shards):
                self._fail(pending, "engine worker died twice on this job"
                           if pending.retried else "no live engine workers")
                continue
            pending.retried = True
            self.stats.retried_jobs += 1
            self._dispatch(token, pending)

    def _route(self, token: str, pending: _Pending) -> None:
        try:
            self._dispatch(token, pending)
        except EngineError as error:
            self._fail(pending, str(error))

    def _fail(self, pending: _Pending, message: str) -> None:
        self.stats.failed_jobs += 1
        pending.conn.answer({
            "id": pending.response_id, "status": "error", "error": message,
        })

    # -- routing ------------------------------------------------------------
    def _shard_key(self, schema: str | None) -> str:
        if schema is None:
            return NO_SCHEMA_KEY
        # a registered name maps to its content fingerprint; an unknown
        # reference (raw fingerprint, or a name only workers know) still
        # hashes deterministically
        return self._fingerprints.get(schema, schema)

    def _dispatch(self, token: str, pending: _Pending) -> None:
        index, spilled = pick_shard(
            self._shard_key(pending.payload.get("schema")),
            [shard.depth for shard in self.shards],
            self.spill_depth,
            alive=[shard.alive for shard in self.shards],
        )
        shard = self.shards[index]
        if spilled:
            self.stats.spills += 1
        shard.inflight[token] = pending
        self.stats.shard_jobs[index] += 1
        shard.out_queue.put_nowait(pending.payload)

    def _admit(self, conn: Connection, job: Job) -> None:
        self._next_token += 1
        token = f"r{self._next_token}"
        payload: dict[str, Any] = {"query": job.query_text, "id": token}
        if job.schema is not None:
            payload["schema"] = job.schema
        conn.inflight += 1
        self.stats.jobs_routed += 1
        self._route(token, _Pending(conn, response_id(job), payload))

    # -- lifecycle ----------------------------------------------------------
    async def _start(self) -> None:
        if any(shard.managed for shard in self.shards):
            if self.worker_dir is None:
                self.worker_dir = tempfile.mkdtemp(prefix="repro-route-")
            else:
                os.makedirs(self.worker_dir, exist_ok=True)
        try:
            # boot the whole fleet before binding the client endpoint:
            # cache warming happens inside each worker's engine
            # construction, so "router accepts" == "no cold planners"
            await asyncio.gather(
                *(self._start_shard(shard) for shard in self.shards)
            )
        except EngineError:
            await self._stop_workers()
            raise
        _LOG.info(
            "routing across %d shards (spill_depth=%d)",
            len(self.shards), self.spill_depth,
        )

    async def _stop(self) -> None:
        # each client handler waited for its jobs' answers, so no shard
        # holds a routed job any more
        await self._stop_workers()
        if self.metrics_out is not None:
            self._write_metrics()
        _LOG.info(
            "drained and closed (%d jobs over %d connections, "
            "%d shards used)", self.stats.jobs_routed,
            self.stats.connections_total, self.stats.shards_used(),
        )

    async def _stop_workers(self) -> None:
        self._stopping = True
        for shard in self.shards:
            for task in (shard.reader_task, shard.writer_task):
                if task is not None:
                    task.cancel()
            if shard.writer is not None:
                shard.writer.close()
            shard.alive = False
        for shard in self.shards:
            process = shard.process
            if process is None or process.returncode is not None:
                continue
            # SIGTERM: the worker drains and snapshots the shared tier
            try:
                process.terminate()
            except ProcessLookupError:
                continue
            try:
                await asyncio.wait_for(process.wait(), timeout=30.0)
            except asyncio.TimeoutError:
                _LOG.error(
                    "shard %d: worker pid %d ignored SIGTERM; killing",
                    shard.index, process.pid,
                )
                process.kill()
                await process.wait()

    def metrics_registry(self) -> MetricsRegistry:
        self.stats.shard_depth = {shard.index: shard.depth for shard in self.shards}
        registry = MetricsRegistry()
        self.stats.register_metrics(registry)
        return registry

    def _write_metrics(self) -> None:
        try:
            _atomic_write_text(
                self.metrics_out,
                self.metrics_registry().render_prometheus(),
            )
        except OSError as error:
            _LOG.error("metrics write to %s failed: %s", self.metrics_out, error)
