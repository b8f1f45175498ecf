"""The JSONL front door shared by ``repro serve`` and ``repro route``.

Both daemons speak the batch engine's JSONL job format over a unix
socket or a TCP port:

* client → daemon: one job object per line (``{"query": ..., "schema":
  ..., "id": ...}``; ``schema``/``id`` optional, blank lines and ``#``
  comments ignored) — byte-compatible with ``repro batch`` input files;
* daemon → client: one JSON object per line, streamed **as each job's
  verdict lands** (not in input order — match by ``id``, which defaults
  to the query text).  A normal result record
  (:meth:`~repro.engine.batch.JobResult.to_record`), a ``{"id": ...,
  "status": "retry", "error": ...}`` shed (resubmit later), a ``{"id":
  ..., "status": "error", "error": ...}`` for an admitted job that
  failed, or a ``{"status": "error", "error": ...}`` for a line that
  was not a valid job record (never executed, nothing in flight).

:class:`FrontDoor` owns everything about that transport: endpoint
validation, unix/TCP bind (stale-socket removal, unlink on exit),
SIGTERM/SIGINT handling, the per-connection read loop that races
``readline`` against shutdown, line decoding, the writer loop, the
connection counters, and the graceful drain.  A front end supplies the
four hooks at the top of the class: ``_admit``, ``_answer``, ``_start``
and ``_stop``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal as signal_module
from typing import Any, Callable

from repro.engine.batch import Job
from repro.engine.jobs import parse_job_line
from repro.errors import EngineError
from repro.obs.log import get_logger


async def write_records(queue: asyncio.Queue, writer, *, keep_draining: bool) -> None:
    """Write each queued record as one protocol line until a ``None``
    sentinel.  On a write error, stop — or with ``keep_draining`` keep
    consuming, so queued records drain into the void."""
    while True:
        record = await queue.get()
        if record is None:
            return
        try:
            writer.write((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
            await writer.drain()
        except (ConnectionError, OSError):
            if not keep_draining:
                return


def response_id(job: Job) -> str:
    """The id a job's response carries: the client's, else the query."""
    return job.id if job.id is not None else job.query_text


class Connection:
    """Per-client state: the outbound record queue, admitted jobs not
    yet answered, and whether the client stopped sending."""

    def __init__(self, conn_id: int) -> None:
        self.conn_id = conn_id
        self.out_queue: asyncio.Queue = asyncio.Queue()
        self.inflight = 0
        self.eof = False
        self.drained = asyncio.Event()

    def answer(self, record: dict[str, Any]) -> None:
        """Queue the one response of an admitted job."""
        self.inflight -= 1
        self.out_queue.put_nowait(record)
        self.kick()

    def kick(self) -> None:
        """Re-check for drain (after an answer, and at EOF)."""
        if self.eof and self.inflight == 0:
            self.drained.set()


class FrontDoor:
    """The asyncio JSONL transport; subclasses set ``command``,
    ``connection_class`` and ``stats`` (with ``connections_total``,
    ``connections_active`` and ``invalid_lines``) and implement the four
    hooks below.  Logs go to the subclass's module logger.

    ``on_ready`` (optional) is called with the front end once the
    endpoint is bound and listening."""

    command: str
    connection_class = Connection

    def __init__(
        self,
        *,
        socket_path: str | None,
        host: str,
        port: int | None,
        on_ready: Callable[[Any], None] | None,
    ) -> None:
        if (socket_path is None) == (port is None):
            raise EngineError(
                f"{self.command} needs exactly one endpoint: "
                "--socket PATH or --port N"
            )
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.on_ready = on_ready
        self._log = get_logger(type(self).__module__)
        self.endpoint: str | None = None
        self._shutdown: asyncio.Future | None = None
        self._client_tasks: set = set()
        self._next_conn_id = 0

    # -- hooks --------------------------------------------------------------
    def _admit(self, conn: Connection, job: Job) -> None:
        """Take one decoded job: count it in ``conn.inflight`` and answer
        it exactly once through ``conn.answer``."""
        raise NotImplementedError

    async def _answer(self, conn: Connection) -> None:
        """Run for the connection's life; return once the client stopped
        sending and every admitted job was answered."""
        await conn.drained.wait()

    async def _start(self) -> None:
        """Runs before the endpoint binds."""

    async def _stop(self) -> None:
        """Runs after every client has drained."""

    # -- entry points -------------------------------------------------------
    def run(self) -> int:
        """Blocking entry point (the CLI): serve until SIGTERM/SIGINT,
        then drain and exit 0."""
        asyncio.run(self.serve_forever())
        return 0

    def request_shutdown(self, reason: str = "request") -> None:
        """Begin a graceful drain (idempotent; also the signal handler)."""
        if self._shutdown is not None and not self._shutdown.done():
            self._log.warning("received %s: draining and shutting down", reason)
            self._shutdown.set_result(reason)

    async def serve_forever(self) -> None:
        loop = asyncio.get_running_loop()
        self._shutdown = loop.create_future()
        for signum in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self.request_shutdown,
                    signal_module.Signals(signum).name,
                )
            except (NotImplementedError, RuntimeError):
                # non-main thread or platform without signal support
                # (e.g. an embedded test loop): shutdown comes from
                # request_shutdown() instead
                pass
        await self._start()
        server = None
        try:
            server = await self._bind()
            self._log.info("%s listening on %s", self.command, self.endpoint)
            if self.on_ready is not None:
                self.on_ready(self)
            await self._shutdown
        finally:
            if server is not None:
                server.close()
                await server.wait_closed()
            # graceful drain: every client handler finishes its admitted
            # jobs and streams their results before the stop hook runs
            if self._client_tasks:
                await asyncio.gather(
                    *list(self._client_tasks), return_exceptions=True
                )
            try:
                await self._stop()
            finally:
                if self.socket_path is not None:
                    with contextlib.suppress(OSError):
                        os.unlink(self.socket_path)

    async def _bind(self):
        if self.socket_path is None:
            server = await asyncio.start_server(
                self._client, host=self.host, port=self.port
            )
            self.port = server.sockets[0].getsockname()[1]
            self.endpoint = f"{self.host}:{self.port}"
            return server
        if os.path.exists(self.socket_path):
            # a stale socket from a crashed predecessor would fail the
            # bind; a *live* predecessor loses the path — same rule every
            # unix-socket daemon applies
            self._log.warning("removing stale socket %s", self.socket_path)
            os.unlink(self.socket_path)
        server = await asyncio.start_unix_server(
            self._client, path=self.socket_path
        )
        self.endpoint = f"unix:{self.socket_path}"
        return server

    # -- per-connection machinery -------------------------------------------
    async def _client(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._client_tasks.add(task)
        self._next_conn_id += 1
        conn = self.connection_class(self._next_conn_id)
        self.stats.connections_total += 1
        self.stats.connections_active += 1
        # a client that went away mid-stream still has its results
        # consumed, so every admitted job drains
        writer_task = asyncio.create_task(
            write_records(conn.out_queue, writer, keep_draining=True)
        )
        answer_task = asyncio.create_task(self._answer(conn))
        try:
            await self._read_loop(conn, reader)
        finally:
            conn.eof = True
            conn.kick()
            try:
                await answer_task
            finally:
                await conn.out_queue.put(None)
                try:
                    await writer_task
                finally:
                    self.stats.connections_active -= 1
                    self._client_tasks.discard(task)
                    writer.close()
                    with contextlib.suppress(ConnectionError, OSError):
                        await writer.wait_closed()

    async def _read_loop(self, conn: Connection, reader) -> None:
        """Ingest lines until client EOF or shutdown (on shutdown the
        connection stops *reading* but its admitted jobs still drain)."""
        while True:
            read = asyncio.ensure_future(reader.readline())
            done, _ = await asyncio.wait(
                {read, self._shutdown}, return_when=asyncio.FIRST_COMPLETED
            )
            if read not in done:
                read.cancel()
                with contextlib.suppress(
                    asyncio.CancelledError, ConnectionError, OSError
                ):
                    await read
                return
            try:
                line = read.result()
            except (ConnectionError, OSError):
                return
            if not line:
                return
            self._ingest(conn, line)

    def _ingest(self, conn: Connection, line: bytes) -> None:
        text = line.decode("utf-8", "replace").strip()
        if not text or text.startswith("#"):
            return
        try:
            job = parse_job_line(text)
        except EngineError as error:
            self.stats.invalid_lines += 1
            conn.out_queue.put_nowait({"status": "error", "error": str(error)})
            return
        self._admit(conn, job)
