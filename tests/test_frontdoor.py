"""Tests for the JSONL front door shared by ``serve`` and ``route``
(:mod:`repro.engine.frontdoor`).

Every protocol case runs against both front ends.  The partial-failure
case drives real sockets in one event loop: a serve daemon over an
engine that fails part-way through a batch, reached directly and
through a router attached to it.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import pytest

from repro.engine import BatchEngine, EngineRouter, EngineServer, Job, SchemaRegistry
from repro.errors import EngineError

DTD_TEXT = """
root r
r -> A, (B + C)
A -> eps
B -> eps
C -> eps
"""

FRONT_DOORS = ["serve", "route"]


def _engine(engine_class=BatchEngine) -> BatchEngine:
    registry = SchemaRegistry()
    registry.register("catalog", DTD_TEXT)
    return engine_class(registry=registry)


@pytest.fixture
def engines():
    """Engines built by a test, closed afterwards."""
    built: list[BatchEngine] = []
    yield built
    for engine in built:
        if not engine.closed:
            engine.close()


def _front_door(kind: str, engines: list, **endpoint):
    if kind == "serve":
        engines.append(_engine())
        return EngineServer(engines[-1], **endpoint)
    door = EngineRouter(workers=2, **endpoint)
    for shard in door.shards:     # never started: dispatch runs synchronously
        shard.alive = True
    return door


@pytest.mark.parametrize("kind", FRONT_DOORS)
class TestProtocol:
    def test_requires_exactly_one_endpoint(self, kind, engines):
        with pytest.raises(EngineError, match=f"{kind} needs exactly one endpoint"):
            _front_door(kind, engines)
        with pytest.raises(EngineError, match="exactly one endpoint"):
            _front_door(kind, engines, socket_path="x.sock", port=7000)

    def test_invalid_line_gets_error_response(self, kind, engines):
        door = _front_door(kind, engines, port=0)
        conn = door.connection_class(1)
        door._ingest(conn, b'{"query": 5}\n')
        record = conn.out_queue.get_nowait()
        assert record["status"] == "error" and "id" not in record
        assert door.stats.invalid_lines == 1
        assert conn.inflight == 0       # never admitted, nothing in flight
        assert conn.out_queue.empty()

    def test_blank_and_comment_lines_are_ignored(self, kind, engines):
        door = _front_door(kind, engines, port=0)
        conn = door.connection_class(1)
        door._ingest(conn, b"\n")
        door._ingest(conn, b"# a comment\n")
        assert conn.out_queue.empty()
        assert conn.inflight == 0
        assert door.stats.invalid_lines == 0


class _FailingEngine(BatchEngine):
    """Decides jobs one at a time, streaming each result; query ``slow``
    holds the engine for a moment (answered as ``A``) and query ``fail``
    raises, failing the rest of its batch."""

    def run(self, jobs, on_result=None):
        for job in map(Job.coerce, jobs):
            if job.query_text == "fail":
                raise EngineError("injected mid-batch failure")
            if job.query_text == "slow":
                time.sleep(0.5)
                job = Job("A", job.schema, job.id)
            super().run([job], on_result)


async def _exchange(sock: str, batches: list[list[dict]]) -> list[dict]:
    """Send each batch of job lines as one write (0.2s apart), then read
    one response per job."""
    reader, writer = await asyncio.open_unix_connection(sock)
    for batch in batches:
        writer.write(b"".join(json.dumps(job).encode() + b"\n" for job in batch))
        await writer.drain()
        await asyncio.sleep(0.2)
    count = sum(len(batch) for batch in batches)
    records = [
        json.loads(await asyncio.wait_for(reader.readline(), 30))
        for _ in range(count)
    ]
    writer.close()
    await writer.wait_closed()
    return records


@pytest.mark.parametrize("kind", FRONT_DOORS)
def test_partial_batch_failure_answers_every_job_by_id(kind, engines, tmp_path):
    # "slow" occupies the engine while the next three jobs arrive, so
    # they dispatch as one batch that streams "ok-1" and then fails
    batches = [
        [{"query": "slow", "schema": "catalog", "id": "slow"}],
        [
            {"query": "A", "schema": "catalog", "id": "ok-1"},
            {"query": "fail", "schema": "catalog", "id": "bad"},
            {"query": "B", "schema": "catalog", "id": "victim"},
        ],
    ]

    async def scenario() -> list[dict]:
        engines.append(_engine(_FailingEngine))
        serve_sock = str(tmp_path / "serve.sock")
        server = EngineServer(engines[-1], socket_path=serve_sock)
        doors = [server]
        if kind == "route":
            doors.append(EngineRouter(
                attach=[serve_sock], socket_path=str(tmp_path / "route.sock"),
            ))
        tasks = []
        for door in doors:
            ready = asyncio.Event()
            door.on_ready = lambda _door, ready=ready: ready.set()
            tasks.append(asyncio.create_task(door.serve_forever()))
            await asyncio.wait_for(ready.wait(), 30)
        try:
            return await _exchange(doors[-1].socket_path, batches)
        finally:
            for door, task in reversed(list(zip(doors, tasks))):
                door.request_shutdown()
                await asyncio.wait_for(task, 30)

    records = asyncio.run(scenario())
    by_id = {record["id"]: record for record in records}
    assert sorted(by_id) == ["bad", "ok-1", "slow", "victim"]   # once each
    assert by_id["slow"]["satisfiable"] is True
    assert by_id["ok-1"]["satisfiable"] is True
    for job_id in ("bad", "victim"):
        assert by_id[job_id]["status"] == "error"
        assert "injected mid-batch failure" in by_id[job_id]["error"]
    assert not os.path.exists(str(tmp_path / "serve.sock"))
