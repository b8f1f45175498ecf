"""Execution layer: persistent worker runtimes behind one abstraction.

The plan-grouped scheduler makes heavy jobs cheap *within* a chunk
— ``DeciderSpec.prepare`` contexts are shared by groupmates — but on a
stateless ``ProcessPoolExecutor`` task the Glushkov NFAs, termination
fixpoints, and word tables of a schema would be rebuilt whenever its
*next* chunk arrived.  Real DTD workloads concentrate on a few recurring
schemas (Ishihara et al., arXiv:1308.0769), which makes the schema the
natural long-lived unit of work.

Every chunk :class:`~repro.engine.batch.BatchEngine` dispatches goes
through one :class:`Executor` abstraction with two implementations:

* :class:`InlineExecutor` — runs chunks in-process (``workers == 1``),
  holding one :class:`WorkerRuntime` for the engine's lifetime, so the
  second chunk of a schema reuses the first chunk's prepared contexts
  (the engine's inline PTIME decides draw on the same runtime);
* :class:`PersistentPoolExecutor` — a pool of long-lived worker
  *lanes* (one process each), every lane owning a :class:`WorkerRuntime`
  that caches DTDs and prepared :class:`~repro.sat.planner.PlanContexts`
  keyed by schema fingerprint **across chunks** — and, because the pool
  itself is engine-lifetime, across
  :meth:`~repro.engine.batch.BatchEngine.run` calls.  The scheduler routes a
  chunk to a lane by schema-fingerprint affinity (a consistent hash,
  spilling to the least-loaded lane when the preferred lane's queue is
  deep), ships the DTD to a lane only on first touch instead of pickling
  it per chunk, and survives worker death by respawning the lane with a
  cold runtime and retrying its in-flight chunks once.

Affinity is a *scheduling* feature: with ``affinity=False`` the same
lanes run statelessly (least-loaded routing, a fresh context per chunk,
the DTD shipped every time), kept as the benchmark baseline
(``benchmarks/bench_worker_affinity.py``) and as an escape hatch.
Either way verdicts, decision-cache contents, and telemetry verdict
mixes are bit-identical: runtimes cache *pure* setup, never answers
(``tests/test_metamorphic.py``).
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Iterator, Protocol, runtime_checkable

from repro.errors import EngineError
from repro.obs.log import get_logger
from repro.sat.planner import ExecutionTrace, Plan, PlanContexts, execute_plan

_LOG = get_logger("repro.engine.executors")

#: one outcome per question in a chunk: (satisfiable, method, reason,
#: error-or-None, trace attempts)
GroupOutcome = tuple[bool | None, str, str, str | None, list[tuple[str, float, str]]]

#: scheduler tunable defaults (see :class:`repro.engine.batch.BatchEngine`)
DEFAULT_LANE_QUEUE_DEPTH = 4


@dataclass(frozen=True)
class ChunkTask:
    """One unit of executor work: a chunk of pre-canonicalized questions
    sharing a plan and a schema (one :class:`~repro.engine.batch.PlanGroup`
    chunk — the only shape heavy work reaches an executor in)."""

    task_id: int
    fingerprint: str | None
    canonicals: tuple
    plan: Plan
    bounds: Any = None


@dataclass
class ChunkOutcome:
    """What came back for one :class:`ChunkTask`.

    ``error`` is a whole-chunk failure (the lane died and its one retry
    died too); otherwise ``outcomes`` has one entry per question.
    ``runtime_hit`` means the lane served the chunk from an
    already-prepared runtime context (the cross-chunk cache paid off);
    the remaining flags record how the scheduler placed the chunk.
    """

    outcomes: list[GroupOutcome] = field(default_factory=list)
    shared_setup: bool = False
    prepare_error: str | None = None
    runtime_hit: bool = False
    lane: int = -1
    dtd_shipped: bool = False
    spilled: bool = False
    retried: bool = False
    error: str | None = None
    # lane-side observability, reassembled into parent-side spans and
    # lane-health gauges: wall time executing the chunk, wall time inside
    # prepare() hooks during this chunk, and the runtime's context-cache
    # occupancy / lifetime evictions after the chunk ran
    elapsed_ms: float = 0.0
    prepare_ms: float = 0.0
    runtime_contexts: int = 0
    runtime_evictions: int = 0


@dataclass
class ExecutorStats:
    """Lifetime counters of one executor (per-run deltas live on
    :class:`~repro.engine.batch.EngineStats`, fed from chunk outcomes)."""

    lanes: int = 0
    dispatched: int = 0
    dtd_ships: int = 0
    affinity_spills: int = 0
    runtime_context_hits: int = 0
    lane_respawns: int = 0
    chunk_retries: int = 0
    #: deepest in-flight queue each lane reached (lane-health gauge)
    lane_peak_depth: dict[int, int] = field(default_factory=dict)


@runtime_checkable
class Executor(Protocol):
    """The engine's execution contract: submit chunks, then drain.

    ``submit`` may be interleaved with work; ``drain`` yields every
    outstanding ``(task, outcome)`` pair (order unspecified) and returns
    once nothing is in flight.  ``close`` releases workers; a closed
    executor must not be reused.
    """

    def submit(self, task: ChunkTask, dtd) -> None: ...

    def drain(self) -> Iterator[tuple[ChunkTask, ChunkOutcome]]: ...

    def stats(self) -> ExecutorStats: ...

    def close(self) -> None: ...


class WorkerRuntime:
    """Per-worker state that outlives a single chunk.

    Caches the schemas a lane has been shipped (``fingerprint -> DTD``)
    and the prepared decider contexts per (fingerprint × plan telemetry
    key), so the N-th chunk of a schema skips ``prepare`` entirely.  The
    caches hold *pure* setup — Glushkov automata, termination fixpoints,
    word tables — never verdicts, so a warm runtime cannot change an
    answer (differential-checked).  With ``caching=False`` the runtime
    is stateless: fresh contexts per chunk, nothing retained.

    The context cache (the heavy objects) is LRU-bounded at
    ``context_capacity`` (fingerprint × plan) entries, so a worker that
    sees an endless stream of distinct schemas cannot grow without
    limit; an evicted entry is simply rebuilt on its next chunk.  The
    DTD map is kept in full — the parent tracks which schemas it
    shipped to a lane and never re-ships, so evicting a DTD would turn
    its next chunk into an error (see the module ROADMAP note on a
    shared budget).
    """

    DEFAULT_CONTEXT_CAPACITY = 128

    def __init__(self, caching: bool = True, context_capacity: int | None = None):
        capacity = (
            context_capacity if context_capacity is not None
            else self.DEFAULT_CONTEXT_CAPACITY
        )
        if capacity < 1:
            raise EngineError(
                f"context_capacity must be positive, got {capacity}"
            )
        self.caching = caching
        self.context_capacity = capacity
        self._dtds: dict[str, Any] = {}
        self._contexts: "OrderedDict[tuple[str, str], PlanContexts]" = (
            OrderedDict()
        )
        self.context_hits = 0
        self.context_misses = 0
        self.context_evictions = 0

    @property
    def schemas(self) -> int:
        return len(self._dtds)

    def adopt_schema(self, fingerprint: str, dtd) -> None:
        if self.caching and fingerprint is not None and dtd is not None:
            self._dtds[fingerprint] = dtd

    def resolve_dtd(self, fingerprint: str | None, dtd):
        if dtd is not None:
            self.adopt_schema(fingerprint, dtd)
            return dtd
        if fingerprint is not None:
            return self._dtds.get(fingerprint)
        return None

    def contexts_for(
        self, fingerprint: str | None, plan: Plan, dtd
    ) -> tuple[PlanContexts, bool]:
        """The shared contexts of (schema × plan) and whether they were
        already warm (a runtime hit).  Only work against a fingerprinted
        schema is worth caching across chunks and jobs — a no-DTD plan
        has no ``prepare`` work to share."""
        if self.caching and fingerprint is not None:
            key = (fingerprint, plan.telemetry_key)
            contexts = self._contexts.get(key)
            if contexts is not None:
                self.context_hits += 1
                self._contexts.move_to_end(key)
                return contexts, contexts.built > 0
            contexts = PlanContexts(plan, dtd)
            self._contexts[key] = contexts
            self.context_misses += 1
            while len(self._contexts) > self.context_capacity:
                self._contexts.popitem(last=False)
                self.context_evictions += 1
            return contexts, False
        return PlanContexts(plan, dtd), False

    def evict_failed(
        self, fingerprint: str | None, plan: Plan, contexts: PlanContexts
    ) -> None:
        """Evict the entry if its ``prepare`` failed: the failure is
        memoized only for the chunk (or inline job) that hit it, so the
        next one retries instead of degrading this schema × plan to
        per-job setup for the runtime's whole lifetime."""
        if contexts.prepare_error is not None:
            self._contexts.pop((fingerprint, plan.telemetry_key), None)

    def run_chunk(self, task: ChunkTask, dtd=None) -> ChunkOutcome:
        """Decide every question in ``task`` (the chunk semantics of the
        plan-grouped scheduler: shared lazy contexts, one question's
        failure never poisons its groupmates).  Every outcome carries
        the lane-side observability fields — chunk wall time, prepare
        time, and the runtime's context-cache health — so the parent can
        reassemble spans and lane gauges without extra IPC."""
        start = time.perf_counter()
        outcome = self._run_chunk_inner(task, dtd)
        outcome.elapsed_ms = (time.perf_counter() - start) * 1e3
        outcome.runtime_contexts = len(self._contexts)
        outcome.runtime_evictions = self.context_evictions
        return outcome

    def _run_chunk_inner(self, task: ChunkTask, dtd) -> ChunkOutcome:
        dtd = self.resolve_dtd(task.fingerprint, dtd)
        if task.fingerprint is not None and dtd is None:
            # the parent thought this lane had the schema but the runtime
            # is cold (e.g. a respawned lane handed a ship-less retry);
            # surfacing a chunk error lets the engine fail it cleanly
            return ChunkOutcome(
                error=f"lane runtime has no schema {task.fingerprint[:12]}"
            )
        contexts, runtime_hit = self.contexts_for(
            task.fingerprint, task.plan, dtd
        )
        prepare_ms_before = contexts.prepare_ms
        # build the primary's context eagerly: every question runs it, and
        # a failing prepare should be visible even if the first question
        # errors.  shared_setup is pinned here — a fallback context built
        # mid-chunk must not retroactively count earlier questions as
        # setup reuses
        contexts.get(task.plan.decider)
        shared_setup = contexts.built > 0
        outcomes = [
            self._run_question(task, canonical, dtd, contexts=contexts)
            for canonical in task.canonicals
        ]
        self.evict_failed(task.fingerprint, task.plan, contexts)
        return ChunkOutcome(
            outcomes=outcomes,
            shared_setup=shared_setup,
            prepare_error=contexts.prepare_error,
            runtime_hit=runtime_hit and shared_setup,
            prepare_ms=contexts.prepare_ms - prepare_ms_before,
        )

    def _run_question(self, task: ChunkTask, canonical, dtd, contexts) -> GroupOutcome:
        trace = ExecutionTrace()
        try:
            result = execute_plan(
                task.plan, canonical, dtd, task.bounds,
                pre_canonicalized=True, trace=trace, contexts=contexts,
            )
        except Exception as error:
            # any exception — decline with no fallback, or a latent
            # decider bug — fails only this question
            return (None, "error", "", str(error), trace.attempts)
        return (
            result.satisfiable, result.method, result.reason, None,
            trace.attempts,
        )


class InlineExecutor:
    """In-process :class:`Executor` for single-worker engines.

    Chunks queue on ``submit`` and execute lazily during ``drain`` (the
    single-worker engine has nothing to overlap them with).  The runtime
    lives as long as the executor — which the engine keeps for its own
    lifetime — so chunk N of a schema reuses chunk 1's contexts even
    across separate :meth:`~repro.engine.batch.BatchEngine.run` calls.
    The engine's inline decides use ``runtime`` directly (for any
    ``workers``), without submitting chunks.
    """

    def __init__(self, affinity: bool = True):
        self.affinity = affinity
        self.runtime = WorkerRuntime(caching=affinity)
        self._queue: list[tuple[ChunkTask, Any]] = []
        self._stats = ExecutorStats(lanes=0)
        self._closed = False

    def submit(self, task: ChunkTask, dtd) -> None:
        if self._closed:
            raise EngineError("inline executor already closed")
        self._queue.append((task, dtd))
        self._stats.dispatched += 1

    def drain(self) -> Iterator[tuple[ChunkTask, ChunkOutcome]]:
        if self._closed:
            raise EngineError("inline executor already closed")
        while self._queue:
            task, dtd = self._queue.pop(0)
            outcome = self.runtime.run_chunk(task, dtd)
            outcome.lane = 0
            if outcome.runtime_hit:
                self._stats.runtime_context_hits += 1
            yield task, outcome

    def cancel_pending(self) -> int:
        """Drop queued-but-unexecuted chunks (exception recovery: a chunk
        submitted for a run that aborted must not leak into the next)."""
        dropped = len(self._queue)
        self._queue.clear()
        return dropped

    def stats(self) -> ExecutorStats:
        return self._stats

    def close(self) -> None:
        self._queue.clear()
        self._closed = True


def _worker_main(lane_id: int, caching: bool, requests, results) -> None:
    """Lane entry point: loop over chunk requests until the ``None``
    sentinel, keeping one :class:`WorkerRuntime` alive across chunks."""
    runtime = WorkerRuntime(caching=caching)
    while True:
        message = requests.get()
        if message is None:
            break
        task, dtd = message
        try:
            outcome = runtime.run_chunk(task, dtd)
        except BaseException as error:  # never let a lane die silently
            outcome = ChunkOutcome(error=f"{type(error).__name__}: {error}")
        try:
            results.put((lane_id, task.task_id, outcome))
        except Exception:
            break  # parent gone; nothing sensible left to do


@dataclass
class _InFlight:
    task: ChunkTask
    dtd: Any            # kept parent-side so a retry can re-ship it
    attempts: int = 1
    dtd_shipped: bool = False
    spilled: bool = False


class _Lane:
    """One persistent worker process plus its parent-side bookkeeping.

    The process forks lazily on the lane's first ``send`` — routing is
    over lane *slots* (so the consistent hash is stable regardless of
    which lanes are live), but a light run that only ever touches one
    lane pays for one fork, not ``workers``.
    """

    def __init__(self, lane_id: int, ctx, caching: bool, results) -> None:
        self.lane_id = lane_id
        self._ctx = ctx
        self._caching = caching
        self._results = results
        self.requests = None
        self.process = None
        self.shipped: set[str] = set()
        self.in_flight: dict[int, _InFlight] = {}

    @property
    def depth(self) -> int:
        return len(self.in_flight)

    @property
    def started(self) -> bool:
        return self.process is not None

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def ensure_started(self) -> None:
        if self.process is None:
            self.requests = self._ctx.Queue()
            self.process = self._ctx.Process(
                target=_worker_main,
                args=(self.lane_id, self._caching, self.requests,
                      self._results),
                daemon=True,
            )
            self.process.start()
            _LOG.debug("lane %d forked (pid %s)", self.lane_id, self.process.pid)

    def send(self, entry: _InFlight, ship_always: bool) -> None:
        self.ensure_started()
        task = entry.task
        dtd = None
        if entry.dtd is not None:
            if task.fingerprint is None:
                dtd = entry.dtd
            elif ship_always or task.fingerprint not in self.shipped:
                # record the ship either way: after a recovery retry
                # force-ships a schema, the lane's runtime holds it, so
                # later affinity-routed chunks must not re-pickle it
                dtd = entry.dtd
                self.shipped.add(task.fingerprint)
        entry.dtd_shipped = dtd is not None
        self.in_flight[task.task_id] = entry
        self.requests.put((task, dtd))

    def stop(self) -> None:
        if self.process is None:
            return
        try:
            self.requests.put(None)
        except Exception:
            pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
        self.requests.close()
        self.requests.cancel_join_thread()


class PersistentPoolExecutor:
    """Process-pool :class:`Executor` with schema-affinity lanes.

    Routing: a chunk's affinity key (schema fingerprint, or the plan's
    telemetry key for no-DTD chunks) hashes to a *preferred* lane, so
    every chunk of one schema keeps landing on the same worker and finds
    its runtime caches warm.  When the preferred lane's queue is already
    ``lane_queue_depth`` deep and another lane is strictly shallower,
    the chunk spills to the least-loaded lane — affinity is a
    preference, not a straitjacket (a skewed workload must not serialize
    behind one hot lane).

    Fault tolerance: a lane that dies (killed worker, hard crash in C
    code) is respawned with a cold runtime and each of its in-flight
    chunks is retried **once**; a chunk whose retry also dies comes back
    as a whole-chunk error, which the engine turns into per-job errors.
    """

    def __init__(
        self,
        workers: int,
        *,
        affinity: bool = True,
        lane_queue_depth: int = DEFAULT_LANE_QUEUE_DEPTH,
        mp_context=None,
    ) -> None:
        if workers < 1:
            raise EngineError(f"workers must be positive, got {workers}")
        if lane_queue_depth < 1:
            raise EngineError(
                f"lane_queue_depth must be positive, got {lane_queue_depth}"
            )
        self.affinity = affinity
        self.lane_queue_depth = lane_queue_depth
        if mp_context is None:
            try:
                mp_context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX fallback
                mp_context = multiprocessing.get_context()
        self._ctx = mp_context
        self._results = mp_context.Queue()
        self._lanes = [
            _Lane(lane_id, mp_context, affinity, self._results)
            for lane_id in range(workers)
        ]
        self._stats = ExecutorStats(lanes=workers)
        #: chunks whose retry also died, finished parent-side and waiting
        #: for drain to hand them back
        self._failed: list[tuple[ChunkTask, ChunkOutcome]] = []
        self._closed = False

    # -- routing ------------------------------------------------------------
    def _affinity_key(self, task: ChunkTask) -> str:
        return task.fingerprint or task.plan.telemetry_key

    def _route(self, task: ChunkTask) -> tuple[_Lane, bool]:
        """Pick the lane for ``task``; returns ``(lane, spilled)``."""
        least = min(self._lanes, key=lambda lane: (lane.depth, lane.lane_id))
        if not self.affinity:
            return least, False
        key = self._affinity_key(task)
        preferred = self._lanes[
            zlib.crc32(key.encode("utf-8")) % len(self._lanes)
        ]
        if (
            preferred.depth >= self.lane_queue_depth
            and least.depth < preferred.depth
        ):
            return least, True
        return preferred, False

    # -- the Executor contract ----------------------------------------------
    def submit(self, task: ChunkTask, dtd) -> None:
        if self._closed:
            raise EngineError("executor already closed")
        lane, spilled = self._route(task)
        if lane.started and not lane.alive():
            lane = self._recover(lane)
        entry = _InFlight(task=task, dtd=dtd, spilled=spilled)
        lane.send(entry, ship_always=not self.affinity)
        self._stats.dispatched += 1
        if lane.depth > self._stats.lane_peak_depth.get(lane.lane_id, 0):
            self._stats.lane_peak_depth[lane.lane_id] = lane.depth
        if spilled:
            self._stats.affinity_spills += 1
        if entry.dtd_shipped:
            self._stats.dtd_ships += 1

    def drain(self) -> Iterator[tuple[ChunkTask, ChunkOutcome]]:
        if self._closed:
            # without this guard a drain on a closed pool would spin on
            # the torn-down result queue forever
            raise EngineError("executor already closed")
        while True:
            while self._failed:
                yield self._failed.pop(0)
            if not any(lane.in_flight for lane in self._lanes):
                return
            try:
                lane_id, task_id, outcome = self._results.get(timeout=0.05)
            except queue_module.Empty:
                for lane in list(self._lanes):
                    if not lane.alive() and lane.in_flight:
                        self._recover(lane)
                continue
            entry = self._pop_in_flight(task_id)
            if entry is None:
                continue  # a retry already resolved this task
            yield self._finish(entry, lane_id, outcome)

    def _pop_in_flight(self, task_id: int) -> _InFlight | None:
        for lane in self._lanes:
            entry = lane.in_flight.pop(task_id, None)
            if entry is not None:
                return entry
        return None

    def _finish(
        self, entry: _InFlight, lane_id: int, outcome: ChunkOutcome
    ) -> tuple[ChunkTask, ChunkOutcome]:
        outcome.lane = lane_id
        outcome.dtd_shipped = entry.dtd_shipped
        outcome.spilled = entry.spilled
        outcome.retried = entry.attempts > 1
        if outcome.runtime_hit:
            self._stats.runtime_context_hits += 1
        return entry.task, outcome

    def _recover(self, lane: _Lane) -> _Lane:
        """Replace a dead lane with a cold one (same lane id, so affinity
        routing is undisturbed); retry each of its in-flight chunks once
        and finish chunks whose retry already died.

        Retries round-robin over the fresh lane and the other live lanes
        (always re-shipping the schema — the target runtime may be cold):
        a poison chunk that kills whatever lane runs it then takes down
        only itself on its second death, not the innocent chunks that
        happened to be queued behind it."""
        index = self._lanes.index(lane)
        orphans = list(lane.in_flight.values())
        _LOG.warning(
            "worker lane %d died with %d chunk(s) in flight; respawning",
            lane.lane_id, len(orphans),
        )
        lane.in_flight.clear()
        try:
            if lane.requests is not None:
                lane.requests.close()
                lane.requests.cancel_join_thread()
        except Exception:
            pass
        fresh = _Lane(lane.lane_id, self._ctx, self.affinity, self._results)
        self._lanes[index] = fresh
        self._stats.lane_respawns += 1
        targets = [fresh] + [
            other for other in self._lanes
            if other is not fresh and (other.alive() or not other.started)
        ]
        position = 0
        for entry in orphans:
            if entry.attempts >= 2:
                _LOG.error(
                    "chunk %d survived no lane (retried once, lane died "
                    "again); failing its jobs", entry.task.task_id,
                )
                self._failed.append((entry.task, ChunkOutcome(
                    lane=index, retried=True, spilled=entry.spilled,
                    error="worker lane died twice (chunk retried once)",
                )))
                continue
            entry.attempts += 1
            self._stats.chunk_retries += 1
            targets[position % len(targets)].send(entry, ship_always=True)
            position += 1
            if entry.dtd_shipped:
                self._stats.dtd_ships += 1
        return fresh

    def stats(self) -> ExecutorStats:
        return self._stats

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for lane in self._lanes:
            lane.stop()
        self._results.close()
        self._results.cancel_join_thread()

    def __del__(self) -> None:
        # the pool is engine-lifetime: an engine dropped without close()
        # must still reap its forked lanes (daemon processes would die
        # with the interpreter, but not with the engine)
        try:
            self.close()
        except Exception:  # pragma: no cover - interpreter teardown
            pass
