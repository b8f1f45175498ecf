"""Tests for the execution layer (:mod:`repro.engine.executors`):
worker runtimes, the inline executor, and the persistent affinity pool.

The pool tests run real forked lanes; they use small workloads so the
whole file stays in tier-1 time.
"""

from __future__ import annotations

import pytest

from repro.dtd import parse_dtd
from repro.engine import SchemaRegistry, schema_fingerprint
from repro.engine.executors import (
    ChunkOutcome,
    ChunkTask,
    InlineExecutor,
    PersistentPoolExecutor,
    WorkerRuntime,
)
from repro.errors import EngineError
from repro.sat.planner import Planner
from repro.xpath import parse_query
from repro.xpath.canonical import canonicalize

DISJFREE_DTD = """
root r
r -> A, B
A -> C*
B -> eps
C -> eps
"""

THREESAT_DTD = """
root r
r  -> X1, X2, X3
X1 -> T + F
X2 -> T + F
X3 -> T + F
T  -> eps
F  -> eps
"""


@pytest.fixture
def registry():
    registry = SchemaRegistry()
    registry.register("disjfree", DISJFREE_DTD)
    registry.register("threesat", THREESAT_DTD)
    return registry


def _chunk_task(registry, name, queries, task_id=1):
    artifacts = registry.get(name)
    canonicals = tuple(canonicalize(parse_query(text)) for text in queries)
    plan = Planner().plan_query(
        parse_query(queries[0]), artifacts=artifacts
    )
    task = ChunkTask(
        task_id=task_id,
        fingerprint=artifacts.fingerprint,
        canonicals=canonicals,
        plan=plan,
    )
    return task, artifacts.dtd


HEAVY = ("A[not(C)]", "A[not(B)]", ".[not(A)]")


class TestWorkerRuntime:
    def test_grouped_chunk_shares_setup(self, registry):
        runtime = WorkerRuntime()
        task, dtd = _chunk_task(registry, "disjfree", HEAVY)
        outcome = runtime.run_chunk(task, dtd)
        assert outcome.error is None
        assert [entry[0] for entry in outcome.outcomes] == [True, True, False]
        assert outcome.shared_setup is True
        assert outcome.runtime_hit is False      # first chunk builds cold

    def test_second_chunk_of_same_schema_is_a_runtime_hit(self, registry):
        runtime = WorkerRuntime()
        first, dtd = _chunk_task(registry, "disjfree", HEAVY[:2], task_id=1)
        second, _ = _chunk_task(registry, "disjfree", HEAVY[2:], task_id=2)
        cold = runtime.run_chunk(first, dtd)
        # the DTD was adopted on first touch: no re-ship needed
        warm = runtime.run_chunk(second, None)
        assert cold.runtime_hit is False
        assert warm.runtime_hit is True
        assert warm.error is None
        assert runtime.context_hits == 1
        assert runtime.schemas == 1

    def test_caching_off_rebuilds_per_chunk(self, registry):
        runtime = WorkerRuntime(caching=False)
        first, dtd = _chunk_task(registry, "disjfree", HEAVY[:2], task_id=1)
        second, _ = _chunk_task(registry, "disjfree", HEAVY[2:], task_id=2)
        runtime.run_chunk(first, dtd)
        warm = runtime.run_chunk(second, dtd)   # stateless: DTD every chunk
        assert warm.runtime_hit is False
        assert runtime.context_hits == 0
        assert runtime.schemas == 0

    def test_missing_schema_is_a_chunk_error(self, registry):
        runtime = WorkerRuntime()
        task, _dtd = _chunk_task(registry, "disjfree", HEAVY[:1])
        outcome = runtime.run_chunk(task, None)   # never shipped
        assert outcome.error is not None
        assert "no schema" in outcome.error
        assert outcome.outcomes == []

    def test_transient_prepare_failure_is_retried_next_chunk(
        self, registry, monkeypatch
    ):
        # a prepare() that fails once must not poison the runtime cache:
        # the failed entry is evicted after the chunk, so the next chunk
        # retries and gets shared setup back
        import dataclasses

        from repro.sat import registry as sat_registry

        calls = []
        spec = sat_registry.get_decider("exptime_types")
        original_prepare = spec.prepare

        def flaky_prepare(dtd):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient prepare failure")
            return original_prepare(dtd)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, prepare=flaky_prepare),
        )
        runtime = WorkerRuntime()
        first, dtd = _chunk_task(registry, "disjfree", HEAVY[:2], task_id=1)
        second, _ = _chunk_task(registry, "disjfree", HEAVY[2:], task_id=2)
        cold = runtime.run_chunk(first, dtd)
        assert cold.shared_setup is False
        assert cold.prepare_error is not None
        assert len(calls) == 1              # memoized within the chunk
        warm = runtime.run_chunk(second, None)
        assert warm.shared_setup is True    # retried, recovered
        assert warm.prepare_error is None
        # verdicts unaffected either way
        assert [o[0] for o in cold.outcomes] == [True, True]
        assert [o[0] for o in warm.outcomes] == [False]

    def test_context_cache_is_lru_bounded(self, registry):
        runtime = WorkerRuntime(context_capacity=1)
        disjfree, ddtd = _chunk_task(registry, "disjfree", HEAVY[:1], task_id=1)
        threesat, tdtd = _chunk_task(
            registry, "threesat", ("X1[not(T)]",), task_id=2
        )
        runtime.run_chunk(disjfree, ddtd)
        runtime.run_chunk(threesat, tdtd)   # evicts disjfree's contexts
        assert runtime.context_evictions == 1
        again, _ = _chunk_task(registry, "disjfree", HEAVY[1:2], task_id=3)
        outcome = runtime.run_chunk(again, ddtd)
        assert outcome.error is None
        assert outcome.runtime_hit is False  # rebuilt after eviction
        assert runtime.context_hits == 0
        with pytest.raises(EngineError, match="context_capacity"):
            WorkerRuntime(context_capacity=0)

    def test_verdicts_identical_with_and_without_caching(self, registry):
        queries = HEAVY + ("B[not(A)]", "C[not(B)]")
        warm_runtime = WorkerRuntime(caching=True)
        cold_runtime = WorkerRuntime(caching=False)
        for name in ("disjfree", "threesat"):
            for task_id, query in enumerate(queries):
                try:
                    task, dtd = _chunk_task(
                        registry, name, (query,), task_id=task_id
                    )
                except Exception:
                    continue
                warm = warm_runtime.run_chunk(task, dtd)
                cold = cold_runtime.run_chunk(task, dtd)
                assert [o[:3] for o in warm.outcomes] == [
                    o[:3] for o in cold.outcomes
                ]


class TestInlineExecutor:
    def test_drain_executes_in_order_with_persistent_runtime(self, registry):
        executor = InlineExecutor()
        first, dtd = _chunk_task(registry, "disjfree", HEAVY[:2], task_id=1)
        second, _ = _chunk_task(registry, "disjfree", HEAVY[2:], task_id=2)
        executor.submit(first, dtd)
        executor.submit(second, dtd)
        drained = list(executor.drain())
        assert [task.task_id for task, _outcome in drained] == [1, 2]
        assert drained[1][1].runtime_hit is True
        assert executor.stats().runtime_context_hits == 1
        # runtime survives the drain: a later chunk still hits
        third, _ = _chunk_task(registry, "disjfree", HEAVY[:1], task_id=3)
        executor.submit(third, dtd)
        (_, outcome), = list(executor.drain())
        assert outcome.runtime_hit is True

    def test_cancel_pending_drops_queued_chunks(self, registry):
        executor = InlineExecutor()
        task, dtd = _chunk_task(registry, "disjfree", HEAVY[:1])
        executor.submit(task, dtd)
        assert executor.cancel_pending() == 1
        assert list(executor.drain()) == []


class TestPersistentPoolExecutor:
    def test_rejects_bad_configuration(self):
        with pytest.raises(EngineError, match="workers"):
            PersistentPoolExecutor(0)
        with pytest.raises(EngineError, match="lane_queue_depth"):
            PersistentPoolExecutor(1, lane_queue_depth=0)

    def test_affinity_ships_dtd_once_and_hits_runtime(self, registry):
        executor = PersistentPoolExecutor(2, affinity=True)
        try:
            for task_id in range(3):
                task, dtd = _chunk_task(
                    registry, "disjfree", HEAVY, task_id=task_id
                )
                executor.submit(task, dtd)
            drained = list(executor.drain())
        finally:
            executor.close()
        assert len(drained) == 3
        assert all(outcome.error is None for _t, outcome in drained)
        # same fingerprint -> same lane: one ship, chunks 2..3 warm
        lanes = {outcome.lane for _t, outcome in drained}
        assert len(lanes) == 1
        assert sum(outcome.dtd_shipped for _t, outcome in drained) == 1
        assert sum(outcome.runtime_hit for _t, outcome in drained) == 2
        stats = executor.stats()
        assert stats.dtd_ships == 1
        assert stats.runtime_context_hits == 2
        assert stats.lane_respawns == 0

    def test_stateless_ships_dtd_every_chunk(self, registry):
        executor = PersistentPoolExecutor(2, affinity=False)
        try:
            for task_id in range(3):
                task, dtd = _chunk_task(
                    registry, "disjfree", HEAVY, task_id=task_id
                )
                executor.submit(task, dtd)
            drained = list(executor.drain())
        finally:
            executor.close()
        assert all(outcome.error is None for _t, outcome in drained)
        assert all(outcome.dtd_shipped for _t, outcome in drained)
        assert executor.stats().runtime_context_hits == 0

    def test_deep_preferred_lane_spills_over(self, registry):
        # every chunk prefers the same lane (one fingerprint); with a
        # queue depth of 1 the extra chunks must spill to other lanes
        executor = PersistentPoolExecutor(2, affinity=True, lane_queue_depth=1)
        try:
            for task_id in range(4):
                task, dtd = _chunk_task(
                    registry, "disjfree", HEAVY[:1], task_id=task_id
                )
                executor.submit(task, dtd)
            drained = list(executor.drain())
        finally:
            executor.close()
        assert all(outcome.error is None for _t, outcome in drained)
        assert executor.stats().affinity_spills >= 1
        assert {outcome.lane for _t, outcome in drained} == {0, 1}
        # a spilled chunk lands on a lane without the schema: it ships
        assert executor.stats().dtd_ships >= 2

    def test_verdicts_survive_lane_death_with_one_retry(
        self, registry, tmp_path, monkeypatch
    ):
        # the first execution of the types fixpoint SIGKILLs its worker
        # (the marker file is consumed, so the retry answers normally);
        # fork-started lanes inherit the patched registry
        import dataclasses
        import os
        import signal

        from repro.sat import registry as sat_registry

        marker = tmp_path / "kill-once"
        marker.write_text("")
        spec = sat_registry.get_decider("exptime_types")
        original = spec.fn

        def killer(query, dtd, max_facts=22, context=None):
            if marker.exists():
                marker.unlink()
                os.kill(os.getpid(), signal.SIGKILL)
            return original(query, dtd, max_facts, context=context)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, fn=killer),
        )
        executor = PersistentPoolExecutor(2, affinity=True)
        try:
            task, dtd = _chunk_task(registry, "disjfree", HEAVY)
            executor.submit(task, dtd)
            drained = list(executor.drain())
        finally:
            executor.close()
        ((_task, outcome),) = drained
        assert outcome.error is None
        assert outcome.retried is True
        assert [entry[0] for entry in outcome.outcomes] == [True, True, False]
        stats = executor.stats()
        assert stats.chunk_retries == 1
        assert stats.lane_respawns == 1

    def test_recovery_ship_counts_as_first_touch(self, registry, tmp_path,
                                                 monkeypatch):
        # after a retry force-ships the schema to a respawned lane, the
        # next affinity-routed chunk of that schema must not re-ship it
        import dataclasses
        import os
        import signal

        from repro.sat import registry as sat_registry

        marker = tmp_path / "kill-once"
        marker.write_text("")
        spec = sat_registry.get_decider("exptime_types")
        original = spec.fn

        def killer(query, dtd, max_facts=22, context=None):
            if marker.exists():
                marker.unlink()
                os.kill(os.getpid(), signal.SIGKILL)
            return original(query, dtd, max_facts, context=context)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, fn=killer),
        )
        executor = PersistentPoolExecutor(2, affinity=True)
        try:
            first, dtd = _chunk_task(registry, "disjfree", HEAVY[:2], task_id=1)
            executor.submit(first, dtd)
            (( _t, retried_outcome),) = list(executor.drain())
            assert retried_outcome.retried is True
            follow_up, _ = _chunk_task(
                registry, "disjfree", HEAVY[2:], task_id=2
            )
            executor.submit(follow_up, dtd)
            ((_t, warm_outcome),) = list(executor.drain())
        finally:
            executor.close()
        assert warm_outcome.error is None
        assert warm_outcome.dtd_shipped is False   # recovery ship counted
        assert warm_outcome.runtime_hit is True

    def test_second_death_fails_the_chunk_only(self, registry, monkeypatch):
        # the killer never disarms: the retry dies too and the chunk
        # comes back as a whole-chunk error instead of hanging
        import dataclasses
        import os
        import signal

        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("exptime_types")

        def killer(query, dtd, max_facts=22, context=None):
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, fn=killer),
        )
        executor = PersistentPoolExecutor(2, affinity=True)
        try:
            doomed, dtd = _chunk_task(
                registry, "disjfree", HEAVY[:1], task_id=1
            )
            healthy, threesat_dtd = _chunk_task(
                registry, "threesat", ("X1/T",), task_id=2
            )
            executor.submit(doomed, dtd)
            executor.submit(healthy, threesat_dtd)
            drained = dict(
                (task.task_id, outcome) for task, outcome in executor.drain()
            )
        finally:
            executor.close()
        assert drained[1].error is not None
        assert "died twice" in drained[1].error
        assert drained[1].retried is True
        assert drained[2].error is None     # retried off the poison lane
        assert drained[2].outcomes[0][0] is True
        # both in-flight chunks were retried once (the healthy one was
        # queued behind the killer); only the poison chunk failed
        assert executor.stats().chunk_retries == 2
        assert executor.stats().lane_respawns >= 2

    def test_lanes_fork_lazily(self, registry):
        # a light run must not pay for the whole pool: only the lane a
        # chunk routes to actually starts a process
        executor = PersistentPoolExecutor(4, affinity=True)
        try:
            assert sum(lane.started for lane in executor._lanes) == 0
            task, dtd = _chunk_task(registry, "disjfree", HEAVY[:1])
            executor.submit(task, dtd)
            assert sum(lane.started for lane in executor._lanes) == 1
            drained = list(executor.drain())
        finally:
            executor.close()
        assert len(drained) == 1 and drained[0][1].error is None

    def test_submit_after_close_is_rejected(self, registry):
        executor = PersistentPoolExecutor(1)
        executor.close()
        task, dtd = _chunk_task(registry, "disjfree", HEAVY[:1])
        with pytest.raises(EngineError, match="closed"):
            executor.submit(task, dtd)
        executor.close()                          # idempotent

    def test_fingerprint_routing_is_consistent(self, registry):
        # chunks of the same schema always prefer the same lane; chunks
        # of different schemas may differ (hash-dependent), but routing
        # is deterministic across executors
        fingerprints = [
            schema_fingerprint(parse_dtd(text))
            for text in (DISJFREE_DTD, THREESAT_DTD)
        ]
        first = PersistentPoolExecutor(2, affinity=True)
        second = PersistentPoolExecutor(2, affinity=True)
        try:
            for fingerprint in fingerprints:
                task, _ = _chunk_task(registry, "disjfree", HEAVY[:1])
                probe = dataclass_replace_fingerprint(task, fingerprint)
                lane_a, _ = first._route(probe)
                lane_b, _ = second._route(probe)
                assert lane_a.lane_id == lane_b.lane_id
        finally:
            first.close()
            second.close()


def dataclass_replace_fingerprint(task: ChunkTask, fingerprint: str) -> ChunkTask:
    import dataclasses

    return dataclasses.replace(task, fingerprint=fingerprint)


class TestChunkOutcomeDefaults:
    def test_defaults_are_cold(self):
        outcome = ChunkOutcome()
        assert outcome.outcomes == []
        assert outcome.runtime_hit is False
        assert outcome.error is None
        assert outcome.lane == -1
