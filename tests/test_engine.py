"""Tests for the batch decision engine (:mod:`repro.engine`)."""

from __future__ import annotations

import random

import pytest

from repro.dtd import parse_dtd
from repro.engine import (
    BatchEngine,
    DecisionCache,
    Job,
    SchemaRegistry,
    decision_key,
    read_jobs,
    read_jobs_file,
    schema_fingerprint,
    write_jobs_file,
    write_results_file,
)
from repro.engine.cache import NO_SCHEMA, CachedDecision
from repro.errors import EngineError
from repro.sat import Planner, decide
from repro.workloads import batch_jobs, document_dtd
from repro.xpath import parse_query
from repro.xpath import fragments as frag

THREESAT_DTD = """
root r
r  -> X1, X2, X3
X1 -> T + F
X2 -> T + F
X3 -> T + F
T  -> eps
F  -> eps
"""

DISJFREE_DTD = """
root r
r -> A, B
A -> C*
B -> eps
C -> eps
"""


@pytest.fixture
def registry():
    registry = SchemaRegistry()
    registry.register("threesat", THREESAT_DTD)
    registry.register("disjfree", DISJFREE_DTD)
    registry.register("docs", document_dtd())
    return registry


# -- fingerprints and the registry ----------------------------------------------

class TestSchemaRegistry:
    def test_fingerprint_ignores_formatting(self):
        reordered = """
        # same schema, different spelling
        X3 -> T + F
        X1 -> T + F
        root r
        T -> eps
        r -> X1, X2, X3
        F -> eps
        X2 -> T + F
        """
        assert schema_fingerprint(parse_dtd(THREESAT_DTD)) == schema_fingerprint(
            parse_dtd(reordered)
        )

    def test_fingerprint_separates_content(self):
        assert schema_fingerprint(parse_dtd(THREESAT_DTD)) != schema_fingerprint(
            parse_dtd(DISJFREE_DTD)
        )

    def test_same_content_shares_artifacts(self, registry):
        before = registry.stats()["builds"]
        again = registry.register("threesat-alias", THREESAT_DTD)
        assert again is registry.get("threesat")
        assert registry.stats()["builds"] == before
        assert registry.stats()["dedup_hits"] == 1

    def test_lookup_by_name_and_fingerprint(self, registry):
        artifacts = registry.get("disjfree")
        assert registry.get(artifacts.fingerprint) is artifacts
        assert "disjfree" in registry
        assert len(registry) == 3

    def test_unknown_reference(self, registry):
        with pytest.raises(EngineError, match="unknown schema"):
            registry.get("nope")

    def test_artifacts_precompute_classification(self, registry):
        artifacts = registry.get("disjfree")
        assert artifacts.disjunction_free is True
        assert artifacts.nonrecursive is True
        assert registry.get("threesat").disjunction_free is False
        assert artifacts.graph.children("A") == frozenset({"C"})

    def test_normalized_form_cached(self, registry):
        artifacts = registry.get("threesat")
        assert artifacts.normalized is artifacts.normalized
        assert artifacts.normalized.original is artifacts.dtd


# -- the decision cache ----------------------------------------------------------

class TestDecisionCache:
    def test_hit_miss_eviction_counters(self):
        cache = DecisionCache(capacity=2)
        k1 = ("q1", "s")
        k2 = ("q2", "s")
        k3 = ("q3", "s")
        answer = CachedDecision(True, "m")
        assert cache.get(k1) is None
        cache.put(k1, answer)
        cache.put(k2, answer)
        assert cache.get(k1) == answer        # refreshes recency of k1
        cache.put(k3, answer)                 # evicts k2 (least recent)
        assert cache.get(k2) is None
        assert cache.get(k1) == answer
        assert (cache.hits, cache.misses, cache.evictions) == (2, 2, 1)
        assert len(cache) == 2
        assert cache.stats()["hit_rate"] == 0.5

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            DecisionCache(capacity=0)

    def test_key_unifies_syntactic_variants(self):
        fingerprint = "f" * 64
        assert decision_key(parse_query("A[B and C]"), fingerprint) == decision_key(
            parse_query("A[C and B]"), fingerprint
        )
        assert decision_key(parse_query("A | A"), fingerprint) == decision_key(
            parse_query("A"), fingerprint
        )
        assert decision_key(parse_query("A"), fingerprint) != decision_key(
            parse_query("B"), fingerprint
        )

    def test_key_separates_schemas(self):
        query = parse_query("A")
        assert decision_key(query, "a" * 64) != decision_key(query, "b" * 64)
        assert decision_key(query, None)[1] == NO_SCHEMA

    def test_key_separates_bounds(self):
        # an 'unknown' cached under tight bounds must not answer an
        # engine configured with larger ones
        from repro.sat import Bounds

        query = parse_query("A")
        fingerprint = "f" * 64
        tight = decision_key(query, fingerprint, Bounds(max_depth=2))
        large = decision_key(query, fingerprint, Bounds(max_depth=9))
        assert tight != large
        assert decision_key(query, fingerprint) == decision_key(query, fingerprint)


# -- routing ---------------------------------------------------------------------

def _route(query_text, artifacts):
    return Planner().plan_query(parse_query(query_text), artifacts=artifacts).route


class TestPlanRoute:
    def test_ptime_fragments_inline(self, registry):
        threesat = registry.get("threesat")
        assert _route("X1 | **/T", threesat) == "inline"
        assert _route("X1/>/X2", threesat) == "inline"
        assert _route("A[B]", None) == "inline"
        assert _route("A[@a = '1']", None) == "inline"

    def test_heavy_fragments_pooled(self, registry):
        threesat = registry.get("threesat")
        assert _route("X1[not(T)]", threesat) == "pool"
        assert _route("X1[not(@a = '1')]", threesat) == "pool"
        assert _route("A[not(B)]", None) == "pool"

    def test_disjunction_free_qualifiers_inline(self, registry):
        disjfree = registry.get("disjfree")
        assert _route("A[C]", disjfree) == "inline"
        assert _route("A[not(C)]", disjfree) == "pool"
        # threesat has disjunction but is duplicate-free: qualifiers stay
        # inline on the trait-gated realworld path (PR 9)
        assert _route("A[C]", registry.get("threesat")) == "inline"
        # a schema outside every PTIME class still pools qualifier queries
        registry.register(
            "unrestrained", "root r\nr -> (A, B) + (A, C)\nA -> eps\nB -> eps\nC -> eps"
        )
        assert _route("A[C]", registry.get("unrestrained")) == "pool"


# -- the batch engine ------------------------------------------------------------

class TestBatchEngine:
    def test_end_to_end(self, registry):
        engine = BatchEngine(registry=registry)
        report = engine.run([
            Job("X1[T and F]", "threesat", id="contradiction"),
            Job("sec1/para", "docs"),
            {"query": "A[C]", "schema": "disjfree"},
            ("X1/T", "threesat"),
            "A[B]",                                   # bare string: no DTD
        ])
        assert [r.satisfiable for r in report.results] == [
            False, True, True, True, True
        ]
        assert report.results[0].id == "contradiction"
        assert report.results[0].fingerprint == registry.get("threesat").fingerprint
        assert report.results[4].schema is None
        assert report.stats.jobs == 5
        assert report.stats.decide_calls == 5
        assert report.verdict_counts() == {
            "sat": 4, "unsat": 1, "unknown": 0, "error": 0
        }

    def test_variants_share_cache_within_a_run(self, registry):
        # heavy (pool-route) variants coalesce into one plan-group entry;
        # either way the question is decided exactly once
        engine = BatchEngine(registry=registry)
        report = engine.run([
            Job("X1[T and F]", "threesat"),
            Job("X1[F and T]", "threesat"),
            Job("X1[T and F] | X1[T and F]", "threesat"),
        ])
        assert report.stats.decide_calls == 1
        assert report.stats.cache_hits + report.stats.coalesced == 2
        assert [r.satisfiable for r in report.results] == [False, False, False]
        assert report.results[1].cached is True

    def test_variants_share_cache_across_runs(self, registry):
        # the decision cache still absorbs variants once the group's
        # verdict has landed: a second run re-decides nothing
        engine = BatchEngine(registry=registry)
        engine.run([Job("X1[T and F]", "threesat")])
        report = engine.run([
            Job("X1[F and T]", "threesat"),
            Job("X1[T and F] | X1[T and F]", "threesat"),
        ])
        assert report.stats.decide_calls == 0
        assert report.stats.cache_hits == 2
        assert report.results[0].route == "cache"

    def test_warm_rerun_skips_decide(self, registry):
        engine = BatchEngine(registry=registry)
        jobs = [Job("X1[T]", "threesat"), Job("A[C]", "disjfree"), Job("sec1", "docs")]
        cold = engine.run(jobs)
        warm = engine.run(jobs)
        assert cold.stats.decide_calls == 3
        assert warm.stats.decide_calls == 0
        assert warm.stats.cache_hits == 3
        assert [r.satisfiable for r in warm.results] == [
            r.satisfiable for r in cold.results
        ]

    def test_non_string_query_is_a_job_error(self, registry):
        report = BatchEngine(registry=registry).run([
            {"query": 5},                    # valid JSON, wrong type
            {"query": ["a", "list"]},
            Job("X1", "threesat"),
        ])
        assert report.stats.errors == 2
        assert "XPath string" in report.results[0].error
        assert report.results[2].satisfiable is True

    def test_coerce_rejects_malformed_tuples(self):
        with pytest.raises(EngineError, match="job tuple"):
            Job.coerce(("q", "s", "id", "extra"))
        with pytest.raises(EngineError, match="schema must be a string"):
            Job.coerce(("q", 42))

    def test_error_jobs_are_recorded_not_raised(self, registry):
        engine = BatchEngine(registry=registry)
        report = engine.run([
            Job("A[[", "threesat"),          # parse error
            Job("A", "unregistered"),        # unknown schema
            Job("X1/T", "threesat"),         # fine
        ])
        assert report.stats.errors == 2
        assert report.results[0].error is not None
        assert "unknown schema" in report.results[1].error
        assert report.results[2].satisfiable is True
        assert report.verdict_counts()["error"] == 2

    def test_eviction_bounds_memory(self, registry):
        engine = BatchEngine(registry=registry, cache=DecisionCache(capacity=2))
        labels = ["r", "X1", "X2", "X3", "T", "F"]
        report = engine.run([Job(label, "threesat") for label in labels])
        assert len(engine.cache) == 2
        assert engine.cache.evictions == len(labels) - 2
        assert report.stats.decide_calls == len(labels)

    def test_parallel_matches_serial(self, registry):
        jobs = [
            Job("X1[not(T)]", "threesat"),
            Job("X1[not(F and T)]", "threesat"),
            Job("X1[T]/T", "threesat"),
            Job("X2[not(T) and not(F)]", "threesat"),
        ]
        serial = BatchEngine(registry=registry).run(jobs)
        parallel = BatchEngine(registry=registry, workers=2).run(jobs)
        assert [r.satisfiable for r in parallel.results] == [
            r.satisfiable for r in serial.results
        ]
        assert [r.method for r in parallel.results] == [
            r.method for r in serial.results
        ]
        assert parallel.stats.pool_decides > 0
        assert parallel.stats.errors == 0

    def test_in_flight_duplicates_coalesce(self, registry):
        jobs = [
            Job("X1[not(T)]", "threesat"),
            Job("X1[not(T)]", "threesat"),
            Job("X1[not(T)] | X1[not(T)]", "threesat"),
        ]
        report = BatchEngine(registry=registry, workers=2).run(jobs)
        assert report.stats.decide_calls == 1
        assert report.stats.coalesced == 2
        assert all(r.satisfiable is True for r in report.results)

    def test_rejects_bad_worker_count(self, registry):
        with pytest.raises(EngineError):
            BatchEngine(registry=registry, workers=0)

    def test_acceptance_thousand_jobs_three_schemas(self, registry):
        """1k-job workload over 3 schemas; the warm rerun must make at
        least 10x fewer decide() calls (the PR's acceptance bar)."""
        rng = random.Random(20250611)
        schemas = {name: registry.get(name).dtd for name in registry.names}
        jobs = batch_jobs(
            rng, schemas, n_jobs=1000,
            fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL),
            duplicate_rate=0.5, variant_rate=0.5,
        )
        engine = BatchEngine(registry=registry, cache=DecisionCache(capacity=8192))
        cold = engine.run(jobs)
        warm = engine.run(jobs)
        assert cold.stats.jobs == warm.stats.jobs == 1000
        assert len(registry) >= 3
        assert cold.stats.decide_calls > 0
        assert warm.stats.decide_calls * 10 <= cold.stats.decide_calls
        assert warm.stats.errors == 0

    def test_inline_decider_exception_fails_only_its_job(
        self, registry, monkeypatch
    ):
        # a non-ReproError from a PTIME decider (a latent bug) must fail
        # only its own job, like a chunk question does — not abort the
        # batch and forfeit the warm pool
        import dataclasses

        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("downward")

        def flaky(query, dtd):
            if "T" in str(query):
                raise RuntimeError("latent decider bug")
            return spec.fn(query, dtd)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "downward",
            dataclasses.replace(spec, fn=flaky),
        )
        with BatchEngine(registry=registry, workers=2, group_chunk_size=1) as engine:
            engine.run([Job("X1[not(T)]", "threesat")])
            pool = engine._pool_executor
            assert pool is not None
            report = engine.run([
                # a heavy job in flight on the lanes while the inline
                # decides run
                Job("X2[not(F)]", "threesat", id="heavy"),
                Job("X1", "threesat", id="first"),
                Job("X2/T", "threesat", id="doomed"),
                Job("X3/F", "threesat", id="last"),
            ])
            by_id = {result.id: result for result in report.results}
            assert "latent decider bug" in by_id["doomed"].error
            assert by_id["doomed"].route == "error"
            assert by_id["first"].satisfiable is True
            assert by_id["last"].satisfiable is True
            assert by_id["heavy"].satisfiable is True
            assert report.stats.errors == 1
            assert report.stats.inline_decides == 3
            assert engine._pool_executor is pool
            assert report.stats.executor_resets == 0
            assert sum(
                stats.verdicts.get("error", 0)
                for _, stats in engine.telemetry.items()
            ) == 1


# -- the plan-grouped scheduler --------------------------------------------------

class _CrashFirstExecutor:
    """Executor stand-in whose first submitted chunk comes back as a
    whole-chunk failure — the shape a real lane death produces after its
    one retry also died.  Later chunks run in-process on a
    :class:`WorkerRuntime`.  Simulates a pool-worker crash mid-run
    without burning real fork time."""

    def __init__(self, workers, affinity=True, lane_queue_depth=4):
        from repro.engine.executors import ExecutorStats, WorkerRuntime

        self.runtime = WorkerRuntime(caching=affinity)
        self._stats = ExecutorStats(lanes=workers)
        self._queue = []
        self.calls = 0

    def submit(self, task, dtd):
        self.calls += 1
        self._queue.append((task, dtd, self.calls == 1))

    def drain(self):
        from repro.engine.executors import ChunkOutcome

        while self._queue:
            task, dtd, crash = self._queue.pop(0)
            if crash:
                yield task, ChunkOutcome(
                    retried=True, error="worker died mid-group"
                )
            else:
                yield task, self.runtime.run_chunk(task, dtd)

    def stats(self):
        return self._stats

    def close(self):
        pass


def _decided(registry, jobs) -> list:
    """The per-job reference: each job's verdict from a stateless
    :func:`repro.sat.decide` call."""
    return [
        decide(parse_query(job.query), registry.get(job.schema).dtd).satisfiable
        for job in jobs
    ]


class TestGroupedScheduler:
    HEAVY = ["A[not(C)]", "A[not(B)]", ".[not(A)]", "B[not(A)]", "C[not(B)]"]

    def _engine(self, registry, **kwargs):
        return BatchEngine(registry=registry, **kwargs)

    def test_rejects_nonpositive_chunk_size(self, registry):
        with pytest.raises(EngineError, match="group_chunk_size"):
            BatchEngine(registry=registry, group_chunk_size=0)

    @pytest.mark.parametrize("n_jobs,chunk,expected_groups", [
        (1, 4, 1),        # single-job group
        (4, 4, 1),        # exactly chunk-size
        (5, 4, 2),        # chunk-size + 1 spills into a second chunk
    ])
    def test_chunk_size_boundaries(self, registry, n_jobs, chunk, expected_groups):
        jobs = [Job(query, "disjfree") for query in self.HEAVY[:n_jobs]]
        engine = self._engine(registry, group_chunk_size=chunk)
        report = engine.run(jobs)
        assert report.stats.errors == 0
        assert report.stats.plan_groups == expected_groups
        assert report.stats.grouped_jobs == n_jobs
        assert sum(report.stats.group_sizes) == n_jobs
        # same questions, decided one by one: identical verdicts
        assert [r.satisfiable for r in report.results] == _decided(registry, jobs)

    def test_empty_batch_forms_no_groups(self, registry):
        report = self._engine(registry).run([])
        assert report.stats.plan_groups == 0
        assert report.stats.group_sizes == []

    def test_worker_crash_surfaces_per_job_error_without_poisoning(self, registry):
        # two plan groups (different schemas); the first dispatched
        # chunk's worker dies, the second chunk still answers
        jobs = [
            Job("A[not(C)]", "disjfree", id="doomed-1"),
            Job("A[not(B)]", "disjfree", id="doomed-2"),
            Job("X1[not(T)]", "threesat", id="fine"),
        ]
        engine = self._engine(registry, workers=2)
        engine._executor_factory = _CrashFirstExecutor
        report = engine.run(jobs)
        by_id = {result.id: result for result in report.results}
        crashed = [r for r in report.results if r.error is not None]
        answered = [r for r in report.results if r.error is None]
        assert len(crashed) == 2 and len(answered) == 1
        assert all("worker died" in r.error for r in crashed)
        assert all(r.route == "error" for r in crashed)
        assert by_id["fine"].satisfiable is True
        assert report.stats.errors == 2

    def test_prepare_failure_falls_back_to_ungrouped(self, registry, monkeypatch):
        import dataclasses

        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("exptime_types")

        def boom(dtd):
            raise RuntimeError("prepare exploded")

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, prepare=boom),
        )
        jobs = [Job(query, "disjfree") for query in self.HEAVY[:3]]
        engine = self._engine(registry)
        report = engine.run(jobs)
        # the group still ran (as one task, per-job setup) and answered
        assert report.stats.errors == 0
        assert report.stats.prepare_fallbacks == 1
        assert report.stats.plan_groups == 1
        assert report.stats.setup_reuse == 0
        assert [r.satisfiable for r in report.results] == _decided(registry, jobs)

    def test_unexpected_exception_does_not_poison_groupmates(
        self, registry, monkeypatch
    ):
        # a NON-ReproError from one question (a latent decider bug, the
        # exact thing the fuzz target hunts) must fail only that job
        import dataclasses

        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("exptime_types")
        original = spec.fn

        def flaky(query, dtd, max_facts=22, context=None):
            if "C" in str(query):
                raise RuntimeError("latent decider bug")
            return original(query, dtd, max_facts, context=context)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, fn=flaky),
        )
        report = self._engine(registry).run([
            Job("A[not(C)]", "disjfree", id="doomed"),
            Job("A[not(B)]", "disjfree", id="fine"),
        ])
        assert report.stats.errors == 1
        assert "latent decider bug" in report.results[0].error
        assert report.results[1].error is None
        assert report.results[1].satisfiable is not None

    def test_none_returning_prepare_runs_once_per_chunk(self, registry, monkeypatch):
        # a hook that legitimately yields no context must not be re-run
        # for every question in the chunk
        import dataclasses

        from repro.sat import registry as sat_registry

        calls = []
        spec = sat_registry.get_decider("exptime_types")
        monkeypatch.setitem(
            sat_registry._REGISTRY, "exptime_types",
            dataclasses.replace(spec, prepare=lambda dtd: calls.append(1)),
        )
        report = self._engine(registry).run(
            [Job(query, "disjfree") for query in self.HEAVY[:3]]
        )
        assert report.stats.errors == 0
        assert report.stats.plan_groups == 1
        assert len(calls) == 1
        # no context existed, so nothing counts as shared or fallen back
        assert report.stats.setup_reuse == 0
        assert report.stats.prepare_fallbacks == 0

    def test_fallback_prepare_failure_keeps_primary_context(self, registry, monkeypatch):
        # a broken *fallback* hook marks only that decider context-less;
        # the primary's shared context (and the memo of the failure) stay
        import dataclasses

        from repro.sat import registry as sat_registry
        from repro.sat.planner import PlanContexts

        calls = []

        def boom(dtd):
            calls.append(1)
            raise RuntimeError("fallback prepare exploded")

        spec = sat_registry.get_decider("bounded")
        monkeypatch.setitem(
            sat_registry._REGISTRY, "bounded",
            dataclasses.replace(spec, prepare=boom),
        )
        artifacts = registry.get("disjfree")
        engine = self._engine(registry)
        plan = engine.planner.plan_query(
            parse_query("A[not(C)]"), artifacts=artifacts
        )
        contexts = PlanContexts(plan, artifacts.dtd)
        assert contexts.get("exptime_types") is not None
        assert contexts.built == 1
        assert contexts.get("bounded") is None
        assert contexts.get("bounded") is None      # failure memoized,
        assert len(calls) == 1                      # not retried per job
        assert "fallback prepare exploded" in contexts.prepare_error
        assert contexts.built == 1                  # primary context kept

    def test_job_error_does_not_poison_groupmates(self, registry):
        # force one groupmate to fail *inside* the chunk by driving the
        # types fixpoint past a tiny fact cap with no fallback: easier to
        # emulate via an unknown-schema error job plus healthy mates —
        # the error job never reaches the group, mates answer normally
        jobs = [
            Job("A[not(C)]", "disjfree"),
            Job("A[not(B)]", "nonexistent-schema"),
            Job("A[not(B)]", "disjfree"),
        ]
        report = self._engine(registry).run(jobs)
        assert report.stats.errors == 1
        assert report.results[1].error is not None
        assert report.results[0].satisfiable is not None
        assert report.results[2].satisfiable is not None

    def test_coalesced_duplicates_inside_a_group(self, registry):
        jobs = [
            Job("A[not(C)]", "disjfree"),
            Job("A[not(C)]", "disjfree"),
            Job("A[not(C)] | A[not(C)]", "disjfree"),
        ]
        report = self._engine(registry).run(jobs)
        assert report.stats.decide_calls == 1
        assert report.stats.coalesced == 2
        assert report.stats.grouped_jobs == 1
        assert len({r.satisfiable for r in report.results}) == 1
        assert report.results[1].cached is True


class _DuplicatingExecutor:
    """Executor stand-in that hands every chunk back TWICE — the first
    time marked as a retry.  The engine must absorb each task exactly
    once, or a retried chunk would double-report group counters."""

    def __init__(self, workers, affinity=True, lane_queue_depth=4):
        from repro.engine.executors import ExecutorStats, WorkerRuntime

        self.runtime = WorkerRuntime(caching=affinity)
        self._stats = ExecutorStats(lanes=workers)
        self._queue = []

    def submit(self, task, dtd):
        self._queue.append((task, dtd))

    def drain(self):
        import dataclasses

        while self._queue:
            task, dtd = self._queue.pop(0)
            outcome = self.runtime.run_chunk(task, dtd)
            yield task, dataclasses.replace(outcome, retried=True)
            yield task, outcome

    def stats(self):
        return self._stats

    def close(self):
        pass


class TestWorkerDeathRecovery:
    """The scheduler must survive a lane dying mid-chunk: respawn the
    lane cold, retry the in-flight chunk once, lose no verdicts, and
    report the retried chunk's group counters exactly once."""

    HEAVY = ["A[not(C)]", "A[not(B)]", ".[not(A)]", "B[not(A)]", "C[not(B)]"]

    def test_lane_death_one_retry_no_verdict_loss(
        self, registry, tmp_path, monkeypatch
    ):
        # arm a decider that SIGKILLs its worker exactly once (the marker
        # file is consumed before the kill, so the retry answers);
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
        jobs = [Job(query, "disjfree") for query in self.HEAVY]
        engine = BatchEngine(registry=registry, workers=2)
        report = engine.run(jobs)
        assert report.stats.errors == 0                 # no verdict loss
        assert report.stats.chunk_retries == 1
        assert report.stats.lane_respawns == 1
        assert all(r.satisfiable is not None for r in report.results)
        # the retried chunk reports group counters exactly once
        assert report.stats.plan_groups == 1
        assert report.stats.grouped_jobs == len(jobs)
        assert report.stats.setup_reuse == len(jobs) - 1
        baseline = BatchEngine(registry=registry, workers=1).run(jobs)
        assert [r.satisfiable for r in report.results] == [
            r.satisfiable for r in baseline.results
        ]

    def test_oracle_corpus_passes_with_affinity_on(self, registry):
        # a broad heavy corpus through the affinity scheduler with real
        # lanes: every verdict must match the single-process engine
        jobs = [
            Job(query, schema)
            for schema in ("disjfree", "threesat")
            for query in self.HEAVY + ["A[not(C)] | B[not(A)]"]
            if not (schema == "threesat" and query.startswith("C"))
        ]
        affine = BatchEngine(
            registry=registry, workers=2, affinity=True, group_chunk_size=2
        )
        report = affine.run(jobs)
        assert report.stats.errors == 0
        assert report.stats.runtime_context_hits >= 1   # >=2 chunks/schema
        baseline = BatchEngine(registry=registry, workers=1).run(jobs)
        assert [r.satisfiable for r in report.results] == [
            r.satisfiable for r in baseline.results
        ]

    def test_duplicate_outcomes_never_double_report(self, registry):
        jobs = [Job(query, "disjfree") for query in self.HEAVY[:3]]
        engine = BatchEngine(registry=registry, workers=2)
        engine._executor_factory = _DuplicatingExecutor
        report = engine.run(jobs)
        assert report.stats.errors == 0
        # each chunk absorbed once despite being handed back twice
        assert report.stats.plan_groups == 1
        assert report.stats.grouped_jobs == 3
        assert report.stats.setup_reuse == 2
        assert report.stats.decide_calls == 3
        assert report.stats.chunk_retries == 1
        # the stats report reconciles: as_dict mirrors the deduplicated
        # counters and describe renders the retry
        record = report.stats.as_dict()
        assert record["grouped_jobs"] == 3
        assert record["chunk_retries"] == 1
        assert "1 chunk retries" in report.stats.describe()
        # telemetry rows agree with EngineStats (no retry inflation)
        (stats,) = [
            stats for key, stats in engine.telemetry.items() if "neg" in key
        ]
        assert stats.grouped_jobs == 3
        assert stats.groups == 1
        assert stats.setup_reuse == 2


# -- engine lifecycle ------------------------------------------------------------

class TestEngineLifecycle:
    """close() + context manager: a closed engine refuses work loudly
    instead of hanging on a torn-down lane result queue."""

    def test_run_after_close_raises(self, registry):
        engine = BatchEngine(registry=registry)
        engine.run([Job("X1", "threesat")])
        engine.close()
        with pytest.raises(EngineError, match="closed"):
            engine.run([Job("X1", "threesat")])

    def test_double_close_raises(self, registry):
        engine = BatchEngine(registry=registry)
        engine.close()
        with pytest.raises(EngineError, match="already closed"):
            engine.close()

    def test_context_manager_closes(self, registry):
        with BatchEngine(registry=registry) as engine:
            report = engine.run([Job("X1", "threesat")])
            assert report.stats.errors == 0
        assert engine.closed
        # explicit close inside the with-block must not double-close
        with BatchEngine(registry=registry) as engine:
            engine.close()
        assert engine.closed

    def test_close_reaps_pool_lanes(self, registry):
        engine = BatchEngine(registry=registry, workers=2)
        engine.run([Job("A[not(C)]", "disjfree"), Job("A[not(B)]", "disjfree")])
        pool = engine._pool_executor
        assert pool is not None
        processes = [lane.process for lane in pool._lanes if lane.process]
        engine.close()
        assert engine._pool_executor is None
        for process in processes:
            process.join(timeout=10)
            assert not process.is_alive()

    def test_inline_executor_closed_guards(self, registry):
        from repro.engine import InlineExecutor

        executor = InlineExecutor(registry)
        executor.close()
        with pytest.raises(EngineError, match="closed"):
            executor.submit(object(), None)
        with pytest.raises(EngineError, match="closed"):
            list(executor.drain())

    def test_pool_drain_after_close_raises(self, registry):
        from repro.engine import PersistentPoolExecutor

        executor = PersistentPoolExecutor(workers=2)
        executor.close()
        executor.close()  # idempotent at the executor layer
        with pytest.raises(EngineError, match="closed"):
            list(executor.drain())

    def test_affinity_flip_resets_pool_and_is_counted(self, registry, caplog):
        heavy = TestWorkerDeathRecovery.HEAVY
        engine = BatchEngine(registry=registry, workers=2, affinity=True)
        first = engine.run([Job(q, "disjfree") for q in heavy[:3]])
        assert first.stats.executor_resets == 0
        old_pool = engine._pool_executor
        assert old_pool is not None
        engine.affinity = False
        # fresh queries: no cache hit may short-circuit pool use
        with caplog.at_level("WARNING", logger="repro.engine.batch"):
            second = engine.run([Job(q, "disjfree") for q in heavy[3:]])
        assert second.stats.errors == 0
        # the warm pool was discarded, counted, and logged — not
        # silently rebuilt
        assert second.stats.executor_resets == 1
        assert engine.executor_resets == 1
        assert engine._pool_executor is not old_pool
        assert old_pool._closed                     # old pool closed
        assert any("affinity" in rec.message for rec in caplog.records)
        assert "1 executor resets" in second.stats.describe()
        assert second.stats.as_dict()["executor_resets"] == 1
        engine.close()

    def test_affinity_flip_resets_inline_executor(self, registry, caplog):
        # with workers=1 heavy chunk tails run on the engine-lifetime
        # inline executor; a flip must discard its warm runtime loudly
        heavy = TestWorkerDeathRecovery.HEAVY
        engine = BatchEngine(registry=registry, workers=1, affinity=True)
        engine.run([Job(q, "disjfree") for q in heavy[:3]])
        old_inline = engine._inline_executor
        assert old_inline is not None
        engine.affinity = False
        with caplog.at_level("WARNING", logger="repro.engine.batch"):
            second = engine.run([Job(q, "disjfree") for q in heavy[3:]])
        assert second.stats.errors == 0
        assert second.stats.executor_resets == 1
        assert engine._inline_executor is not old_inline
        assert any("affinity" in rec.message for rec in caplog.records)
        engine.close()


# -- inline decides share the runtime's prepared contexts -----------------------

class TestInlineContexts:
    """Inline (PTIME) decides take their ``prepare`` contexts from the
    inline executor's engine-lifetime runtime, keyed by (schema × plan),
    exactly like the chunks that runtime executes."""

    def _realworld_registry(self):
        from repro.workloads.realworld import realworld_schemas

        registry = SchemaRegistry()
        for name, dtd in realworld_schemas().items():
            registry.register(name, dtd)
        return registry

    def _jobs(self, n_jobs=40):
        from repro.workloads.realworld import realworld_jobs

        return realworld_jobs(random.Random(1308), n_jobs, duplicate_rate=0.0)

    def _count_prepare(self, monkeypatch, failing=None):
        """Swap the realworld spec for one whose ``prepare`` is counted
        (and raises while ``failing[0]`` is true)."""
        import dataclasses

        from repro.sat import registry as sat_registry

        spec = sat_registry.get_decider("realworld")
        calls = []

        def counting(dtd):
            calls.append(dtd)
            if failing and failing[0]:
                raise RuntimeError("prepare exploded")
            return spec.prepare(dtd)

        monkeypatch.setitem(
            sat_registry._REGISTRY, "realworld",
            dataclasses.replace(spec, prepare=counting),
        )
        return calls

    @staticmethod
    def _built_realworld(engine) -> int:
        runtime = engine._inline_executor.runtime
        return sum(
            "realworld" in contexts._contexts
            for contexts in runtime._contexts.values()
        )

    def test_prepare_runs_once_per_schema_and_plan(self, monkeypatch):
        calls = self._count_prepare(monkeypatch)
        jobs = self._jobs()
        with BatchEngine(registry=self._realworld_registry()) as engine:
            first = engine.run(jobs)
            assert first.stats.trait_routed_answers.get("realworld", 0) > 0
            assert first.stats.inline_decides > len(calls) > 0
            assert len(calls) == self._built_realworld(engine)
            engine.cache.clear()
            second = engine.run(jobs)
            # every job was decided again, without a single new prepare
            assert second.stats.inline_decides == first.stats.inline_decides
            assert len(calls) == self._built_realworld(engine)
            # inline decides are neither chunks nor runtime-context hits
            assert second.stats.plan_groups == 0
            assert second.stats.runtime_context_hits == 0
            assert engine._inline_executor.stats().dispatched == 0
        assert [r.satisfiable for r in first.results] == [
            r.satisfiable for r in second.results
        ]

    def test_affinity_off_keeps_per_job_prepare(self, monkeypatch):
        calls = self._count_prepare(monkeypatch)
        jobs = self._jobs()
        with BatchEngine(
            registry=self._realworld_registry(), affinity=False
        ) as engine:
            engine.run(jobs)
            per_run = len(calls)
            assert per_run >= engine.last_stats.trait_routed_answers["realworld"]
            assert engine._inline_executor.runtime._contexts == {}
            engine.cache.clear()
            engine.run(jobs)
            assert len(calls) == 2 * per_run
        cached_calls = self._count_prepare(monkeypatch)
        with BatchEngine(registry=self._realworld_registry()) as engine:
            engine.run(jobs)
        assert len(cached_calls) < per_run

    def test_failing_prepare_degrades_only_that_setup(self, monkeypatch):
        jobs = self._jobs()
        with BatchEngine(
            registry=self._realworld_registry(), affinity=False
        ) as stateless:
            baseline = [r.satisfiable for r in stateless.run(jobs).results]
        failing = [True]
        calls = self._count_prepare(monkeypatch, failing)
        with BatchEngine(registry=self._realworld_registry()) as engine:
            report = engine.run(jobs)
            # every job still answered, through per-job setup
            assert report.stats.errors == 0
            assert [r.satisfiable for r in report.results] == baseline
            # the failure was evicted after each job, never cached
            assert self._built_realworld(engine) == 0
            failed_calls = len(calls)
            assert failed_calls >= report.stats.trait_routed_answers["realworld"]
            # the next run retries the setup and keeps it
            failing[0] = False
            engine.cache.clear()
            again = engine.run(jobs)
            assert [r.satisfiable for r in again.results] == baseline
            assert 0 < len(calls) - failed_calls == self._built_realworld(engine)

    def test_verdicts_match_stateless_and_realworld_free_chains(self):
        from repro.sat import registry as sat_registry

        jobs = self._jobs(60)
        with BatchEngine(registry=self._realworld_registry()) as engine:
            engine.run(jobs)        # warm the runtime's contexts
            engine.cache.clear()
            warm = [r.satisfiable for r in engine.run(jobs).results]
            assert engine.last_stats.trait_routed_answers["realworld"] > 0
        with BatchEngine(
            registry=self._realworld_registry(), affinity=False
        ) as stateless:
            assert [r.satisfiable for r in stateless.run(jobs).results] == warm
        with sat_registry.disabled("realworld"):
            with BatchEngine(registry=self._realworld_registry()) as chain:
                report = chain.run(jobs)
            assert "realworld" not in report.stats.trait_routed_answers
            assert [r.satisfiable for r in report.results] == warm

    def test_pooled_engine_shares_inline_contexts(self, monkeypatch):
        calls = self._count_prepare(monkeypatch)
        jobs = self._jobs()
        with BatchEngine(
            registry=self._realworld_registry(), workers=2
        ) as engine:
            engine.run(jobs)
            assert len(calls) == self._built_realworld(engine) > 0
            engine.cache.clear()
            engine.run(jobs)
            assert len(calls) == self._built_realworld(engine)


# -- cross-run lane persistence --------------------------------------------------

class TestCrossRunPersistence:
    """The pool is engine-lifetime: lanes, shipped-DTD sets, and worker
    runtime contexts survive between run() calls, so a second batch over
    the same schemas ships nothing and lands on warm contexts."""

    # run-2 queries differ syntactically from run-1 (no decision-cache
    # short-circuit) but share (fingerprint, telemetry key), so chunks
    # land on warm runtime contexts
    RUN1 = ["A[not(C)]", "A[not(B)]", ".[not(A)]", "B[not(A)]"]
    RUN2 = ["C[not(B)]", "B[not(C)]", ".[not(B)]"]

    def _engine(self, registry):
        return BatchEngine(
            registry=registry, workers=2, affinity=True, group_chunk_size=2
        )

    def test_second_run_ships_nothing_and_hits_warm_contexts(self, registry):
        engine = self._engine(registry)
        cold = engine.run([Job(q, "disjfree") for q in self.RUN1])
        assert cold.stats.errors == 0
        assert cold.stats.dtd_ships >= 1
        warm = engine.run([Job(q, "disjfree") for q in self.RUN2])
        assert warm.stats.errors == 0
        assert warm.stats.dtd_ships == 0            # lanes kept the DTD
        assert warm.stats.runtime_context_hits > 0  # and the warm contexts
        # verdicts are bit-identical to a fresh engine's
        fresh = self._engine(registry).run([Job(q, "disjfree") for q in self.RUN2])
        assert [(r.satisfiable, r.method) for r in warm.results] == [
            (r.satisfiable, r.method) for r in fresh.results
        ]
        engine.close()

    def test_lane_killed_between_runs_recovers(self, registry):
        engine = self._engine(registry)
        first = engine.run([Job(q, "disjfree") for q in self.RUN1])
        assert first.stats.errors == 0
        pool = engine._pool_executor
        victims = [lane.process for lane in pool._lanes if lane.process]
        assert victims
        for process in victims:
            process.kill()
            process.join(timeout=10)
        second = engine.run([Job(q, "disjfree") for q in self.RUN2])
        # dead lanes respawn with empty shipped sets: verdicts survive,
        # the DTD is cleanly re-shipped
        assert second.stats.errors == 0
        assert second.stats.lane_respawns >= 1
        assert second.stats.dtd_ships >= 1
        fresh = self._engine(registry).run([Job(q, "disjfree") for q in self.RUN2])
        assert [r.satisfiable for r in second.results] == [
            r.satisfiable for r in fresh.results
        ]
        engine.close()


# -- streamed results ------------------------------------------------------------

class TestOnResultStreaming:
    def test_on_result_fires_exactly_once_per_job(self, registry):
        # every finalization path at once: intake error, parse error,
        # cache hit, inline, coalesced duplicate, pooled heavy jobs
        jobs = [
            Job("X1", "threesat", id="inline"),
            Job("X1", "threesat", id="duplicate"),
            Job("A[[", "threesat", id="parse-error"),
            Job("A", "nowhere", id="bad-schema"),
            {"query": 5},
            Job("A[not(C)]", "disjfree", id="heavy-1"),
            Job("A[not(B)]", "disjfree", id="heavy-2"),
            Job(".[not(A)]", "disjfree", id="heavy-3"),
        ]
        engine = BatchEngine(registry=registry, workers=2, group_chunk_size=2)
        streamed = []
        report = engine.run(jobs, on_result=streamed.append)
        assert len(streamed) == len(report.results) == len(jobs)
        # exactly the report's result objects, each seen once
        assert {id(r) for r in streamed} == {id(r) for r in report.results}
        engine.close()

    def test_on_result_streams_cache_hits_on_warm_run(self, registry):
        engine = BatchEngine(registry=registry)
        jobs = [Job("X1", "threesat"), Job("A[C]", "disjfree")]
        engine.run(jobs)
        streamed = []
        warm = engine.run(jobs, on_result=streamed.append)
        assert warm.stats.cache_hits == len(jobs)
        assert len(streamed) == len(jobs)
        engine.close()


# -- JSONL round trips -----------------------------------------------------------

class TestJobsIO:
    def test_jobs_roundtrip(self, tmp_path, registry):
        path = str(tmp_path / "jobs.jsonl")
        jobs = [
            Job("X1[T]", "threesat", id="a"),
            Job("A[B]"),
        ]
        assert write_jobs_file(path, jobs) == 2
        loaded = read_jobs_file(path)
        assert loaded == jobs

    def test_read_skips_blanks_and_comments(self):
        lines = [
            "# corpus header",
            "",
            '{"query": "A"}',
            '  {"query": "B", "schema": "s"}  ',
        ]
        assert list(read_jobs(lines)) == [Job("A"), Job("B", "s")]

    def test_read_rejects_bad_lines(self):
        with pytest.raises(EngineError, match="line 1"):
            list(read_jobs(["not json"]))
        with pytest.raises(EngineError, match="missing 'query'"):
            list(read_jobs(['{"schema": "s"}']))
        with pytest.raises(EngineError):
            list(read_jobs(['["a", "list"]']))

    def test_results_file(self, tmp_path, registry):
        import json

        engine = BatchEngine(registry=registry)
        report = engine.run([Job("X1[T and F]", "threesat", id="dead")])
        path = str(tmp_path / "results.jsonl")
        write_results_file(path, report)
        with open(path) as handle:
            records = [json.loads(line) for line in handle]
        assert records[0]["id"] == "dead"
        assert records[0]["satisfiable"] is False
        # threesat is duplicate-free, so the trait-gated realworld fast
        # path answers ahead of the types fixpoint (PR 9)
        assert records[0]["method"] == "isw-dcdf-restrained"


# -- engine vs. plain decide agreement -------------------------------------------

def test_engine_agrees_with_decide(registry):
    rng = random.Random(7)
    schemas = {name: registry.get(name).dtd for name in registry.names}
    jobs = batch_jobs(
        rng, schemas, n_jobs=60,
        fragments=(frag.DOWNWARD_QUAL, frag.CHILD_QUAL_NEG),
        max_depth=2, duplicate_rate=0.3,
    )
    report = BatchEngine(registry=registry).run(jobs)
    for job, result in zip(jobs, report.results):
        expected = decide(
            parse_query(job.query_text),
            registry.get(job.schema).dtd if job.schema else None,
        )
        assert result.satisfiable == expected.satisfiable, job.query_text
