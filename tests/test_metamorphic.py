"""Metamorphic guarantees of the planner feedback loop.

Telemetry, cost-based routing, plan-cache persistence, and plan-grouped
scheduling are *performance* features: none of them may change a single
verdict.  The tests here decide one corpus several ways — static
ranking, cost-based ranking after calibration, a cold engine warmed from
a persisted state tier, and the plan-grouped scheduler against per-job
decisions — and require bit-identical verdicts (for grouping also
bit-identical decision-cache contents and telemetry verdict mixes
against a one-question-per-chunk engine), plus unit coverage
of the telemetry aggregator and the state serialization round trip.
"""

from __future__ import annotations

import json
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dtd import parse_dtd
from repro.engine import (
    BatchEngine,
    DecisionCache,
    EngineStats,
    Job,
    SchemaRegistry,
    StateTier,
)
from repro.engine.state import load_state
from repro.sat import CostModel, Plan, PlanTelemetry, Planner, calibrate, decide
from repro.sat.costmodel import size_bucket
from repro.sat.telemetry import PlanStats
from repro.workloads import batch_jobs
from repro.xpath import fragments as frag
from repro.xpath import parse_query

TINY_DTD = """
root r
r -> A, (B + C)
A -> eps
B -> eps
C -> eps
"""

DOC_DTD = """
root doc
doc -> title, para*
title -> eps
para -> text?
text -> eps
"""


def _schemas():
    return {"tiny": parse_dtd(TINY_DTD), "doc": parse_dtd(DOC_DTD)}


def _corpus(n_jobs=120):
    return batch_jobs(
        random.Random(42), _schemas(), n_jobs=n_jobs,
        fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL, frag.CHILD_QUAL_NEG),
        max_depth=2, duplicate_rate=0.3,
    )


def _registry():
    registry = SchemaRegistry()
    for name, dtd in _schemas().items():
        registry.register(name, dtd)
    return registry


def _verdicts(report):
    return [(result.id, result.satisfiable) for result in report.results]


def _tier_state(path):
    """What the state tier at ``path`` holds (a separate handle, as a
    second process would open it)."""
    with StateTier(path) as tier:
        return tier.load()


class TestMetamorphicVerdicts:
    def test_cost_based_ranking_never_changes_verdicts(self):
        jobs = _corpus()
        static_engine = BatchEngine(registry=_registry())
        baseline = _verdicts(static_engine.run(jobs))

        # train a cost model on the negation plans of both schemas, then
        # decide the same corpus with cost-based ranking
        model = CostModel(min_samples=1)
        calibration = [
            parse_query(text)
            for text in ("A[not(B)]", "B[not(C)]", ".[not(A)]")
        ]
        registry = _registry()
        for name in ("tiny", "doc"):
            artifacts = registry.get(name)
            plan = Planner().plan_query(calibration[0], artifacts=artifacts)
            queries = (
                calibration if name == "tiny"
                else [parse_query("title[not(para)]")]
            )
            calibrate(model, plan, queries, artifacts.dtd)
        cost_engine = BatchEngine(
            registry=registry, planner=Planner(cost_model=model)
        )
        assert _verdicts(cost_engine.run(jobs)) == baseline

    def test_retune_never_changes_verdicts(self):
        jobs = _corpus(80)
        engine = BatchEngine(registry=_registry())
        baseline = _verdicts(engine.run(jobs))
        # second pass replans against the measurements the first pass fed
        # into the engine's own cost model
        dropped = engine.retune()
        assert dropped >= 1
        engine.cache.clear()
        assert _verdicts(engine.run(jobs)) == baseline

    def test_persisted_state_reload_never_changes_verdicts(self, tmp_path):
        state_dir = str(tmp_path / "state")
        jobs = _corpus(80)
        warm_engine = BatchEngine(registry=_registry(), state_tier=state_dir)
        baseline = _verdicts(warm_engine.run(jobs))
        warm_engine.save_state()

        cold_engine = BatchEngine(registry=_registry(), state_tier=state_dir)
        report = cold_engine.run(jobs)
        assert _verdicts(report) == baseline
        # the cold process planned nothing and re-decided nothing
        assert report.stats.planner_invocations == 0
        assert report.stats.persisted_plans_loaded >= 1
        assert report.stats.decide_calls == 0

    def test_persisted_plans_apply_to_schemas_registered_later(self, tmp_path):
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(registry=_registry(), state_tier=state_dir)
        engine.run(_corpus(40))
        engine.save_state()

        # cold engine loads state BEFORE any schema is registered
        cold = BatchEngine(state_tier=state_dir)
        for name, dtd in _schemas().items():
            cold.registry.register(name, dtd)
        report = cold.run(_corpus(40))
        assert report.stats.planner_invocations == 0
        assert report.stats.persisted_plans_loaded >= 1


def _cache_records(engine):
    """Decision-cache contents, order-insensitively: grouping defers
    heavy decisions to group drain, so insertion (LRU) order may differ
    while the entry set must not."""
    return sorted(map(repr, engine.cache.to_records()))


def _verdict_mixes(engine):
    """Per-plan telemetry verdict mixes (plan key -> verdict counts)."""
    return {
        key: dict(stats.verdicts) for key, stats in engine.telemetry.items()
    }


def _decided(jobs):
    """The per-job verdict reference: one stateless
    :func:`repro.sat.decide` call per job, no engine involved."""
    schemas = _schemas()
    verdicts = []
    for raw in jobs:
        job = Job.coerce(raw)
        query = parse_query(job.query) if isinstance(job.query, str) else job.query
        dtd = schemas[job.schema] if job.schema is not None else None
        verdicts.append((
            job.id if job.id is not None else job.query_text,
            decide(query, dtd).satisfiable,
        ))
    return verdicts


def _per_job_engine(**kwargs):
    """The engine-side reference arm: one question per chunk on a
    stateless runtime, so no two jobs share any setup."""
    return BatchEngine(
        registry=_registry(), group_chunk_size=1, affinity=False, **kwargs
    )


class TestGroupedScheduling:
    """Plan-grouped dispatch is a scheduling change only: verdicts must
    equal per-job :func:`repro.sat.decide`, and decision-cache contents
    and telemetry verdict mixes must equal a one-question-per-chunk,
    stateless engine's."""

    def _mixed_corpus(self, n_jobs=120):
        # inline (PTIME downward) and pooled (negation) plans, plus
        # no-DTD jobs — the full routing mix the scheduler partitions
        return batch_jobs(
            random.Random(1307), _schemas(), n_jobs=n_jobs,
            fragments=(frag.DOWNWARD, frag.DOWNWARD_QUAL, frag.CHILD_QUAL_NEG),
            max_depth=2, duplicate_rate=0.3, no_dtd_rate=0.2,
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grouped_matches_ungrouped(self, workers):
        jobs = self._mixed_corpus()
        grouped = BatchEngine(registry=_registry(), workers=workers)
        per_job = _per_job_engine(workers=workers)
        grouped_report = grouped.run(jobs)
        per_job_report = per_job.run(jobs)
        assert _verdicts(grouped_report) == _decided(jobs)
        assert _verdicts(per_job_report) == _decided(jobs)
        assert _cache_records(grouped) == _cache_records(per_job)
        assert _verdict_mixes(grouped) == _verdict_mixes(per_job)
        assert grouped_report.stats.errors == per_job_report.stats.errors == 0
        assert grouped_report.stats.plan_groups >= 1
        assert grouped_report.stats.grouped_jobs >= 2
        assert max(per_job_report.stats.group_sizes) == 1

    def test_grouped_matches_ungrouped_with_chunking(self):
        jobs = self._mixed_corpus(80)
        grouped = BatchEngine(registry=_registry(), group_chunk_size=3)
        per_job = _per_job_engine()
        grouped_report = grouped.run(jobs)
        per_job.run(jobs)
        assert _verdicts(grouped_report) == _decided(jobs)
        assert _cache_records(grouped) == _cache_records(per_job)
        assert _verdict_mixes(grouped) == _verdict_mixes(per_job)
        # chunking shows in the group-size distribution
        assert max(grouped_report.stats.group_sizes) <= 3

    def test_single_job_groups(self):
        # every heavy question distinct per schema fragment shape: each
        # group holds one job, pays its own setup, reuses nothing
        jobs = [("A[not(B)]", "tiny"), ("title[not(para)]", "doc")]
        grouped = BatchEngine(registry=_registry())
        per_job = _per_job_engine()
        grouped_report = grouped.run(jobs)
        per_job.run(jobs)
        assert _verdicts(grouped_report) == _decided(jobs)
        assert _cache_records(grouped) == _cache_records(per_job)
        assert grouped_report.stats.plan_groups == 2
        assert grouped_report.stats.grouped_jobs == 2
        assert grouped_report.stats.setup_reuse == 0
        assert grouped_report.stats.jobs_per_group(0.5) == 1

    def test_grouped_setup_reuse_counted(self):
        # many jobs, one plan, one schema: a single group chunk pays
        # setup once and every groupmate after the lead reuses it
        jobs = [(f"A[not({label})]", "tiny") for label in ("A", "B", "C")]
        engine = BatchEngine(registry=_registry())
        report = engine.run(jobs)
        assert report.stats.plan_groups == 1
        assert report.stats.grouped_jobs == 3
        assert report.stats.setup_reuse == 2
        (stats,) = [
            stats for key, stats in engine.telemetry.items() if "neg" in key
        ]
        assert stats.groups == 1
        assert stats.grouped_jobs == 3
        assert stats.setup_reuse == 2

    def test_grouped_pool_matches_inline_grouped(self):
        jobs = self._mixed_corpus(60)
        pooled = BatchEngine(registry=_registry(), workers=2)
        inline = BatchEngine(registry=_registry(), workers=1)
        pooled_report = pooled.run(jobs)
        inline_report = inline.run(jobs)
        assert _verdicts(pooled_report) == _verdicts(inline_report)
        assert _cache_records(pooled) == _cache_records(inline)
        assert _verdict_mixes(pooled) == _verdict_mixes(inline)
        assert pooled_report.stats.pool_decides >= 1
        assert inline_report.stats.pool_decides == 0


class TestAffinityScheduling:
    """Schema-affinity scheduling (persistent worker runtimes) is a pure
    scheduling change: verdicts, decision-cache contents, and telemetry
    verdict mixes must be bit-identical with affinity on and off."""

    def _repeated_schema_corpus(self):
        # many heavy questions per schema with a small chunk size, so
        # each (schema × plan) produces several chunks — the shape where
        # runtime caching matters
        labels = ("A", "B", "C")
        jobs = [
            (f"{left}[not({right})]", "tiny")
            for left in labels for right in labels
        ]
        jobs += [("title[not(para)]", "doc"), ("para[not(text)]", "doc")]
        return jobs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_affinity_matches_stateless(self, workers):
        jobs = self._repeated_schema_corpus()
        affine = BatchEngine(
            registry=_registry(), workers=workers,
            affinity=True, group_chunk_size=3,
        )
        stateless = BatchEngine(
            registry=_registry(), workers=workers,
            affinity=False, group_chunk_size=3,
        )
        affine_report = affine.run(jobs)
        stateless_report = stateless.run(jobs)
        assert _verdicts(affine_report) == _verdicts(stateless_report)
        assert _cache_records(affine) == _cache_records(stateless)
        assert _verdict_mixes(affine) == _verdict_mixes(stateless)
        assert affine_report.stats.errors == stateless_report.stats.errors == 0
        # the warm runtime actually engaged (several chunks per schema)
        assert affine_report.stats.runtime_context_hits >= 1
        assert stateless_report.stats.runtime_context_hits == 0

    def test_inline_runtime_persists_across_runs(self):
        engine = BatchEngine(registry=_registry(), group_chunk_size=4)
        first = engine.run([(f"A[not({x})]", "tiny") for x in ("A", "B")])
        second = engine.run([(f"B[not({x})]", "tiny") for x in ("B", "C")])
        assert first.stats.runtime_context_hits == 0
        assert second.stats.runtime_context_hits == 1
        # and the telemetry row records the runtime hit
        (stats,) = [
            stats for key, stats in engine.telemetry.items() if "neg" in key
        ]
        assert stats.runtime_hits == 1
        assert stats.groups == 2

    def test_affinity_tunables_round_trip(self, tmp_path):
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(
            registry=_registry(), state_tier=state_dir,
            affinity=False, lane_queue_depth=9,
        )
        engine.run(_corpus(10))
        engine.save_state()
        reloaded = BatchEngine(registry=_registry(), state_tier=state_dir)
        assert reloaded.affinity is False
        assert reloaded.lane_queue_depth == 9
        explicit = BatchEngine(
            registry=_registry(), state_tier=state_dir, affinity=True
        )
        assert explicit.affinity is True
        assert explicit.lane_queue_depth == 9


class TestEngineTelemetry:
    def test_run_populates_per_plan_stats(self):
        engine = BatchEngine(registry=_registry())
        report = engine.run(_corpus(60))
        assert len(engine.telemetry) >= 1
        summary = report.stats.plans
        assert summary
        total = sum(row["count"] for row in summary.values())
        # cache hits and coalesced jobs do not execute a plan
        assert total == report.stats.decide_calls
        for row in summary.values():
            assert row["mean_ms"] >= 0.0
            assert sum(row["verdicts"].values()) == row["count"]

    def test_pooled_executions_feed_telemetry(self):
        registry = _registry()
        engine = BatchEngine(registry=registry, workers=2)
        report = engine.run([
            ("A[not(B)]", "tiny"), ("B[not(C)]", "tiny"), (".[B and C]", "tiny"),
        ])
        assert report.stats.pool_decides >= 1
        pooled_rows = [
            stats for key, stats in engine.telemetry.items()
            if "neg" in key or "qual" in key
        ]
        assert pooled_rows
        assert sum(stats.count for stats in pooled_rows) >= 1

    def test_plan_stats_percentiles_and_merge(self):
        stats = PlanStats()
        for elapsed in (0.04, 0.2, 0.2, 4.0):
            stats.record(elapsed, "sat", decider="downward")
        assert stats.count == 4
        assert stats.percentile_ms(0.5) == pytest.approx(0.25)
        assert stats.percentile_ms(1.0) == pytest.approx(5.0)
        other = PlanStats()
        other.record(3000.0, "unknown", decider="bounded", fallback=True)
        stats.merge(other)
        assert stats.count == 5
        assert stats.verdicts["unknown"] == 1
        assert stats.fallbacks == 1
        assert stats.percentile_ms(1.0) == pytest.approx(3000.0)  # overflow = max
        rebuilt = PlanStats.from_dict(stats.to_dict())
        assert rebuilt.to_dict() == stats.to_dict()

    def test_telemetry_round_trip_and_table(self):
        engine = BatchEngine(registry=_registry())
        engine.run(_corpus(40))
        rebuilt = PlanTelemetry.from_dict(engine.telemetry.to_dict())
        assert rebuilt.to_dict() == engine.telemetry.to_dict()
        table = engine.telemetry.table()
        assert "mean_ms" in table and "fb%" in table

    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(
                ["record", "fail", "get_record", "get_merge", "merge",
                 "prune", "reload", "summary", "summary"]
            ),
            st.integers(0, 2),
            st.sampled_from([0.03, 0.3, 4.0, 70.0, 4000.0]),
            st.booleans(),
        ),
        max_size=40,
    ))
    # a row pruned and re-recorded between summaries is a new PlanStats
    # at the same version as the one its cached row was built from
    @example([
        ("record", 0, 0.03, True), ("summary", 0, 0.03, True),
        ("prune", 0, 0.03, True), ("record", 0, 4000.0, False),
    ])
    def test_incremental_summary_equals_rebuild(self, operations):
        plans = [
            Plan(signature=f"s{i}", schema="abc", rewrites=(),
                 decider="downward", fallbacks=("bounded",) * i)
            for i in range(3)
        ]
        telemetry = PlanTelemetry()
        for op, index, elapsed, flag in operations:
            plan = plans[index]
            if op == "record":
                telemetry.record(
                    plan, elapsed, "sat" if flag else "unsat",
                    decider="downward", fallback=flag,
                    group_size=2 if flag else 0, group_lead=flag,
                    runtime_hit=flag,
                )
            elif op == "fail":
                telemetry.record_failure(plan, jobs=index + 1)
            elif op in ("get_record", "get_merge"):
                # live objects handed out by get() mutate behind the table
                stats = telemetry.get(plan.telemetry_key)
                if stats is None:
                    continue
                if op == "get_record":
                    stats.record(elapsed, "unknown", decider="bounded")
                else:
                    other = PlanStats()
                    other.record(elapsed, "sat", decider="bounded")
                    stats.merge(other)
            elif op == "merge":
                other = PlanTelemetry()
                other.record(plan, elapsed, "sat", decider="downward")
                telemetry.merge(other)
            elif op == "prune":
                telemetry.prune(0.0, now=time.time() + 1.0 if flag else 0.0)
            elif op == "reload":
                telemetry = PlanTelemetry.from_dict(telemetry.to_dict())
            else:
                self._check_summary(telemetry)
        self._check_summary(telemetry)

    @staticmethod
    def _check_summary(telemetry):
        """The incremental summary is byte-identical to one built from
        scratch over the same rows."""
        rebuilt = PlanTelemetry()
        rebuilt._stats = dict(telemetry.items())
        assert json.dumps(telemetry.summary()) == json.dumps(rebuilt.summary())


class TestStatePersistence:
    def test_state_round_trip(self, tmp_path):
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(registry=_registry())
        engine.run(_corpus(40))
        with StateTier(state_dir) as tier:
            tier.save(
                registry=engine.registry,
                telemetry=engine.telemetry,
                cost_model=engine.cost_model,
                cache=engine.cache,
            )
        state = _tier_state(state_dir)
        assert not state.warnings
        assert state.plan_count == sum(
            len(artifacts.plan_cache) for artifacts in engine.registry
        )
        assert state.telemetry is not None
        assert state.telemetry.to_dict() == engine.telemetry.to_dict()
        assert state.cost_model is not None
        assert state.cost_model.to_dict() == engine.cost_model.to_dict()
        assert len(state.decisions) == len(engine.cache)

    def test_missing_dir_is_empty_state(self, tmp_path):
        state = load_state(str(tmp_path / "nonexistent"))
        assert state.plan_count == 0
        assert state.telemetry is None
        assert not state.warnings

    def test_corrupt_files_degrade_with_warnings(self, tmp_path):
        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "plans.json").write_text("{ this is not json")
        (state_dir / "telemetry.json").write_text('["a list, not an object"]')
        (state_dir / "cost_model.json").write_text('{"version": 99}')
        state = load_state(str(state_dir))
        assert state.plan_count == 0
        assert state.telemetry is None
        assert state.cost_model is None
        assert len(state.warnings) == 3
        # a corrupt state dir must not break the engine
        engine = BatchEngine(registry=_registry(), state_tier=str(state_dir))
        report = engine.run(_corpus(20))
        assert report.stats.errors == 0

    def test_cost_model_round_trip_and_merge(self):
        model = CostModel(min_samples=2)
        bucket = size_bucket(8)
        model.observe("neg,qual", bucket, "bounded", 0.5)
        model.observe("neg,qual", bucket, "bounded", 1.5)
        rebuilt = CostModel.from_dict(model.to_dict())
        assert rebuilt.to_dict() == model.to_dict()
        entry = rebuilt.measured("neg,qual", bucket, "bounded")
        assert entry is not None and entry.mean_ms == pytest.approx(1.0)
        other = CostModel()
        other.observe("neg,qual", bucket, "bounded", 4.0)
        rebuilt.merge(other)
        merged = rebuilt.measured("neg,qual", bucket, "bounded")
        assert merged is not None and merged.count == 3
        assert merged.mean_ms == pytest.approx(2.0)

    def test_decision_cache_records_round_trip(self):
        engine = BatchEngine(registry=_registry())
        engine.run(_corpus(30))
        records = engine.cache.to_records()
        fresh = DecisionCache()
        assert fresh.load_records(records) == len(engine.cache)
        assert fresh.to_records() == records
        # malformed entries are skipped, not fatal
        assert fresh.load_records([[["k", "s", "-"], {"bogus": 1}]]) == 0


class TestStateDirHygiene:
    """Persisted state must stay bounded: decisions are capped per
    schema, telemetry rows age out — and the trimmed state still
    warm-starts correctly."""

    def test_cap_decision_records_keeps_newest_per_schema(self):
        from repro.engine.state import cap_decision_records

        records = [
            [[f"q{i}", "schemaA", "-"], {"satisfiable": True, "method": "m"}]
            for i in range(5)
        ] + [
            [[f"q{i}", "schemaB", "-"], {"satisfiable": False, "method": "m"}]
            for i in range(2)
        ]
        capped = cap_decision_records(records, 3)
        schema_a = [item for item in capped if item[0][1] == "schemaA"]
        schema_b = [item for item in capped if item[0][1] == "schemaB"]
        assert len(schema_a) == 3 and len(schema_b) == 2
        # newest (highest index = most recently used) survive, in order
        assert [item[0][0] for item in schema_a] == ["q2", "q3", "q4"]
        with pytest.raises(ValueError):
            cap_decision_records(records, 0)

    def test_capped_state_still_warm_starts(self, tmp_path):
        state_dir = str(tmp_path / "state")
        jobs = _corpus(80)
        engine = BatchEngine(
            registry=_registry(), state_tier=state_dir,
            decision_cap_per_schema=5,
        )
        engine.run(jobs)
        assert len(engine.cache) > 10   # the cap only applies on save
        engine.save_state()

        state = _tier_state(state_dir)
        per_schema = {}
        for (key, _record) in state.decisions:
            per_schema[key[1]] = per_schema.get(key[1], 0) + 1
        assert per_schema and all(count <= 5 for count in per_schema.values())

        # a cold engine on the capped state still warm-starts: plans all
        # persisted (plans are never capped), decisions partially; the
        # rerun re-decides only what the cap dropped, with identical
        # verdicts
        baseline = _verdicts(engine.run(jobs))
        cold = BatchEngine(registry=_registry(), state_tier=state_dir)
        report = cold.run(jobs)
        assert _verdicts(report) == baseline
        assert report.stats.planner_invocations == 0
        assert cold.persisted_decisions_loaded == sum(per_schema.values())
        assert report.stats.cache_hits >= cold.persisted_decisions_loaded

    def test_telemetry_rows_age_out_on_save(self, tmp_path):
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(
            registry=_registry(), state_tier=state_dir,
            telemetry_max_age_days=7.0,
        )
        engine.run(_corpus(40))
        # backdate one row beyond the age limit
        keys = [key for key, _stats in engine.telemetry.items()]
        stale_key = keys[0]
        engine.telemetry.get(stale_key).last_seen -= 8 * 86400.0
        engine.save_state()
        state = _tier_state(state_dir)
        assert state.telemetry is not None
        assert stale_key not in state.telemetry
        for key in keys[1:]:
            assert key in state.telemetry
        # the live engine keeps all rows (hygiene trims the file only)
        assert stale_key in engine.telemetry

    def test_prune_keeps_legacy_rows_without_stamp(self):
        from repro.sat.telemetry import PlanStats

        telemetry = PlanTelemetry.from_dict({
            "plans": {
                "legacy|row": {"plan": None, "stats": {"count": 3}},
                "fresh|row": {"plan": None, "stats": PlanStats().to_dict()},
            }
        })
        assert telemetry.get("legacy|row").last_seen == 0.0
        removed = telemetry.prune(max_age_s=1.0)
        assert removed == 0       # no stamp and a fresh stamp both survive
        with pytest.raises(ValueError):
            telemetry.prune(max_age_s=-1.0)

    def test_scheduler_tunables_round_trip(self, tmp_path):
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(
            registry=_registry(), state_tier=state_dir,
            affinity=False, group_chunk_size=7,
            decision_cap_per_schema=64, telemetry_max_age_days=3.0,
        )
        engine.run(_corpus(20))
        engine.save_state()
        state = _tier_state(state_dir)
        assert state.scheduler == {
            "group_chunk_size": 7,
            "decision_cap_per_schema": 64, "telemetry_max_age_days": 3.0,
            "affinity": False, "lane_queue_depth": 4,
        }
        reloaded = BatchEngine(registry=_registry(), state_tier=state_dir)
        assert reloaded.affinity is False
        assert reloaded.group_chunk_size == 7
        # explicit constructor settings beat persisted ones
        explicit = BatchEngine(
            registry=_registry(), state_tier=state_dir, affinity=True
        )
        assert explicit.affinity is True
        assert explicit.group_chunk_size == 7

    def test_corrupt_scheduler_values_degrade_with_warnings(self, tmp_path):
        import json

        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "scheduler.json").write_text(json.dumps({
            "version": 1, "group_chunk_size": -4,
            "telemetry_max_age_days": "soon", "affinity": True,
        }))
        state = load_state(str(state_dir))
        assert state.scheduler == {"affinity": True}
        assert len(state.warnings) == 2
        engine = BatchEngine(registry=_registry(), state_tier=str(state_dir))
        assert engine.group_chunk_size == 16   # default, bad value ignored
        assert engine.run(_corpus(10)).stats.errors == 0


class TestCostModelHygiene:
    """Regressions for cost-model poisoning: inconclusive runs must never
    become latency samples, or a fast-but-useless semi-decision procedure
    gets promoted to primary and every job pays for it twice."""

    def test_unknown_attempts_are_not_cost_samples(self):
        from repro.sat.planner import ExecutionTrace

        engine = BatchEngine(registry=_registry())
        plan = engine.planner.plan_query(
            parse_query("A[not(B)]"), artifacts=engine.registry.get("tiny")
        )
        trace = ExecutionTrace()
        trace.add("bounded", 0.01, "unknown")       # gave up fast
        trace.add("exptime_types", 2.0, "unsat")    # actually answered
        engine._observe(
            EngineStats(), plan, engine.registry.get("tiny"), trace, "unsat"
        )
        bucket = size_bucket(engine.registry.get("tiny").dtd.size())
        assert engine.cost_model.measured(plan.signature, bucket, "bounded") is None
        entry = engine.cost_model.measured(plan.signature, bucket, "exptime_types")
        assert entry is not None and entry.count == 1

    def test_calibrate_skips_inconclusive_deciders(self):
        from repro.sat.bounded import Bounds
        from repro.sat.planner import Plan

        dtd = _schemas()["doc"]  # starred: bounded answers unknown on UNSAT
        plan = Plan(
            signature="neg,qual", schema=None, rewrites=("canonicalize",),
            decider="bounded", fallbacks=(),
        )
        model = CostModel(min_samples=1)
        recorded = calibrate(
            model, plan,
            [parse_query(".[title and not(title)]")], dtd,
            bounds=Bounds(max_depth=1, max_trees=4),
        )
        assert recorded == 0
        assert model.measured("neg,qual", size_bucket(dtd.size()), "bounded") is None


class TestCostModelExploration:
    """Epsilon-exploration and decay (ROADMAP: cost-model freshness).
    Exploration probes are extra timings whose verdicts are discarded —
    the same hygiene rules as everywhere else apply: inconclusive probes
    record nothing, and neither feature can change a verdict."""

    def test_exploration_off_by_default(self):
        model = CostModel()
        assert model.explore_every == 0
        assert model.exploration_candidate("s", "m", ("a", "b")) is None

    def test_exploration_paces_and_picks_stalest(self):
        model = CostModel(min_samples=1, explore_every=2)
        chain = ("primary", "fb1", "fb2")
        # off-beat calls nominate nothing; on the beat, everything is
        # unmeasured so static chain order breaks the tie
        assert model.exploration_candidate("s", "m", chain) is None
        assert model.exploration_candidate("s", "m", chain) == "primary"
        model.observe("s", "m", "primary", 1.0)
        assert model.exploration_candidate("s", "m", chain) is None
        assert model.exploration_candidate("s", "m", chain) == "fb1"
        model.observe("s", "m", "fb1", 1.0)
        model.observe("s", "m", "fb2", 1.0)
        # all measured: the oldest tick (primary) is stalest
        assert model.exploration_candidate("s", "m", chain) is None
        assert model.exploration_candidate("s", "m", chain) == "primary"

    def test_excluded_members_are_not_probed(self):
        model = CostModel(explore_every=1)
        chain = ("primary", "fb1")
        assert model.exploration_candidate(
            "s", "m", chain, exclude={"primary"}
        ) == "fb1"
        assert model.exploration_candidate(
            "s", "m", chain, exclude={"primary", "fb1"}
        ) is None

    def test_single_member_chains_never_explore(self):
        model = CostModel(explore_every=1)
        assert model.exploration_candidate("s", "m", ("only",)) is None

    def test_rejects_negative_explore_every(self):
        with pytest.raises(ValueError):
            CostModel(explore_every=-1)

    def test_engine_probe_measures_a_fallback(self):
        # a fallback no normal execution would time gets measured by the
        # engine's probe hook; verdicts match the unexplored engine
        jobs = [(f"A[not({x})]", "tiny") for x in ("A", "B", "C")]
        explored = BatchEngine(
            registry=_registry(),
            cost_model=CostModel(min_samples=1, explore_every=1),
        )
        baseline = BatchEngine(registry=_registry())
        explored_report = explored.run(jobs)
        assert _verdicts(explored_report) == _verdicts(baseline.run(jobs))
        assert explored_report.stats.explore_probes >= 1
        artifacts = explored.registry.get("tiny")
        plan = explored.planner.plan_query(
            parse_query("A[not(B)]"), artifacts=artifacts
        )
        fallback_cells = [
            name for name in plan.fallbacks
            if explored.cost_model.measured(
                plan.signature, artifacts.cost_bucket, name
            ) is not None
        ]
        assert fallback_cells, "no fallback was ever probed"

    def test_inconclusive_probes_record_nothing(self, monkeypatch):
        # hygiene: a probe that answers unknown must not become a latency
        # sample (same rule as TestCostModelHygiene) — force the nexptime
        # fallback to give up, then probe it on every decision
        import dataclasses

        from repro.sat import registry as sat_registry
        from repro.sat.result import SatResult

        spec = sat_registry.get_decider("nexptime")

        def gives_up(query, dtd, width_cap=5, assignment_cap=4096,
                     context=None):
            return SatResult(None, spec.method, reason="gave up")

        monkeypatch.setitem(
            sat_registry._REGISTRY, "nexptime",
            dataclasses.replace(spec, fn=gives_up),
        )
        model = CostModel(min_samples=1, explore_every=1)
        engine = BatchEngine(registry=_registry(), cost_model=model)
        report = engine.run([(f"A[not({x})]", "tiny") for x in ("A", "B", "C")])
        assert report.stats.explore_probes >= 1
        artifacts = engine.registry.get("tiny")
        plan = engine.planner.plan_query(
            parse_query("A[not(B)]"), artifacts=artifacts
        )
        assert "nexptime" in plan.fallbacks
        assert model.measured(
            plan.signature, artifacts.cost_bucket, "nexptime"
        ) is None

    def test_probe_applies_plan_rewrites(self):
        # a rewrite-bearing plan (upward_to_qualifiers) must probe the
        # REWRITTEN query — the unrewritten upward form would just make
        # the probed decider decline and the cell would never refresh
        model = CostModel(min_samples=1, explore_every=1)
        engine = BatchEngine(registry=_registry(), cost_model=model)
        artifacts = engine.registry.get("tiny")
        plan = engine.planner.plan_query(
            parse_query("A/^"), artifacts=artifacts
        )
        assert "upward_to_qualifiers" in plan.rewrites
        assert plan.fallbacks                  # multi-member chain
        report = engine.run([("A/^", "tiny"), ("A/^/B", "tiny")])
        assert report.stats.errors == 0
        assert report.stats.explore_probes >= 1
        probed = [
            name for name in plan.fallbacks
            if model.measured(
                plan.signature, artifacts.cost_bucket, name
            ) is not None
        ]
        assert probed, "the rewrite-bearing plan's probe never concluded"

    def test_decay_preserves_means_and_expires_cells(self):
        model = CostModel(min_samples=2)
        for elapsed in (1.0, 3.0, 2.0):
            model.observe("s", "m", "d", elapsed)
        entry = model.measured("s", "m", "d")
        assert entry.count == 3 and entry.mean_ms == pytest.approx(2.0)
        assert model.decay(0.5) == 0
        entry = model.measured("s", "m", "d")
        assert entry.count == pytest.approx(1.5)
        assert entry.mean_ms == pytest.approx(2.0)   # mean preserved
        assert not model.is_measured(
            type("S", (), {"name": "d"})(), "s", "m"
        )  # 1.5 < min_samples: unmeasured again
        assert model.decay(0.5) == 1                 # 0.75 < 1: dropped
        assert model.measured("s", "m", "d") is None

    def test_decay_validates_factor(self):
        model = CostModel()
        for factor in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                model.decay(factor)

    def test_retune_with_decay_never_changes_verdicts(self):
        jobs = _corpus(40)
        engine = BatchEngine(registry=_registry())
        baseline = _verdicts(engine.run(jobs))
        engine.retune(decay=0.5)
        engine.cache.clear()
        assert _verdicts(engine.run(jobs)) == baseline

    def test_serialization_round_trips_ticks_and_legacy_entries(self):
        model = CostModel(min_samples=1)
        model.observe("s", "m", "d", 2.0)
        rebuilt = CostModel.from_dict(model.to_dict())
        assert rebuilt.to_dict() == model.to_dict()
        assert rebuilt.measured("s", "m", "d").last_tick == 1
        # legacy 5-element entries (pre-tick state files) still load
        legacy = CostModel.from_dict({
            "min_samples": 1,
            "entries": [["s", "m", "d", 2, 4.0]],
        })
        entry = legacy.measured("s", "m", "d")
        assert entry is not None and entry.count == 2.0
        assert entry.last_tick == 0


class TestStateDirSharing:
    def test_alternating_workloads_keep_each_others_plans(self, tmp_path):
        """A run that registers only schema B must not erase schema A's
        persisted plans from a shared state dir."""
        state_dir = str(tmp_path / "state")
        schemas = _schemas()

        first = BatchEngine(state_tier=state_dir)
        first.registry.register("tiny", schemas["tiny"])
        first.run([("A[not(B)]", "tiny"), ("B | C", "tiny")])
        tiny_plans = sum(len(a.plan_cache) for a in first.registry)
        assert tiny_plans >= 1
        first.save_state()

        second = BatchEngine(state_tier=state_dir)
        second.registry.register("doc", schemas["doc"])
        second.run([("title", "doc")])
        second.save_state()

        third = BatchEngine(state_tier=state_dir)
        third.registry.register("tiny", schemas["tiny"])
        report = third.run([("A[not(B)]", "tiny"), ("B | C", "tiny")])
        assert report.stats.planner_invocations == 0
        assert report.stats.persisted_plans_loaded >= tiny_plans

    def test_retune_discards_pending_persisted_plans(self, tmp_path):
        """A schema registered after retune() must be replanned, not
        handed a stale persisted plan."""
        state_dir = str(tmp_path / "state")
        first = BatchEngine(state_tier=state_dir)
        first.registry.register("tiny", _schemas()["tiny"])
        first.run([("A[not(B)]", "tiny")])
        first.save_state()

        second = BatchEngine(state_tier=state_dir)  # tiny not yet registered
        assert second.retune() >= 1
        second.cache.clear()  # the persisted decisions would answer first
        second.registry.register("tiny", _schemas()["tiny"])
        report = second.run([("A[not(B)]", "tiny")])
        assert report.stats.planner_invocations == 1
        assert report.stats.persisted_plans_loaded == 0

    def test_inline_errors_do_not_skew_latency_histogram(self):
        engine = BatchEngine(registry=_registry())
        engine.run([("A[not(B)]", "tiny")])
        (key,) = [k for k, _ in engine.telemetry.items()]
        before = engine.telemetry.get(key).count
        engine.telemetry.record_failure(
            Plan.from_dict(engine.telemetry.plan_record(key))
        )
        stats = engine.telemetry.get(key)
        assert stats.count == before            # no latency sample added
        assert stats.verdicts["error"] == 1     # but the failure is counted

    def test_payload_corruption_degrades_with_warnings(self, tmp_path):
        """Corruption below the top level (valid JSON, bogus values) must
        degrade to a cold start too, never crash the run."""
        import json

        state_dir = tmp_path / "state"
        state_dir.mkdir()
        (state_dir / "cost_model.json").write_text(
            json.dumps({"version": 1, "min_samples": 0,
                        "entries": [["s", "b", "d", "xx", "yy"]]})
        )
        (state_dir / "telemetry.json").write_text(
            json.dumps({"version": 1, "plans": {
                "k": {"plan": None, "stats": {"count": "zzz"}}}})
        )
        state = load_state(str(state_dir))
        assert state.cost_model is not None       # clamped + bad entry skipped
        assert len(state.cost_model) == 0
        assert state.telemetry is not None and len(state.telemetry) == 0
        engine = BatchEngine(registry=_registry(), state_tier=str(state_dir))
        report = engine.run([("A[not(B)]", "tiny")])
        assert report.stats.errors == 0
