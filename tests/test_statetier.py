"""Tests for the shared SQLite state tier (:mod:`repro.engine.statetier`).

Covers the tier's consistency model (LWW per key, monotonic cost-sample
merge, decay hygiene), crash-safety of the atomic file write beside it
(``metrics.prom``), warm starts through the tier, concurrent
multi-process writers, legacy JSON-dir migration, and
version/corruption handling.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.engine import BatchEngine, Job, SchemaRegistry, StateTier
from repro.engine.state import METRICS_FILE, _atomic_write_text, load_state
from repro.engine.statetier import (
    TIER_FILENAME,
    _is_contention,
    _is_corruption,
    resolve_tier_path,
)
from repro.errors import EngineError
from repro.sat.costmodel import CostModel

DTD_TEXT = """
root r
r -> A, (B + C)
A -> eps
B -> eps
C -> eps
"""

DOC_DTD_TEXT = """
root doc
doc -> title, para*
title -> eps
para -> text?
text -> eps
"""

QUERIES = ["A", "B", ".[B and C]", "A[not(B)]", "r//A", "^/A"]

#: a JSON state dir as the pre-tier JSON writer left it after one run of
#: _jobs() over _registry() (committed once; the tier only imports it)
LEGACY_STATE_DIR = os.path.join(
    os.path.dirname(__file__), "data", "legacy_json_state"
)


def _registry() -> SchemaRegistry:
    registry = SchemaRegistry()
    registry.register("catalog", DTD_TEXT)
    registry.register("doc", DOC_DTD_TEXT)
    return registry


def _jobs() -> list[Job]:
    return [
        Job(query, schema)
        for schema in ("catalog", "doc")
        for query in QUERIES
    ]


def _verdicts(report) -> list[tuple]:
    return [(r.id, r.satisfiable, r.method) for r in report.results]


def _legacy_state_dir(tmp_path) -> str:
    """A private copy of the committed legacy JSON state dir."""
    state_dir = str(tmp_path / "state")
    shutil.copytree(LEGACY_STATE_DIR, state_dir)
    return state_dir


# -- satellite: the one atomic-write helper --------------------------------------

class TestAtomicWrite:
    def test_writes_fsync_then_rename(self, tmp_path, monkeypatch):
        synced: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        path = str(tmp_path / "out.json")
        _atomic_write_text(path, json.dumps({"a": 1}))
        assert synced, "content must be fsynced before the rename"
        assert json.load(open(path)) == {"a": 1}
        assert not os.path.exists(path + ".tmp")

    def test_crash_before_rename_leaves_original_intact(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "out.json")
        _atomic_write_text(path, json.dumps({"generation": 1}))

        def explode(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", explode)
        with pytest.raises(OSError):
            _atomic_write_text(path, json.dumps({"generation": 2}))
        # the crash never touched the published file, and the torn tmp
        # file was cleaned up
        assert json.load(open(path)) == {"generation": 1}
        assert not os.path.exists(path + ".tmp")

    def test_engine_snapshot_survives_injected_crash(
        self, tmp_path, monkeypatch
    ):
        state_dir = str(tmp_path / "state")
        engine = BatchEngine(registry=_registry(), state_tier=state_dir)
        engine.run(_jobs())
        engine.save_state()
        with StateTier(state_dir) as tier:
            before = tier.load()
        assert before.plan_count >= 1
        metrics_path = os.path.join(state_dir, METRICS_FILE)
        metrics_before = open(metrics_path).read()

        def crash(fd):
            raise OSError("injected")

        engine.run(_jobs())
        monkeypatch.setattr(os, "fsync", crash)
        with pytest.raises(OSError):
            engine.save_state()
        monkeypatch.undo()
        # the database and the textfile are each the old or the new
        # generation — never torn
        with StateTier(state_dir) as tier:
            after = tier.load()
        assert not after.warnings
        assert after.plan_count >= before.plan_count
        assert open(metrics_path).read() == metrics_before
        assert not os.path.exists(metrics_path + ".tmp")
        engine.close()


# -- tier basics -----------------------------------------------------------------

class TestTierBasics:
    def test_resolve_tier_path(self, tmp_path):
        directory = str(tmp_path / "state")
        assert resolve_tier_path(directory) == os.path.join(
            directory, TIER_FILENAME
        )
        assert resolve_tier_path("/x/tier.sqlite") == "/x/tier.sqlite"
        assert resolve_tier_path("/x/tier.db") == "/x/tier.db"
        plain = tmp_path / "already-there"
        plain.write_text("")
        assert resolve_tier_path(str(plain)) == str(plain)

    def test_rejects_bad_tunables(self, tmp_path):
        with pytest.raises(EngineError, match="busy_timeout"):
            StateTier(str(tmp_path), busy_timeout=0)
        with pytest.raises(EngineError, match="max_retries"):
            StateTier(str(tmp_path), max_retries=-1)

    def test_round_trip_through_engine(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        engine = BatchEngine(registry=_registry(), state_tier=tier_path)
        baseline = _verdicts(engine.run(_jobs()))
        engine.save_state()
        engine.close()

        with StateTier(tier_path) as tier:
            state = tier.load()
        assert state.plan_count >= 1
        assert state.decisions
        assert state.cost_model is not None and len(state.cost_model) >= 1
        assert state.scheduler["group_chunk_size"] == 16
        assert state.telemetry is not None

        warm = BatchEngine(registry=_registry(), state_tier=tier_path)
        report = warm.run(_jobs())
        assert _verdicts(report) == baseline
        warm.close()

    def test_newer_tier_version_refuses_to_open(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        StateTier(tier_path).close()
        conn = sqlite3.connect(resolve_tier_path(tier_path))
        conn.execute(
            "UPDATE meta SET value = '99' WHERE key = 'tier_version'"
        )
        conn.commit()
        conn.close()
        with pytest.raises(EngineError, match="tier version 99"):
            StateTier(tier_path)

    def test_corrupt_database_is_set_aside_and_rebuilt(self, tmp_path):
        db_path = str(tmp_path / "tier.sqlite")
        with open(db_path, "wb") as handle:
            handle.write(b"this is not a database")
        tier = StateTier(db_path)
        assert any("moved aside" in w for w in tier.warnings)
        assert os.path.exists(db_path + ".corrupt")
        state = tier.load()       # rebuilt empty but serviceable
        assert state.plan_count == 0
        tier.close()

    def test_save_without_target_errors(self):
        engine = BatchEngine(registry=_registry())
        with pytest.raises(EngineError, match="no persistence target"):
            engine.save_state()
        engine.close()

    def test_tier_counters_ride_engine_metrics(self, tmp_path):
        engine = BatchEngine(
            registry=_registry(), state_tier=str(tmp_path / "tier")
        )
        engine.run(_jobs())
        engine.save_state()
        rendered = engine.metrics_registry().render_prometheus()
        assert "repro_tier_loads_total 1" in rendered
        assert "repro_tier_saves_total 1" in rendered
        assert "repro_tier_rows_written_total" in rendered
        assert "repro_tier_cells_merged_total" in rendered
        engine.close()
        # metrics.prom lands next to the database for textfile collectors
        assert os.path.exists(str(tmp_path / "tier" / "metrics.prom"))


# -- satellite: cost-model merge hygiene ------------------------------------------

class TestCostMergeHygiene:
    def test_merge_is_float_weighted_and_preserves_means(self):
        left = CostModel()
        for _ in range(2):
            left.observe("sig", "s", "d", 5.0)      # mean 5.0
        right = CostModel()
        for _ in range(6):
            right.observe("sig", "s", "d", 10.0)    # mean 10.0
        left.merge(right)
        entry = left.measured("sig", "s", "d")
        assert entry.count == pytest.approx(8.0)
        assert entry.total_ms == pytest.approx(70.0)
        assert entry.mean_ms == pytest.approx(8.75)  # sample-weighted

    def test_merge_takes_last_tick_max(self):
        left = CostModel()
        left.observe("sig", "s", "d", 1.0)
        right = CostModel()
        for _ in range(5):
            right.observe("sig", "s", "d", 1.0)
        right_tick = right.measured("sig", "s", "d").last_tick
        left.merge(right)
        assert left.measured("sig", "s", "d").last_tick == right_tick

    def test_tier_merge_is_additive_across_handles(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        one = StateTier(tier_path)
        model_one = CostModel()
        for _ in range(3):
            model_one.observe("sig", "s", "d", 2.0)
        one.save(cost_model=model_one)

        two = StateTier(tier_path)
        loaded = two.load().cost_model
        assert loaded.measured("sig", "s", "d").count == pytest.approx(3.0)
        model_two = CostModel()
        model_two.merge(loaded)
        two.note_cost_baseline(model_two)   # what the engine does on load
        for _ in range(2):
            model_two.observe("sig", "s", "d", 4.0)
        two.save(cost_model=model_two)

        merged = one.load().cost_model.measured("sig", "s", "d")
        assert merged.count == pytest.approx(5.0)
        assert merged.total_ms == pytest.approx(3 * 2.0 + 2 * 4.0)
        one.close()
        two.close()

    def test_resave_without_new_samples_adds_nothing(self, tmp_path):
        tier = StateTier(str(tmp_path / "tier"))
        model = CostModel()
        model.observe("sig", "s", "d", 1.0)
        tier.save(cost_model=model)
        tier.save(cost_model=model)     # no growth since the baseline
        tier.save(cost_model=model)
        entry = tier.load().cost_model.measured("sig", "s", "d")
        assert entry.count == pytest.approx(1.0)
        tier.close()

    def test_decayed_cells_never_resurrect_from_the_tier(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        tier = StateTier(tier_path)
        model = CostModel()
        model.observe("sig", "s", "d", 1.0)
        tier.save(cost_model=model)
        assert tier.load().cost_model is not None

        dropped = model.decay(0.25)     # count 1 -> 0.25 -> dropped
        assert dropped == 1
        tier.save(cost_model=model)
        assert tier.cells_deleted == 1
        state = tier.load()
        assert (
            state.cost_model is None
            or state.cost_model.measured("sig", "s", "d") is None
        )
        tier.close()

    def test_reobservation_after_drop_revives_the_cell(self, tmp_path):
        tier = StateTier(str(tmp_path / "tier"))
        model = CostModel()
        model.observe("sig", "s", "d", 1.0)
        tier.save(cost_model=model)
        model.decay(0.25)
        model.observe("sig", "s", "d", 7.0)     # fresh sample: legitimate
        tier.save(cost_model=model)
        entry = tier.load().cost_model.measured("sig", "s", "d")
        assert entry is not None
        assert entry.count >= 1.0
        tier.close()

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.floats(min_value=0.1, max_value=50.0),
            ),
            min_size=1, max_size=30,
        ),
        st.integers(min_value=1, max_value=4),
    )
    def test_no_samples_lost_across_interleaved_saves(
        self, tmp_path_factory, samples, save_every
    ):
        """Property: however two writers interleave observations and
        saves, the tier ends up with every sample exactly once."""
        tmp_path = tmp_path_factory.mktemp("tier-prop")
        tier_path = str(tmp_path / "tier")
        handles = [StateTier(tier_path), StateTier(tier_path)]
        models = [CostModel(), CostModel()]
        for step, (writer, elapsed) in enumerate(samples):
            models[writer].observe("sig", "s", "d", elapsed)
            if step % save_every == 0:
                handles[writer].save(cost_model=models[writer])
        for handle, model in zip(handles, models):
            handle.save(cost_model=model)
        entry = handles[0].load().cost_model.measured("sig", "s", "d")
        assert entry.count == pytest.approx(len(samples))
        assert entry.total_ms == pytest.approx(
            sum(elapsed for _, elapsed in samples), rel=1e-3
        )
        for handle in handles:
            handle.close()


# -- satellite: warm starts through the tier --------------------------------------

class TestWarmStart:
    def test_two_sequential_engines_start_warm(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        seed = BatchEngine(registry=_registry(), state_tier=tier_path)
        baseline = _verdicts(seed.run(_jobs()))
        assert seed.run(_jobs()).stats.planner_invocations == 0
        seed.save_state()
        seed.close()

        for _ in range(2):      # two successive warm processes
            engine = BatchEngine(registry=_registry(), state_tier=tier_path)
            report = engine.run(_jobs())
            assert _verdicts(report) == baseline
            assert report.stats.planner_invocations == 0
            assert report.stats.persisted_plans_loaded >= 1
            assert report.stats.decide_calls == 0
            engine.save_state()
            engine.close()

    def test_plan_naming_unregistered_decider_is_replanned(self, tmp_path):
        """A persisted plan whose chain names a decider that is no longer
        registered is dropped at adoption (with a warning) and rebuilt by
        the planner, instead of failing the whole run when an uncached
        job routes to it."""
        from repro.sat import registry as sat_registry

        tier_path = str(tmp_path / "tier")
        seed = BatchEngine(registry=_registry(), state_tier=tier_path)
        seed.run([Job("A[not(B)]", "catalog")])
        assert seed.registry.get("catalog").plan_cache["neg,qual"].decider \
            == "exptime_types"
        seed.save_state()
        seed.close()

        with sat_registry.disabled("exptime_types"):
            engine = BatchEngine(registry=_registry(), state_tier=tier_path)
            report = engine.run([Job("B[not(C)]", "catalog", id="uncached")])
            plan = engine.registry.get("catalog").plan_cache["neg,qual"]
            engine.close()
            baseline = BatchEngine(registry=_registry(), workers=1)
            expected = baseline.run([Job("B[not(C)]", "catalog", id="uncached")])
            baseline.close()
        assert report.stats.errors == 0
        assert report.stats.planner_invocations == 1
        assert _verdicts(report) == _verdicts(expected)
        assert "exptime_types" not in (plan.decider,) + plan.fallbacks
        assert any(
            "'neg,qual'" in warning and "exptime_types" in warning
            for warning in engine.state_warnings
        )

    def test_cli_batch_warm_start_through_tier(self, tmp_path, capsys):
        dtd = tmp_path / "catalog.dtd"
        dtd.write_text(DTD_TEXT)
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text("".join(
            json.dumps({"query": query, "schema": "catalog"}) + "\n"
            for query in QUERIES
        ))
        tier = str(tmp_path / "tier")
        cold_stats = str(tmp_path / "cold.json")
        code = main([
            "batch", str(jobs_file), "--schema", f"catalog={dtd}",
            "--state-tier", tier, "--stats-json", cold_stats,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "state: saved to" in out

        warm_stats = str(tmp_path / "warm.json")
        code = main([
            "batch", str(jobs_file), "--schema", f"catalog={dtd}",
            "--state-tier", tier, "--stats-json", warm_stats,
        ])
        assert code == 0
        (cold,) = json.load(open(cold_stats))
        (warm,) = json.load(open(warm_stats))
        assert cold["planner_invocations"] > 0
        assert warm["planner_invocations"] == 0
        assert warm["persisted_plans_loaded"] >= 1
        assert warm["decide_calls"] == 0

    def test_stats_plans_reads_the_tier(self, tmp_path, capsys):
        tier_path = str(tmp_path / "tier")
        engine = BatchEngine(registry=_registry(), state_tier=tier_path)
        engine.run(_jobs())
        engine.save_state()
        engine.close()
        code = main(["stats", "--plans", "--state-tier", tier_path, "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["plans"]
        assert payload["cost_model"]["entries"]
        assert len(payload["processes"]) == 1


def _concurrent_writer(tier_path: str, samples: int, ms: float) -> None:
    tier = StateTier(tier_path)
    model = CostModel()
    model.merge(tier.load().cost_model or CostModel())
    tier.note_cost_baseline(model)
    for i in range(samples):
        model.observe("sig", "s", "d", ms)
        if i % 5 == 0:
            tier.save(cost_model=model)
    tier.save(cost_model=model)
    tier.close()


class TestConcurrentWriters:
    def _run(self, tier_path: str, writers: int, samples: int) -> None:
        processes = [
            multiprocessing.Process(
                target=_concurrent_writer, args=(tier_path, samples, 2.0)
            )
            for _ in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0

    def test_two_process_writers_lose_no_samples(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        self._run(tier_path, writers=2, samples=25)
        with StateTier(tier_path) as tier:
            entry = tier.load().cost_model.measured("sig", "s", "d")
        assert entry.count == pytest.approx(2 * 25)
        assert entry.total_ms == pytest.approx(2 * 25 * 2.0, rel=1e-3)

    @pytest.mark.skipif(
        os.environ.get("REPRO_TIER_STRESS") != "1",
        reason="heavier tier stress runs nightly (REPRO_TIER_STRESS=1)",
    )
    def test_many_process_writers_lose_no_samples(self, tmp_path):
        tier_path = str(tmp_path / "tier")
        self._run(tier_path, writers=6, samples=200)
        with StateTier(tier_path) as tier:
            entry = tier.load().cost_model.measured("sig", "s", "d")
        assert entry.count == pytest.approx(6 * 200)


def _fresh_opener(root: str, trials: int, barrier, failures) -> None:
    """Open trial ``t``'s not-yet-existing tier at the same moment as
    every other opener (the barrier), recording any failed open."""
    errors = []
    for trial in range(trials):
        barrier.wait(timeout=60)
        try:
            StateTier(os.path.join(root, f"trial{trial}")).close()
        except Exception as error:
            errors.append(f"trial {trial}: {type(error).__name__}: {error}")
    failures.put(errors)


class TestConcurrentFreshOpen:
    """N processes racing to open one fresh tier: contention on the
    just-created database (``journal_mode=WAL`` can answer SQLITE_BUSY
    without consulting the busy handler) must be retried, never reported
    as a failed open or mistaken for corruption."""

    def _race(self, root: str, processes: int, trials: int) -> list[str]:
        ctx = multiprocessing.get_context("spawn")
        barrier = ctx.Barrier(processes)
        failures = ctx.Queue()
        workers = [
            ctx.Process(
                target=_fresh_opener, args=(root, trials, barrier, failures)
            )
            for _ in range(processes)
        ]
        for worker in workers:
            worker.start()
        errors = [error for _ in workers for error in failures.get(timeout=120)]
        for worker in workers:
            worker.join(timeout=60)
            assert worker.exitcode == 0
        return errors

    def _check(self, root: str, processes: int, trials: int) -> None:
        errors = self._race(root, processes, trials)
        assert errors == []
        moved = [
            name
            for _, _, files in os.walk(root)
            for name in files if name.endswith(".corrupt")
        ]
        assert moved == []
        for trial in range(trials):
            with StateTier(os.path.join(root, f"trial{trial}")) as tier:
                assert tier.warnings == []

    def test_error_classification_without_error_codes(self):
        # hand-built errors carry no sqlite_errorcode, like every error
        # on Python 3.10: classification falls back to the message
        assert _is_contention(sqlite3.OperationalError("database is locked"))
        assert _is_contention(sqlite3.OperationalError("database is busy"))
        assert not _is_corruption(
            sqlite3.OperationalError("database is locked")
        )
        assert _is_corruption(
            sqlite3.DatabaseError("file is not a database")
        )
        assert _is_corruption(
            sqlite3.DatabaseError("database disk image is malformed")
        )
        assert not _is_corruption(
            sqlite3.OperationalError("unable to open database file")
        )

    def test_racing_fresh_opens_neither_fail_nor_move_aside(self, tmp_path):
        self._check(str(tmp_path), processes=4, trials=150)

    @pytest.mark.skipif(
        os.environ.get("REPRO_TIER_STRESS") != "1",
        reason="heavier tier stress runs nightly (REPRO_TIER_STRESS=1)",
    )
    def test_many_racing_fresh_opens(self, tmp_path):
        self._check(str(tmp_path), processes=8, trials=200)


# -- satellite: legacy JSON migration ---------------------------------------------

class TestLegacyMigration:
    def test_json_dir_migrates_losslessly_on_first_open(self, tmp_path):
        state_dir = _legacy_state_dir(tmp_path)
        engine = BatchEngine(registry=_registry())
        baseline = _verdicts(engine.run(_jobs()))
        engine.close()
        legacy = load_state(state_dir)
        assert legacy.plan_count >= 1 and not legacy.warnings

        tier = StateTier(state_dir)     # same directory: auto-migration
        assert tier.migrated_records > 0
        state = tier.load()
        tier.close()

        # plans, decisions, cost cells, scheduler round-trip exactly
        assert {
            (fp, sig) for fp, plans in state.plans.items() for sig in plans
        } == {
            (fp, sig) for fp, plans in legacy.plans.items() for sig in plans
        }
        assert sorted(key for key, _ in state.decisions) == sorted(
            key for key, _ in legacy.decisions
        )
        assert state.cost_model.to_dict() == legacy.cost_model.to_dict()
        assert state.scheduler == legacy.scheduler
        assert sorted(state.telemetry.items()) == sorted(
            legacy.telemetry.items()
        )
        # the JSON files stay on disk untouched
        assert os.path.exists(os.path.join(state_dir, "plans.json"))

        # and a tier-backed engine serves identical verdicts, warm
        warm = BatchEngine(registry=_registry(), state_tier=state_dir)
        report = warm.run(_jobs())
        assert _verdicts(report) == baseline
        assert report.stats.planner_invocations == 0
        warm.close()

    def test_fixture_chains_naming_retired_decider_are_replanned(self, tmp_path):
        """The fixture's ``neg,qual``, ``qual`` and ``parent`` plans name
        the retired ``exptime_types_bits`` in their chains: a warm engine
        drops them at adoption, replans on first use, answers every job
        like a stateless engine, and writes the rebuilt chains back."""
        state_dir = _legacy_state_dir(tmp_path)
        # uncached questions (not in the fixture's decision cache) with the
        # fixture's signatures, so the adopted plans are really consulted
        jobs = [
            Job(query, schema, id=f"{schema}:{query}")
            for schema in ("catalog", "doc")
            for query in ("C[not(A)]", "title[not(text)]", ".[A and title]", "^/B")
        ]
        stateless = BatchEngine(registry=_registry())
        baseline = _verdicts(stateless.run(jobs))
        stateless.close()

        warm = BatchEngine(registry=_registry(), state_tier=state_dir)
        retired = [w for w in warm.state_warnings if "exptime_types_bits" in w]
        assert len(retired) == 6    # neg,qual / qual / parent on both schemas
        report = warm.run(jobs)
        assert report.stats.errors == 0
        assert _verdicts(report) == baseline
        assert report.stats.persisted_plans_loaded >= 2   # the "()" plans
        for name in ("catalog", "doc"):
            for signature, plan in warm.registry.get(name).plan_cache.items():
                assert "exptime_types_bits" not in (plan.decider,) + plan.fallbacks
            assert warm.registry.get(name).plan_cache["neg,qual"].fallbacks \
                == ("nexptime",)
        warm.save_state()
        warm.close()

        tier = StateTier(state_dir)
        state = tier.load()
        tier.close()
        chains = [
            (plan.decider,) + plan.fallbacks
            for plans in state.plans.values() for plan in plans.values()
        ]
        assert chains and not any("exptime_types_bits" in c for c in chains)

    @pytest.mark.parametrize("source", ["tier", "json_dir"])
    def test_retired_group_by_plan_tunable_is_skipped(self, tmp_path, source):
        """State written while ``group_by_plan`` was still a tunable may
        store it switched off; the engine loads such state without a
        warning, keeps the tunables it still has, and groups anyway."""
        if source == "tier":
            state_path = str(tmp_path / "tier")
            with StateTier(state_path) as tier:
                tier.save(scheduler={"group_by_plan": False, "group_chunk_size": 7})
        else:
            state_path = _legacy_state_dir(tmp_path)
            scheduler_file = os.path.join(state_path, "scheduler.json")
            with open(scheduler_file) as handle:
                record = json.load(handle)
            record.update(group_by_plan=False, group_chunk_size=7)
            with open(scheduler_file, "w") as handle:
                json.dump(record, handle)
        engine = BatchEngine(registry=_registry(), state_tier=state_path)
        scheduler_warnings = [
            w for w in engine.state_warnings
            if "scheduler" in w or "group_by_plan" in w
        ]
        assert scheduler_warnings == []
        if source == "tier":
            assert engine.state_warnings == []
        assert engine.group_chunk_size == 7
        report = engine.run([
            Job(query, schema)
            for schema in ("catalog", "doc")
            for query in ("A[not(B)]", "C[not(A)]", "title[not(text)]")
        ])
        engine.close()
        assert report.stats.errors == 0
        assert report.stats.plan_groups >= 1

    def test_migration_runs_only_once(self, tmp_path):
        state_dir = _legacy_state_dir(tmp_path)
        first = StateTier(state_dir)
        assert first.migrated_records > 0
        first.close()
        second = StateTier(state_dir)   # database exists: no re-import
        assert second.migrated_records == 0
        second.close()
