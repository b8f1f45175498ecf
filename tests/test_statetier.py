"""Tests for the shared SQLite state tier (:mod:`repro.engine.statetier`).

Covers the tier's consistency model (LWW per key), crash-safety of the
atomic file write beside it (``metrics.prom``), warm starts through the
tier, concurrent multi-process writers, legacy JSON-dir migration, the
upgrade of state written when plans carried measured costs, and
version/corruption handling.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sqlite3

import pytest

from repro.cli import main
from repro.engine import BatchEngine, Job, SchemaRegistry, StateTier
from repro.engine.cache import CachedDecision, DecisionCache
from repro.engine.state import METRICS_FILE, _atomic_write_text, load_state
from repro.engine.statetier import (
    TIER_FILENAME,
    _is_contention,
    _is_corruption,
    resolve_tier_path,
)
from repro.errors import EngineError

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
        engine.close()
        # metrics.prom lands next to the database for textfile collectors
        assert os.path.exists(str(tmp_path / "tier" / "metrics.prom"))


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
        assert len(payload["processes"]) == 1


def _concurrent_writer(tier_path: str, writer: int, decisions: int) -> None:
    """Put ``decisions`` verdicts no other writer touches (this writer's
    own fingerprint), saving the whole cache every 5 puts."""
    tier = StateTier(tier_path)
    cache = DecisionCache()
    for i in range(decisions):
        cache.put(
            (f"q{i}", f"writer{writer}", "-"),
            CachedDecision(i % 2 == 0, "downward"),
        )
        if i % 5 == 0:
            tier.save(cache=cache)
    tier.save(cache=cache)
    tier.close()


class TestConcurrentWriters:
    """N processes saving disjoint decisions into one tier at once: the
    busy-retry write path must land every row."""

    def _run(self, tier_path: str, writers: int, decisions: int) -> None:
        processes = [
            multiprocessing.Process(
                target=_concurrent_writer, args=(tier_path, writer, decisions)
            )
            for writer in range(writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
            assert process.exitcode == 0
        with StateTier(tier_path) as tier:
            stored = dict(tier.load().decisions)
        assert set(stored) == {
            (f"q{i}", f"writer{writer}", "-")
            for writer in range(writers)
            for i in range(decisions)
        }
        for (qkey, _fingerprint, _bounds), record in stored.items():
            assert record["satisfiable"] is (int(qkey[1:]) % 2 == 0)

    def test_two_process_writers_lose_no_decisions(self, tmp_path):
        self._run(str(tmp_path / "tier"), writers=2, decisions=25)

    @pytest.mark.skipif(
        os.environ.get("REPRO_TIER_STRESS") != "1",
        reason="heavier tier stress runs nightly (REPRO_TIER_STRESS=1)",
    )
    def test_many_process_writers_lose_no_decisions(self, tmp_path):
        self._run(str(tmp_path / "tier"), writers=6, decisions=200)


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

        # plans, decisions, scheduler round-trip exactly
        assert {
            (fp, sig) for fp, plans in state.plans.items() for sig in plans
        } == {
            (fp, sig) for fp, plans in legacy.plans.items() for sig in plans
        }
        assert sorted(key for key, _ in state.decisions) == sorted(
            key for key, _ in legacy.decisions
        )
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


# -- satellite: state written when plans carried measured costs -------------------

#: the table through which earlier releases persisted measured decider
#: latency (its rows and the ``cost_min_samples`` meta row are no longer
#: read, and nothing drops them)
_OLD_COST_TABLE = """
CREATE TABLE IF NOT EXISTS cost_cells (
    signature TEXT NOT NULL,
    bucket TEXT NOT NULL,
    decider TEXT NOT NULL,
    count REAL NOT NULL,
    total_ms REAL NOT NULL,
    last_tick INTEGER NOT NULL,
    PRIMARY KEY (signature, bucket, decider)
);
"""

#: questions absent from any stored decision cache but sharing the stored
#: plans' signatures, so the adopted plans really execute
_UNCACHED_JOBS = [
    Job(query, schema, id=f"{schema}:{query}")
    for schema in ("catalog", "doc")
    for query in ("C[not(A)]", "title[not(text)]", ".[A and title]", "^/B", "C")
]


def _plan_rows(state_path: str) -> list[str]:
    conn = sqlite3.connect(resolve_tier_path(state_path))
    try:
        return [plan for (plan,) in conn.execute("SELECT plan FROM plans")]
    finally:
        conn.close()


def _answers(report) -> list[tuple]:
    """Verdict and error text per job — the method may differ when a
    stored chain runs in another order."""
    return [(r.id, r.satisfiable, r.error) for r in report.results]


def _fresh_answers(jobs) -> list[tuple]:
    with BatchEngine(registry=_registry()) as engine:
        return _answers(engine.run(jobs))


class TestCostStateUpgrade:
    def test_tier_with_cost_rows_loads_and_sheds_costs(self, tmp_path):
        """A tier holding cost cells, the ``cost_min_samples`` meta row and
        plan rows annotated with ``costs`` (one chain stored in a
        cost-promoted order) loads without a warning, keeps each stored
        chain, answers like a fresh engine, and writes no ``costs`` back."""
        tier_path = str(tmp_path / "tier")
        with BatchEngine(registry=_registry(), state_tier=tier_path) as seed:
            seed.run(_jobs() + _UNCACHED_JOBS)
            seed.cache.clear()          # plans persist, decisions do not
            seed.save_state()
        conn = sqlite3.connect(resolve_tier_path(tier_path))
        conn.executescript(_OLD_COST_TABLE)
        conn.executemany(
            "INSERT OR REPLACE INTO cost_cells VALUES(?, ?, ?, ?, ?, ?)",
            [("neg,qual", "s", "nexptime", 9.0, 2.7, 12),
             ("neg,qual", "s", "exptime_types", 9.0, 4.5, 12),
             ("()", "s", "downward", 4.0, 0.3, 5)],
        )
        conn.execute(
            "INSERT OR REPLACE INTO meta(key, value) "
            "VALUES('cost_min_samples', '3')"
        )
        for fingerprint, signature, plan_json in conn.execute(
            "SELECT fingerprint, signature, plan FROM plans"
        ).fetchall():
            record = json.loads(plan_json)
            chain = [record["decider"]] + record["fallbacks"]
            if signature == "neg,qual":
                chain.reverse()         # measured cheaper: promoted
                record["decider"], record["fallbacks"] = chain[0], chain[1:]
            record["costs"] = [[name, 0.25 * (i + 1)] for i, name in enumerate(chain)]
            conn.execute(
                "UPDATE plans SET plan = ? WHERE fingerprint = ? AND signature = ?",
                (json.dumps(record, sort_keys=True), fingerprint, signature),
            )
        conn.commit()
        conn.close()
        assert all('"costs"' in plan for plan in _plan_rows(tier_path))

        jobs = _jobs() + _UNCACHED_JOBS
        with BatchEngine(registry=_registry(), state_tier=tier_path) as warm:
            assert warm.state_warnings == []
            report = warm.run(jobs)
            assert report.stats.planner_invocations == 0
            promoted = warm.registry.get("catalog").plan_cache["neg,qual"]
            assert (promoted.decider,) + promoted.fallbacks \
                == ("nexptime", "exptime_types")
            warm.save_state()
        assert _answers(report) == _fresh_answers(jobs)
        rows = _plan_rows(tier_path)
        assert rows and not any('"costs"' in plan for plan in rows)
        # the old rows stay where they were: nothing reads or drops them
        conn = sqlite3.connect(resolve_tier_path(tier_path))
        assert conn.execute("SELECT COUNT(*) FROM cost_cells").fetchone() == (3,)
        conn.close()

    def test_legacy_json_fixture_with_cost_data(self, tmp_path):
        """The committed JSON fixture carries ``cost_model.json`` and
        ``costs`` on its plans: importing it warns only about the chains
        naming a retired decider, answers like a fresh engine, and the
        next save leaves no ``costs`` in any plan row."""
        state_dir = _legacy_state_dir(tmp_path)
        assert os.path.exists(os.path.join(state_dir, "cost_model.json"))
        jobs = _jobs() + _UNCACHED_JOBS
        with BatchEngine(registry=_registry(), state_tier=state_dir) as warm:
            assert warm.state_warnings
            assert all(
                "exptime_types_bits" in warning and "cost" not in warning
                for warning in warm.state_warnings
            )
            report = warm.run(jobs)
            warm.save_state()
        assert _answers(report) == _fresh_answers(jobs)
        rows = _plan_rows(state_dir)
        assert rows and not any('"costs"' in plan for plan in rows)
