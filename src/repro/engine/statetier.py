"""Engine state tier: one SQLite database, any number of engine processes.

:class:`StateTier` is where an engine persists its state (plans,
per-plan telemetry, cached decisions, scheduler tunables, engine
stats; see :mod:`repro.engine.state`) — one process or a whole fleet,
which read and write the database concurrently:

* **WAL mode** so readers never block the writer and vice versa, with a
  ``busy_timeout`` plus a bounded retry loop around every write
  transaction — two engines snapshotting at once serialize instead of
  failing;
* **last-writer-wins per key** for plans (``fingerprint × signature``),
  decisions (``query × fingerprint × bounds``), telemetry rows
  (``telemetry_key``), and scheduler tunables — a newer snapshot of the
  same key replaces the older one, different keys never interfere;
* a **versioned schema** (``meta.tier_version``) — a newer on-disk
  version refuses loudly instead of corrupting, an unreadable database
  file is set aside as ``*.corrupt`` and rebuilt (state is an
  optimization, never a correctness requirement).

``--state-tier PATH`` accepts either a database file (``*.sqlite`` /
``*.db``) or a directory, where the database lives at
``<dir>/state.sqlite``.  Pointing the tier at a **legacy JSON state
directory** imports it automatically on first open: the JSON files are
read through :func:`repro.engine.state.load_state` and imported
losslessly (they are left in place, untouched).  Every save also writes
``metrics.prom`` next to the database for textfile collectors.

A tier written when plans were ordered by measured latency still opens
as is: its cost-sample table and meta row are neither read nor dropped,
and its stored plans are adopted in their stored chain order (a
``costs`` annotation on a plan row is ignored and gone after the next
save).
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import threading
import time
from typing import Any

from repro.engine.state import (
    DECISIONS_FILE,
    ENGINE_STATS_FILE,
    METRICS_FILE,
    PLANS_FILE,
    SCHEDULER_FILE,
    TELEMETRY_FILE,
    PersistedState,
    _SCHEDULER_TUNABLES,
    _atomic_write_text,
    cap_decision_records,
    load_state as _load_json_state,
)
from repro.errors import EngineError
from repro.obs.log import get_logger
from repro.sat.planner import Plan
from repro.sat.telemetry import PlanTelemetry

_LOG = get_logger("repro.engine.statetier")

#: bump when the table layout changes; a tier written by a *newer*
#: version refuses to open (downgrade protection), an older one upgrades
TIER_VERSION = 1

#: database filename when ``--state-tier`` names a directory
TIER_FILENAME = "state.sqlite"

#: path suffixes under which ``--state-tier PATH`` is the database itself
_DB_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: legacy JSON files whose presence next to a fresh database triggers
#: the one-time auto-migration
_LEGACY_FILES = (
    PLANS_FILE, TELEMETRY_FILE, DECISIONS_FILE, SCHEDULER_FILE,
    ENGINE_STATS_FILE,
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS plans (
    fingerprint TEXT NOT NULL,
    signature TEXT NOT NULL,
    name TEXT NOT NULL,
    plan TEXT NOT NULL,
    updated REAL NOT NULL,
    PRIMARY KEY (fingerprint, signature)
);
CREATE TABLE IF NOT EXISTS decisions (
    qkey TEXT NOT NULL,
    fingerprint TEXT NOT NULL,
    bounds TEXT NOT NULL,
    satisfiable INTEGER,
    method TEXT NOT NULL,
    reason TEXT NOT NULL,
    updated REAL NOT NULL,
    PRIMARY KEY (qkey, fingerprint, bounds)
);
CREATE TABLE IF NOT EXISTS telemetry (
    key TEXT PRIMARY KEY,
    plan TEXT,
    stats TEXT NOT NULL,
    updated REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS scheduler (
    name TEXT PRIMARY KEY,
    value TEXT NOT NULL,
    updated REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS engine_stats (
    process TEXT PRIMARY KEY,
    stats TEXT NOT NULL,
    updated REAL NOT NULL
);
"""


def resolve_tier_path(path: str) -> str:
    """The database file a ``--state-tier PATH`` names: the path itself
    when it looks like (or already is) a database file, otherwise
    ``PATH/state.sqlite``."""
    if path.endswith(_DB_SUFFIXES) or os.path.isfile(path):
        return path
    return os.path.join(path, TIER_FILENAME)


#: primary SQLite result codes (``sqlite_errorcode`` is Python >= 3.11;
#: older interpreters fall back to the message text)
_CONTENTION_CODES = (5, 6)      # SQLITE_BUSY, SQLITE_LOCKED
_CORRUPTION_CODES = (11, 26)    # SQLITE_CORRUPT, SQLITE_NOTADB


def _error_code(error: sqlite3.DatabaseError) -> int | None:
    code = getattr(error, "sqlite_errorcode", None)
    return code & 0xFF if code is not None else None


def _is_contention(error: sqlite3.DatabaseError) -> bool:
    code = _error_code(error)
    if code is not None:
        return code in _CONTENTION_CODES
    message = str(error).lower()
    return "locked" in message or "busy" in message


def _is_corruption(error: sqlite3.DatabaseError) -> bool:
    code = _error_code(error)
    if code is not None:
        return code in _CORRUPTION_CODES
    message = str(error).lower()
    return "not a database" in message or "malformed" in message


class StateTier:
    """One shared SQLite state database (see the module docstring).

    A ``StateTier`` is a per-process *handle*: it owns one connection
    and the tier's read/write counters (``register_metrics`` publishes
    them as ``repro_tier_*``).
    The handle is thread-safe (one internal lock serializes its own
    operations); cross-process safety comes from SQLite itself.
    """

    def __init__(
        self,
        path: str,
        *,
        busy_timeout: float = 5.0,
        max_retries: int = 5,
    ) -> None:
        if busy_timeout <= 0:
            raise EngineError(
                f"busy_timeout must be positive, got {busy_timeout}"
            )
        if max_retries < 0:
            raise EngineError(
                f"max_retries must be non-negative, got {max_retries}"
            )
        self.path = resolve_tier_path(path)
        self.busy_timeout = busy_timeout
        self.max_retries = max_retries
        self.warnings: list[str] = []
        # repro_tier_* counters
        self.loads = 0
        self.saves = 0
        self.rows_read = 0
        self.rows_written = 0
        self.lock_retries = 0
        self.migrated_records = 0
        self._lock = threading.RLock()
        self._closed = False
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        fresh = not os.path.exists(self.path)
        self._conn = self._open(fresh)
        if fresh:
            self._migrate_legacy_json(directory)

    # -- connection lifecycle ------------------------------------------------
    def _connect(self) -> sqlite3.Connection:
        conn = sqlite3.connect(
            self.path,
            timeout=self.busy_timeout,
            isolation_level=None,       # explicit BEGIN IMMEDIATE below
            check_same_thread=False,    # guarded by self._lock
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute(
                f"PRAGMA busy_timeout={int(self.busy_timeout * 1000)}"
            )
            conn.execute("PRAGMA synchronous=NORMAL")
            return self._init_schema(conn)
        except BaseException:
            conn.close()
            raise

    def _open(self, fresh: bool) -> sqlite3.Connection:
        """Connect, retrying contention until ``busy_timeout`` runs out.

        Processes racing to open one tier contend on the just-created
        file, and ``PRAGMA journal_mode=WAL`` can answer SQLITE_BUSY
        without consulting the busy handler — so "locked"/"busy" is
        retried here, and only a file SQLite reports as corrupt or not a
        database is moved aside."""
        deadline = time.monotonic() + self.busy_timeout
        delay = 0.01
        while True:
            try:
                return self._connect()
            except sqlite3.DatabaseError as error:
                if _is_contention(error):
                    if time.monotonic() >= deadline:
                        raise EngineError(
                            f"state tier {self.path}: still locked after "
                            f"{self.busy_timeout}s ({error})"
                        ) from error
                    self.lock_retries += 1
                    time.sleep(delay)
                    delay = min(delay * 2, 0.25)
                    continue
                if fresh or not _is_corruption(error):
                    raise EngineError(
                        f"state tier {self.path}: {error}"
                    ) from error
                # an unreadable existing database: set it aside and
                # rebuild — shared state is an optimization, refusing to
                # serve over a corrupt file would turn it into a
                # correctness requirement
                corrupt = self.path + ".corrupt"
                message = (
                    f"state tier {self.path}: unreadable ({error}); "
                    f"moved aside to {corrupt} and rebuilt empty"
                )
                self.warnings.append(message)
                _LOG.warning(message)
                os.replace(self.path, corrupt)
                fresh = True

    def _init_schema(self, conn: sqlite3.Connection) -> sqlite3.Connection:
        conn.executescript(_SCHEMA)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'tier_version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT OR REPLACE INTO meta(key, value) VALUES(?, ?)",
                ("tier_version", str(TIER_VERSION)),
            )
        elif int(row[0]) > TIER_VERSION:
            conn.close()
            raise EngineError(
                f"state tier {self.path}: written by tier version {row[0]}, "
                f"this build understands {TIER_VERSION}; refusing to open"
            )
        # (older versions would upgrade here; version 1 is the first)
        return conn

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._conn.close()

    def __enter__(self) -> "StateTier":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _require_open(self) -> None:
        if self._closed:
            raise EngineError("state tier already closed")

    # -- retry plumbing ------------------------------------------------------
    def _with_retry(self, label: str, operation):
        """Run ``operation`` (which issues SQL), retrying on lock/busy
        contention with exponential backoff; other database errors and
        retry exhaustion surface as :class:`EngineError`."""
        delay = 0.05
        for attempt in range(self.max_retries + 1):
            try:
                return operation()
            except sqlite3.OperationalError as error:
                message = str(error).lower()
                if "locked" not in message and "busy" not in message:
                    raise EngineError(
                        f"state tier {label} failed: {error}"
                    ) from error
                if self._conn.in_transaction:
                    self._conn.execute("ROLLBACK")
                if attempt == self.max_retries:
                    raise EngineError(
                        f"state tier {label}: still locked after "
                        f"{self.max_retries} retries"
                    ) from error
                self.lock_retries += 1
                time.sleep(delay)
                delay = min(delay * 2, 0.5)

    # -- legacy JSON migration ----------------------------------------------
    def _migrate_legacy_json(self, directory: str) -> None:
        """One-time import of a legacy JSON state dir living next to a
        freshly created database (``--state-tier state/`` over a
        directory an earlier release wrote with ``--state-dir state/``).
        The JSON files are read through the forgiving
        :func:`~repro.engine.state.load_state` and left on disk
        untouched."""
        if not any(
            os.path.exists(os.path.join(directory, name))
            for name in _LEGACY_FILES
        ):
            return
        state = _load_json_state(directory)
        self.warnings.extend(state.warnings)
        before = self.rows_written
        self._write_state(
            plan_records={
                fingerprint: (state.plan_names.get(fingerprint, "(migrated)"),
                              per_schema)
                for fingerprint, per_schema in state.plans.items()
            },
            telemetry=state.telemetry,
            decision_records=[
                [list(key), record] for key, record in state.decisions
            ],
            scheduler=state.scheduler or None,
            engine_stats=state.engine_stats,
            process="legacy-json",
            extra_meta={"migrated_from_json": str(time.time())},
        )
        self.migrated_records = self.rows_written - before
        _LOG.info(
            "state tier %s: migrated %d records from the legacy JSON "
            "state dir %s", self.path, self.migrated_records, directory,
        )

    # -- load ----------------------------------------------------------------
    def load(self) -> PersistedState:
        """Read everything into a :class:`PersistedState` (the shape the
        engine adopts).  Malformed rows degrade to warnings, never
        failures."""
        with self._lock:
            self._require_open()
            state = self._with_retry("load", self._read_state)
        self.loads += 1
        return state

    def _read_state(self) -> PersistedState:
        state = PersistedState()

        for fingerprint, signature, name, plan_json in self._conn.execute(
            "SELECT fingerprint, signature, name, plan FROM plans"
        ):
            self.rows_read += 1
            try:
                plan = Plan.from_dict(json.loads(plan_json))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                self._warn(
                    state,
                    f"plan {fingerprint[:12]}/{signature}: {error}; skipped",
                )
                continue
            state.plans.setdefault(fingerprint, {})[signature] = plan
            state.plan_names[fingerprint] = name

        telemetry_record: dict[str, Any] = {}
        for key, plan_json, stats_json in self._conn.execute(
            "SELECT key, plan, stats FROM telemetry"
        ):
            self.rows_read += 1
            try:
                telemetry_record[key] = {
                    "plan": json.loads(plan_json) if plan_json else None,
                    "stats": json.loads(stats_json),
                }
            except json.JSONDecodeError as error:
                self._warn(state, f"telemetry {key}: {error}; skipped")
        if telemetry_record:
            state.telemetry = PlanTelemetry.from_dict(
                {"plans": telemetry_record}
            )

        for qkey, fingerprint, bounds, satisfiable, method, reason in (
            self._conn.execute(
                "SELECT qkey, fingerprint, bounds, satisfiable, method, "
                "reason FROM decisions ORDER BY updated, rowid"
            )
        ):
            self.rows_read += 1
            state.decisions.append((
                (qkey, fingerprint, bounds),
                {
                    "satisfiable": (
                        None if satisfiable is None else bool(satisfiable)
                    ),
                    "method": method,
                    "reason": reason,
                },
            ))

        for name, value_json in self._conn.execute(
            "SELECT name, value FROM scheduler"
        ):
            self.rows_read += 1
            validate = _SCHEDULER_TUNABLES.get(name)
            if validate is None:
                continue
            try:
                state.scheduler[name] = validate(json.loads(value_json))
            except (json.JSONDecodeError, ValueError, TypeError) as error:
                self._warn(state, f"scheduler {name}: {error}; ignored")

        stats_row = self._conn.execute(
            "SELECT stats FROM engine_stats ORDER BY updated DESC, rowid DESC "
            "LIMIT 1"
        ).fetchone()
        if stats_row is not None:
            self.rows_read += 1
            try:
                stats = json.loads(stats_row[0])
                if isinstance(stats, dict):
                    state.engine_stats = stats
            except json.JSONDecodeError as error:
                self._warn(state, f"engine stats: {error}; skipped")
        return state

    def _warn(self, state: PersistedState, message: str) -> None:
        message = f"state tier {self.path}: {message}"
        state.warnings.append(message)
        self.warnings.append(message)
        _LOG.warning(message)

    def engine_stats_rows(self) -> dict[str, dict[str, Any]]:
        """Per-process engine-stats snapshots (``process -> stats``):
        each engine saves under its own host:pid identity, so a fleet's
        last-run stats are inspectable side by side (``repro stats
        --plans --state-tier --json`` and the scale-out bench read
        these)."""
        with self._lock:
            self._require_open()
            rows = {}
            for process, stats_json in self._conn.execute(
                "SELECT process, stats FROM engine_stats ORDER BY updated"
            ):
                try:
                    stats = json.loads(stats_json)
                except json.JSONDecodeError:
                    continue
                if isinstance(stats, dict):
                    rows[process] = stats
            return rows

    # -- save ----------------------------------------------------------------
    def save(
        self,
        *,
        registry=None,
        telemetry: PlanTelemetry | None = None,
        cache=None,
        scheduler: dict[str, Any] | None = None,
        decision_cap_per_schema: int | None = None,
        telemetry_max_age_days: float | None = None,
        engine_stats: dict[str, Any] | None = None,
        metrics_text: str | None = None,
    ) -> None:
        """Persist the given engine components (``None`` pieces are left
        as stored) with the tier's consistency model: LWW per key,
        hygiene caps enforced in the database.
        One ``BEGIN IMMEDIATE`` transaction, retried on lock contention.
        ``metrics_text`` (a rendered Prometheus textfile) lands in
        ``metrics.prom`` next to the database."""
        plan_records = registry.plan_records() if registry is not None else None
        if telemetry is not None and telemetry_max_age_days is not None:
            # rows this process has not observed within the window are
            # not written; prune a rebuilt copy so the live engine keeps
            # its rows
            telemetry = PlanTelemetry.from_dict(telemetry.to_dict())
            telemetry.prune(telemetry_max_age_days * 86400.0)
        decision_records = None
        if cache is not None:
            decision_records = cache.to_records()
            if decision_cap_per_schema is not None:
                decision_records = cap_decision_records(
                    decision_records, decision_cap_per_schema
                )
        with self._lock:
            self._require_open()
            self._with_retry(
                "save",
                lambda: self._write_state(
                    plan_records=plan_records,
                    telemetry=telemetry,
                    telemetry_max_age_days=telemetry_max_age_days,
                    decision_records=decision_records,
                    decision_cap_per_schema=decision_cap_per_schema,
                    scheduler=scheduler,
                    engine_stats=engine_stats,
                ),
            )
        self.saves += 1
        if metrics_text is not None:
            _atomic_write_text(
                os.path.join(os.path.dirname(self.path) or ".", METRICS_FILE),
                metrics_text,
            )

    def _write_state(
        self,
        *,
        plan_records=None,
        telemetry: PlanTelemetry | None = None,
        telemetry_max_age_days: float | None = None,
        decision_records=None,
        decision_cap_per_schema: int | None = None,
        scheduler: dict[str, Any] | None = None,
        engine_stats: dict[str, Any] | None = None,
        process: str | None = None,
        extra_meta: dict[str, str] | None = None,
    ) -> None:
        now = time.time()
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        try:
            if plan_records is not None:
                for fingerprint, (name, per_schema) in plan_records.items():
                    for signature, plan in per_schema.items():
                        conn.execute(
                            "INSERT INTO plans(fingerprint, signature, name, "
                            "plan, updated) VALUES(?, ?, ?, ?, ?) "
                            "ON CONFLICT(fingerprint, signature) DO UPDATE SET "
                            "name = excluded.name, plan = excluded.plan, "
                            "updated = excluded.updated",
                            (fingerprint, signature, name,
                             json.dumps(plan.to_dict(), sort_keys=True), now),
                        )
                        self.rows_written += 1

            if telemetry is not None:
                for key, stats in telemetry.items():
                    plan_record = telemetry.plan_record(key)
                    conn.execute(
                        "INSERT INTO telemetry(key, plan, stats, updated) "
                        "VALUES(?, ?, ?, ?) "
                        "ON CONFLICT(key) DO UPDATE SET plan = excluded.plan, "
                        "stats = excluded.stats, updated = excluded.updated",
                        (
                            key,
                            json.dumps(plan_record, sort_keys=True)
                            if plan_record is not None else None,
                            json.dumps(stats.to_dict(), sort_keys=True),
                            now,
                        ),
                    )
                    self.rows_written += 1
                if telemetry_max_age_days is not None:
                    # cross-process hygiene: rows no process refreshed
                    # within the window age out of the shared tier too
                    conn.execute(
                        "DELETE FROM telemetry WHERE updated < ?",
                        (now - telemetry_max_age_days * 86400.0,),
                    )

            if decision_records is not None:
                touched_fingerprints = set()
                for key, record in decision_records:
                    qkey, fingerprint, bounds = (
                        str(key[0]), str(key[1]), str(key[2])
                    )
                    satisfiable = record.get("satisfiable")
                    conn.execute(
                        "INSERT INTO decisions(qkey, fingerprint, bounds, "
                        "satisfiable, method, reason, updated) "
                        "VALUES(?, ?, ?, ?, ?, ?, ?) "
                        "ON CONFLICT(qkey, fingerprint, bounds) DO UPDATE SET "
                        "satisfiable = excluded.satisfiable, "
                        "method = excluded.method, "
                        "reason = excluded.reason, "
                        "updated = excluded.updated",
                        (qkey, fingerprint, bounds,
                         None if satisfiable is None else int(satisfiable),
                         str(record.get("method", "")),
                         str(record.get("reason", "")), now),
                    )
                    touched_fingerprints.add(fingerprint)
                    self.rows_written += 1
                if decision_cap_per_schema is not None:
                    # enforce the per-schema cap on the *shared* table:
                    # newest rows win, same rule cap_decision_records
                    # applies to one process's records
                    for fingerprint in sorted(touched_fingerprints):
                        conn.execute(
                            "DELETE FROM decisions WHERE fingerprint = ? AND "
                            "rowid NOT IN (SELECT rowid FROM decisions "
                            "WHERE fingerprint = ? "
                            "ORDER BY updated DESC, rowid DESC LIMIT ?)",
                            (fingerprint, fingerprint,
                             decision_cap_per_schema),
                        )

            if scheduler is not None:
                for name, value in scheduler.items():
                    conn.execute(
                        "INSERT INTO scheduler(name, value, updated) "
                        "VALUES(?, ?, ?) "
                        "ON CONFLICT(name) DO UPDATE SET "
                        "value = excluded.value, updated = excluded.updated",
                        (name, json.dumps(value), now),
                    )
                    self.rows_written += 1

            if engine_stats is not None:
                identity = process if process is not None else self._identity()
                conn.execute(
                    "INSERT INTO engine_stats(process, stats, updated) "
                    "VALUES(?, ?, ?) "
                    "ON CONFLICT(process) DO UPDATE SET "
                    "stats = excluded.stats, updated = excluded.updated",
                    (identity, json.dumps(engine_stats, sort_keys=True), now),
                )
                self.rows_written += 1

            for key, value in (extra_meta or {}).items():
                conn.execute(
                    "INSERT OR REPLACE INTO meta(key, value) VALUES(?, ?)",
                    (key, value),
                )
            conn.execute("COMMIT")
        except BaseException:
            if conn.in_transaction:
                conn.execute("ROLLBACK")
            raise

    @staticmethod
    def _identity() -> str:
        return f"{socket.gethostname()}:{os.getpid()}"

    # -- observability -------------------------------------------------------
    def register_metrics(self, registry) -> None:
        registry.counters("repro_tier", self, (
            ("loads", "loads", "full state loads from the shared tier"),
            ("saves", "saves", "state snapshots written to the shared tier"),
            ("rows_read", "rows_read", "rows read from the shared tier"),
            ("rows_written", "rows_written",
             "rows upserted into the shared tier"),
            ("lock_retries", "lock_retries",
             "write transactions retried on lock contention"),
            ("migrated_records", "migrated_records",
             "records imported from a legacy JSON state dir"),
        ))
