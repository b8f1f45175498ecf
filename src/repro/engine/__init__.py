"""Batch decision engine: serve many queries per schema.

The paper's deciders answer one ``(query, DTD)`` question at a time; this
package amortizes their setup across production-scale workloads:

* :mod:`repro.engine.registry` — :class:`SchemaRegistry` fingerprints
  DTDs and precomputes per-schema artifacts (parsed model, dependency
  graph, Section-6 classification, Proposition 3.3 normal form) once;
* :mod:`repro.engine.cache` — :class:`DecisionCache`, a bounded LRU over
  canonical query form × schema fingerprint;
* :mod:`repro.engine.batch` — :class:`BatchEngine` runs ``(query,
  schema_ref)`` job streams, inline for PTIME fragments and on a process
  pool for EXPTIME/NEXPTIME ones;
* :mod:`repro.engine.executors` — the execution layer: an
  :class:`Executor` abstraction over :class:`InlineExecutor` and
  :class:`PersistentPoolExecutor`, whose long-lived worker lanes cache
  schemas and prepared contexts (:class:`WorkerRuntime`) across chunks
  with schema-fingerprint affinity routing;
* :mod:`repro.engine.jobs` — JSONL serialization driving ``python -m
  repro batch``;
* :mod:`repro.engine.frontdoor` — the JSONL transport (bind, signals,
  client read/write loops, drain) that ``serve`` and ``route`` share;
* :mod:`repro.engine.server` — :class:`EngineServer`, the asyncio daemon
  behind ``python -m repro serve``: one shared engine multiplexed across
  concurrent JSONL connections, with admission control and snapshots;
* :mod:`repro.engine.statetier` — :class:`StateTier`, the engine's
  persistence: one concurrent-safe SQLite (WAL) database that N
  processes load and save simultaneously, cost samples merging instead
  of overwriting (legacy JSON state dirs are imported on first open);
* :mod:`repro.engine.router` — :class:`EngineRouter`, the multi-process
  front door behind ``python -m repro route``: shards JSONL jobs across
  N engine processes by schema fingerprint and warms them from the tier.
"""

from repro.engine.batch import (
    BatchEngine,
    BatchReport,
    EngineStats,
    Job,
    JobResult,
    PlanGroup,
)
from repro.engine.cache import CachedDecision, DecisionCache, decision_key, decision_key_for
from repro.engine.executors import (
    ChunkOutcome,
    ChunkTask,
    Executor,
    ExecutorStats,
    InlineExecutor,
    PersistentPoolExecutor,
    WorkerRuntime,
)
from repro.engine.jobs import (
    read_jobs,
    read_jobs_file,
    write_jobs_file,
    write_results,
    write_results_file,
)
from repro.engine.registry import SchemaArtifacts, SchemaRegistry, schema_fingerprint
from repro.engine.router import EngineRouter, RouterStats, pick_shard
from repro.engine.server import EngineServer, ServerStats
from repro.engine.state import PersistedState, load_state
from repro.engine.statetier import StateTier, resolve_tier_path

__all__ = [
    "BatchEngine", "BatchReport", "EngineStats", "Job", "JobResult",
    "PlanGroup",
    "CachedDecision", "DecisionCache", "decision_key", "decision_key_for",
    "ChunkOutcome", "ChunkTask", "Executor", "ExecutorStats",
    "InlineExecutor", "PersistentPoolExecutor", "WorkerRuntime",
    "SchemaArtifacts", "SchemaRegistry", "schema_fingerprint",
    "EngineServer", "ServerStats",
    "EngineRouter", "RouterStats", "pick_shard",
    "PersistedState", "load_state",
    "StateTier", "resolve_tier_path",
    "read_jobs", "read_jobs_file", "write_jobs_file",
    "write_results", "write_results_file",
]
