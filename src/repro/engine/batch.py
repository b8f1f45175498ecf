"""The batch satisfiability engine.

:class:`BatchEngine` layers its amortizations over the planner's
:func:`repro.sat.planner.execute_plan` (the executor behind the public
:func:`repro.sat.dispatch.decide`) for the serve-many-queries-per-schema
workload:

1. **per-schema artifacts** — DTD parsing, classification, and graph
   construction run once per schema in the :class:`SchemaRegistry` and
   feed the planner's trait lookups;
2. **plan caching** — routing goes through the query planner
   (:mod:`repro.sat.planner`); the resulting
   :class:`~repro.sat.planner.Plan` is cached per feature signature on the
   schema's artifact record, so a warm run resolves routing with zero
   planner invocations and jobs group by plan;
3. **decision caching** — a bounded LRU keyed on canonical query form ×
   schema fingerprint (:class:`DecisionCache`), so repeated questions
   (including syntactic variants) skip the deciders entirely;
4. **plan-grouped heavy jobs** — PTIME plans are decided inline (forking
   a worker would cost more than the decision); every job whose plan
   routes to the heavy EXPTIME/NEXPTIME/bounded procedures
   (``plan.route == "pool"``) is queued into a :class:`PlanGroup` keyed
   by ``Plan.telemetry_key`` × schema fingerprint, and each chunk of at
   most ``group_chunk_size`` questions runs as **one** executor task —
   on the worker lanes when ``workers > 1``, on the inline executor
   otherwise.  A chunk pickles the DTD and plan once instead of per job,
   and the decider chain's ``prepare`` hooks
   (:class:`repro.sat.planner.PlanContexts`) run once per chunk, so N
   groupmates share per-plan setup (the types fixpoint's automata, the
   bounded engine's schema classification and word tables).  Grouping is
   a pure scheduling change: verdicts, cache contents, and telemetry
   verdict mixes equal per-job decisions (see
   ``tests/test_metamorphic.py``);
5. **persistent worker runtimes with schema affinity** — every chunk
   runs on the :class:`~repro.engine.executors.Executor` abstraction:
   inline chunks (and the inline PTIME decides' ``prepare`` contexts)
   on an engine-lifetime
   :class:`~repro.engine.executors.InlineExecutor`, pooled ones on a
   :class:`~repro.engine.executors.PersistentPoolExecutor` of long-lived
   worker *lanes* whose :class:`~repro.engine.executors.WorkerRuntime`
   caches DTDs and prepared contexts by schema fingerprint **across
   chunks**.  Chunks route to lanes by schema-fingerprint affinity (a
   consistent hash, spilling over when the preferred lane's queue is
   deep), the DTD ships to a lane only on first touch, and a dead lane
   is respawned cold with its in-flight chunks retried once.  Disable
   with ``affinity=False`` (``--no-affinity``) for stateless pooling;
   affinity is a pure scheduling change too — same bit-identical
   guarantees as grouping;
6. **an engine lifecycle** — executors are *engine*-lifetime, not
   run-lifetime: worker lanes, their shipped-DTD sets, and their runtime
   context caches persist across :meth:`BatchEngine.run` calls, so the
   second batch over the same schemas ships zero DTDs and starts from
   warm contexts.  The engine is a context manager; ``close()`` releases
   the lanes, and a closed engine refuses further runs instead of
   hanging on torn-down queues.  This is what lets one engine back a
   long-lived service (:mod:`repro.engine.server`).

Identical in-flight questions are coalesced: within one batch, a question
is decided at most once no matter how many jobs ask it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

if TYPE_CHECKING:  # statetier imports state which is import-light, but
    # the engine only needs the type for annotations
    from repro.engine.statetier import StateTier

from repro.errors import EngineError, ReproError
from repro.engine.cache import CachedDecision, CacheKey, DecisionCache, decision_key_for
from repro.engine.executors import (
    DEFAULT_LANE_QUEUE_DEPTH,
    ChunkOutcome,
    ChunkTask,
    Executor,
    InlineExecutor,
    PersistentPoolExecutor,
    WorkerRuntime,
)
from repro.engine.registry import SchemaArtifacts, SchemaRegistry
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import FAILED, JobTrace, Span, Tracer, attempt_spans
from repro.sat.bounded import Bounds
from repro.sat.costmodel import CostModel, size_bucket
from repro.sat.planner import ExecutionTrace, Plan, Planner, execute_plan
from repro.sat.registry import decider_traits, get_decider
from repro.sat.telemetry import LATENCY_BUCKETS_MS, PlanTelemetry, verdict_name
from repro.xpath.rewrite import get_pass
from repro.xpath.ast import Path
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import features_of
from repro.xpath.parser import parse_query

_LOG = get_logger("repro.engine.batch")


@dataclass(frozen=True)
class Job:
    """One satisfiability question: a query against a registered schema
    (``schema=None`` decides over unconstrained trees)."""

    query: str | Path
    schema: str | None = None
    id: str | None = None

    @classmethod
    def coerce(cls, raw: "Job | dict | tuple | str") -> "Job":
        if isinstance(raw, cls):
            job = raw
        elif isinstance(raw, str):
            job = cls(query=raw)
        elif isinstance(raw, tuple):
            if not 1 <= len(raw) <= 3:
                raise EngineError(f"job tuple must be (query[, schema[, id]]): {raw!r}")
            job = cls(*raw)
        elif isinstance(raw, dict):
            if "query" not in raw:
                raise EngineError(f"job record missing 'query': {raw!r}")
            job = cls(query=raw["query"], schema=raw.get("schema"), id=raw.get("id"))
        else:
            raise EngineError(f"cannot interpret job {raw!r}")
        if not isinstance(job.query, (str, Path)):
            raise EngineError(
                f"job query must be an XPath string or AST, got {job.query!r}"
            )
        if job.schema is not None and not isinstance(job.schema, str):
            raise EngineError(f"job schema must be a string, got {job.schema!r}")
        return job

    @property
    def query_text(self) -> str:
        return self.query if isinstance(self.query, str) else str(self.query)


@dataclass
class JobResult:
    """Structured outcome of one job."""

    id: str
    query: str
    schema: str | None
    fingerprint: str | None
    satisfiable: bool | None
    method: str
    reason: str = ""
    route: str = "inline"          # cache | inline | pool | error
    cached: bool = False
    elapsed_ms: float = 0.0
    error: str | None = None

    def to_record(self) -> dict[str, Any]:
        record = {
            "id": self.id,
            "query": self.query,
            "schema": self.schema,
            "fingerprint": self.fingerprint,
            "satisfiable": self.satisfiable,
            "method": self.method,
            "route": self.route,
            "cached": self.cached,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.reason:
            record["reason"] = self.reason
        if self.error is not None:
            record["error"] = self.error
        return record


@dataclass
class EngineStats:
    """Aggregate counters for one :meth:`BatchEngine.run`."""

    jobs: int = 0
    errors: int = 0
    decide_calls: int = 0
    inline_decides: int = 0
    pool_decides: int = 0
    cache_hits: int = 0
    coalesced: int = 0
    planner_invocations: int = 0   # plans built during this run
    plan_cache_hits: int = 0       # routing resolved from a plan cache
    # plan-grouped scheduling (this run): chunks dispatched, unique jobs
    # executed inside a chunk, jobs that reused a groupmate's prepare()
    # context, and chunks whose *primary* prepare() failed (they fell
    # back to per-job setup but still ran as one task)
    plan_groups: int = 0
    grouped_jobs: int = 0
    setup_reuse: int = 0
    prepare_fallbacks: int = 0
    group_sizes: list[int] = field(default_factory=list)
    # executor layer (this run): lanes in the pool (0 = no pool was
    # needed), whether schema-affinity scheduling was on, DTDs actually
    # pickled to a lane (first touch; stateless mode ships per chunk),
    # chunks that found their prepare() contexts warm in a persistent
    # worker runtime, chunks that spilled off their preferred lane,
    # lanes respawned after a worker death, and in-flight chunks retried
    # on a respawned lane.  A retried chunk reports its group counters
    # exactly once — grouped_jobs/setup_reuse never double-count a
    # retry (see tests/test_engine.py::TestWorkerDeathRecovery).
    lanes: int = 0
    affinity: bool = True
    dtd_ships: int = 0
    runtime_context_hits: int = 0
    affinity_spills: int = 0
    lane_respawns: int = 0
    chunk_retries: int = 0
    # warm executors discarded this run because a tunable flipped (e.g.
    # `affinity` changed between runs): each reset throws away a
    # runtime's cached DTDs and contexts, so a nonzero value explains a
    # cold-looking run on a long-lived engine
    executor_resets: int = 0
    # lane health (this run): per-chunk enqueue→absorb dwell (queue +
    # IPC time, executor execution excluded), and per-lane gauges — the
    # runtime context-cache occupancy and lifetime evictions reported by
    # each lane's newest chunk, plus the deepest in-flight queue the
    # lane reached
    chunk_dwell_ms: list[float] = field(default_factory=list)
    lane_contexts: dict[int, int] = field(default_factory=dict)
    lane_evictions: dict[int, int] = field(default_factory=dict)
    lane_peak_depth: dict[int, int] = field(default_factory=dict)
    # cost-model epsilon-exploration probes run this pass (timing a
    # fallback chain member the normal path would never measure)
    explore_probes: int = 0
    # answered decisions whose answering decider is schema-trait gated,
    # keyed by decider name — the engine-level view of how much traffic
    # the real-world PTIME fast paths absorb instead of the EXPTIME lanes
    trait_routed_answers: dict[str, int] = field(default_factory=dict)
    # engine-lifetime totals, not per-run deltas: persisted state is
    # adopted at engine construction / schema registration, before any
    # run starts, so a per-run delta would always read 0
    persisted_plans_loaded: int = 0
    persisted_decisions_loaded: int = 0
    workers: int = 1
    elapsed_s: float = 0.0
    cache: dict[str, Any] = field(default_factory=dict)
    registry: dict[str, Any] = field(default_factory=dict)
    # per-plan telemetry summary — like the persisted_* fields this is an
    # engine-lifetime snapshot (telemetry accumulates across runs and
    # merges persisted state), not a per-run delta: counts reconcile with
    # the sum of decide_calls over the engine's whole history
    plans: dict[str, Any] = field(default_factory=dict)

    def jobs_per_group(self, q: float) -> int:
        """The ``q``-quantile of jobs per dispatched group chunk (0 when
        nothing was grouped this run)."""
        if not self.group_sizes:
            return 0
        ordered = sorted(self.group_sizes)
        index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
        return ordered[index]

    def dwell_percentile(self, q: float) -> float:
        """The ``q``-quantile of chunk enqueue→absorb dwell in ms (0.0
        when no chunk was dispatched this run)."""
        if not self.chunk_dwell_ms:
            return 0.0
        ordered = sorted(self.chunk_dwell_ms)
        index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
        return ordered[index]

    def lane_health(self) -> dict[int, dict[str, int]]:
        """Per-lane health gauges folded from chunk outcomes: runtime
        context-cache occupancy, lifetime evictions, and queue-depth
        peak."""
        lane_ids = (
            set(self.lane_contexts) | set(self.lane_evictions)
            | set(self.lane_peak_depth)
        )
        return {
            lane: {
                "contexts": self.lane_contexts.get(lane, 0),
                "evictions": self.lane_evictions.get(lane, 0),
                "peak_depth": self.lane_peak_depth.get(lane, 0),
            }
            for lane in sorted(lane_ids)
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "errors": self.errors,
            "decide_calls": self.decide_calls,
            "inline_decides": self.inline_decides,
            "pool_decides": self.pool_decides,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "planner_invocations": self.planner_invocations,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_groups": self.plan_groups,
            "grouped_jobs": self.grouped_jobs,
            "setup_reuse": self.setup_reuse,
            "prepare_fallbacks": self.prepare_fallbacks,
            "jobs_per_group_p50": self.jobs_per_group(0.5),
            "jobs_per_group_p90": self.jobs_per_group(0.9),
            "lanes": self.lanes,
            "affinity": self.affinity,
            "dtd_ships": self.dtd_ships,
            "runtime_context_hits": self.runtime_context_hits,
            "affinity_spills": self.affinity_spills,
            "lane_respawns": self.lane_respawns,
            "chunk_retries": self.chunk_retries,
            "executor_resets": self.executor_resets,
            "chunk_dwell_p50_ms": round(self.dwell_percentile(0.5), 4),
            "chunk_dwell_p90_ms": round(self.dwell_percentile(0.9), 4),
            "lane_health": {
                str(lane): health for lane, health in self.lane_health().items()
            },
            "explore_probes": self.explore_probes,
            "trait_routed_answers": dict(self.trait_routed_answers),
            "persisted_plans_loaded": self.persisted_plans_loaded,
            "persisted_decisions_loaded": self.persisted_decisions_loaded,
            "workers": self.workers,
            "elapsed_s": round(self.elapsed_s, 4),
            "cache": dict(self.cache),
            "registry": dict(self.registry),
            "plans": dict(self.plans),
        }

    def describe(self) -> str:
        lines = [
            f"jobs          : {self.jobs} ({self.errors} errors)",
            f"decide() calls: {self.decide_calls} "
            f"({self.inline_decides} inline, {self.pool_decides} pooled, "
            f"{self.workers} workers)",
            f"planner       : {self.planner_invocations} plans built, "
            f"{self.plan_cache_hits} plan-cache hits, "
            f"{self.persisted_plans_loaded} persisted plans loaded, "
            f"{self.explore_probes} explore probes",
            f"plan groups   : {self.plan_groups} dispatched, "
            f"{self.grouped_jobs} jobs grouped, {self.setup_reuse} setup reuses, "
            f"{self.prepare_fallbacks} prepare fallbacks "
            f"(p50 {self.jobs_per_group(0.5)}, p90 {self.jobs_per_group(0.9)} "
            f"jobs/group)",
            f"executor      : {self.lanes} lanes "
            f"(affinity {'on' if self.affinity else 'off'}), "
            f"{self.dtd_ships} DTD ships, "
            f"{self.runtime_context_hits} runtime-context hits, "
            f"{self.affinity_spills} spills, {self.lane_respawns} respawns, "
            f"{self.chunk_retries} chunk retries, "
            f"{self.executor_resets} executor resets",
            f"trait routing : " + (
                ", ".join(
                    f"{decider} {count}"
                    for decider, count in sorted(self.trait_routed_answers.items())
                ) or "no trait-gated answers"
            ),
            f"cache         : {self.cache_hits} hits, {self.coalesced} coalesced, "
            f"{self.cache.get('size', 0)}/{self.cache.get('capacity', 0)} entries, "
            f"{self.cache.get('evictions', 0)} evictions "
            f"(lifetime hit rate {self.cache.get('hit_rate', 0.0):.1%})",
            f"schemas       : {self.registry.get('schemas', 0)} registered, "
            f"{self.registry.get('builds', 0)} artifact builds, "
            f"{self.registry.get('dedup_hits', 0)} dedup hits",
            f"wall time     : {self.elapsed_s:.3f}s",
        ]
        if self.chunk_dwell_ms:
            lines.insert(
                -1,
                f"lane dwell    : p50 {self.dwell_percentile(0.5):.2f}ms, "
                f"p90 {self.dwell_percentile(0.9):.2f}ms over "
                f"{len(self.chunk_dwell_ms)} chunks",
            )
        return "\n".join(lines)

    def register_metrics(self, registry: "MetricsRegistry") -> None:
        """Register this run's counters, lane-health gauges, and the
        chunk-dwell histogram into a unified metrics registry."""
        for name, help_text in (
            ("jobs", "jobs submitted"),
            ("errors", "jobs that errored"),
            ("decide_calls", "decision procedure invocations"),
            ("inline_decides", "decisions executed in-process"),
            ("pool_decides", "decisions executed on worker lanes"),
            ("cache_hits", "jobs answered from the decision cache"),
            ("coalesced", "duplicate in-flight questions coalesced"),
            ("planner_invocations", "plans built"),
            ("plan_cache_hits", "routings resolved from a plan cache"),
            ("plan_groups", "plan-group chunks dispatched"),
            ("grouped_jobs", "jobs executed inside a group chunk"),
            ("setup_reuse", "jobs that reused a groupmate's prepare()"),
            ("prepare_fallbacks", "chunks degraded to per-job setup"),
            ("dtd_ships", "DTDs pickled to a lane"),
            ("runtime_context_hits", "chunks served from a warm runtime"),
            ("affinity_spills", "chunks spilled off their preferred lane"),
            ("lane_respawns", "worker lanes respawned after death"),
            ("chunk_retries", "in-flight chunks retried after lane death"),
            ("executor_resets", "warm executors discarded after a tunable flip"),
            ("explore_probes", "cost-model exploration probes"),
        ):
            registry.counter(f"repro_{name}_total", help_text).inc(
                getattr(self, name)
            )
        for decider, count in sorted(self.trait_routed_answers.items()):
            registry.counter(
                "repro_trait_routed_answers_total",
                "answered decisions by schema-trait-gated deciders",
                {"decider": decider},
            ).inc(count)
        registry.gauge("repro_workers", "configured worker count").set(self.workers)
        registry.gauge("repro_lanes", "lanes in the pool this run").set(self.lanes)
        registry.gauge(
            "repro_affinity_enabled", "schema-affinity scheduling on"
        ).set(1 if self.affinity else 0)
        registry.gauge(
            "repro_decision_cache_size", "decision-cache entries"
        ).set(self.cache.get("size", 0))
        registry.gauge(
            "repro_decision_cache_evictions", "decision-cache lifetime evictions"
        ).set(self.cache.get("evictions", 0))
        registry.gauge(
            "repro_schemas_registered", "schemas in the registry"
        ).set(self.registry.get("schemas", 0))
        dwell = registry.histogram(
            "repro_chunk_dwell_ms", LATENCY_BUCKETS_MS,
            "chunk enqueue-to-absorb dwell (ms)",
        )
        for dwell_ms in self.chunk_dwell_ms:
            dwell.observe(dwell_ms)
        for lane, health in self.lane_health().items():
            labels = {"lane": str(lane)}
            registry.gauge(
                "repro_lane_context_cache_size",
                "prepared contexts held by the lane runtime", labels,
            ).set(health["contexts"])
            registry.counter(
                "repro_lane_context_evictions_total",
                "contexts evicted by the lane runtime (lifetime)", labels,
            ).inc(health["evictions"])
            registry.gauge(
                "repro_lane_queue_depth_peak",
                "deepest in-flight queue the lane reached", labels,
            ).set(health["peak_depth"])


@dataclass
class BatchReport:
    """Results plus engine statistics for one batch run."""

    results: list[JobResult]
    stats: EngineStats

    def verdict_counts(self) -> dict[str, int]:
        counts = {"sat": 0, "unsat": 0, "unknown": 0, "error": 0}
        for result in self.results:
            if result.error is not None:
                counts["error"] += 1
            elif result.satisfiable is True:
                counts["sat"] += 1
            elif result.satisfiable is False:
                counts["unsat"] += 1
            else:
                counts["unknown"] += 1
        return counts


@dataclass
class _GroupEntry:
    """One unique question queued in a plan group: its decision-cache
    key, pre-canonicalized query, and every job index awaiting it (the
    first asked; the rest coalesced onto it)."""

    key: CacheKey
    canonical: Path
    indices: list[int]


@dataclass
class PlanGroup:
    """Pooled jobs sharing one routing decision (``Plan.telemetry_key``)
    against one schema — the scheduler's unit of shared per-plan setup.

    ``dispatched`` marks how many leading entries were already submitted
    as full chunks during the job scan (keeping the pool busy while the
    scan continues); only the tail past it awaits post-scan dispatch.
    """

    plan: Plan
    artifacts: SchemaArtifacts | None
    entries: list[_GroupEntry] = field(default_factory=list)
    dispatched: int = 0


#: scheduler tunable defaults (overridden by constructor arguments, then
#: by the state tier's persisted tunables, in that order)
DEFAULT_GROUP_CHUNK_SIZE = 16
DEFAULT_DECISION_CAP_PER_SCHEMA = 512
DEFAULT_TELEMETRY_MAX_AGE_DAYS = 30.0
DEFAULT_AFFINITY = True


class BatchEngine:
    """Execute batches of ``(query, schema_ref)`` jobs with schema-artifact
    reuse, plan-cached routing, decision caching, and a plan-grouped
    process pool of persistent, schema-affine worker lanes for heavy
    fragments.

    The engine is a long-lived object with an explicit lifecycle: both
    executors (inline and pool) live as long as the engine, so lanes and
    their runtime caches stay warm across :meth:`run` calls.  Use it as
    a context manager, or call :meth:`close` when done — a closed engine
    raises :class:`~repro.errors.EngineError` on further use."""

    #: pool-executor constructor (``factory(workers, affinity=...,
    #: lane_queue_depth=...) -> Executor``); a seam for tests that
    #: simulate lane crashes without burning real fork time
    _executor_factory = PersistentPoolExecutor

    def __init__(
        self,
        registry: SchemaRegistry | None = None,
        cache: DecisionCache | None = None,
        workers: int = 1,
        bounds: Bounds | None = None,
        planner: Planner | None = None,
        cost_model: CostModel | None = None,
        telemetry: PlanTelemetry | None = None,
        state_tier: "StateTier | str | None" = None,
        group_chunk_size: int | None = None,
        decision_cap_per_schema: int | None = None,
        telemetry_max_age_days: float | None = None,
        affinity: bool | None = None,
        lane_queue_depth: int | None = None,
        tracer: Tracer | None = None,
    ):
        if workers < 1:
            raise EngineError(f"workers must be positive, got {workers}")
        if group_chunk_size is not None and group_chunk_size < 1:
            raise EngineError(
                f"group_chunk_size must be positive, got {group_chunk_size}"
            )
        if lane_queue_depth is not None and lane_queue_depth < 1:
            raise EngineError(
                f"lane_queue_depth must be positive, got {lane_queue_depth}"
            )
        if decision_cap_per_schema is not None and decision_cap_per_schema < 1:
            raise EngineError(
                f"decision_cap_per_schema must be positive, "
                f"got {decision_cap_per_schema}"
            )
        if telemetry_max_age_days is not None and telemetry_max_age_days <= 0:
            raise EngineError(
                f"telemetry_max_age_days must be positive, "
                f"got {telemetry_max_age_days}"
            )
        # scheduler tunables: explicit constructor arguments always win;
        # ones left None take the state tier's persisted values (if any),
        # then the defaults
        self._explicit_tunables = {
            name
            for name, value in (
                ("group_chunk_size", group_chunk_size),
                ("decision_cap_per_schema", decision_cap_per_schema),
                ("telemetry_max_age_days", telemetry_max_age_days),
                ("affinity", affinity),
                ("lane_queue_depth", lane_queue_depth),
            )
            if value is not None
        }
        self.group_chunk_size = (
            group_chunk_size if group_chunk_size is not None
            else DEFAULT_GROUP_CHUNK_SIZE
        )
        self.affinity = affinity if affinity is not None else DEFAULT_AFFINITY
        self.lane_queue_depth = (
            lane_queue_depth if lane_queue_depth is not None
            else DEFAULT_LANE_QUEUE_DEPTH
        )
        self.decision_cap_per_schema = (
            decision_cap_per_schema if decision_cap_per_schema is not None
            else DEFAULT_DECISION_CAP_PER_SCHEMA
        )
        self.telemetry_max_age_days = (
            telemetry_max_age_days if telemetry_max_age_days is not None
            else DEFAULT_TELEMETRY_MAX_AGE_DAYS
        )
        self.registry = registry if registry is not None else SchemaRegistry()
        self.cache = cache if cache is not None else DecisionCache()
        if planner is not None:
            # a caller-supplied planner is never mutated: if it carries a
            # cost model the engine feeds that one, otherwise the engine
            # still measures (into its own model) but the planner keeps
            # planning statically — attaching our model behind the
            # caller's back would change routing process-wide (e.g. for
            # DEFAULT_PLANNER)
            if (
                cost_model is not None
                and planner.cost_model is not None
                and planner.cost_model is not cost_model
            ):
                raise EngineError(
                    "planner already carries a different cost model; pass "
                    "one of cost_model= or planner=, not conflicting both"
                )
            self.planner = planner
            self.cost_model = (
                planner.cost_model if planner.cost_model is not None
                else (cost_model if cost_model is not None else CostModel())
            )
        else:
            self.cost_model = cost_model if cost_model is not None else CostModel()
            self.planner = Planner(cost_model=self.cost_model)
        self.telemetry = telemetry if telemetry is not None else PlanTelemetry()
        self.workers = workers
        self.bounds = bounds
        self.persisted_decisions_loaded = 0
        self.state_warnings: list[str] = []
        # the SQLite state tier: constructed from a path (owned, closed
        # with the engine) or caller-supplied (shared, left open)
        self._owns_tier = isinstance(state_tier, str)
        if isinstance(state_tier, str):
            from repro.engine.statetier import StateTier

            state_tier = StateTier(state_tier)
        self.state_tier = state_tier
        # observability: tracer is None by default and every tracing
        # branch is guarded on it, so the default-off path costs a
        # handful of predictable `is not None` checks per job
        self.tracer = tracer
        self.last_stats: EngineStats | None = None
        # extra stat sources folded into metrics_registry() (e.g. the
        # serving front-end registers its connection/inflight gauges
        # here so they land in the state tier's metrics.prom)
        self.metrics_sources: list[Any] = []
        # both executors are engine-lifetime (created lazily): the inline
        # WorkerRuntime and the pool's lanes keep DTDs and prepared
        # contexts warm across run() calls.  _pool_config remembers the
        # tunables the pool was built with so a flip discards it cleanly
        # (counted in executor_resets) instead of silently serving the
        # new settings from a stale executor.
        self._inline_executor: InlineExecutor | None = None
        self._pool_executor: Executor | None = None
        self._pool_config: tuple[bool, int] | None = None
        self.executor_resets = 0
        self._closed = False
        self._next_task_id = 0
        if self.state_tier is not None:
            self.metrics_sources.append(self.state_tier)
            self.load_tier_state()

    # -- state persistence --------------------------------------------------
    def _adopt_state(self, state) -> int:
        """Fold a :class:`~repro.engine.state.PersistedState` (a tier
        load) into this engine: plan caches
        (applied now for registered schemas, at registration for later
        ones), telemetry, cost-model measurements, cached decisions, and
        scheduler tunables (which fill every tunable the constructor left
        unset).  Returns the number of plans available from persistence."""
        self.state_warnings.extend(state.warnings)
        self.state_warnings.extend(
            self.registry.adopt_plans(state.plans, names=state.plan_names)
        )
        if state.telemetry is not None:
            self.telemetry.merge(state.telemetry)
        if state.cost_model is not None:
            self.cost_model.merge(state.cost_model)
        if state.decisions:
            self.persisted_decisions_loaded += self.cache.load_records(state.decisions)
        for name in (
            "group_chunk_size", "decision_cap_per_schema",
            "telemetry_max_age_days",
            "affinity", "lane_queue_depth",
        ):
            if name in state.scheduler and name not in self._explicit_tunables:
                setattr(self, name, state.scheduler[name])
        return state.plan_count

    def load_tier_state(self) -> int:
        """Warm this engine from its shared state tier — the cache
        warming every process does before serving traffic.  After the
        merge the tier's cost baseline is re-anchored, so later saves
        contribute only samples observed by *this* process."""
        if self.state_tier is None:
            raise EngineError("engine has no state tier")
        plans = self._adopt_state(self.state_tier.load())
        self.state_tier.note_cost_baseline(self.cost_model)
        return plans

    @property
    def has_state(self) -> bool:
        """Whether :meth:`save_state` has somewhere to persist to."""
        return self.state_tier is not None

    @property
    def state_target(self) -> str | None:
        """The tier's database path (``None`` without a tier)."""
        return self.state_tier.path if self.state_tier is not None else None

    def save_state(self) -> str:
        """Persist plan caches, telemetry, cost model, the decision cache,
        and the scheduler tunables to the engine's state tier; returns
        the database path.  Hygiene applies on the way out: cached
        decisions are capped per schema and telemetry rows not seen
        within ``telemetry_max_age_days`` are aged out."""
        if self.state_tier is None:
            raise EngineError("no persistence target (engine has no state tier)")
        self.state_tier.save(
            registry=self.registry,
            telemetry=self.telemetry,
            cost_model=self.cost_model,
            cache=self.cache,
            scheduler={
                "group_chunk_size": self.group_chunk_size,
                "decision_cap_per_schema": self.decision_cap_per_schema,
                "telemetry_max_age_days": self.telemetry_max_age_days,
                "affinity": self.affinity,
                "lane_queue_depth": self.lane_queue_depth,
            },
            decision_cap_per_schema=self.decision_cap_per_schema,
            telemetry_max_age_days=self.telemetry_max_age_days,
            engine_stats=(
                self.last_stats.as_dict() if self.last_stats is not None else None
            ),
            metrics_text=self.metrics_registry().render_prometheus(),
        )
        return self.state_tier.path

    def metrics_registry(self, stats: EngineStats | None = None) -> MetricsRegistry:
        """One unified metrics registry over every stat silo the engine
        holds: the given (or last run's) :class:`EngineStats`, the
        per-plan telemetry table, the cost model, and — when a tracer is
        attached — its trace counters.  Render with
        :meth:`~repro.obs.metrics.MetricsRegistry.render_prometheus` or
        :meth:`~repro.obs.metrics.MetricsRegistry.as_dict`."""
        registry = MetricsRegistry()
        stats = stats if stats is not None else self.last_stats
        if stats is not None:
            stats.register_metrics(registry)
        self.telemetry.register_metrics(registry)
        self.cost_model.register_metrics(registry)
        if self.tracer is not None:
            self.tracer.register_metrics(registry)
        for source in self.metrics_sources:
            source.register_metrics(registry)
        return registry

    def retune(self, decay: float | None = None) -> int:
        """Drop every cached plan — including persisted plans waiting for
        their schema's registration — so the next request replans against
        the cost model's current measurements (verdicts cannot change —
        only chain order and inline/pool routing).  With ``decay``, the
        cost model's cells are first scaled down by that factor
        (:meth:`~repro.sat.costmodel.CostModel.decay`), so stale
        measurements lose their grip on routing at the same moment.
        Returns the number of plans dropped."""
        if decay is not None:
            self.cost_model.decay(decay)
        return (
            self.planner.invalidate(*self.registry)
            + self.registry.discard_pending_plans()
        )

    # -- lifecycle ----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the engine's executors — worker lanes, their runtimes,
        and the inline runtime.  State is *not* saved here (call
        :meth:`save_state` first if wanted).  Closing twice raises: a
        double close means two owners think they hold the engine's
        lifecycle, which is the bug worth surfacing."""
        if self._closed:
            raise EngineError("engine already closed")
        self._closed = True
        try:
            if self._pool_executor is not None:
                self._pool_executor.close()
        finally:
            self._pool_executor = None
            self._pool_config = None
            if self._inline_executor is not None:
                self._inline_executor.close()
                self._inline_executor = None
            if self._owns_tier and self.state_tier is not None:
                self.state_tier.close()

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._closed:
            self.close()
        return False

    # -- execution ----------------------------------------------------------
    def _inline(self) -> InlineExecutor:
        """The engine-lifetime single-worker executor.  Its runtime caches
        survive across :meth:`run` calls; it is rebuilt only when the
        affinity flag changed since it was built (e.g. a persisted
        tunable arriving after first use, or a caller flipping the
        attribute between runs) — the old executor is closed and the
        reset is counted, never silent."""
        if (
            self._inline_executor is not None
            and self._inline_executor.affinity != self.affinity
        ):
            _LOG.warning(
                "affinity flipped to %s since the inline executor was "
                "built; discarding its warm runtime", self.affinity,
            )
            self._inline_executor.close()
            self._inline_executor = None
            self.executor_resets += 1
        if self._inline_executor is None:
            self._inline_executor = InlineExecutor(affinity=self.affinity)
        return self._inline_executor

    def _pool(self) -> Executor:
        """The engine-lifetime pool executor: lanes (and their shipped-DTD
        sets and runtime caches) persist across :meth:`run` calls.  Like
        :meth:`_inline`, a tunable flip discards the warm pool with an
        accounted, logged reset."""
        config = (self.affinity, self.lane_queue_depth)
        if self._pool_executor is not None and self._pool_config != config:
            _LOG.warning(
                "scheduler tunables changed (affinity=%s, lane_queue_depth=%d)"
                " since the pool was built; discarding its warm lanes",
                *config,
            )
            self._discard_pool()
            self.executor_resets += 1
        if self._pool_executor is None:
            self._pool_executor = self._make_pool()
            self._pool_config = config
        return self._pool_executor

    def _discard_pool(self) -> None:
        if self._pool_executor is not None:
            try:
                self._pool_executor.close()
            finally:
                self._pool_executor = None
                self._pool_config = None

    def _make_pool(self) -> Executor:
        return self._executor_factory(
            self.workers,
            affinity=self.affinity,
            lane_queue_depth=self.lane_queue_depth,
        )

    def _take_task_id(self) -> int:
        self._next_task_id += 1
        return self._next_task_id

    def run(
        self,
        jobs: Iterable[Job | dict | tuple | str],
        on_result: Callable[[JobResult], None] | None = None,
    ) -> BatchReport:
        """Decide every job; returns per-job results (input order) and
        aggregate stats for this run.

        ``on_result`` (optional) is invoked exactly once per job, with
        the finalized :class:`JobResult`, the moment that job's verdict
        lands — cache hits and intake errors during the scan, inline
        decisions as they execute, pooled ones as their chunk is
        absorbed.  Callbacks arrive out of input order; the returned
        report still lists results in input order.  A serving front-end
        uses this to stream responses while the batch is in flight."""
        if self._closed:
            raise EngineError(
                "run() on a closed engine (close() was already called)"
            )
        start = time.perf_counter()
        stats = EngineStats(workers=self.workers, affinity=self.affinity)
        planner_invocations_before = self.planner.invocations
        plan_hits_before = self.planner.cache_hits
        resets_before = self.executor_resets
        tracer = self.tracer
        # job index -> its in-flight trace; spans for pooled jobs are
        # reassembled here at absorb time from lane-side outcomes
        traces: dict[int, JobTrace] = {}
        results: list[JobResult | None] = []
        # plan-grouped scheduling: (schema fingerprint, telemetry key) ->
        # group of queued pooled jobs, plus the key -> entry map that
        # coalesces duplicates queued into a group
        groups: dict[tuple[str | None, str], PlanGroup] = {}
        grouped_keys: dict[CacheKey, _GroupEntry] = {}
        # every chunk handed to an executor, by task id:
        # (group, entries, enqueue timestamp for dwell measurement)
        submitted: dict[int, tuple[PlanGroup, list[_GroupEntry], float]] = {}
        # the engine-lifetime pool, acquired lazily so a run with no
        # pooled work never forks lanes; lane_respawns is reported as a
        # per-run delta against the executor's lifetime counter
        pool: Executor | None = None
        pool_respawns_before = 0
        # the inline executor's runtime, acquired on the first inline
        # decide (whatever ``workers`` is)
        inline_runtime: WorkerRuntime | None = None

        def emit(index: int) -> None:
            """Stream one finalized result to the caller; every result
            index passes here exactly once (pooled ones via the
            exactly-once absorb pop)."""
            if on_result is not None:
                on_result(results[index])

        def acquire_pool() -> Executor:
            nonlocal pool, pool_respawns_before
            if pool is None:
                pool = self._pool()
                pool_respawns_before = pool.stats().lane_respawns
            return pool

        def submit_chunk(executor: Executor, group: PlanGroup,
                         chunk: list[_GroupEntry]) -> None:
            task_id = self._take_task_id()
            submitted[task_id] = (group, chunk, time.perf_counter())
            executor.submit(
                ChunkTask(
                    task_id=task_id,
                    fingerprint=(
                        group.artifacts.fingerprint if group.artifacts else None
                    ),
                    canonicals=tuple(entry.canonical for entry in chunk),
                    plan=group.plan,
                    bounds=self.bounds,
                ),
                group.artifacts.dtd if group.artifacts else None,
            )

        try:
            for index, raw in enumerate(jobs):
                results.append(None)
                stats.jobs += 1
                try:
                    job = Job.coerce(raw)
                    query = (
                        parse_query(job.query)
                        if isinstance(job.query, str)
                        else job.query
                    )
                    artifacts = (
                        self.registry.get(job.schema)
                        if job.schema is not None
                        else None
                    )
                except ReproError as error:
                    stats.errors += 1
                    results[index] = self._error_result(raw, error)
                    if tracer is not None:
                        failed = results[index]
                        trace = tracer.begin(
                            job_id=failed.id, query=failed.query,
                            schema=failed.schema,
                        )
                        trace.span(
                            "intake", status=FAILED,
                            attrs={"error": str(error)},
                        )
                        tracer.finish(trace, verdict="error", route="error")
                    emit(index)
                    continue

                trace = None
                if tracer is not None:
                    trace = tracer.begin(
                        job_id=job.id if job.id is not None else job.query_text,
                        query=job.query_text,
                        schema=job.schema,
                        fingerprint=artifacts.fingerprint if artifacts else None,
                    )
                    traces[index] = trace
                    step_start = time.perf_counter()
                # one canonicalization per job, shared by the cache key and
                # the decision (execute_plan skips its canonicalize pass)
                canonical = canonicalize(query)
                if trace is not None:
                    trace.span(
                        "canonicalize",
                        ms=(time.perf_counter() - step_start) * 1e3,
                    )
                key = decision_key_for(
                    canonical, artifacts.fingerprint if artifacts else None, self.bounds
                )
                cached = self.cache.get(key)
                if cached is not None:
                    stats.cache_hits += 1
                    results[index] = self._result(
                        job, artifacts, cached, route="cache", cached=True
                    )
                    if trace is not None:
                        trace.span("cache", attrs={"hit": True})
                        tracer.finish(
                            trace, verdict=verdict_name(cached.satisfiable),
                            route="cache",
                        )
                    emit(index)
                    continue
                if key in grouped_keys:
                    stats.coalesced += 1
                    grouped_keys[key].indices.append(index)
                    results[index] = self._result(
                        job, artifacts,
                        CachedDecision(None, "pending"), route="pool",
                    )
                    # the trace finishes at absorb time, alongside its
                    # leader, with a span naming the leader's trace
                    continue

                if trace is not None:
                    plan_hits_step = self.planner.cache_hits
                    step_start = time.perf_counter()
                plan = self.planner.plan_for(features_of(query), artifacts=artifacts)
                if trace is not None:
                    trace.span(
                        "plan",
                        ms=(time.perf_counter() - step_start) * 1e3,
                        attrs={
                            "signature": plan.signature,
                            "decider": plan.decider,
                            "cache_hit": self.planner.cache_hits > plan_hits_step,
                        },
                    )
                    trace.span(
                        "route",
                        attrs={
                            "route": plan.route,
                            "workers": self.workers,
                        },
                    )
                if plan.route == "pool":
                    # queue for plan-grouped dispatch after the scan; the
                    # group pays worker setup (prepare hooks, DTD pickle)
                    # once for all its jobs
                    group_key = (
                        artifacts.fingerprint if artifacts else None,
                        plan.telemetry_key,
                    )
                    group = groups.get(group_key)
                    if group is None:
                        group = groups[group_key] = PlanGroup(
                            plan=plan, artifacts=artifacts
                        )
                    entry = _GroupEntry(key=key, canonical=canonical, indices=[index])
                    group.entries.append(entry)
                    grouped_keys[key] = entry
                    results[index] = self._result(
                        job, artifacts, CachedDecision(None, "pending"),
                        route="pool",
                    )
                    # a full chunk goes to the pool immediately so lanes
                    # overlap with the rest of the scan (later duplicates
                    # still coalesce: the entries stay live until drain)
                    if (
                        self.workers > 1
                        and len(group.entries) - group.dispatched
                        >= self.group_chunk_size
                    ):
                        pool = acquire_pool()
                        chunk = group.entries[
                            group.dispatched:
                            group.dispatched + self.group_chunk_size
                        ]
                        group.dispatched += len(chunk)
                        submit_chunk(pool, group, chunk)
                    continue
                if inline_runtime is None:
                    inline_runtime = self._inline().runtime
                fingerprint = artifacts.fingerprint if artifacts else None
                dtd = artifacts.dtd if artifacts else None
                # the engine-lifetime runtime's prepared contexts: the same
                # (schema × plan) cache the inline chunks use
                contexts = (
                    inline_runtime.contexts_for(fingerprint, plan, dtd)[0]
                    if dtd is not None else None
                )
                job_start = time.perf_counter()
                exec_trace = ExecutionTrace()
                try:
                    outcome = execute_plan(
                        plan, canonical, dtd, self.bounds,
                        pre_canonicalized=True, trace=exec_trace,
                        contexts=contexts,
                    )
                    decision = CachedDecision(
                        outcome.satisfiable, outcome.method, outcome.reason
                    )
                except Exception as error:
                    # any exception — a decline with no fallback, or a
                    # latent decider bug — fails only this job, as a chunk
                    # question's failure does on the grouped path
                    stats.errors += 1
                    stats.decide_calls += 1
                    stats.inline_decides += 1
                    self._observe(stats, plan, artifacts, exec_trace, "error")
                    results[index] = self._error_result(raw, error)
                    if trace is not None:
                        trace.span(
                            "execute",
                            ms=(time.perf_counter() - job_start) * 1e3,
                            status=FAILED,
                            attrs={"error": str(error)},
                            children=attempt_spans(exec_trace.attempts),
                        )
                        tracer.finish(
                            trace, verdict="error", route="error", plan=plan
                        )
                    emit(index)
                    continue
                finally:
                    if contexts is not None:
                        inline_runtime.evict_failed(fingerprint, plan, contexts)
                stats.decide_calls += 1
                stats.inline_decides += 1
                elapsed_ms = (time.perf_counter() - job_start) * 1e3
                self._observe(
                    stats, plan, artifacts, exec_trace,
                    verdict_name(outcome.satisfiable),
                )
                self.cache.put(key, decision)
                results[index] = self._result(
                    job, artifacts, decision, route="inline",
                    elapsed_ms=elapsed_ms,
                )
                if trace is not None:
                    trace.span(
                        "execute", ms=elapsed_ms,
                        children=attempt_spans(exec_trace.attempts),
                    )
                    tracer.finish(
                        trace, verdict=verdict_name(outcome.satisfiable),
                        route="inline", plan=plan,
                    )
                emit(index)
                self._explore(stats, plan, canonical, artifacts, exec_trace)

            # group tails: one chunk per worker task on the pool, or on
            # the engine-lifetime inline executor when workers == 1 (its
            # persistent runtime reuses contexts across chunks either way)
            has_tails = any(
                len(group.entries) > group.dispatched
                for group in groups.values()
            )
            if has_tails:
                if self.workers > 1:
                    tail_executor: Executor = acquire_pool()
                else:
                    tail_executor = self._inline()
                for group in groups.values():
                    for chunk_start in range(
                        group.dispatched, len(group.entries),
                        self.group_chunk_size,
                    ):
                        submit_chunk(
                            tail_executor, group,
                            group.entries[
                                chunk_start:chunk_start + self.group_chunk_size
                            ],
                        )
            if pool is not None:
                self._absorb_all(
                    pool.drain(), submitted, results, stats, route="pool",
                    tracer=tracer, traces=traces, emit=emit,
                )
                pool_stats = pool.stats()
                stats.lanes = pool_stats.lanes
                # executor counters are lifetime; respawns this run is
                # the delta against the pool's count when we acquired it
                stats.lane_respawns = (
                    pool_stats.lane_respawns - pool_respawns_before
                )
                stats.lane_peak_depth = dict(pool_stats.lane_peak_depth)
            if self._inline_executor is not None:
                self._absorb_all(
                    self._inline_executor.drain(), submitted, results, stats,
                    route="inline",
                    tracer=tracer, traces=traces, emit=emit,
                )
            if tracer is not None:
                # safety net: a trace a bug (or an absorbed-but-lost
                # outcome) left open still emits exactly one record
                for trace in traces.values():
                    if not trace.finished:
                        tracer.finish(trace, verdict="unknown", route="lost")
        except BaseException:
            # an aborted run can leave chunks in flight on the lanes; a
            # later run would absorb them against this run's (now dead)
            # bookkeeping, so the warm pool is forfeited — it respawns
            # cold on the next pooled run
            if pool is not None:
                self._discard_pool()
            raise
        finally:
            if self._inline_executor is not None:
                # chunks queued for a run that aborted must not leak into
                # the next (a no-op on clean exits: drain emptied the queue)
                self._inline_executor.cancel_pending()

        stats.elapsed_s = time.perf_counter() - start
        stats.executor_resets = self.executor_resets - resets_before
        stats.planner_invocations = self.planner.invocations - planner_invocations_before
        stats.plan_cache_hits = self.planner.cache_hits - plan_hits_before
        stats.persisted_plans_loaded = self.registry.persisted_plans
        stats.persisted_decisions_loaded = self.persisted_decisions_loaded
        stats.cache = self.cache.stats()
        stats.registry = self.registry.stats()
        stats.plans = self.telemetry.summary()
        self.last_stats = stats
        return BatchReport(results=[r for r in results if r is not None], stats=stats)

    # -- helpers ------------------------------------------------------------
    def _absorb_all(
        self,
        outcomes: Iterable[tuple[ChunkTask, ChunkOutcome]],
        submitted: dict[int, tuple[PlanGroup, list[_GroupEntry], float]],
        results: list[JobResult | None],
        stats: EngineStats,
        route: str,
        tracer: Tracer | None = None,
        traces: dict[int, JobTrace] | None = None,
        emit: Callable[[int], None] | None = None,
    ) -> None:
        """Fold every drained ``(task, outcome)`` pair into results and
        counters.  Each task is absorbed **exactly once**: the bookkeeping
        record is popped on arrival, so a duplicate outcome (a retry
        racing its first attempt) can never double-report group counters
        — ``grouped_jobs``/``setup_reuse`` stay reconciled with the
        per-plan telemetry rows even across lane deaths.  The same pop
        makes lane-side span reassembly exactly-once: a job's trace is
        finished by the record's first (and only) absorption, and the
        ``emit`` streaming callback fires once per finalized job."""
        if emit is None:
            def emit(index: int) -> None:
                pass
        for task, outcome in outcomes:
            record = submitted.pop(task.task_id, None)
            if record is None:
                continue
            if outcome.dtd_shipped:
                stats.dtd_ships += 1
            if outcome.runtime_hit:
                stats.runtime_context_hits += 1
            if outcome.spilled:
                stats.affinity_spills += 1
            if outcome.retried:
                stats.chunk_retries += 1
            # enqueue→absorb dwell: queue + IPC time, execution excluded
            group, chunk, enqueued = record
            dwell_ms = max(
                0.0,
                (time.perf_counter() - enqueued) * 1e3 - outcome.elapsed_ms,
            )
            stats.chunk_dwell_ms.append(dwell_ms)
            if outcome.lane >= 0:
                stats.lane_contexts[outcome.lane] = outcome.runtime_contexts
                stats.lane_evictions[outcome.lane] = outcome.runtime_evictions
            stats.decide_calls += len(chunk)
            if route == "pool":
                stats.pool_decides += len(chunk)
            else:
                stats.inline_decides += len(chunk)
            if outcome.error is not None:
                # the whole chunk failed (its lane died and the one
                # retry died too): per-job errors, nothing cached
                jobs_hit = sum(len(entry.indices) for entry in chunk)
                stats.errors += jobs_hit
                self.telemetry.record_failure(group.plan, jobs_hit)
                for entry in chunk:
                    for index in entry.indices:
                        result = results[index]
                        result.error = outcome.error
                        result.method = "error"
                        result.route = "error"
                        if tracer is not None and traces is not None:
                            trace = traces.get(index)
                            if trace is not None:
                                trace.span(
                                    "chunk", status=FAILED,
                                    attrs=self._chunk_attrs(
                                        outcome, dwell_ms, len(chunk),
                                        error=outcome.error,
                                    ),
                                )
                                tracer.finish(
                                    trace, verdict="error",
                                    route="error", plan=group.plan,
                                )
                        emit(index)
                continue
            self._absorb_group(
                group, chunk, outcome, results, stats, route=route,
                tracer=tracer, traces=traces, dwell_ms=dwell_ms,
                emit=emit,
            )

    @staticmethod
    def _chunk_attrs(
        outcome: ChunkOutcome,
        dwell_ms: float,
        group_size: int,
        error: str | None = None,
    ) -> dict[str, Any]:
        """Span attributes shared by every job a chunk decided: which
        lane ran it and how the executor layer treated it."""
        attrs: dict[str, Any] = {
            "lane": outcome.lane,
            "dwell_ms": round(dwell_ms, 3),
            "dtd_shipped": outcome.dtd_shipped,
            "runtime_hit": outcome.runtime_hit,
            "shared_setup": outcome.shared_setup,
            "spilled": outcome.spilled,
            "retried": outcome.retried,
            "group_size": group_size,
            "chunk_ms": round(outcome.elapsed_ms, 3),
        }
        if error is not None:
            attrs["error"] = error
        return attrs

    def _absorb_group(
        self,
        group: PlanGroup,
        chunk: list[_GroupEntry],
        outcome: ChunkOutcome,
        results: list[JobResult | None],
        stats: EngineStats,
        route: str,
        tracer: Tracer | None = None,
        traces: dict[int, JobTrace] | None = None,
        dwell_ms: float = 0.0,
        emit: Callable[[int], None] = lambda index: None,
    ) -> None:
        """Fold one chunk's outcomes into results, the decision cache,
        telemetry, and the cost model.  When tracing, each leader job's
        span tree is reassembled here from the lane-side outcome: a
        ``chunk`` span (lane, dwell, DTD-ship/runtime-hit flags) whose
        children are the shared ``prepare`` (first executed entry only)
        and the job's per-chain-member attempts; coalesced followers get
        a ``coalesced`` span naming their leader's trace."""
        plan, artifacts = group.plan, group.artifacts
        shared_setup = outcome.shared_setup
        stats.plan_groups += 1
        stats.group_sizes.append(len(chunk))
        # only a failed *primary* prepare means the chunk ran with per-job
        # setup; a fallback hook failing mid-chunk leaves the shared setup
        # intact
        if outcome.prepare_error is not None and not shared_setup:
            stats.prepare_fallbacks += 1
        executed = 0
        prepare_span_pending = True
        for entry, question_outcome in zip(chunk, outcome.outcomes):
            satisfiable, method, reason, error, attempts = question_outcome
            trace = ExecutionTrace(
                attempts=attempts,
                group_size=len(chunk),
                group_lead=executed == 0,
                shared_setup=shared_setup,
                runtime_hit=outcome.runtime_hit,
            )
            verdict = "error" if error is not None else verdict_name(satisfiable)
            if tracer is not None and traces is not None:
                leader = traces.get(entry.indices[0])
                if leader is not None:
                    children = []
                    if prepare_span_pending:
                        prepare_span_pending = False
                        prepare_attrs = {"shared": shared_setup}
                        if outcome.prepare_error is not None:
                            prepare_attrs["error"] = outcome.prepare_error
                        children.append(Span(
                            name="prepare",
                            ms=outcome.prepare_ms,
                            status=(
                                FAILED if outcome.prepare_error is not None
                                else "ok"
                            ),
                            attrs=prepare_attrs,
                        ))
                    children.extend(attempt_spans(attempts))
                    leader.span(
                        "chunk",
                        ms=trace.elapsed_ms,
                        status=FAILED if error is not None else "ok",
                        attrs=self._chunk_attrs(
                            outcome, dwell_ms, len(chunk), error=error
                        ),
                        children=children,
                    )
                    tracer.finish(
                        leader,
                        verdict=verdict,
                        route="error" if error is not None else route,
                        plan=plan,
                    )
                for index in entry.indices[1:]:
                    follower = traces.get(index)
                    if follower is not None:
                        follower.span(
                            "coalesced",
                            attrs={
                                "leader": (
                                    leader.trace_id if leader is not None
                                    else None
                                ),
                                "lane": outcome.lane,
                            },
                        )
                        tracer.finish(
                            follower,
                            verdict=verdict,
                            route="error" if error is not None else route,
                            plan=plan,
                        )
            if error is not None:
                # one question failing must not poison its groupmates;
                # every job awaiting it gets the per-job error
                stats.errors += len(entry.indices)
                self._observe(stats, plan, artifacts, trace, "error")
                if len(entry.indices) > 1:
                    self.telemetry.record_failure(plan, len(entry.indices) - 1)
                for index in entry.indices:
                    result = results[index]
                    result.error = error
                    result.method = "error"
                    result.route = "error"
                    emit(index)
                continue
            # errored entries are excluded so EngineStats and the per-plan
            # telemetry rows report the same grouped-job/reuse counts
            stats.grouped_jobs += 1
            if shared_setup and executed > 0:
                stats.setup_reuse += 1
            executed += 1
            self._observe(stats, plan, artifacts, trace, verdict_name(satisfiable))
            self._explore(stats, plan, entry.canonical, artifacts, trace)
            decision = CachedDecision(satisfiable, method, reason)
            self.cache.put(entry.key, decision)
            for ask_position, index in enumerate(entry.indices):
                result = results[index]
                result.satisfiable = satisfiable
                result.method = method
                result.reason = reason
                result.route = route
                result.cached = ask_position > 0  # coalesced onto the first ask
                result.elapsed_ms = trace.elapsed_ms if ask_position == 0 else 0.0
                emit(index)

    def _observe(
        self,
        stats: EngineStats,
        plan: Plan,
        artifacts: SchemaArtifacts | None,
        trace: ExecutionTrace,
        verdict: str,
    ) -> None:
        """Feed one plan execution into per-plan telemetry and the cost
        model.

        The recorded latency is the decider-chain time from the trace —
        the same definition on the inline and pooled paths, so one plan's
        histogram never mixes wall time (with rewrite/fork/IPC overhead)
        with pure decide time.  Only *conclusive* attempts (sat/unsat)
        become cost-model samples: an `unknown` is cheap precisely
        because the decider gave up, and counting it would promote
        fast-but-useless semi-decision procedures to chain primary (they
        would then run on every job only to fall through)."""
        if verdict == "error":
            # a failed execution has no meaningful decision latency — a
            # ~0 ms sample would drag the histogram down (same rule as
            # the pooled worker-death path)
            self.telemetry.record_failure(plan)
        else:
            self.telemetry.record(
                plan, trace.elapsed_ms, verdict,
                decider=trace.decider, fallback=trace.fallback_used,
                group_size=trace.group_size, group_lead=trace.group_lead,
                shared_setup=trace.shared_setup, runtime_hit=trace.runtime_hit,
            )
            if trace.decider is not None and decider_traits(trace.decider):
                stats.trait_routed_answers[trace.decider] = (
                    stats.trait_routed_answers.get(trace.decider, 0) + 1
                )
        bucket = artifacts.cost_bucket if artifacts else size_bucket(None)
        for name, attempt_ms, outcome in trace.attempts:
            if outcome in ("sat", "unsat"):
                self.cost_model.observe(plan.signature, bucket, name, attempt_ms)

    def _explore(
        self,
        stats: EngineStats,
        plan: Plan,
        canonical: Path,
        artifacts: SchemaArtifacts | None,
        trace: ExecutionTrace,
    ) -> None:
        """Cost-model epsilon-exploration: normal operation only times
        the chain member that answers, so a fallback that would win
        stays unmeasured until someone calls ``calibrate()``.  With
        ``CostModel(explore_every=N)`` every N-th decision of a
        (signature × bucket) re-times the *stalest* chain member on the
        question just answered.  The probe runs in the engine's own
        process (after inline decides and while absorbing pooled
        outcomes) and its verdict is discarded — the job's answer is
        already committed — so exploration can never change a verdict,
        and the hygiene rule still applies: inconclusive probes record
        nothing."""
        chain = (plan.decider,) + plan.fallbacks
        if len(chain) < 2 or not self.cost_model.explore_every:
            return
        bucket = artifacts.cost_bucket if artifacts else size_bucket(None)
        conclusive = {
            name for name, _ms, outcome in trace.attempts
            if outcome in ("sat", "unsat")
        }
        probe = self.cost_model.exploration_candidate(
            plan.signature, bucket, chain, exclude=conclusive
        )
        if probe is None:
            return
        stats.explore_probes += 1
        # the probe must see exactly what execute_plan hands the chain:
        # the plan's rewrite passes applied (canonicalize already was) —
        # otherwise a rewrite-bearing plan's probe times a query shape
        # the decider never receives, or just declines it
        probe_query = canonical
        for pass_name in plan.rewrites:
            if pass_name == "canonicalize":
                continue
            rewritten = get_pass(pass_name).run(probe_query)
            if not rewritten.complete:
                return
            probe_query = rewritten.path
        spec = get_decider(probe)
        dtd = artifacts.dtd if artifacts else None
        probe_start = time.perf_counter()
        try:
            result = spec.call(probe_query, dtd, self.bounds)
        except Exception:
            # a decline (or a latent bug in a decider the plan never
            # needed) must not fail a job whose answer is already in
            return
        if result.satisfiable is not None:
            self.cost_model.observe(
                plan.signature, bucket, probe,
                (time.perf_counter() - probe_start) * 1e3,
            )

    def _result(
        self,
        job: Job,
        artifacts: SchemaArtifacts | None,
        decision: CachedDecision,
        route: str,
        cached: bool = False,
        elapsed_ms: float = 0.0,
    ) -> JobResult:
        return JobResult(
            id=job.id if job.id is not None else job.query_text,
            query=job.query_text,
            schema=job.schema,
            fingerprint=artifacts.fingerprint if artifacts else None,
            satisfiable=decision.satisfiable,
            method=decision.method,
            reason=decision.reason,
            route=route,
            cached=cached,
            elapsed_ms=elapsed_ms,
        )

    def _error_result(self, raw, error: Exception) -> JobResult:
        query_text = schema = job_id = None
        try:
            job = Job.coerce(raw)
            query_text, schema, job_id = job.query_text, job.schema, job.id
        except ReproError:
            query_text = repr(raw)
        return JobResult(
            id=job_id if job_id is not None else (query_text or ""),
            query=query_text or "",
            schema=schema,
            fingerprint=None,
            satisfiable=None,
            method="error",
            route="error",
            error=str(error),
        )
