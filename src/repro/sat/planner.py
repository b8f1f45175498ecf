"""Query planner: declarative, cacheable, explainable decision plans.

Routing a satisfiability question used to live in an if-chain inside
``decide()``.  The planner replaces that chain with an explicit
:class:`Plan` — the ordered rewrite passes to apply, the decider that
answers, and the fallback chain if it declines — computed purely from

* the query's **feature signature** (:func:`repro.xpath.fragments.feature_signature`), and
* the schema's **classification traits** (:func:`repro.dtd.properties.classify`),

by scanning the decider registry (:mod:`repro.sat.registry`) and the
rewrite-pass registry (:data:`repro.xpath.rewrite.PASSES`) in cost-rank
order.  Because a plan depends on nothing else, it is cached per
``(feature signature × schema fingerprint)`` on the schema's artifact
record, so a warm batch run resolves routing without invoking the
planner at all.

Plans serialize (``to_dict``/``from_dict``) and explain themselves
(``python -m repro explain``); :func:`execute_plan` runs one against a
concrete query.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.dtd.model import DTD
from repro.dtd import properties as dtd_properties
from repro.errors import ReproError
from repro.sat.costmodel import INLINE_THRESHOLD_MS, CostModel, size_bucket
from repro.sat.registry import DeciderSpec, deciders, get_decider, registry_size
from repro.sat.result import SatResult
from repro.xpath.ast import Path
from repro.xpath.fragments import Feature, feature_signature, features_of
from repro.xpath.rewrite import PASSES, get_pass

#: method tag of verdicts produced by the plan itself (e.g. a query whose
#: ``↑`` steps climb above the root is unsatisfiable before any decider runs)
PLAN_METHOD = "dispatch"


@dataclass(frozen=True)
class Plan:
    """One routing decision: rewrites to apply, decider to run, fallbacks.

    A plan is pure data — names into the pass/decider registries — so it
    is hashable, serializable, and independent of the concrete query it
    was planned from (any query with the same feature signature against
    the same schema class executes identically).
    """

    signature: str
    schema: str | None               # short schema fingerprint, or None (no DTD)
    rewrites: tuple[str, ...]        # rewrite-pass names, applied in order
    decider: str                     # primary decider (registry name)
    fallbacks: tuple[str, ...] = ()  # tried in order if the primary declines
    route: str = "inline"            # "inline" (PTIME) | "pool" (heavy)
    notes: tuple[str, ...] = ()
    #: cost-model view of the chain at plan time: (decider, effective ms),
    #: sorted by cost; empty when the plan was built with static ranking
    costs: tuple[tuple[str, float], ...] = ()

    @property
    def spec(self) -> DeciderSpec:
        return get_decider(self.decider)

    @property
    def telemetry_key(self) -> str:
        """The stable aggregation key of this routing decision: two plans
        share a telemetry row iff they route identically (same schema
        class, rewrites, and decider chain) — the cost annotation does
        not split rows."""
        chain = "+".join((self.decider,) + self.fallbacks)
        return f"{self.schema or '-'}|{self.signature}|{chain}"

    @property
    def method(self) -> str:
        return self.spec.method

    @property
    def theorem(self) -> str:
        return self.spec.theorem

    @property
    def complexity(self) -> str:
        return self.spec.complexity

    def to_dict(self) -> dict[str, Any]:
        record = {
            "signature": self.signature,
            "schema": self.schema,
            "rewrites": list(self.rewrites),
            "decider": self.decider,
            "fallbacks": list(self.fallbacks),
            "route": self.route,
            "notes": list(self.notes),
        }
        if self.costs:
            record["costs"] = [[name, cost] for name, cost in self.costs]
        return record

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "Plan":
        return cls(
            signature=record["signature"],
            schema=record.get("schema"),
            rewrites=tuple(record.get("rewrites", ())),
            decider=record["decider"],
            fallbacks=tuple(record.get("fallbacks", ())),
            route=record.get("route", "inline"),
            notes=tuple(record.get("notes", ())),
            costs=tuple(
                (str(name), float(cost))
                for name, cost in record.get("costs", ())
            ),
        )

    def explain(self) -> str:
        """Human-readable account of the plan, for ``repro explain``."""
        spec = self.spec
        fragment = "X()" if self.signature == "()" else f"X({self.signature})"
        lines = [
            f"plan for {fragment} "
            + (f"against schema {self.schema}" if self.schema else "without a DTD"),
            f"  rewrites   : {', '.join(self.rewrites) if self.rewrites else '(none)'}",
            f"  decider    : {self.decider} — {spec.theorem}, {spec.complexity} "
            f"[{spec.method}]",
        ]
        if self.fallbacks:
            parts = []
            for name in self.fallbacks:
                fallback = get_decider(name)
                parts.append(f"{name} ({fallback.theorem}, {fallback.complexity})")
            lines.append(f"  fallbacks  : {' -> '.join(parts)}")
        else:
            lines.append("  fallbacks  : (none)")
        lines.append(f"  route      : {self.route}")
        if self.costs:
            from repro.sat.costmodel import UNMEASURED_BASE_MS

            parts = [
                f"{name} {'unmeasured' if cost >= UNMEASURED_BASE_MS else f'{cost:.3f}ms'}"
                for name, cost in self.costs
            ]
            lines.append(f"  costs      : {', '.join(parts)}")
        for note in self.notes:
            lines.append(f"  note       : {note}")
        return "\n".join(lines)


TraitCheck = Callable[[str], bool]

# scan lists are pure functions of the (static after import) registries;
# cache them per setting, invalidating if either registry grows
_SCAN_CACHE: dict[bool, tuple[tuple[int, int], tuple, tuple]] = {}


def _scan_items(has_dtd: bool):
    """The planner's merged scan order for one setting: the unconditional
    (``trigger=None``) rewrite passes in rank order, and the
    ``(rank, kind, item)`` list interleaving deciders with triggered
    passes."""
    stamp = (registry_size(), len(PASSES))
    cached = _SCAN_CACHE.get(has_dtd)
    if cached is not None and cached[0] == stamp:
        return cached[1], cached[2]
    specs = deciders(needs_dtd=has_dtd)
    unconditional = tuple(sorted(
        (p for p in PASSES.values() if p.trigger is None),
        key=lambda p: (p.rank, p.name),
    ))
    items: list[tuple[int, int, Any]] = [(spec.cost_rank, 1, spec) for spec in specs]
    items += [
        (rewrite_pass.rank, 0, rewrite_pass)
        for rewrite_pass in PASSES.values()
        if rewrite_pass.trigger is not None
    ]
    items.sort(key=lambda item: item[:2])
    _SCAN_CACHE[has_dtd] = (stamp, unconditional, tuple(items))
    return unconditional, tuple(items)

_TRAIT_PREDICATES: dict[str, Callable[[DTD], bool]] = {
    "normalized": dtd_properties.is_normalized,
    "disjunction_free": dtd_properties.is_disjunction_free,
    "nonrecursive": dtd_properties.is_nonrecursive,
    "no_star": dtd_properties.is_no_star,
    "duplicate_free": dtd_properties.is_duplicate_free,
    "disjunction_capsuled": dtd_properties.is_disjunction_capsuled,
    "dc_df_restrained": dtd_properties.is_dc_df_restrained,
}


def build_plan(
    features: frozenset[Feature],
    *,
    has_dtd: bool,
    traits: TraitCheck,
    schema: str | None = None,
    cost_model: CostModel | None = None,
    schema_size: int | None = None,
) -> Plan:
    """Construct the plan for a feature set against one schema class.

    The scan merges registered deciders and trigger-carrying rewrite
    passes in cost-rank order: a pass whose trigger fragment contains the
    current features fires and replaces the feature set by the pass's
    declared output bound; the first decider whose allowed set contains
    the features (and whose schema traits hold) becomes the primary.  If
    the primary may decline, the scan continues to record the fallback
    chain, stopping at the first decider that cannot decline.

    ``traits`` is consulted lazily — only when a trait-gated decider's
    operator set actually matches — so planning a downward query never
    pays for a disjunction-freeness check.

    With a ``cost_model``, the statically scanned chain is re-ordered by
    measured latency for this (signature × schema-size bucket): the
    cheapest member becomes the primary and the rest stay as fallbacks.
    The chain members never change — only their order — and execution
    treats ``unknown``/declines from non-final members as fall-through,
    so cost-based ordering cannot change verdicts.
    """
    signature = feature_signature(features)
    notes: list[str] = []

    unconditional, items = _scan_items(has_dtd)
    rewrites: list[str] = []
    for rewrite_pass in unconditional:
        rewrites.append(rewrite_pass.name)
        features = rewrite_pass.output_bound(features)

    primary: DeciderSpec | None = None
    fallbacks: list[str] = []
    for _rank, kind, item in items:
        if kind == 0:  # rewrite pass
            if primary is None and features <= item.trigger.allowed:
                rewrites.append(item.name)
                features = item.output_bound(features)
                notes.append(f"{item.name}: {item.description}")
            continue
        spec = item
        if not spec.accepts(features):
            continue
        if spec.traits and not all(traits(name) for name in spec.traits):
            continue
        if primary is None:
            primary = spec
            if spec.traits:
                notes.append(
                    "schema is " + ", ".join(t.replace("_", "-") for t in spec.traits)
                    + f": {spec.theorem} applies"
                )
            if not spec.may_decline:
                break
        else:
            fallbacks.append(spec.name)
            if not spec.may_decline:
                break
    if primary is None:
        raise ReproError(
            f"no registered decider accepts X({signature}) "
            f"({'with' if has_dtd else 'without'} a DTD)"
        )

    chain = [primary.name] + fallbacks
    costs: tuple[tuple[str, float], ...] = ()
    if cost_model is not None:
        bucket = size_bucket(schema_size)
        by_cost = sorted(
            (round(cost_model.effective_cost(get_decider(name), signature, bucket), 3),
             position, name)
            for position, name in enumerate(chain)
        )
        ordered = [name for _cost, _position, name in by_cost]
        costs = tuple((name, cost) for cost, _position, name in by_cost)
        if ordered != chain:
            winner = cost_model.measured(signature, bucket, ordered[0])
            notes.append(
                f"cost model ({bucket} schemas): {ordered[0]} promoted "
                f"(measured {winner.mean_ms:.3f}ms mean over {winner.count:g} runs)"
            )
            chain = ordered
        primary = get_decider(chain[0])

    route = "inline" if primary.complexity == "PTIME" else "pool"
    if (
        cost_model is not None
        and route == "pool"
        and cost_model.is_measured(primary, signature, size_bucket(schema_size))
        and costs
        and costs[0][1] <= INLINE_THRESHOLD_MS
    ):
        # measured cheaper than fork overhead: keep it in-process
        route = "inline"
        notes.append(
            f"cost model: {primary.name} measured under "
            f"{INLINE_THRESHOLD_MS:.0f}ms, routed inline"
        )

    return Plan(
        signature=signature,
        schema=schema,
        rewrites=tuple(rewrites),
        decider=chain[0],
        fallbacks=tuple(chain[1:]),
        route=route,
        notes=tuple(notes),
        costs=costs,
    )


@dataclass
class ExecutionTrace:
    """What actually happened when a plan ran: every chain member tried,
    its latency, and its outcome (``sat``/``unsat``/``unknown``,
    ``declined`` for a fallback request, ``failed`` for a hard error
    from a member that may not decline).  Feeds per-plan telemetry and
    the cost model.

    When the plan-grouped scheduler ran this execution as part of a
    :class:`~repro.engine.batch.PlanGroup` chunk, ``group_size`` is the
    chunk's job count (0 = an inline decide), ``group_lead`` marks the chunk's
    first execution (so per-plan group counters tick once per chunk), and
    ``shared_setup`` records whether the chain's ``prepare`` contexts
    were available (a ``False`` means ``prepare`` failed and the chunk
    fell back to per-job setup).  ``runtime_hit`` marks a
    chunk that found its contexts already prepared in a persistent
    worker runtime (schema-affinity scheduling) instead of building
    them itself."""

    attempts: list[tuple[str, float, str]] = field(default_factory=list)
    group_size: int = 0
    group_lead: bool = False
    shared_setup: bool = False
    runtime_hit: bool = False

    def add(self, decider: str, elapsed_ms: float, outcome: str) -> None:
        self.attempts.append((decider, elapsed_ms, outcome))

    @property
    def decider(self) -> str | None:
        """The chain member whose answer was returned (``None`` when the
        plan itself answered, e.g. an above-root rewrite)."""
        for name, _elapsed, outcome in reversed(self.attempts):
            if outcome not in ("declined", "failed"):
                return name
        return None

    @property
    def fallback_used(self) -> bool:
        """Did execution move past the primary (decline or fall-through)?"""
        return len(self.attempts) > 1

    @property
    def elapsed_ms(self) -> float:
        return sum(elapsed for _name, elapsed, _outcome in self.attempts)


class PlanContexts:
    """Lazily built, memoized decider contexts for one plan × schema —
    the shared-setup half of plan-grouped scheduling.

    A group chunk shares one instance: each decider's ``prepare`` runs
    the first time that decider actually executes — so a chain whose
    primary answers every question never pays for the fallbacks' setup —
    and the built context is reused by every later question in the
    chunk.  A ``prepare`` that raises marks its decider context-less
    (per-job setup) instead of failing
    execution; the first error message is kept for reporting.

    An instance may also outlive one chunk: the executor layer's
    :class:`~repro.engine.executors.WorkerRuntime` keeps PlanContexts
    keyed by (schema fingerprint × plan) across chunks, so the next
    chunk of the same schema starts with ``built > 0`` and pays no
    setup at all.  ``hits`` counts ``get`` calls served from the memo
    (within and across chunks).
    """

    def __init__(self, plan: Plan, dtd: DTD | None):
        self._plan = plan
        self._dtd = dtd
        self._contexts: dict[str, Any] = {}
        self._unavailable: set[str] = set()
        self.prepare_error: str | None = None
        self.hits = 0
        #: accumulated wall time spent inside ``prepare`` hooks (ms);
        #: the executor layer reports the per-chunk delta as the
        #: chunk's ``prepare`` span
        self.prepare_ms = 0.0

    def __bool__(self) -> bool:
        # always consulted by execute_plan (laziness happens inside get)
        return self._dtd is not None

    @property
    def built(self) -> int:
        """Number of contexts actually constructed so far."""
        return len(self._contexts)

    def get(self, name: str) -> Any:
        context = self._contexts.get(name)
        if context is not None:
            self.hits += 1
            return context
        if name in self._unavailable or self._dtd is None:
            return None
        spec = get_decider(name)
        if spec.prepare is None or not spec.accepts_context:
            self._unavailable.add(name)
            return None
        start = time.perf_counter()
        try:
            context = spec.prepare(self._dtd)
        except Exception as error:  # degrade to per-job setup, never fail
            self.prepare_ms += (time.perf_counter() - start) * 1e3
            self._unavailable.add(name)
            if self.prepare_error is None:
                self.prepare_error = f"{type(error).__name__}: {error}"
            return None
        self.prepare_ms += (time.perf_counter() - start) * 1e3
        if context is None:
            # a hook may legitimately produce nothing; remember that so
            # it is not re-run for every question in the chunk
            self._unavailable.add(name)
            return None
        self._contexts[name] = context
        return context


def execute_plan(
    plan: Plan,
    query: Path,
    dtd: DTD | None = None,
    bounds=None,
    *,
    pre_canonicalized: bool = False,
    trace: ExecutionTrace | None = None,
    contexts: "dict[str, Any] | PlanContexts | None" = None,
) -> SatResult:
    """Run ``plan`` against a concrete query: apply its rewrite passes in
    order, then the decider chain.

    Chain semantics keep any permutation verdict-equivalent: a member that
    declines (raises :class:`ReproError`) or returns ``unknown`` while
    later members remain falls through to the next; an ``unknown`` is
    returned only when no later member concludes.  This is what makes
    cost-model promotion of a semi-decision procedure sound — if the
    promoted decider cannot conclude, the statically ranked decider still
    gets the question.

    ``pre_canonicalized`` skips the plan's ``canonicalize`` pass for
    callers that already hold the canonical form (the batch engine
    computes it for the decision-cache key).  ``trace``, when given, is
    filled with the per-member latencies and outcomes.  ``contexts`` maps
    decider names to the shared per-schema setup (a plain dict or a lazy
    :class:`PlanContexts`); each member is looked up via ``.get``.
    """
    for name in plan.rewrites:
        if pre_canonicalized and name == "canonicalize":
            continue
        outcome = get_pass(name).run(query)
        if not outcome.complete:
            return SatResult(
                False, PLAN_METHOD, reason="query climbs above the root"
            )
        query = outcome.path
    chain = (plan.decider,) + plan.fallbacks
    last_unknown: SatResult | None = None
    for position, name in enumerate(chain):
        spec = get_decider(name)
        is_last = position + 1 == len(chain)
        start = time.perf_counter()
        try:
            result = spec.call(
                query, dtd, bounds,
                context=contexts.get(name) if contexts else None,
            )
        except ReproError:
            if trace is not None:
                trace.add(
                    name, (time.perf_counter() - start) * 1e3,
                    "declined" if spec.may_decline else "failed",
                )
            if spec.may_decline:
                if not is_last:
                    continue
                if last_unknown is not None:
                    return last_unknown
            # a genuine failure (or a decline with nothing to fall back
            # to and no earlier unknown) must surface, never be masked
            # as a verdict the engine would cache
            raise
        if trace is not None:
            trace.add(
                name,
                (time.perf_counter() - start) * 1e3,
                {True: "sat", False: "unsat", None: "unknown"}[result.satisfiable],
            )
        if result.satisfiable is None and not is_last:
            last_unknown = result
            continue
        if result.satisfiable is None and last_unknown is not None:
            return last_unknown
        return result
    raise AssertionError("unreachable: decider chain exhausted")


class Planner:
    """Plan factory with per-destination caching and telemetry.

    Plans for registered schemas are cached on the schema's artifact
    record (``artifacts.plan_cache``, living in the engine's
    :class:`~repro.engine.registry.SchemaRegistry`), keyed by feature
    signature; no-DTD plans are cached on the planner itself.  Ad-hoc
    ``(query, DTD)`` calls — no registered artifacts — are planned fresh
    each time (the scan lists themselves are precomputed, so a fresh plan
    is one walk over ~10 cached registry entries); register the schema to
    amortize even that.
    """

    def __init__(self, cost_model: CostModel | None = None) -> None:
        self._no_dtd_cache: dict[str, Plan] = {}
        self.cost_model = cost_model
        self.invocations = 0  # plans actually built
        self.cache_hits = 0   # plans served from a plan cache

    def plan_for(
        self,
        features: frozenset[Feature],
        *,
        artifacts=None,
        dtd: DTD | None = None,
    ) -> Plan:
        if artifacts is not None:
            cache = getattr(artifacts, "plan_cache", None)
            signature = feature_signature(features)
            if cache is not None:
                plan = cache.get(signature)
                if plan is not None:
                    self.cache_hits += 1
                    return plan
            self.invocations += 1
            schema_dtd = getattr(artifacts, "dtd", None)
            plan = build_plan(
                features,
                has_dtd=True,
                traits=lambda name: _artifact_trait(artifacts, name),
                schema=getattr(artifacts, "short_fingerprint", None),
                cost_model=self.cost_model,
                schema_size=schema_dtd.size() if schema_dtd is not None else None,
            )
            if cache is not None:
                cache[signature] = plan
            return plan
        if dtd is not None:
            self.invocations += 1
            return build_plan(
                features,
                has_dtd=True,
                traits=lambda name: _TRAIT_PREDICATES[name](dtd),
                schema="(unregistered)",
                cost_model=self.cost_model,
                schema_size=dtd.size(),
            )
        signature = feature_signature(features)
        plan = self._no_dtd_cache.get(signature)
        if plan is not None:
            self.cache_hits += 1
            return plan
        self.invocations += 1
        plan = build_plan(
            features, has_dtd=False, traits=lambda name: False,
            cost_model=self.cost_model,
        )
        self._no_dtd_cache[signature] = plan
        return plan

    def plan_query(self, query: Path, *, artifacts=None, dtd: DTD | None = None) -> Plan:
        return self.plan_for(features_of(query), artifacts=artifacts, dtd=dtd)

    def invalidate(self, *artifact_records) -> int:
        """Drop cached plans so the next request replans against the
        current cost-model measurements.  Clears the given artifact
        records' plan caches (and always this planner's no-DTD cache);
        returns the number of plans dropped."""
        dropped = len(self._no_dtd_cache)
        self._no_dtd_cache.clear()
        for artifacts in artifact_records:
            cache = getattr(artifacts, "plan_cache", None)
            if cache is not None:
                dropped += len(cache)
                cache.clear()
        return dropped

    def stats(self) -> dict[str, int]:
        return {
            "invocations": self.invocations,
            "cache_hits": self.cache_hits,
            "no_dtd_plans": len(self._no_dtd_cache),
        }


_MISSING = object()


def _artifact_trait(artifacts, name: str) -> bool:
    """Resolve a schema trait from an artifact record, preferring the
    precomputed classification; duck-typed attributes keep the dispatch
    ``artifacts`` contract (any object with the trait as an attribute).

    A persisted or adopted artifact may carry a classification computed
    before a trait was registered; those recompute from the artifact's
    DTD via :data:`_TRAIT_PREDICATES` and backfill the classification so
    the predicate runs once per (artifact, trait)."""
    classification = getattr(artifacts, "classification", None)
    if classification is not None and name in classification:
        return bool(classification[name])
    value = getattr(artifacts, name, _MISSING)
    if value is not _MISSING:
        return bool(value)
    predicate = _TRAIT_PREDICATES.get(name)
    dtd = getattr(artifacts, "dtd", None)
    if predicate is not None and dtd is not None:
        result = bool(predicate(dtd))
        if classification is not None:
            classification[name] = result
        return result
    return bool(getattr(artifacts, name))


#: the planner behind plain :func:`repro.sat.dispatch.decide` calls
DEFAULT_PLANNER = Planner()
