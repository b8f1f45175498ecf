"""Plan-grouped batch scheduling against a per-job process pool.

Not a paper figure — this benchmark demonstrates (and guards) the
engine's plan-grouped scheduler on its target traffic shape: a large
batch of **heavy** (EXPTIME/NEXPTIME-routed) jobs sharing a handful of
schemas.  The reference arm is a plain per-job pool built here, outside
the engine: a ``ProcessPoolExecutor`` of ``WORKERS`` processes that
receive the schemas once through an initializer, with parsing,
canonicalization, and planning done parent-side and one
:func:`~repro.sat.planner.execute_plan` future per unique question —
no shared ``prepare`` contexts.  It pays per job for IPC, the
termination fixpoint, and the per-plan schema analysis (classification
predicates, content-model word tables); the engine partitions the jobs
by ``Plan.telemetry_key`` × schema fingerprint, runs each group chunk as
one lane task, and shares the decider chain's ``prepare`` contexts
across groupmates — paying all of that once per chunk.

Asserted invariants:

* verdicts are **bit-identical** between the engine and the per-job
  reference (grouping is a scheduling change, never a semantic one);
* the engine forms groups and reuses setup (counter checks);
* in full mode (not ``REPRO_BENCH_QUICK``), engine throughput is at
  least **1.3×** the per-job reference on the 96-job heavy workload.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) shrinks the workload
and asserts only the deterministic counters and verdict equality, so CI
never flakes on wall-clock noise.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor

from benchmarks.conftest import format_table
from repro.dtd import random_dtd
from repro.engine import BatchEngine, DecisionCache, Job, SchemaRegistry
from repro.engine.cache import decision_key_for
from repro.sat.planner import Planner, execute_plan
from repro.workloads.queries import random_query
from repro.xpath import fragments as frag
from repro.xpath.canonical import canonicalize
from repro.xpath.fragments import Feature, features_of
from repro.xpath.parser import parse_query

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_JOBS = 24 if QUICK else 96
N_TYPES = 48 if QUICK else 96
WORKERS = 2
SPEEDUP_BAR = 1.3

#: heavy fragments: negation routes to the Thm 5.3 types fixpoint
#: (EXPTIME), data+negation to the Thm 5.5 small-model search (NEXPTIME)
HEAVY_FRAGMENTS = (frag.DATA_NEG_DOWN, frag.CHILD_QUAL_NEG, frag.REC_NEG_DOWN)


def _schemas() -> dict:
    """Two large star-free, nonrecursive schemas — few schemas, many
    jobs, exactly the clustering arXiv:1308.0769 reports for real DTD
    workloads."""
    return {
        f"bulk{index}": random_dtd(
            random.Random(100 + index), n_types=N_TYPES,
            allow_star=False, allow_recursion=False,
        )
        for index in range(2)
    }


def _heavy_jobs(rng: random.Random, schemas: dict, n_jobs: int) -> list[Job]:
    """Jobs that all route to the heavy procedures: random queries from
    the heavy fragments, kept only when they actually use negation or
    data (a depth-1 draw can degrade to a plain PTIME path)."""
    names = sorted(schemas)
    jobs: list[Job] = []
    while len(jobs) < n_jobs:
        name = rng.choice(names)
        fragment = rng.choice(HEAVY_FRAGMENTS)
        query = random_query(
            rng, fragment, sorted(schemas[name].element_types), max_depth=1
        )
        features = features_of(query)
        if Feature.NEGATION not in features and Feature.DATA not in features:
            continue
        jobs.append(Job(query=str(query), schema=name, id=f"job-{len(jobs)}"))
    return jobs


def _registry(schemas: dict) -> SchemaRegistry:
    registry = SchemaRegistry()
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    return registry


def _run_engine(schemas: dict, jobs: list[Job]):
    engine = BatchEngine(
        registry=_registry(schemas), cache=DecisionCache(capacity=8192),
        workers=WORKERS,
    )
    try:
        start = time.perf_counter()
        outcome = engine.run(jobs)
        elapsed = time.perf_counter() - start
    finally:
        engine.close()
    return elapsed, outcome


#: the per-job reference's worker-side schemas (set by the initializer)
_WORKER_SCHEMAS: dict = {}


def _adopt_schemas(schemas: dict) -> None:
    _WORKER_SCHEMAS.update(schemas)


def _decide_one(plan, canonical, schema: str):
    return execute_plan(
        plan, canonical, _WORKER_SCHEMAS[schema], pre_canonicalized=True
    ).satisfiable


def _run_per_job(schemas: dict, jobs: list[Job]):
    """The per-job reference: one pool future per unique question, no
    shared setup.  Returns (elapsed, [(id, verdict)], unique questions)."""
    registry = _registry(schemas)
    planner = Planner()
    start = time.perf_counter()
    # forked, like the engine's lanes, so both arms pay the same
    # process start-up inside the timed region
    with ProcessPoolExecutor(
        WORKERS, mp_context=multiprocessing.get_context("fork"),
        initializer=_adopt_schemas, initargs=(schemas,),
    ) as pool:
        futures = {}
        asked = []
        for job in jobs:
            artifacts = registry.get(job.schema)
            query = parse_query(job.query)
            canonical = canonicalize(query)
            key = decision_key_for(canonical, artifacts.fingerprint)
            if key not in futures:
                plan = planner.plan_for(features_of(query), artifacts=artifacts)
                assert plan.route == "pool", job.query
                futures[key] = pool.submit(
                    _decide_one, plan, canonical, job.schema
                )
            asked.append((job.id, key))
        verdicts = [(job_id, futures[key].result()) for job_id, key in asked]
        # like the engine arm, pool teardown is not timed
        elapsed = time.perf_counter() - start
    return elapsed, verdicts, len(futures)


def test_grouped_vs_per_job(report, rng):
    schemas = _schemas()
    jobs = _heavy_jobs(rng, schemas, N_JOBS)

    grouped_elapsed, grouped = _run_engine(schemas, jobs)
    per_job_elapsed, per_job_verdicts, unique = _run_per_job(schemas, jobs)

    # grouping must never change a verdict
    assert [(r.id, r.satisfiable) for r in grouped.results] == per_job_verdicts, (
        "grouped dispatch changed a verdict"
    )
    assert grouped.stats.errors == 0
    assert grouped.stats.decide_calls == unique

    # the scheduler actually grouped and shared setup
    assert grouped.stats.plan_groups >= 2
    assert grouped.stats.grouped_jobs == grouped.stats.pool_decides
    assert grouped.stats.setup_reuse >= grouped.stats.plan_groups

    speedup = per_job_elapsed / grouped_elapsed if grouped_elapsed else float("inf")
    rows = []
    for name, elapsed, decides, groups, reuse in (
        ("grouped", grouped_elapsed, grouped.stats.pool_decides,
         grouped.stats.plan_groups, grouped.stats.setup_reuse),
        ("per-job", per_job_elapsed, unique, 0, 0),
    ):
        rate = len(jobs) / elapsed if elapsed else float("inf")
        rows.append([
            name, len(jobs), decides, groups, reuse,
            f"{elapsed * 1e3:.1f} ms", f"{rate:,.0f} jobs/s",
        ])
    table = format_table(
        ["dispatch", "jobs", "pooled", "groups", "setup reuse", "wall", "throughput"],
        rows,
    )
    report(
        "plan_groups",
        table + f"\ngrouped speedup: {speedup:.2f}x over per-job pool "
        f"({N_JOBS} heavy jobs, {len(schemas)} schemas of {N_TYPES} types, "
        f"{WORKERS} workers, p50 {grouped.stats.jobs_per_group(0.5)} / "
        f"p90 {grouped.stats.jobs_per_group(0.9)} jobs per group)",
    )
    if not QUICK:
        assert speedup >= SPEEDUP_BAR, (
            f"grouped dispatch {speedup:.2f}x the per-job pool — below the "
            f"{SPEEDUP_BAR}x acceptance bar"
        )


def test_shared_setup_pays_once_inline(report):
    """Even without a pool (1 worker), a group shares one prepare():
    the counters prove N jobs paid setup once."""
    schemas = _schemas()
    jobs = _heavy_jobs(random.Random(7), schemas, 12)
    engine = BatchEngine(registry=_registry(schemas), workers=1)
    outcome = engine.run(jobs)
    assert outcome.stats.errors == 0
    assert outcome.stats.prepare_fallbacks == 0
    assert outcome.stats.plan_groups >= 1
    assert outcome.stats.grouped_jobs >= outcome.stats.plan_groups
    assert (
        outcome.stats.setup_reuse
        == outcome.stats.grouped_jobs - outcome.stats.plan_groups
    )
