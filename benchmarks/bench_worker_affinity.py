"""Schema-affinity scheduling: persistent worker runtimes vs. stateless
pooling.

Not a paper figure — this benchmark demonstrates (and guards) the
executor layer on its target traffic shape: a heavy workload whose
chunks keep returning to the **same few schemas** (the clustering
arXiv:1308.0769 reports for real DTD collections), split into several
chunks per schema.  Stateless pooling (``affinity=False``, the PR-4
behaviour) pickles the DTD and rebuilds the decider chain's ``prepare``
contexts — termination fixpoint, per-type Glushkov automata, word
tables — for **every chunk**; affinity scheduling routes each schema's
chunks to one persistent lane whose :class:`WorkerRuntime` pays all of
that once per schema and serves every later chunk from cache.

Asserted invariants:

* verdicts, decision-cache contents, and telemetry verdict mixes are
  **bit-identical** between affinity and stateless runs (affinity is a
  scheduling change, never a semantic one);
* affinity actually engages: the DTD ships once per schema and later
  chunks are runtime-context hits (counter checks);
* in full mode (not ``REPRO_BENCH_QUICK``), affinity throughput is at
  least **1.5×** stateless on the ≥3-chunks-per-schema heavy workload
  with 2 workers — the PR's acceptance bar.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI) shrinks the workload
and asserts only the deterministic counters and verdict equality, so CI
never flakes on wall-clock noise.
"""

from __future__ import annotations

import os
import random
import time
import zlib

from benchmarks.conftest import format_table
from repro.dtd import random_dtd
from repro.engine import BatchEngine, DecisionCache, Job, SchemaRegistry
from repro.engine.registry import schema_fingerprint
from repro.workloads.queries import random_query
from repro.xpath import fragments as frag
from repro.xpath.fragments import Feature, features_of

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"
N_JOBS = 24 if QUICK else 96
N_TYPES = 48 if QUICK else 120
WORKERS = 2
#: small chunks force >= 3 chunks per schema — the workload shape the
#: acceptance bar names (several chunks of the same schema arriving over
#: time, exactly what per-chunk rebuild punishes)
CHUNK_SIZE = 4
SPEEDUP_BAR = 1.5
#: each configuration is timed this many times and the best wall time
#: wins — the acceptance bar guards the scheduler, not container noise
TIMING_RUNS = 1 if QUICK else 2

HEAVY_FRAGMENTS = (frag.DATA_NEG_DOWN, frag.CHILD_QUAL_NEG, frag.REC_NEG_DOWN)


def _schemas() -> dict:
    """Two large star-free, nonrecursive schemas whose fingerprints
    prefer **different** lanes at ``WORKERS`` workers, so the affinity
    run actually uses the whole pool (the seed search is deterministic:
    it walks seeds until the preferred lanes differ)."""
    schemas: dict = {}
    lanes_taken: set[int] = set()
    seed = 100
    while len(schemas) < WORKERS:
        dtd = random_dtd(
            random.Random(seed), n_types=N_TYPES,
            allow_star=False, allow_recursion=False,
        )
        seed += 1
        lane = zlib.crc32(schema_fingerprint(dtd).encode("utf-8")) % WORKERS
        if lane in lanes_taken:
            continue
        lanes_taken.add(lane)
        schemas[f"bulk{len(schemas)}"] = dtd
    return schemas


def _heavy_jobs(rng: random.Random, schemas: dict, n_jobs: int) -> list[Job]:
    """Jobs that all route to the heavy procedures (kept only when they
    actually use negation or data — a depth-1 draw can degrade to a
    plain PTIME path)."""
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


def _run(schemas: dict, jobs: list[Job], affinity: bool):
    """Best wall time over ``TIMING_RUNS`` fresh engines (counters and
    results come from the fastest run; every run is built from scratch,
    so no run warms another)."""
    best = None
    for _attempt in range(TIMING_RUNS):
        registry = SchemaRegistry()
        for name, dtd in schemas.items():
            registry.register(name, dtd)
        engine = BatchEngine(
            registry=registry, cache=DecisionCache(capacity=8192),
            workers=WORKERS, group_chunk_size=CHUNK_SIZE,
            affinity=affinity,
            # the workload is balanced (one schema per lane): spilling a
            # chunk off its warm lane only forces a cold rebuild, so keep
            # the queue deep enough that nothing spills
            lane_queue_depth=max(4, N_JOBS // CHUNK_SIZE),
        )
        start = time.perf_counter()
        outcome = engine.run(jobs)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, outcome, engine)
    return best


def _cache_records(engine):
    return sorted(map(repr, engine.cache.to_records()))


def _verdict_mixes(engine):
    return {
        key: dict(stats.verdicts) for key, stats in engine.telemetry.items()
    }


def test_affinity_vs_stateless(report, rng):
    schemas = _schemas()
    jobs = _heavy_jobs(rng, schemas, N_JOBS)

    affine_elapsed, affine, affine_engine = _run(schemas, jobs, affinity=True)
    stateless_elapsed, stateless, stateless_engine = _run(
        schemas, jobs, affinity=False
    )

    # affinity must never change a verdict, a cached decision, or a
    # telemetry verdict mix
    assert [(r.id, r.satisfiable) for r in affine.results] == [
        (r.id, r.satisfiable) for r in stateless.results
    ], "affinity scheduling changed a verdict"
    assert _cache_records(affine_engine) == _cache_records(stateless_engine)
    assert _verdict_mixes(affine_engine) == _verdict_mixes(stateless_engine)
    assert affine.stats.errors == 0 and stateless.stats.errors == 0

    # the workload has the advertised shape and the runtimes engaged:
    # >= 3 chunks per schema, DTDs shipped once per schema (no spills in
    # this balanced two-schema setup), later chunks served warm
    assert affine.stats.plan_groups >= 3 * len(schemas)
    if affine.stats.affinity_spills == 0:
        assert affine.stats.dtd_ships == len(schemas)
    assert affine.stats.runtime_context_hits >= len(schemas)
    assert stateless.stats.runtime_context_hits == 0
    assert stateless.stats.dtd_ships == stateless.stats.plan_groups

    speedup = (
        stateless_elapsed / affine_elapsed if affine_elapsed else float("inf")
    )
    rows = []
    for name, elapsed, stats in (
        ("affinity", affine_elapsed, affine.stats),
        ("stateless", stateless_elapsed, stateless.stats),
    ):
        rate = stats.jobs / elapsed if elapsed else float("inf")
        rows.append([
            name, stats.jobs, stats.plan_groups, stats.dtd_ships,
            stats.runtime_context_hits, stats.affinity_spills,
            f"{elapsed * 1e3:.1f} ms", f"{rate:,.0f} jobs/s",
        ])
    table = format_table(
        ["executor", "jobs", "chunks", "DTD ships", "runtime hits",
         "spills", "wall", "throughput"],
        rows,
    )
    report(
        "worker_affinity",
        table + f"\naffinity speedup: {speedup:.2f}x over stateless "
        f"({N_JOBS} heavy jobs, {len(schemas)} schemas of {N_TYPES} types, "
        f"{WORKERS} workers, chunk size {CHUNK_SIZE})",
    )
    if not QUICK:
        assert speedup >= SPEEDUP_BAR, (
            f"affinity scheduling {speedup:.2f}x stateless — below the "
            f"{SPEEDUP_BAR}x acceptance bar"
        )


def test_inline_runtime_reuses_across_chunks(report):
    """Even without a pool (1 worker), the engine-lifetime inline
    executor serves chunk N of a schema from chunk 1's contexts."""
    schemas = _schemas()
    jobs = _heavy_jobs(random.Random(7), schemas, 16)
    registry = SchemaRegistry()
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    engine = BatchEngine(
        registry=registry, workers=1, group_chunk_size=CHUNK_SIZE,
    )
    outcome = engine.run(jobs)
    assert outcome.stats.errors == 0
    assert outcome.stats.plan_groups >= 2
    assert outcome.stats.runtime_context_hits >= 1
    # a later run on the same engine starts fully warm
    fresh_jobs = _heavy_jobs(random.Random(8), schemas, 8)
    second = engine.run(fresh_jobs)
    assert second.stats.errors == 0
    assert (
        second.stats.runtime_context_hits >= second.stats.plan_groups - 2
    )
