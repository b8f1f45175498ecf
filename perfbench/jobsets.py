"""The benchmark's four workloads: schemas, job generation, and the
settings each one runs under.

Inputs are a pure function of ``(workload, seed, seconds)``: the
schemas are fixed per workload and the jobs are drawn from
``random.Random(seed)`` with the program's own workload generators
(:func:`repro.workloads.batch_jobs`, :func:`repro.workloads.realworld_jobs`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from repro.dtd import parse_dtd, random_dtd
from repro.dtd.model import DTD
from repro.engine.batch import Job
from repro.workloads import batch_jobs, realworld_jobs, realworld_schemas
from repro.xpath import fragments as frag
from repro.xpath.fragments import Feature, features_of
from repro.xpath.parser import parse_query

DEFAULT_SEED = 20250611
DEFAULT_SECONDS = 15

#: the scale-out mix: four small schemas whose whole small-tree space the
#: brute-force oracle enumerates in well under a millisecond per query
MIX_SCHEMAS = {
    "catalog": "root r\nr -> A, (B + C)\nA -> D*\nB -> D + eps\nC -> eps\nD -> eps\n",
    "doc": "root doc\ndoc -> title, para*\ntitle -> eps\npara -> text + eps\ntext -> eps\n",
    "feed": "root feed\nfeed -> entry*\nentry -> head, body?\nhead -> eps\nbody -> eps\n",
    "inv": "root inv\ninv -> item*\nitem -> sku, qty\nsku -> eps\nqty -> eps\n",
}

#: the two 64-type EXPTIME schemas are fixed; only the queries vary by
#: seed.  Neither schema is DC/DF-restrained, so no trait-gated PTIME
#: decider takes their negation queries off the Thm 5.3 path
EXPTIME_SCHEMA_SEEDS = (70, 71)
EXPTIME_TYPES = 64
EXPTIME_JOBS = 480

#: fleet-stream runs rounds of a closed-loop burst then an open-loop
#: phase at a fixed rate, about a third of the routed fleet's closed-loop
#: capacity on a 2-core host (~3,000 jobs/s).  At half capacity the
#: open-loop percentiles followed the host's speed through the queue and
#: moved 35-45% between quartiles across seeds
FLEET_OPEN_RATE = 1000.0
FLEET_CLOSED_JOBS = 1000
FLEET_OPEN_JOBS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: BatchEngine(workers=...) for in-process runs; the engine workers of
    #: each serve process in the fleet
    engine_workers: int
    #: closed-loop batch size (jobs per BatchEngine.run call)
    batch_size: int
    #: "warm": an untimed pass fills the decision cache; "cold": the cache
    #: is emptied before every timed pass (plans stay warm)
    regime: str
    #: the reference's independent route, for seeds without a pinned file
    check: str
    requires: tuple[str, ...] = ()
    in_process: bool = True
    #: jobs the nested-layer peel pushes through every stage
    peel_jobs: int = 400


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="warm-repeat",
            why="intake only: every timed job is a decision-cache hit on the "
                "small mix schemas, so parse/canonicalize/key dominate",
            engine_workers=1, batch_size=50, regime="warm", check="oracle",
            peel_jobs=1000,
        ),
        Workload(
            name="realworld-cold",
            why="trait-routed PTIME path: realworld DTDs, no duplicates, "
                "cache emptied per pass, so planner, realworld decider and "
                "prepare do the work inline",
            engine_workers=1, batch_size=60, regime="cold", check="ablated",
        ),
        Workload(
            name="exptime-pool",
            why="Thm 5.3 fixpoint on 2 warm lanes with plan grouping; cache "
                "emptied per pass, so chunk dispatch and the types backend "
                "dominate",
            engine_workers=2, batch_size=80, regime="cold", check="backends",
            requires=("cores>=2",), peel_jobs=160,
        ),
        Workload(
            name="fleet-stream",
            why="repro route --workers 2 over a unix socket, half repeats: "
                "router hop, serve ingest, JSON and socket writes run only here",
            engine_workers=1, batch_size=0, regime="warm", check="oracle",
            requires=("cores>=2",), in_process=False, peel_jobs=1000,
        ),
    )
}


def schemas_for(workload: Workload) -> dict[str, DTD]:
    if workload.name == "realworld-cold":
        return realworld_schemas()
    if workload.name == "exptime-pool":
        return {
            f"bulk{index}": random_dtd(random.Random(seed), n_types=EXPTIME_TYPES)
            for index, seed in enumerate(EXPTIME_SCHEMA_SEEDS)
        }
    return {name: parse_dtd(text) for name, text in MIX_SCHEMAS.items()}


def fleet_rounds(seconds: float) -> int:
    """Rounds in a fleet-stream run: about 1.3 s each on a 2-core host.
    Short rounds keep most of them clear of the host's rare stalls, so
    the median over rounds stays put when one round catches a stall."""
    return max(2, round(seconds))


def generate_jobs(
    workload: Workload, seed: int, schemas: dict[str, DTD], seconds: float
) -> list[Job]:
    """The workload's job list for ``seed`` (ids are unique per list)."""
    rng = random.Random(seed)
    if workload.name == "warm-repeat":
        jobs = batch_jobs(
            rng, schemas, 2000, duplicate_rate=0.6, variant_rate=0.5,
        )
    elif workload.name == "realworld-cold":
        # the rare question that falls to the EXPTIME chain inline sets a
        # seed's cost; 3,240 jobs average enough of them that seeds agree
        jobs = realworld_jobs(rng, 3240, duplicate_rate=0.0, max_depth=4)
    elif workload.name == "exptime-pool":
        # only queries that keep a negation: a negation-free draw is a
        # PTIME question the planner answers inline, and a seed-dependent
        # share of those would blur what this workload measures
        drawn = batch_jobs(
            rng, schemas, 6 * EXPTIME_JOBS,
            fragments=(frag.REC_NEG_DOWN, frag.REC_NEG_DOWN_UNION),
            max_depth=3, duplicate_rate=0.1, variant_rate=0.5,
        )
        jobs = [
            job for job in drawn
            if Feature.NEGATION in features_of(parse_query(job.query_text))
        ][:EXPTIME_JOBS]
    else:
        jobs = batch_jobs(
            rng, schemas,
            fleet_rounds(seconds) * (FLEET_CLOSED_JOBS + FLEET_OPEN_JOBS),
            duplicate_rate=0.5, variant_rate=0.5,
        )
    prefix = workload.name.split("-")[0][0]
    return [
        Job(query=job.query_text, schema=job.schema, id=f"{prefix}{index}")
        for index, job in enumerate(jobs)
    ]


def jobs_digest(jobs: list[Job]) -> str:
    """Digest of the exact job list (ids, queries, schemas)."""
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(f"{job.id}\t{job.schema}\t{job.query_text}\n".encode())
    return digest.hexdigest()[:24]


def job_records(jobs: list[Job]) -> list[dict]:
    """The wire form of ``jobs`` (what a JSONL client sends)."""
    return [
        {"id": job.id, "query": job.query_text, "schema": job.schema}
        for job in jobs
    ]
