"""The nested-layer peel: the same jobs pushed through ever more layers.

Stages, in order, each timed over the same job list ``P`` under the
workload's cache regime (warm: an untimed pass first; cold: plans warm,
decisions empty):

1. ``execute`` — ``execute_plan`` alone, on pre-planned, pre-canonicalized
   questions (no engine, no cache);
2. ``inline``  — ``BatchEngine(workers=1).run`` in the workload's batches;
3. ``pooled``  — ``BatchEngine(workers=2).run``, lanes warm;
4. ``serve``   — ``repro serve`` over a unix socket, one client, a window
   of :data:`WINDOW` jobs in flight;
5. ``route1``  — ``repro route --workers 1`` in front of one serve worker;
6. ``route2``  — ``repro route --workers 2``.

Each delta is a later stage's wall time per job minus an earlier one's.
Every stage starts from the workload's seeded state tier (socket stages
from a private copy), so all of them plan warm from the same state.
"""

from __future__ import annotations

import json
import os
import re
import time

import fleet
from host import cpu_delta, median
from jobsets import job_records
from inprocess import Phase, add_stats, check_result, new_engine, warm

#: jobs in flight per client in socket stages (serve's default admission
#: limit for a one-lane engine, so a direct serve never sheds)
WINDOW = 64


def _execute_stage(workload, schemas, jobs, spans=None) -> float:
    """Seconds to ``execute_plan`` every job once (plans and canonical
    forms prepared beforehand, outside the timing)."""
    from repro.engine.registry import SchemaRegistry
    from repro.sat.planner import Planner, execute_plan
    from repro.xpath.canonical import canonicalize
    from repro.xpath.fragments import features_of
    from repro.xpath.parser import parse_query

    registry = SchemaRegistry()
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    planner = Planner()
    prepared = []
    for job in jobs:
        query = parse_query(job.query_text)
        artifacts = registry.get(job.schema)
        plan = planner.plan_for(features_of(query), artifacts=artifacts)
        prepared.append((plan, canonicalize(query), artifacts.dtd))
    run = execute_plan
    if spans is not None:
        run = spans.timed("planner.execute", execute_plan)
        spans.install()
    try:
        start = time.perf_counter()
        for plan, canonical, dtd in prepared:
            run(plan, canonical, dtd, pre_canonicalized=True)
        return time.perf_counter() - start
    finally:
        if spans is not None:
            spans.uninstall()


def _engine_stage(workload, schemas, jobs, reference, tier, workers, spans=None):
    """Seconds of ``run()`` over ``jobs`` on a fresh engine, after an
    untimed pass; also the results (for encode timing) and a scored phase."""
    from dataclasses import replace

    config = replace(workload, engine_workers=workers)
    phase = Phase()
    results = []
    with new_engine(config, schemas, tier) as engine:
        warm(engine, config, jobs)
        if workload.regime == "cold":
            engine.cache.clear()
        if spans is not None:
            spans.install()
        try:
            busy = 0.0
            for start in range(0, len(jobs), config.batch_size):
                batch = jobs[start:start + config.batch_size]
                began = time.perf_counter()
                report = engine.run(batch)
                busy += time.perf_counter() - began
                phase.jobs += len(batch)
                results.extend(report.results)
                add_stats(phase, report.stats)
        finally:
            if spans is not None:
                spans.uninstall()
    for result in results:
        check_result(phase, result, reference[result.id])
    return busy, results, phase


def _socket_stage(workdir, name, argv, records, reference, regime):
    """Boot a service, (warm it,) time one closed-loop pass of ``records``."""
    service = fleet.Service(argv, f"{name}.sock", workdir)
    outcome = {"boot_s": 0.0}
    with service:
        outcome["boot_s"] = service.boot_s
        with fleet.Client(service.socket_path) as client:
            if regime == "warm":
                client.closed_loop(
                    [dict(record, id=f"w-{record['id']}") for record in records],
                    WINDOW,
                )
            router_pid = service.process.pid
            pids = service.pids()
            before = service.cpu()
            measured = fleet.measured_phase(service, client, "closed", records, WINDOW)
            after = service.cpu()
        outcome.update(
            elapsed_s=measured["elapsed_s"],
            cpu_s=cpu_delta(before, after),
            front_cpu_s=cpu_delta(
                {router_pid: before.get(router_pid, 0.0)},
                {router_pid: after.get(router_pid, 0.0)},
            ),
            processes=len(pids),
        )
    outcome.update(score_replies(records, measured["replies"], reference))
    return outcome


def score_replies(records, replies, reference) -> dict:
    """Failed / unknown / shed counts of socket replies against the
    reference (a missing reply or a surfaced retry is a failure)."""
    answered: dict[str, dict] = {}
    for record, _stamp in replies:
        if "id" in record:
            answered[record["id"]] = record
    failed = unknown = shed = 0
    failures: list[str] = []
    for record in records:
        reply = answered.get(record["id"])
        if reply is None:
            failed += 1
            failures.append(f"{record['id']}: no result")
        elif reply.get("status") == "retry":
            failed += 1
            shed += 1
        elif reply.get("error") is not None or reply.get("status") == "error":
            failed += 1
            failures.append(f"{record['id']}: error {reply.get('error')}")
        elif reply.get("satisfiable") is None:
            unknown += 1
        elif reply["satisfiable"] != reference[record["id"]]:
            failed += 1
            failures.append(f"{record['id']}: verdict {reply['satisfiable']}")
    return {
        "failed": failed, "unknown": unknown, "shed": shed,
        "failures": failures[:5], "answered": answered,
    }


_SAMPLE = re.compile(r'^(repro_router_\w+?)(?:\{shard="(\d+)"\})?\s+([0-9.eE+-]+)$')


def read_router_metrics(path: str) -> dict:
    """``repro_router_*`` samples from a ``--metrics-out`` file."""
    metrics: dict = {"shard_jobs": {}}
    with open(path) as handle:
        for line in handle:
            match = _SAMPLE.match(line.strip())
            if not match:
                continue
            name, shard, value = match.group(1), match.group(2), float(match.group(3))
            if name == "repro_router_shard_jobs_total" and shard is not None:
                metrics["shard_jobs"][int(shard)] = value
            elif shard is None:
                metrics[name] = value
    return metrics


def codec_timings(jobs, results) -> dict:
    """Seconds per job to decode the jobs' wire form with the program's
    ``parse_job_line``, and to encode results as the server does."""
    from repro.engine.jobs import parse_job_line

    lines = [
        json.dumps({"id": job.id, "query": job.query_text, "schema": job.schema})
        for job in jobs
    ]
    decode, encode = [], []
    for _ in range(5):
        start = time.perf_counter()
        for line in lines:
            parse_job_line(line)
        decode.append((time.perf_counter() - start) / len(lines))
        start = time.perf_counter()
        for result in results:
            json.dumps(result.to_record(), sort_keys=True)
        encode.append((time.perf_counter() - start) / len(results))
    return {"decode_s": median(decode), "encode_s": median(encode)}


def run_peel(workload, schemas, jobs, reference, workdir, tier_dir, spans) -> dict:
    """All six stages over ``jobs``; ``spans`` records the execute
    stage's decider attribution and the inline stage's layer spans."""
    from dataclasses import replace

    records = job_records(jobs)
    batch_config = workload if workload.batch_size else replace(workload, batch_size=50)
    schema_dir = fleet.write_schema_dir(os.path.join(workdir, "schemas"), schemas)
    wall: dict[str, float] = {}
    wall["execute"] = _execute_stage(batch_config, schemas, jobs)
    _execute_stage(batch_config, schemas, jobs, spans=spans["execute"])

    # in-process engines only read the tier; a serving process saves to
    # it on shutdown, so each socket stage boots from a private copy
    def tier_copy(stage: str) -> str:
        return fleet.copy_tier(tier_dir, os.path.join(workdir, f"tier-{stage}"))

    wall["inline"], results, inline_phase = _engine_stage(
        batch_config, schemas, jobs, reference, tier_dir, 1,
    )
    scored = [inline_phase]
    if "inline" in spans:
        _, _, traced_phase = _engine_stage(
            batch_config, schemas, jobs, reference, tier_dir, 1, spans=spans["inline"],
        )
        scored.append(traced_phase)
    wall["pooled"], _, pooled_phase = _engine_stage(
        batch_config, schemas, jobs, reference, tier_dir, 2,
    )
    engine_workers = workload.engine_workers
    schema_arg = os.path.relpath(schema_dir, workdir)
    socket = {
        "serve": _socket_stage(
            workdir, "serve",
            fleet.serve_argv("serve.sock", schema_arg,
                             os.path.basename(tier_copy("serve")), engine_workers),
            records, reference, workload.regime,
        ),
    }
    for shards in (1, 2):
        stage = f"route{shards}"
        metrics_file = f"{stage}.prom"
        socket[stage] = _socket_stage(
            workdir, stage,
            fleet.route_argv(
                f"{stage}.sock", schema_arg, os.path.basename(tier_copy(stage)),
                shards, engine_workers, f"{stage}-workers", metrics_file,
            ),
            records, reference, workload.regime,
        )
        socket[stage]["router"] = read_router_metrics(os.path.join(workdir, metrics_file))
    for stage, outcome in socket.items():
        wall[stage] = outcome["elapsed_s"]
    scored.append(pooled_phase)
    failed = sum(phase.failed for phase in scored) + sum(
        outcome["failed"] for outcome in socket.values()
    )
    failures = [failure for phase in scored for failure in phase.failures] + [
        failure for outcome in socket.values() for failure in outcome["failures"]
    ]
    return {
        "jobs": len(jobs),
        "wall_s": wall,
        "socket": socket,
        "codec": codec_timings(jobs, results),
        "inline_traced": scored[1] if "inline" in spans else None,
        "attempted": len(jobs) * (len(scored) + len(socket)),
        "failed": failed,
        "failures": failures[:5],
    }
