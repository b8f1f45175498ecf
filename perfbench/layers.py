"""Per-layer metrics, computed from spans, engine counters and the peel.

The catalogue — names, units, the base count each figure divides by,
and the end-to-end metric each should move — lives in
``interactions.json`` beside this file.  :func:`per_layer` returns a
value for every catalogue entry, plus a reason for each entry that does
not apply to the workload (its value is then 0 over a base of 0).
"""

from __future__ import annotations

import json
import os

from host import percentile, ratio

CATALOGUE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "interactions.json")


def catalogue() -> list[dict]:
    with open(CATALOGUE) as handle:
        return json.load(handle)["per_layer"]


def _us(seconds: float, count: float) -> float:
    return seconds / count * 1e6 if count else 0.0


def per_layer(workload, layer_spans, phase, exec_spans, peel, setup) -> tuple[dict, dict]:
    """``(values, not_applicable)``.

    ``layer_spans``/``phase``: the traced timed phase (for fleet-stream,
    the peel's traced inline stage); ``exec_spans``: the peel's traced
    ``execute_plan`` stage; ``peel``: :func:`peel.run_peel`'s result;
    ``setup``: ``{"spans", "builds", "schemas"}`` from traced set-up."""
    values: dict[str, float] = {}
    missing: dict[str, str] = {}
    counters = phase.counters
    jobs = phase.jobs

    # -- intake: xpath and cache ----------------------------------------------
    values["xpath.parse_us_per_job"] = _us(layer_spans.total["xpath.parse"], jobs)
    values["xpath.canonicalize_us_per_job"] = _us(
        layer_spans.total["xpath.canonicalize"], jobs
    )
    values["xpath.parse_calls_per_job"] = ratio(layer_spans.calls["xpath.parse"], jobs)
    values["cache.key_us_per_job"] = _us(layer_spans.total["cache.key"], jobs)
    values["cache.lookup_us_per_job"] = _us(layer_spans.total["cache.lookup"], jobs)
    values["cache.hit_ratio"] = ratio(counters["cache_hits"], jobs)
    values["batch.self_us_per_job"] = _us(layer_spans.self_time["batch.run"], jobs)
    values["batch.coalesced_ratio"] = ratio(counters["coalesced"], jobs)
    values["executor.wait_us_per_job"] = _us(layer_spans.total["executor.wait"], jobs)

    # -- planner and deciders ---------------------------------------------------
    # decider attribution comes from the timed phase when it decided
    # everything in-process, otherwise from the peel's execute_plan stage
    # (pooled decides run in lanes, and warm phases decide nothing)
    in_process = layer_spans.calls["planner.execute"] and not counters["pool_decides"]
    decider_spans = layer_spans if in_process else exec_spans
    decides = decider_spans.calls["planner.execute"]
    lookups = counters["plan_cache_hits"] + counters["planner_invocations"]
    values["planner.plan_us_per_decide"] = _us(
        layer_spans.total["planner.plan"], layer_spans.calls["planner.plan"]
    )
    values["planner.plan_cache_hit_ratio"] = ratio(counters["plan_cache_hits"], lookups)
    if not lookups:
        for name in ("planner.plan_us_per_decide", "planner.plan_cache_hit_ratio"):
            missing[name] = "no job reached the planner (every job was a cache hit)"
    values["planner.execute_self_us_per_decide"] = _us(
        decider_spans.self_time["planner.execute"], decides
    )
    calls = decider_spans.sum_calls("decider:")
    values["decider.call_us_per_decide"] = _us(decider_spans.sum_total("decider:"), decides)
    values["decider.attempts_per_decide"] = ratio(calls, decides)
    values["decider.conclusive_ratio"] = ratio(decider_spans.counts["decider.conclusive"], calls)
    values["decider.prepare_calls_per_decide"] = ratio(
        decider_spans.sum_calls("prepare:"), decides
    )
    values["decider.prepare_us_per_decide"] = _us(
        decider_spans.sum_total("prepare:"), decides
    )
    for entry in catalogue():
        name = entry["name"]
        if name.startswith("decider.") and name.endswith(".calls"):
            decider = name[len("decider."):-len(".calls")]
            count = decider_spans.calls[f"decider:{decider}"]
            values[name] = float(count)
            values[f"decider.{decider}.us_per_call"] = _us(
                decider_spans.total[f"decider:{decider}"], count
            )
            if not count:
                missing[f"decider.{decider}.us_per_call"] = "decider not called"

    # -- executors -------------------------------------------------------------
    pooled = counters["pool_decides"]
    chunks = counters["plan_groups"]
    values["executor.pool_decide_ratio"] = ratio(pooled, counters["decide_calls"])
    values["executor.chunk_dwell_ms_p50"] = percentile(phase.chunk_dwell_ms, 0.5)
    values["executor.chunk_dwell_ms_p90"] = percentile(phase.chunk_dwell_ms, 0.9)
    values["executor.jobs_per_chunk_p50"] = percentile(phase.group_sizes, 0.5)
    values["executor.runtime_context_hit_ratio"] = ratio(
        counters["runtime_context_hits"], chunks
    )
    values["executor.lane_cpu_us_per_pooled_job"] = _us(phase.lane_cpu_s, pooled)
    if not pooled:
        reason = (
            "no pooled decides: " + (
                "the fleet's engines run in serve processes"
                if not workload.in_process
                else "workers=1 or every job answered inline/from cache"
            )
        )
        for name in (
            "executor.pool_decide_ratio", "executor.lane_cpu_us_per_pooled_job",
        ):
            missing[name] = reason
    if not phase.chunk_dwell_ms:
        for name in (
            "executor.chunk_dwell_ms_p50", "executor.chunk_dwell_ms_p90",
            "executor.jobs_per_chunk_p50", "executor.runtime_context_hit_ratio",
        ):
            missing[name] = "no chunk was dispatched in the traced phase"

    # -- the peel ------------------------------------------------------------------
    n = peel["jobs"]
    wall = {stage: _us(seconds, n) for stage, seconds in peel["wall_s"].items()}
    for stage, us in wall.items():
        values[f"peel.{stage}_us_per_job"] = us
    same_engine = "inline" if workload.engine_workers == 1 else "pooled"
    values["batch.inline_delta_us_per_job"] = wall["inline"] - wall["execute"]
    values["executor.pool_delta_us_per_job"] = wall["pooled"] - wall["inline"]
    values["server.hop_us_per_job"] = wall["serve"] - wall[same_engine]
    values["router.hop_us_per_job"] = wall["route1"] - wall["serve"]
    values["router.fanout_delta_us_per_job"] = wall["route2"] - wall["route1"]
    serve, route = peel["socket"]["serve"], peel["socket"]["route2"]
    values["server.cpu_us_per_job"] = _us(serve["cpu_s"], n)
    values["server.shed_ratio"] = ratio(serve["shed"], n)
    values["router.cpu_us_per_job"] = _us(route["front_cpu_s"], n)
    values["router.worker_cpu_us_per_job"] = _us(route["cpu_s"] - route["front_cpu_s"], n)
    # route2 has two shards; a shard that got no job has no sample
    shard_jobs = list(route["router"]["shard_jobs"].values()) or [0.0]
    values["router.shard_skew"] = ratio(max(shard_jobs), sum(shard_jobs) / 2)
    values["router.requeue_ratio"] = ratio(
        route["router"].get("repro_router_requeues_total", 0.0),
        route["router"].get("repro_router_jobs_total", 0.0),
    )
    values["jobs.decode_us_per_job"] = peel["codec"]["decode_s"] * 1e6
    values["jobs.encode_us_per_job"] = peel["codec"]["encode_s"] * 1e6

    # -- set-up ------------------------------------------------------------------
    setup_spans = setup["spans"]
    values["registry.register_ms_per_schema"] = ratio(
        setup_spans.total["registry.register"] * 1e3,
        setup_spans.calls["registry.register"],
    )
    values["statetier.load_ms"] = ratio(
        setup_spans.total["statetier.load"] * 1e3, setup_spans.calls["statetier.load"]
    )

    # -- bases -------------------------------------------------------------------
    values["base.jobs"] = float(jobs)
    values["base.decides"] = float(decides)
    values["base.decider_calls"] = float(calls)
    values["base.chunks"] = float(chunks)
    values["base.pooled_jobs"] = float(pooled)
    values["base.peel_jobs"] = float(n)
    values["base.setup_builds"] = float(setup["builds"])
    return values, missing


def bases() -> dict[str, str | None]:
    return {entry["name"]: entry["base"] for entry in catalogue()}
