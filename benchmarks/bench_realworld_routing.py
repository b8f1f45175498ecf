"""Real-world-DTD routing — trait-gated PTIME fast paths vs EXPTIME lanes.

Regenerates: the end-to-end routing win of the arXiv:1308.0769 fast
paths — the same parent-axis/qualifier workload over the realworld
corpus (XHTML/DocBook/RSS-like schemas, all DC/DF-restrained), run once
with the trait-gated ``realworld`` decider registered (planner routes
qualifying jobs inline, PTIME) and once with it ablated via
``registry.disabled`` (the same jobs fall to the pooled EXPTIME chain).
Asserts identical per-job verdicts in both arms, and in full mode that
the trait-routed arm dispatches **zero** jobs to the EXPTIME lanes,
answers >= ``INLINE_BAR`` of decided jobs inline, and is at least
``SPEEDUP_BAR``x faster end-to-end.

Besides the text table this harness writes
``benchmarks/results/BENCH_realworld.json`` so the perf trajectory is
machine-readable.

Quick mode (``REPRO_BENCH_QUICK=1``, used by CI and the tier-1 smoke)
shrinks the batch and drops the speedup/routing assertions —
verdict equivalence is still enforced.
"""

from __future__ import annotations

import json
import random
import time

from benchmarks.conftest import QUICK, format_table, write_result
from repro.engine.batch import BatchEngine
from repro.engine.registry import SchemaRegistry
from repro.sat import registry as sat_registry
from repro.workloads.realworld import realworld_jobs, realworld_schemas

N_JOBS = 60 if QUICK else 360
#: depth 4 keeps each pooled EXPTIME decision heavy enough that the
#: fork/IPC + decider cost dominates the ablated arm
QUERY_DEPTH = 4
TIMING_RUNS = 1 if QUICK else 3
WORKERS = 2
SEED = 20250611
#: full-mode acceptance bars: every qualifying job stays off the EXPTIME
#: lanes, >=90% of decided jobs answer inline, >=3x end-to-end
SPEEDUP_BAR = 3.0
INLINE_BAR = 0.9


def _run_arm(jobs):
    """One engine lifetime over the workload: fresh registry and planner
    per arm so plans are built against the current decider registry.
    Returns (best wall seconds, per-job verdicts, last run's stats)."""
    best = float("inf")
    verdicts = stats = None
    for _ in range(TIMING_RUNS):
        registry = SchemaRegistry()
        for name, dtd in realworld_schemas().items():
            registry.register(name, dtd)
        start = time.perf_counter()
        with BatchEngine(registry=registry, workers=WORKERS) as engine:
            report = engine.run(jobs)
        elapsed = time.perf_counter() - start
        run_verdicts = [result.satisfiable for result in report.results]
        if verdicts is not None:
            assert run_verdicts == verdicts, "verdicts changed between runs"
        verdicts, stats = run_verdicts, report.stats
        best = min(best, elapsed)
    return best, verdicts, stats


def run_comparison(n_jobs=N_JOBS):
    jobs = realworld_jobs(
        random.Random(SEED), n_jobs, duplicate_rate=0.0, max_depth=QUERY_DEPTH,
    )
    routed_s, routed_verdicts, routed_stats = _run_arm(jobs)
    with sat_registry.disabled("realworld"):
        ablated_s, ablated_verdicts, ablated_stats = _run_arm(jobs)
    assert routed_verdicts == ablated_verdicts, (
        "trait routing changed verdicts: "
        f"{routed_verdicts} != {ablated_verdicts}"
    )
    routed_decided = routed_stats.inline_decides + routed_stats.pool_decides
    return {
        "jobs": len(jobs),
        "routed_ms": round(routed_s * 1000, 3),
        "ablated_ms": round(ablated_s * 1000, 3),
        "speedup": round(ablated_s / routed_s, 2),
        "routed_inline": routed_stats.inline_decides,
        "routed_pool": routed_stats.pool_decides,
        "inline_share": round(
            routed_stats.inline_decides / routed_decided, 3
        ) if routed_decided else 1.0,
        "ablated_inline": ablated_stats.inline_decides,
        "ablated_pool": ablated_stats.pool_decides,
        "trait_routed_answers": dict(routed_stats.trait_routed_answers),
        "sat": sum(1 for verdict in routed_verdicts if verdict),
    }


def test_realworld_routing(report, benchmark):
    entry = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    report("realworld_routing", format_table(
        ["jobs", "routed", "ablated", "speedup", "inline/pool (routed)",
         "inline/pool (ablated)", "sat"],
        [[
            entry["jobs"],
            f"{entry['routed_ms']:.1f} ms", f"{entry['ablated_ms']:.1f} ms",
            f"{entry['speedup']:.2f}x",
            f"{entry['routed_inline']}/{entry['routed_pool']}",
            f"{entry['ablated_inline']}/{entry['ablated_pool']}",
            entry["sat"],
        ]],
    ))

    payload = {
        "benchmark": "realworld_routing",
        "quick": QUICK,
        "schemas": sorted(realworld_schemas()),
        "speedup_bar": SPEEDUP_BAR,
        "inline_bar": INLINE_BAR,
        "workload": entry,
    }
    write_result("BENCH_realworld.json", json.dumps(payload, indent=2) + "\n")

    assert entry["trait_routed_answers"].get("realworld", 0) > 0, (
        "no jobs were answered by the trait-gated realworld decider"
    )
    if not QUICK:
        assert entry["routed_pool"] == 0, (
            f"{entry['routed_pool']} qualifying jobs still dispatched to "
            "EXPTIME lanes with trait routing on"
        )
        assert entry["inline_share"] >= INLINE_BAR, (
            f"only {entry['inline_share']:.1%} of decided jobs ran inline "
            f"(bar: {INLINE_BAR:.0%})"
        )
        assert entry["speedup"] >= SPEEDUP_BAR, (
            f"trait routing only {entry['speedup']}x faster "
            f"(bar: {SPEEDUP_BAR}x)"
        )
