"""In-process workloads: one long-lived ``BatchEngine`` driven in
closed-loop fixed-size batches from the benchmark process.

A job's time to verdict runs from the ``run()`` call of its batch to its
``on_result`` callback.  CPU is read from ``/proc`` for this process and
its forked worker lanes; resident memory is sampled between batches.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

from host import (
    cpu_delta, cpu_snapshot, descendants_of, host_speed, medians, percentile, rss_mb,
)

#: engine constructions measured per run; set-up time is their median
SETUP_REPEATS = 15
#: every window holds at least this many jobs (p99 has >= 10 beyond it)
MIN_PHASE_JOBS = 1000
_RSS_SAMPLE_S = 0.05
#: least time between two host-speed readings inside a window
_SPEED_SAMPLE_S = 0.05


def new_engine(workload, schemas, tier: str | None):
    """Engine construction, state load and schema registration — what a
    process does before it can accept its first job."""
    from repro.engine import BatchEngine, SchemaRegistry

    registry = SchemaRegistry()
    engine = BatchEngine(
        registry=registry, workers=workload.engine_workers, state_tier=tier,
    )
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    return engine


def seed_tier(workload, schemas, jobs, tier: str) -> None:
    """Fill a fresh state tier from one pass over ``jobs``.  A cold
    workload persists plans only: its decisions are dropped before the
    save, so a process booted from the tier plans warm but decides cold."""
    with new_engine(workload, schemas, tier) as engine:
        engine.run(jobs)
        if workload.regime == "cold":
            engine.cache.clear()
        engine.save_state()


def measure_setup(workload, schemas, tier: str | None, repeats: int = SETUP_REPEATS):
    """Build the engine ``repeats`` times; returns ``(engine, builds)``
    where ``engine`` is the last build (kept for the timed phases) and
    ``builds`` holds ``(seconds, host speeds before and after)`` per build."""
    builds = []
    engine = None
    for _ in range(repeats):
        if engine is not None:
            engine.close()
        before = host_speed()
        start = time.perf_counter()
        engine = new_engine(workload, schemas, tier)
        seconds = time.perf_counter() - start
        builds.append((seconds, [before, host_speed()]))
    return engine, builds


_COUNTERS = (
    "decide_calls", "inline_decides", "pool_decides", "cache_hits",
    "coalesced", "planner_invocations", "plan_cache_hits", "plan_groups",
    "grouped_jobs", "runtime_context_hits", "errors",
)


@dataclass
class Phase:
    """What one timed phase observed."""

    jobs: int = 0
    busy_s: float = 0.0
    windows: list = field(default_factory=list)
    failed: int = 0
    unknown: int = 0
    failures: list[str] = field(default_factory=list)
    cpu_s: float = 0.0
    lane_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    passes: int = 0
    # engine counters summed over every run() of the phase
    counters: dict[str, int] = field(default_factory=lambda: dict.fromkeys(_COUNTERS, 0))
    chunk_dwell_ms: list[float] = field(default_factory=list)
    group_sizes: list[int] = field(default_factory=list)

    @property
    def jobs_per_s(self) -> float:
        return self.jobs / self.busy_s if self.busy_s else 0.0


def add_stats(phase: "Phase", stats) -> None:
    """Fold one run()'s ``EngineStats`` into the phase's sums."""
    for name in _COUNTERS:
        phase.counters[name] += getattr(stats, name)
    phase.chunk_dwell_ms.extend(stats.chunk_dwell_ms)
    phase.group_sizes.extend(stats.group_sizes)


def check_result(phase: Phase, result, expected) -> None:
    """Score one result against its reference verdict."""
    if result.error is not None:
        phase.failed += 1
        if len(phase.failures) < 5:
            phase.failures.append(f"{result.id}: error {result.error}")
    elif result.satisfiable is None:
        phase.unknown += 1
    elif result.satisfiable != expected:
        phase.failed += 1
        if len(phase.failures) < 5:
            phase.failures.append(
                f"{result.id}: {result.satisfiable} but the reference says {expected}"
            )


def warm(engine, workload, jobs) -> None:
    """Untimed pass: plans (and, for warm workloads, decisions) cached,
    lanes forked."""
    for start in range(0, len(jobs), workload.batch_size):
        engine.run(jobs[start:start + workload.batch_size])


@dataclass
class Window:
    """Consecutive whole passes holding at least :data:`MIN_PHASE_JOBS`
    jobs: the unit the end-to-end figures are computed on, so a run
    reports the median over its windows and a transient slowdown of the
    host moves one window, not the run."""

    jobs: int = 0
    busy_s: float = 0.0
    cpu_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    #: host-speed readings taken between the window's batches (at most
    #: one per :data:`_SPEED_SAMPLE_S`) and after its last pass
    speeds: list[float] = field(default_factory=list)


def timed_phase(engine, workload, jobs, reference: dict, seconds: float) -> Phase:
    """Whole passes over ``jobs`` in fixed-size batches until ``seconds``
    have passed and at least one window of :data:`MIN_PHASE_JOBS` jobs
    is complete (a trailing partial window joins the one before)."""
    phase = Phase()
    size = workload.batch_size
    batches = [jobs[start:start + size] for start in range(0, len(jobs), size)]
    me = os.getpid()
    # lanes were forked by the warm-up pass and live for the engine's life
    pids = [me, *descendants_of(me)]
    first = before = cpu_snapshot(pids)
    window = Window()
    next_rss = next_speed = 0.0
    perf_counter = time.perf_counter
    deadline = perf_counter() + seconds
    while True:
        if workload.regime == "cold":
            engine.cache.clear()
        for batch in batches:
            if perf_counter() >= next_speed:
                window.speeds.append(host_speed(rounds=1))
                next_speed = perf_counter() + _SPEED_SAMPLE_S
            stamps: list = []
            record = stamps.append

            def on_result(result, record=record, clock=perf_counter):
                record((result, clock()))

            start = perf_counter()
            report = engine.run(batch, on_result=on_result)
            window.busy_s += perf_counter() - start
            window.jobs += len(batch)
            for result, stamp in stamps:
                window.latencies_s.append(stamp - start)
                check_result(phase, result, reference[result.id])
            phase.failed += len(batch) - len(stamps)
            add_stats(phase, report.stats)
            now = perf_counter()
            if now >= next_rss:
                next_rss = now + _RSS_SAMPLE_S
                phase.peak_rss_mb = max(
                    phase.peak_rss_mb, sum(rss_mb(pid) for pid in pids),
                )
        phase.passes += 1
        if window.jobs >= MIN_PHASE_JOBS or perf_counter() >= deadline:
            window.speeds.append(host_speed(rounds=1))
            after = cpu_snapshot(pids)
            window.cpu_s = cpu_delta(before, after)
            before = after
            if window.jobs < MIN_PHASE_JOBS and phase.windows:
                last = phase.windows[-1]
                last.jobs += window.jobs
                last.busy_s += window.busy_s
                last.cpu_s += window.cpu_s
                last.latencies_s += window.latencies_s
                last.speeds += window.speeds
            else:
                phase.windows.append(window)
            window = Window()
            if perf_counter() >= deadline and phase.windows[0].jobs >= MIN_PHASE_JOBS:
                break
    phase.jobs = sum(w.jobs for w in phase.windows)
    phase.busy_s = sum(w.busy_s for w in phase.windows)
    phase.cpu_s = sum(w.cpu_s for w in phase.windows)
    phase.lane_cpu_s = phase.cpu_s - cpu_delta({me: first[me]}, {me: before[me]})
    return phase


def merged(phases: list[Phase]) -> Phase:
    """One phase holding the windows and counters of ``phases``."""
    total = Phase()
    for phase in phases:
        total.windows += phase.windows
        total.jobs += phase.jobs
        total.busy_s += phase.busy_s
        total.failed += phase.failed
        total.unknown += phase.unknown
        total.failures += phase.failures
        total.cpu_s += phase.cpu_s
        total.lane_cpu_s += phase.lane_cpu_s
        total.peak_rss_mb = max(total.peak_rss_mb, phase.peak_rss_mb)
        total.passes += phase.passes
        for name, value in phase.counters.items():
            total.counters[name] += value
        total.chunk_dwell_ms += phase.chunk_dwell_ms
        total.group_sizes += phase.group_sizes
    return total


def summary_metrics(phase: Phase, builds) -> tuple[dict, dict]:
    """``(metrics, raw)``: the end-to-end metrics of an in-process phase.

    Timed figures are medians over the phase's windows (percentiles over
    at least 1,000 jobs each), every window rescaled to the reference
    host speed by the calibration readings taken around its passes;
    ``raw`` holds the same medians unscaled."""
    windows = phase.windows
    figures = {
        "setup_s": (builds, "s"),
        "jobs_per_s": ([(w.jobs / w.busy_s, w.speeds) for w in windows], "jobs/s"),
        "verdict_p50_ms": (
            [(percentile(w.latencies_s, 0.50) * 1e3, w.speeds) for w in windows], "ms",
        ),
        "verdict_p99_ms": (
            [(percentile(w.latencies_s, 0.99) * 1e3, w.speeds) for w in windows], "ms",
        ),
        "cpu_us_per_job": ([(w.cpu_s / w.jobs * 1e6, w.speeds) for w in windows], "us"),
    }
    metrics, raw = {}, {}
    for name, (samples, unit) in figures.items():
        raw[name], scaled = medians(samples, rate=name == "jobs_per_s")
        metrics[name] = (scaled, unit)
    metrics["peak_rss_mb"] = (phase.peak_rss_mb, "MiB")
    return metrics, raw
