"""The repository benchmark: one workload per run, every verdict checked.

Usage, from the checkout root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures the end-to-end metrics with nothing
wrapped; with ``--trace 1`` it alternates untraced windows with windows
run under the layer wrappers (their throughput ratio is the tracing
overhead), runs the nested-layer peel, and prints the per-layer metrics.  The
line before the last is a full report (host annotation, declared
requirements, failures, validity fields, bases, non-applicable
metrics); the last line is the result object.  The exit code is 0 only
when every verdict matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

FLEET_BOOTS = 5
#: jobs in flight in the fleet's closed-loop phase
FLEET_WINDOW = 256
#: set-up builds measured by the traced pass for the set-up layers
TRACED_SETUP_BUILDS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="repository benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reference-dir", default=None,
        help="directory of pinned verdict files (default: perfbench/reference)",
    )
    return parser.parse_args(argv)


def traced_setup(workload, schemas, tier: str) -> dict:
    """Engine builds under the set-up wrappers (registration, tier load)."""
    import inprocess
    from spans import Spans

    spans = Spans().install_setup()
    try:
        built, _ = inprocess.measure_setup(
            workload, schemas, tier, repeats=TRACED_SETUP_BUILDS
        )
        built.close()
    finally:
        spans.uninstall()
    return {"spans": spans, "builds": TRACED_SETUP_BUILDS}


# -- in-process workloads ------------------------------------------------------
def run_in_process(workload, schemas, jobs, reference, args, workdir):
    import inprocess
    from peel import run_peel
    from spans import Spans

    tier = os.path.join(workdir, "tier")
    inprocess.seed_tier(workload, schemas, jobs, tier)
    engine, builds = inprocess.measure_setup(workload, schemas, tier)
    out = {"setup_seconds": [seconds for seconds, _ in builds]}
    with engine:
        inprocess.warm(engine, workload, jobs)
        if not args.trace:
            phase = inprocess.timed_phase(engine, workload, jobs, reference, args.seconds)
            metrics, raw = inprocess.summary_metrics(phase, builds)
            out.update(phase=phase, metrics=metrics, raw_metrics=raw)
            return out
        # untraced and traced windows alternate on the same warm engine,
        # so a drift in host speed lands on both sides of the overhead
        spans = Spans()
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while not traced or time.perf_counter() < deadline:
            untraced.append(
                inprocess.timed_phase(engine, workload, jobs, reference, 0.0)
            )
            with spans:
                traced.append(
                    inprocess.timed_phase(engine, workload, jobs, reference, 0.0)
                )
        untraced, traced = inprocess.merged(untraced), inprocess.merged(traced)
    setup = traced_setup(workload, schemas, tier)
    exec_spans = Spans()
    peel = run_peel(
        workload, schemas, jobs[:workload.peel_jobs], reference, workdir, tier,
        {"execute": exec_spans},
    )
    out.update(
        phase=traced, untraced=untraced, spans=spans, exec_spans=exec_spans,
        peel=peel, setup=setup,
        overhead=(
            inprocess.summary_metrics(untraced, builds)[0]["jobs_per_s"][0]
            / inprocess.summary_metrics(traced, builds)[0]["jobs_per_s"][0]
        ),
    )
    return out


# -- the fleet ---------------------------------------------------------------
def run_fleet(workload, schemas, jobs, reference, args, workdir):
    import fleet
    import inprocess
    from host import cpu_delta, median, percentile
    from jobsets import FLEET_CLOSED_JOBS, FLEET_OPEN_JOBS, FLEET_OPEN_RATE, job_records
    from peel import run_peel, score_replies
    from spans import Spans
    from repro.workloads import batch_jobs
    from verdicts import engine_verdicts

    records = job_records(jobs)
    # set-up, untimed: the program's in-process verdicts (fleet parity)
    # and a state tier seeded from a different draw of the same traffic
    in_process = dict(zip(
        (job.id for job in jobs), engine_verdicts(workload, jobs, schemas)
    ))
    fleet.write_schema_dir(os.path.join(workdir, "schemas"), schemas)
    tier = os.path.join(workdir, "tier")
    seed_jobs = batch_jobs(
        random.Random(args.seed + 1), schemas, 1000, duplicate_rate=0.5,
    )
    inprocess.seed_tier(workload, schemas, seed_jobs, tier)
    argv = fleet.route_argv(
        "front.sock", "schemas", "tier", 2, workload.engine_workers,
        "workers", "route.prom",
    )
    boots, rounds, replies = [], [], []
    round_jobs = FLEET_CLOSED_JOBS + FLEET_OPEN_JOBS
    service = None
    try:
        for _ in range(FLEET_BOOTS):
            if service is not None:
                service.stop()
            service = fleet.Service(argv, "front.sock", workdir).start()
            boots.append(service.boot_s)
        with fleet.Client(service.socket_path) as client:
            for start in range(0, len(records), round_jobs):
                closed_part = records[start:start + FLEET_CLOSED_JOBS]
                open_part = records[start + FLEET_CLOSED_JOBS:start + round_jobs]
                closed = fleet.measured_phase(
                    service, client, "closed", closed_part, FLEET_WINDOW
                )
                opened = fleet.measured_phase(
                    service, client, "open", open_part, FLEET_OPEN_RATE
                )
                rounds.append((closed, opened, open_part))
                replies += closed["replies"] + opened["replies"]
        peak = service.peak_rss_mb()
    finally:
        if service is not None:
            service.stop()

    scored = score_replies(records, replies, reference)
    parity = [
        job_id for job_id, reply in scored["answered"].items()
        if job_id in in_process and reply.get("satisfiable") is not None
        and reply["satisfiable"] != in_process[job_id]
    ]
    wrong_in_process = [
        job_id for job_id, verdict in in_process.items()
        if verdict is not None and verdict != reference[job_id]
    ]
    rates, p50, p99, lag = [], [], [], []
    cpu = 0.0
    for closed, opened, open_part in rounds:
        rates.append(len(closed["replies"]) / closed["elapsed_s"])
        received = {
            record["id"]: stamp for record, stamp in opened["replies"] if "id" in record
        }
        latencies = [
            received[record["id"]] - due
            for record, due in zip(open_part, opened["due"])
            if record["id"] in received
        ]
        p50.append(percentile(latencies, 0.50) * 1e3)
        p99.append(percentile(latencies, 0.99) * 1e3)
        cpu += (
            cpu_delta(closed["cpu_before"], closed["cpu_after"])
            + cpu_delta(opened["cpu_before"], opened["cpu_after"])
        )
        lag += [sent - due for sent, due in zip(opened["sent"], opened["due"])]
    # medians over boots and rounds, as measured: the host-speed reading
    # times the benchmark process, not the router and workers doing this
    # work, and rescaling by it made these figures less steady.  CPU is
    # summed over the run: /proc's 10 ms ticks are too coarse per round
    metrics = {
        "setup_s": (median(boots), "s"),
        "jobs_per_s": (median(rates), "jobs/s"),
        "verdict_p50_ms": (median(p50), "ms"),
        "verdict_p99_ms": (median(p99), "ms"),
        "cpu_us_per_job": (cpu / (round_jobs * len(rounds)) * 1e6, "us"),
        "peak_rss_mb": (peak, "MiB"),
    }
    out = {
        "setup_seconds": boots,
        "attempted": len(records),
        "failed": scored["failed"] + len(set(parity) | set(wrong_in_process)),
        "unknown": scored["unknown"],
        "failures": (
            scored["failures"]
            + [f"{job_id}: fleet differs from in-process" for job_id in parity[:3]]
            + [f"{job_id}: in-process differs from reference" for job_id in wrong_in_process[:3]]
        ),
        "metrics": metrics,
        "rounds": len(rounds),
        "generator_lag_p99_ms": percentile(lag, 0.99) * 1e3,
        "open_rate": FLEET_OPEN_RATE,
    }
    if not args.trace:
        return out
    setup = traced_setup(workload, schemas, tier)
    exec_spans, inline_spans = Spans(), Spans()
    peel = run_peel(
        workload, schemas, jobs[:workload.peel_jobs], reference, workdir, tier,
        {"execute": exec_spans, "inline": inline_spans},
    )
    out.update(
        phase=peel["inline_traced"], spans=inline_spans, exec_spans=exec_spans,
        peel=peel, setup=setup,
    )
    return out


# -- reporting ---------------------------------------------------------------
def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds like an error, so services are stopped, lanes
    # closed and scratch files removed on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from host import WORK_ROOT, check_requirements, host_annotation, host_speed
    from jobsets import WORKLOADS, generate_jobs, schemas_for
    from verdicts import ReferenceCheckError, reference_for

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host_annotation(),
        "requirements": check_requirements(workload.requires),
        "host_speed_start": host_speed(),
    }
    schemas = schemas_for(workload)
    jobs = generate_jobs(workload, args.seed, schemas, args.seconds)
    report["jobs"] = len(jobs)
    try:
        verdicts, source = reference_for(workload, jobs, schemas, args.reference_dir)
    except ReferenceCheckError as error:
        print(f"perfbench: reference check failed: {error}", file=sys.stderr)
        return 1
    report["reference"] = source
    reference = {job.id: verdict for job, verdict in zip(jobs, verdicts)}

    workdir = os.path.join(WORK_ROOT, f"{workload.name[:5]}{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if workload.in_process:
            out = run_in_process(workload, schemas, jobs, reference, args, workdir)
            phase = out["phase"]
            attempted, failed, unknown = phase.jobs, phase.failed, phase.unknown
            failures = list(phase.failures)
            if "untraced" in out:
                attempted += out["untraced"].jobs
                failed += out["untraced"].failed
                unknown += out["untraced"].unknown
                failures += out["untraced"].failures
            report["passes"] = phase.passes
            report["windows"] = len(phase.windows)
        else:
            out = run_fleet(workload, schemas, jobs, reference, args, workdir)
            attempted, failed, unknown = out["attempted"], out["failed"], out["unknown"]
            failures = out["failures"]
            report["rounds"] = out["rounds"]
            report["generator_lag_p99_ms"] = out["generator_lag_p99_ms"]
            report["open_rate_jobs_per_s"] = out["open_rate"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["setup_seconds"] = out["setup_seconds"]
    report["raw_metrics"] = out.get("raw_metrics")
    if args.trace:
        from layers import bases, catalogue, per_layer

        peel = out["peel"]
        attempted += peel["attempted"]
        failed += peel["failed"]
        failures += peel["failures"]
        values, missing = per_layer(
            workload, out["spans"], out["phase"], out["exec_spans"], peel, out["setup"],
        )
        units = {entry["name"]: entry["unit"] for entry in catalogue()}
        metrics = {name: (values[name], units[name]) for name in units}
        report["validity"] = {
            "trace_overhead": out.get("overhead"),
            "trace_overhead_note": (
                "untraced jobs_per_s / traced jobs_per_s on the same engine"
                if "overhead" in out
                else "n/a: the fleet's processes carry no wrappers"
            ),
            "generator_lag_p99_ms": out.get("generator_lag_p99_ms"),
            "generator_lag_note": (
                "open-loop sends later than due, p99"
                if "generator_lag_p99_ms" in out
                else "n/a: in-process workloads run closed loop only"
            ),
        }
        report["bases"] = bases()
        report["not_applicable"] = missing
        report["span_violations"] = (
            out["spans"].violations() + out["exec_spans"].violations()
        )
        report["spans"] = out["spans"].table()
        report["peel_boot_s"] = {
            stage: round(outcome["boot_s"], 4) for stage, outcome in peel["socket"].items()
        }
    else:
        metrics = out["metrics"] if "metrics" in out else {}
        report["validity"] = {"generator_lag_p99_ms": out.get("generator_lag_p99_ms")}
    report["validity"]["host_speed_start"] = report.pop("host_speed_start")
    report["validity"]["host_speed_end"] = host_speed()
    report["attempted"] = attempted
    report["failed"] = failed
    report["failed_ratio"] = failed / attempted if attempted else 0.0
    report["unknown_ratio"] = unknown / attempted if attempted else 0.0
    report["failures"] = failures[:10]
    correct = failed == 0
    print(json.dumps(report, default=str))
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
