"""Self-tests of the benchmark, at a tiny size.

Run from the checkout root::

    python3 -m pytest perfbench/selftest.py -q

(The file is not named ``test_*.py``, so the repository's own test run
does not collect it.)  The checks:

* every end-to-end metric is emitted with its unit, and every per-layer
  metric of ``BENCHMARK.json`` by the traced pass;
* flipping one pinned verdict makes the run fail;
* a different seed changes the generated jobs, and the engine receives
  exactly the generated jobs;
* traced self times are never negative and add up to their spans;
* without the program's sources the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from host import WORK_ROOT  # noqa: E402
from jobsets import DEFAULT_SEED, WORKLOADS, generate_jobs, schemas_for  # noqa: E402

BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SCRATCH = os.path.join(WORK_ROOT, "selftest")


def _spec() -> dict:
    with open(BENCHMARK) as handle:
        return json.load(handle)


def _run(*args: str, cwd: str = ROOT, timeout: float = 170):
    """Run the benchmark command; returns (exit code, stdout lines)."""
    spec = _spec()
    completed = subprocess.run(
        [*spec["command"], *args], cwd=cwd, capture_output=True, text=True,
        timeout=timeout,
    )
    return completed.returncode, completed.stdout.strip().splitlines()


def _result(lines) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_spec_matches_catalogue():
    from layers import catalogue

    spec = _spec()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (entry["name"], entry["unit"]) for entry in catalogue()
    ]
    # fleet-stream runs but is not gated (see README.md)
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in WORKLOADS if name != "fleet-stream"
    ]
    for workload in spec["workloads"]:
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def test_end_to_end_metrics_emitted_with_units():
    spec = _spec()
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload in ("warm-repeat", "fleet-stream"):
        code, lines = _run(
            "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", "0",
        )
        assert code == 0, lines[-2:]
        result = _result(lines)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_pass_emits_every_per_layer_metric():
    spec = _spec()
    code, lines = _run(
        "--workload", "warm-repeat", "--seed", "3", "--seconds", "0.5", "--trace", "1",
    )
    assert code == 0, lines[-2:]
    result = _result(lines)
    report = json.loads(lines[-2])
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]
    }
    assert report["span_violations"] == []
    assert report["validity"]["trace_overhead"] > 0
    for name in report["not_applicable"]:
        assert name in result["metrics"]


def test_flipped_pinned_verdict_fails_the_run():
    reference = os.path.join(SCRATCH, "reference")
    shutil.rmtree(reference, ignore_errors=True)
    shutil.copytree(os.path.join(HERE, "reference"), reference)
    args = (
        "--workload", "warm-repeat", "--seed", str(DEFAULT_SEED),
        "--seconds", "0.5", "--trace", "0", "--reference-dir", reference,
    )
    code, lines = _run(*args)
    assert code == 0 and json.loads(lines[-2])["reference"] == "pinned"
    path = os.path.join(reference, "warm-repeat.json")
    with open(path) as handle:
        pinned = json.load(handle)
    verdicts = pinned["verdicts"]
    pinned["verdicts"] = ("u" if verdicts[0] == "s" else "s") + verdicts[1:]
    with open(path, "w") as handle:
        json.dump(pinned, handle)
    code, lines = _run(*args)
    assert code != 0
    result = _result(lines)
    assert result["correct"] is False and result["failed"] >= 1


def test_seed_changes_jobs_and_engine_sees_only_them():
    import inprocess
    from repro.engine.batch import BatchEngine

    for name, workload in WORKLOADS.items():
        schemas = schemas_for(workload)
        first = generate_jobs(workload, 1, schemas, 1.0)
        assert first == generate_jobs(workload, 1, schemas, 1.0), name
        assert first != generate_jobs(workload, 2, schemas, 1.0), name

    workload = WORKLOADS["warm-repeat"]
    schemas = schemas_for(workload)
    jobs = generate_jobs(workload, 5, schemas, 1.0)
    received = []
    original = BatchEngine.run

    def recording(self, batch, on_result=None):
        batch = list(batch)
        received.extend(batch)
        return original(self, batch, on_result=on_result)

    BatchEngine.run = recording
    try:
        with inprocess.new_engine(workload, schemas, None) as engine:
            reference = {
                result.id: result.satisfiable for result in engine.run(jobs).results
            }
            received.clear()
            phase = inprocess.timed_phase(engine, workload, jobs, reference, 0.0)
    finally:
        BatchEngine.run = original
    assert phase.failed == 0
    assert received == jobs * phase.passes


def test_span_self_times_are_consistent():
    import inprocess
    from spans import Spans

    workload = WORKLOADS["realworld-cold"]
    schemas = schemas_for(workload)
    jobs = generate_jobs(workload, 4, schemas, 1.0)[:240]
    spans = Spans()
    with inprocess.new_engine(workload, schemas, None) as engine:
        reference = {result.id: result.satisfiable for result in engine.run(jobs).results}
        engine.cache.clear()
        with spans:
            inprocess.timed_phase(engine, workload, jobs, reference, 0.0)
    assert spans.calls["batch.run"] > 0 and spans.calls["xpath.parse"] > 0
    assert spans.violations() == []
    for name in spans.total:
        assert spans.self_time[name] >= -1e-9, name
    root_total = sum(
        value for (parent, _child), value in spans.edges.items() if parent == "-"
    )
    assert abs(root_total - spans.total["batch.run"]) < 1e-6
    # wrappers are gone after uninstall
    from repro.engine import batch
    assert not hasattr(batch.parse_query, "__wrapped__")


def test_exits_nonzero_without_program_sources():
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(BENCHMARK, bare)
    shutil.copytree(
        HERE, os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    code, lines = _run(
        "--workload", "warm-repeat", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=bare,
    )
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
