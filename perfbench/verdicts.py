"""Reference verdicts: the pinned files and the independent cross-checks.

Every job of every workload is checked against a reference verdict.

* At the default seed (and default run length) the reference is the
  pinned file ``perfbench/reference/<workload>.json``: one character per
  job (``s`` SAT, ``u`` UNSAT) plus a digest of the exact job list, so a
  drift in job generation fails loudly instead of comparing against the
  wrong answers.  The pinned files stay valid when deciders or shims are
  removed from the program.
* For any other seed the same cross-checks run in set-up, outside every
  timed phase, by a route independent of the engine's normal one:

  - ``oracle``: the brute-force witness search
    (:func:`repro.testing.oracle.find_witness`) on the small mix schemas;
  - ``backends``: the two Thm 5.3 backends, ``exptime_types`` and
    ``exptime_types_bits``, must agree, conclusively, on every question;
  - ``ablated``: the engine's chain with the trait-gated ``realworld``
    decider unregistered (``registry.disabled("realworld")``), on a
    fresh schema registry and planner.

Run ``python3 perfbench/verdicts.py`` from the checkout root to
regenerate the pinned files; generation applies the cross-check *and*
requires the engine's own verdicts to agree with it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

CHARS = {True: "s", False: "u"}
VERDICTS = {"s": True, "u": False}
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class ReferenceCheckError(Exception):
    """The independent routes disagree (or cannot conclude) on a question."""


def encode(verdicts) -> str:
    return "".join(CHARS[verdict] for verdict in verdicts)


def decode(text: str) -> list[bool]:
    return [VERDICTS[char] for char in text]


def pinned_path(workload_name: str, reference_dir: str | None = None) -> str:
    return os.path.join(reference_dir or REFERENCE_DIR, f"{workload_name}.json")


def load_pinned(workload, jobs, reference_dir: str | None = None) -> list[bool] | None:
    """The pinned verdicts when they were made for exactly ``jobs``."""
    from jobsets import jobs_digest

    path = pinned_path(workload.name, reference_dir)
    try:
        with open(path) as handle:
            pinned = json.load(handle)
    except FileNotFoundError:
        return None
    if pinned["digest"] != jobs_digest(jobs):
        return None
    verdicts = decode(pinned["verdicts"])
    if len(verdicts) != len(jobs):
        raise ReferenceCheckError(f"{path}: {len(verdicts)} verdicts for {len(jobs)} jobs")
    return verdicts


# -- independent routes ------------------------------------------------------
def _distinct(jobs):
    """Distinct (query text, schema) pairs in first-seen order: textual
    dedupe only, so the reference does not lean on the engine's
    canonicalizer to decide which jobs share an answer."""
    seen: dict[tuple[str, str | None], int] = {}
    for job in jobs:
        seen.setdefault((job.query_text, job.schema), len(seen))
    return list(seen)


def _oracle(jobs, schemas) -> dict:
    from repro.testing.oracle import find_witness
    from repro.xpath.parser import parse_query

    return {
        (text, schema): find_witness(parse_query(text), schemas[schema]) is not None
        for text, schema in _distinct(jobs)
    }


def _backends(jobs, schemas) -> dict:
    from repro.errors import ReproError
    from repro.sat import registry as sat_registry
    from repro.xpath.canonical import canonicalize
    from repro.xpath.parser import parse_query

    names = [
        name for name in ("exptime_types", "exptime_types_bits")
        if name in {spec.name for spec in sat_registry.all_deciders()}
    ]
    if not names:
        raise ReferenceCheckError("no Thm 5.3 backend is registered")
    specs = [sat_registry.get_decider(name) for name in names]
    contexts = {
        (spec.name, schema): spec.prepare(dtd) if spec.prepare else None
        for spec in specs for schema, dtd in schemas.items()
    }
    answers = {}
    for text, schema in _distinct(jobs):
        canonical = canonicalize(parse_query(text))
        found = {}
        for spec in specs:
            try:
                result = spec.call(
                    canonical, schemas[schema], context=contexts[spec.name, schema]
                )
            except ReproError as error:  # a decline (e.g. a fact cap)
                found[spec.name] = f"declined: {error}"
                continue
            found[spec.name] = result.satisfiable
        values = {value for value in found.values() if isinstance(value, bool)}
        if len(values) != 1 or any(value is None for value in found.values()):
            raise ReferenceCheckError(f"backends disagree on {text!r} over {schema}: {found}")
        answers[text, schema] = values.pop()
    return answers


def _ablated(jobs, schemas) -> dict:
    from repro.engine import BatchEngine, SchemaRegistry
    from repro.sat import registry as sat_registry

    with sat_registry.disabled("realworld"):
        registry = SchemaRegistry()
        for name, dtd in schemas.items():
            registry.register(name, dtd)
        with BatchEngine(registry=registry, workers=1) as engine:
            report = engine.run(jobs)
    answers = {}
    for job, result in zip(jobs, report.results):
        if result.error is not None or result.satisfiable is None:
            raise ReferenceCheckError(
                f"ablated chain did not conclude on {job.query_text!r}: "
                f"{result.error or 'unknown'}"
            )
        answers[job.query_text, job.schema] = result.satisfiable
    return answers


ROUTES = {"oracle": _oracle, "backends": _backends, "ablated": _ablated}


def cross_checked(workload, jobs, schemas) -> list[bool]:
    """Per-job reference verdicts from the workload's independent route."""
    answers = ROUTES[workload.check](jobs, schemas)
    return [answers[job.query_text, job.schema] for job in jobs]


def reference_for(workload, jobs, schemas, reference_dir: str | None = None):
    """``(verdicts, source)``: pinned when the file matches ``jobs``,
    otherwise computed by the workload's cross-check."""
    pinned = load_pinned(workload, jobs, reference_dir)
    if pinned is not None:
        return pinned, "pinned"
    return cross_checked(workload, jobs, schemas), f"computed:{workload.check}"


# -- regeneration --------------------------------------------------------------
def engine_verdicts(workload, jobs, schemas) -> list:
    """The engine's own verdicts, cold, on a fresh inline engine."""
    from repro.engine import BatchEngine, SchemaRegistry

    registry = SchemaRegistry()
    for name, dtd in schemas.items():
        registry.register(name, dtd)
    with BatchEngine(registry=registry, workers=1) as engine:
        return [result.satisfiable for result in engine.run(jobs).results]


def regenerate(workload_name: str) -> str:
    from jobsets import (
        DEFAULT_SECONDS, DEFAULT_SEED, WORKLOADS, generate_jobs, jobs_digest,
        schemas_for,
    )

    workload = WORKLOADS[workload_name]
    schemas = schemas_for(workload)
    jobs = generate_jobs(workload, DEFAULT_SEED, schemas, DEFAULT_SECONDS)
    reference = cross_checked(workload, jobs, schemas)
    engine = engine_verdicts(workload, jobs, schemas)
    disagree = [job.id for job, a, b in zip(jobs, reference, engine) if a != b]
    if disagree:
        raise ReferenceCheckError(
            f"{workload_name}: engine disagrees with the {workload.check} "
            f"route on {len(disagree)} jobs, e.g. {disagree[:5]}"
        )
    path = pinned_path(workload_name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump({
            "workload": workload_name,
            "seed": DEFAULT_SEED,
            "seconds": DEFAULT_SECONDS,
            "check": workload.check,
            "jobs": len(jobs),
            "digest": jobs_digest(jobs),
            "verdicts": encode(reference),
        }, handle, indent=1)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: all")
    args = parser.parse_args(argv)
    from jobsets import WORKLOADS

    for name in args.workload or sorted(WORKLOADS):
        print(regenerate(name))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    sys.exit(main())
