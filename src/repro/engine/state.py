"""Engine state: what a warm start carries, and the legacy JSON import.

A long-lived checker accumulates routing knowledge that would otherwise
die with the process:

* **per-schema plan caches** — the planner's routing decisions, keyed by
  feature signature on each :class:`~repro.engine.registry.SchemaArtifacts`;
* **per-plan telemetry** — the latency/verdict/fallback table
  (:class:`~repro.sat.telemetry.PlanTelemetry`);
* **the decision cache** — verdicts keyed on canonical form × schema
  fingerprint (bounded; only current entries are persisted);
* **scheduler tunables** — the plan-grouped scheduler's
  ``group_chunk_size``, the executor layer's (``affinity``,
  ``lane_queue_depth``) plus the hygiene knobs, so a tuned deployment
  keeps its configuration across processes.  A stored name the engine
  no longer has (such as a retired switch) is skipped.

The shared SQLite tier (:mod:`repro.engine.statetier`, ``--state-tier``)
persists all of it; :class:`PersistedState` is the shape both its loads
and the import below produce.  Earlier releases wrote the same content
as a directory of JSON files; :func:`load_state` reads such a directory
once, when a tier is first created on top of it.  Loading is forgiving:
a missing directory is empty state, and a corrupt file is skipped with
a warning rather than failing the run — state is an optimization, never
a correctness requirement.  Such a directory may also hold the
cost-sample file of releases that ordered plans by measured latency;
it is not read.

**Hygiene.**  Without bounds persisted state grows with the workload:
every distinct question ever decided and every plan ever executed.  A
save therefore caps persisted decisions **per schema** (newest entries
win, :func:`cap_decision_records`) and ages out telemetry rows whose
newest observation is older than ``telemetry_max_age_days`` — both
tunable, both purely size/freshness trims that can cost warm-start
coverage but never correctness.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.obs.log import get_logger
from repro.sat.planner import Plan
from repro.sat.telemetry import PlanTelemetry

_LOG = get_logger("repro.engine.state")

#: the legacy JSON layout's version; mismatched files are skipped
STATE_VERSION = 1

PLANS_FILE = "plans.json"
TELEMETRY_FILE = "telemetry.json"
DECISIONS_FILE = "decisions.json"
SCHEDULER_FILE = "scheduler.json"
#: snapshot of the last run's EngineStats
ENGINE_STATS_FILE = "engine_stats.json"
#: Prometheus text-format snapshot of the unified metrics registry,
#: written next to the tier's database (a textfile collector reads it raw)
METRICS_FILE = "metrics.prom"


def _atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: dump into a sibling tmp
    file, flush + fsync it, then ``os.replace`` over the target.  A crash
    at any point leaves either the complete old file or the complete new
    one — never a torn or empty target (the fsync closes the window where
    the rename lands before the data does).  A failed write cleans up its
    tmp file and re-raises."""
    tmp_path = path + ".tmp"
    try:
        with open(tmp_path, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise


def _warn(warnings: list[str], message: str) -> None:
    """Record a degrade message both ways: the ``warnings`` list keeps
    the API contract (callers can inspect what was skipped), and the
    structured log makes it visible in a deployment's log stream."""
    warnings.append(message)
    _LOG.warning(message)


#: persisted scheduler tunables: name -> validator returning the
#: coerced value or raising
_SCHEDULER_TUNABLES = {
    "group_chunk_size": lambda value: _positive_int(value),
    "decision_cap_per_schema": lambda value: _positive_int(value),
    "telemetry_max_age_days": lambda value: _positive_float(value),
    "affinity": lambda value: _strict_bool(value),
    "lane_queue_depth": lambda value: _positive_int(value),
}


def _strict_bool(value) -> bool:
    # no coercion: "false" (a string) silently becoming True would flip
    # the scheduler behind the operator's back
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _positive_int(value) -> int:
    if isinstance(value, bool):  # bool is an int: true would become 1
        raise ValueError(f"must be a number, got {value!r}")
    coerced = int(value)
    if coerced < 1:
        raise ValueError(f"must be positive, got {value!r}")
    return coerced


def _positive_float(value) -> float:
    if isinstance(value, bool):
        raise ValueError(f"must be a number, got {value!r}")
    coerced = float(value)
    if coerced <= 0:
        raise ValueError(f"must be positive, got {value!r}")
    return coerced


@dataclass
class PersistedState:
    """Everything a tier load (or the JSON import) recovered."""

    plans: dict[str, dict[str, Plan]] = field(default_factory=dict)  # fingerprint -> sig -> Plan
    plan_names: dict[str, str] = field(default_factory=dict)         # fingerprint -> schema name
    telemetry: PlanTelemetry | None = None
    decisions: list[tuple[tuple[str, str, str], dict[str, Any]]] = field(default_factory=list)
    scheduler: dict[str, Any] = field(default_factory=dict)
    #: the last persisted EngineStats.as_dict() snapshot, if any
    engine_stats: dict[str, Any] | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def plan_count(self) -> int:
        return sum(len(per_schema) for per_schema in self.plans.values())


def _read_json(path: str, warnings: list[str]) -> dict[str, Any] | None:
    if not os.path.exists(path):
        return None
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (json.JSONDecodeError, OSError, UnicodeDecodeError) as error:
        _warn(warnings, f"{os.path.basename(path)}: unreadable ({error}); ignored")
        return None
    if not isinstance(record, dict):
        _warn(warnings, f"{os.path.basename(path)}: not a JSON object; ignored")
        return None
    if record.get("version") != STATE_VERSION:
        _warn(
            warnings,
            f"{os.path.basename(path)}: version {record.get('version')!r} "
            f"!= {STATE_VERSION}; ignored",
        )
        return None
    return record


def load_state(state_dir: str) -> PersistedState:
    """Read a legacy JSON state directory (the tier's one-time import;
    missing pieces and corrupt files degrade to empty state, recorded in
    ``warnings``)."""
    state = PersistedState()
    if not os.path.isdir(state_dir):
        return state

    record = _read_json(os.path.join(state_dir, PLANS_FILE), state.warnings)
    if record is not None:
        schemas = record.get("schemas")
        if isinstance(schemas, dict):
            for fingerprint, entry in schemas.items():
                plans = entry.get("plans") if isinstance(entry, dict) else None
                if not isinstance(plans, dict):
                    continue
                per_schema: dict[str, Plan] = {}
                for signature, plan_record in plans.items():
                    try:
                        per_schema[signature] = Plan.from_dict(plan_record)
                    except (KeyError, TypeError, ValueError) as error:
                        _warn(
                            state.warnings,
                            f"{PLANS_FILE}: plan {fingerprint[:12]}/{signature}: "
                            f"{error}; skipped",
                        )
                if per_schema:
                    state.plans[fingerprint] = per_schema
                    name = entry.get("name") if isinstance(entry, dict) else None
                    if isinstance(name, str):
                        state.plan_names[fingerprint] = name

    record = _read_json(os.path.join(state_dir, TELEMETRY_FILE), state.warnings)
    if record is not None:
        try:
            state.telemetry = PlanTelemetry.from_dict(record)
        except (ValueError, TypeError) as error:
            _warn(
                state.warnings,
                f"{TELEMETRY_FILE}: corrupt payload ({error}); ignored",
            )

    record = _read_json(os.path.join(state_dir, DECISIONS_FILE), state.warnings)
    if record is not None:
        entries = record.get("entries")
        if isinstance(entries, list):
            for item in entries:
                if not (
                    isinstance(item, list) and len(item) == 2
                    and isinstance(item[0], list) and len(item[0]) == 3
                    and isinstance(item[1], dict)
                ):
                    continue
                key = (str(item[0][0]), str(item[0][1]), str(item[0][2]))
                state.decisions.append((key, item[1]))

    record = _read_json(os.path.join(state_dir, ENGINE_STATS_FILE), state.warnings)
    if record is not None:
        stats = record.get("stats")
        if isinstance(stats, dict):
            state.engine_stats = stats

    record = _read_json(os.path.join(state_dir, SCHEDULER_FILE), state.warnings)
    if record is not None:
        for name, validate in _SCHEDULER_TUNABLES.items():
            if name not in record:
                continue
            try:
                state.scheduler[name] = validate(record[name])
            except (ValueError, TypeError) as error:
                _warn(
                    state.warnings,
                    f"{SCHEDULER_FILE}: {name}: {error}; ignored",
                )
    return state


def cap_decision_records(records: list, cap: int) -> list:
    """Persistence hygiene: keep at most ``cap`` persisted decisions per
    schema fingerprint.  ``records`` is :meth:`DecisionCache.to_records`
    output (LRU order, oldest first); the newest entries per schema win
    and the surviving records keep their relative order, so a reloaded
    cache preserves recency."""
    if cap < 1:
        raise ValueError(f"decision cap must be positive, got {cap}")
    kept: list = []
    per_schema: dict[str, int] = {}
    for item in reversed(records):
        fingerprint = str(item[0][1])
        seen = per_schema.get(fingerprint, 0)
        if seen >= cap:
            continue
        per_schema[fingerprint] = seen + 1
        kept.append(item)
    kept.reverse()
    return kept
