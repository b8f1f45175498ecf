"""Automatic algorithm selection.

``decide(query, dtd)`` routes a satisfiability question to the strongest
procedure the library has for the query's fragment and the DTD's class,
mirroring the paper's result map.  Routing is delegated to the query
planner (:mod:`repro.sat.planner`): the query's feature signature and the
schema's classification select a :class:`~repro.sat.planner.Plan` —
rewrite passes, decider, fallback chain — which is then executed.  The
batch engine does not come through here: it executes plans from its
per-schema plan cache with :func:`~repro.sat.planner.execute_plan`
directly.

The result map below is rendered from the decider registry
(:mod:`repro.sat.registry`) at import time, so this table cannot drift
from the code.
"""

from __future__ import annotations

from repro.dtd.model import DTD
from repro.sat.bounded import Bounds
from repro.sat.planner import DEFAULT_PLANNER, execute_plan
from repro.sat.registry import routing_table
from repro.sat.result import SatResult
from repro.xpath.ast import Path


def decide(
    query: Path,
    dtd: DTD | None = None,
    bounds: Bounds | None = None,
    *,
    artifacts=None,
) -> SatResult:
    """Decide satisfiability of ``(query, dtd)`` — or of ``query`` alone
    over unconstrained trees when ``dtd`` is ``None`` — with the strongest
    applicable procedure.

    ``artifacts`` is the batch-engine hook: a pre-registered schema record
    (:class:`repro.engine.SchemaArtifacts`, or any object with ``dtd`` and
    the schema-trait attributes).  When given, ``dtd`` may be omitted; the
    per-schema classification is reused and the routing decision is cached
    on the record's plan cache instead of being re-derived per call.
    """
    if dtd is None and artifacts is not None:
        dtd = artifacts.dtd
    plan = DEFAULT_PLANNER.plan_query(query, artifacts=artifacts, dtd=dtd)
    return execute_plan(plan, query, dtd, bounds)


__doc__ = (__doc__ or "") + "\n" + routing_table() + "\n"
