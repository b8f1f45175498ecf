"""Spans recorded from outside the program.

The traced pass wraps public names at the engine's import sites — for
example ``repro.engine.batch.parse_query`` — and a few methods on the
program's classes (``BatchEngine.run``, ``DecisionCache.get``,
``Planner.plan_for``, ``DeciderSpec.call``, the deciders' ``prepare``
hooks).  Nothing under ``src/`` changes and the in-program tracer is not
used: every wrapper restores the original name on :meth:`Spans.uninstall`.

A span's *self* time is its duration minus the time of the wrapped spans
it directly contains.  Spans are aggregated in memory per name (calls,
total, self) and per parent→child edge, so for every name
``total == self + sum(child edges)`` — the invariant the self-tests
check.  The wrappers are not thread-safe; the in-process workloads run
the engine on the benchmark's main thread (pooled work runs in lane
processes, which see no wrappers).
"""

from __future__ import annotations

import time
from collections import defaultdict

ROOT_SPAN = "-"


class Spans:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # open spans: [name, seconds covered by direct children]
        self._stack: list[list] = []
        self._restore: list = []

    # -- recording --------------------------------------------------------
    def _close(self, name: str, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - frame[1]
        if stack:
            stack[-1][1] += elapsed
            self.edges[stack[-1][0], name] += elapsed
        else:
            self.edges[ROOT_SPAN, name] += elapsed

    def timed(self, name, fn, observe=None):
        """``fn`` wrapped in a span.  ``name`` may be a callable of the
        call's arguments (e.g. per-decider names); ``observe(result)``
        may bump counters."""
        perf_counter = time.perf_counter
        fixed = name if isinstance(name, str) else None

        def wrapper(*args, **kwargs):
            span = fixed if fixed is not None else name(*args, **kwargs)
            frame = [span, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span, frame, perf_counter() - start)
            if observe is not None:
                observe(span, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def timed_generator(self, name: str, fn):
        """A generator function whose every resumption is a span (time a
        consumer spends blocked on the producer, e.g. a pool's drain)."""
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            generator = fn(*args, **kwargs)
            while True:
                frame = [name, 0.0]
                self._stack.append(frame)
                start = perf_counter()
                try:
                    item = next(generator)
                except StopIteration:
                    self._close(name, frame, perf_counter() - start)
                    return
                except BaseException:
                    self._close(name, frame, perf_counter() - start)
                    raise
                self._close(name, frame, perf_counter() - start)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------
    def patch(self, owner, attribute: str, replacement) -> None:
        """Replace a module global or class attribute until uninstall."""
        original = owner.__dict__[attribute]
        self._restore.append(lambda: setattr(owner, attribute, original))
        setattr(owner, attribute, replacement)

    def patch_frozen(self, instance, attribute: str, replacement) -> None:
        """Replace a field of a frozen dataclass instance until uninstall."""
        original = getattr(instance, attribute)
        self._restore.append(
            lambda: object.__setattr__(instance, attribute, original)
        )
        object.__setattr__(instance, attribute, replacement)

    def install(self) -> "Spans":
        """Wrap every layer's entry points (see the module docstring)."""
        import sys

        from repro.engine import batch, executors
        from repro.engine.cache import DecisionCache
        from repro.sat import registry as sat_registry
        from repro.sat.planner import Planner
        from repro.sat.registry import DeciderSpec

        for name, span in (
            ("parse_query", "xpath.parse"),
            ("canonicalize", "xpath.canonicalize"),
            ("features_of", "xpath.features"),
            ("decision_key_for", "cache.key"),
            ("execute_plan", "planner.execute"),
        ):
            self.patch(batch, name, self.timed(span, getattr(batch, name)))
        self.patch(
            executors, "execute_plan",
            self.timed("planner.execute", executors.execute_plan),
        )
        self.patch(batch.BatchEngine, "run", self.timed("batch.run", batch.BatchEngine.run))
        for method in ("get", "put"):
            self.patch(
                DecisionCache, method,
                self.timed("cache.lookup", DecisionCache.__dict__[method]),
            )
        self.patch(Planner, "plan_for", self.timed("planner.plan", Planner.plan_for))
        self.patch(
            executors.PersistentPoolExecutor, "drain",
            self.timed_generator(
                "executor.wait", executors.PersistentPoolExecutor.drain,
            ),
        )

        def conclusive(span, result) -> None:
            if getattr(result, "satisfiable", None) is not None:
                self.counts["decider.conclusive"] += 1

        self.patch(
            DeciderSpec, "call",
            self.timed(
                lambda spec, *args, **kwargs: f"decider:{spec.name}",
                DeciderSpec.call, observe=conclusive,
            ),
        )
        # prepare hooks: the registry's spec (group chunks) and the
        # defining module's global (the deciders' own per-job fallback)
        for spec in sat_registry.all_deciders():
            hook = spec.prepare
            if hook is None:
                continue
            wrapped = self.timed(f"prepare:{spec.name}", hook)
            self.patch_frozen(spec, "prepare", wrapped)
            module = sys.modules.get(hook.__module__)
            if module is not None and module.__dict__.get(hook.__name__) is hook:
                self.patch(module, hook.__name__, wrapped)
        return self

    def install_setup(self) -> "Spans":
        """Wrap the set-up layers: schema registration and tier load."""
        from repro.engine.batch import BatchEngine
        from repro.engine.registry import SchemaRegistry

        self.patch(
            SchemaRegistry, "register",
            self.timed("registry.register", SchemaRegistry.register),
        )
        self.patch(
            BatchEngine, "load_tier_state",
            self.timed("statetier.load", BatchEngine.load_tier_state),
        )
        return self

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def __enter__(self) -> "Spans":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ----------------------------------------------------------
    def sum_total(self, prefix: str) -> float:
        return sum(value for name, value in self.total.items() if name.startswith(prefix))

    def sum_calls(self, prefix: str) -> int:
        return sum(value for name, value in self.calls.items() if name.startswith(prefix))

    def violations(self, tolerance: float = 1e-9) -> list[str]:
        """Broken invariants: a negative self time, or a span whose
        total differs from its self time plus its children's totals."""
        problems = []
        for name, total in self.total.items():
            own = self.self_time[name]
            if own < -tolerance:
                problems.append(f"{name}: negative self time {own:.3e}s")
            children = sum(
                value for (parent, _child), value in self.edges.items()
                if parent == name
            )
            if abs(total - own - children) > tolerance + 1e-9 * total:
                problems.append(
                    f"{name}: total {total:.6f}s != self {own:.6f}s + "
                    f"children {children:.6f}s"
                )
        return problems

    def table(self) -> dict:
        return {
            name: {
                "calls": self.calls[name],
                "total_s": round(self.total[name], 6),
                "self_s": round(self.self_time[name], 6),
            }
            for name in sorted(self.total)
        }
