"""Bounded LRU decision cache.

Entries are keyed on ``(query_key(canonicalize(p)), schema fingerprint)``
— see :mod:`repro.xpath.canonical` — so syntactic variants of the same
question (commuted conjuncts, duplicated union branches, re-associated
compositions) share a single entry.  The cached record is the *decision*
(verdict, method, reason), deliberately not the witness tree: witnesses
can be large, are cheap to regenerate on demand, and would defeat the
bounded-memory guarantee.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.xpath.ast import Path
from repro.xpath.canonical import canonicalize, query_key

CacheKey = tuple[str, str, str]

#: fingerprint slot used for no-DTD decisions
NO_SCHEMA = "-"

#: bounds slot used when deciding with default bounds
DEFAULT_BOUNDS = "-"


def decision_key(query: Path, fingerprint: str | None, bounds=None) -> CacheKey:
    """The cache key of ``(query, schema, bounds)``: canonical query key ×
    schema fingerprint (``NO_SCHEMA`` when deciding without a DTD) ×
    search-bounds tag.

    Bounds are part of the key because they change the answer of the
    bounded semi-decision procedures: an ``unknown`` cached under tight
    bounds must not be served to an engine configured with larger ones.
    """
    return decision_key_for(canonicalize(query), fingerprint, bounds)


def decision_key_for(canonical: Path, fingerprint: str | None, bounds=None) -> CacheKey:
    """:func:`decision_key` for an already-canonicalized query — the batch
    engine canonicalizes once per job and reuses the form for both the
    cache key and the decision itself."""
    bounds_tag = DEFAULT_BOUNDS if bounds is None else repr(bounds)
    return (query_key(canonical), fingerprint or NO_SCHEMA, bounds_tag)


@dataclass(frozen=True)
class CachedDecision:
    """The compact, immutable record a cache entry stores."""

    satisfiable: bool | None
    method: str
    reason: str = ""


class DecisionCache:
    """Bounded LRU with hit/miss/eviction counters."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError(f"cache capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[CacheKey, CachedDecision] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: CacheKey) -> CachedDecision | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: CacheKey, decision: CachedDecision) -> None:
        self._entries[key] = decision
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()

    def to_records(self) -> list:
        """Serialize current entries (LRU order, oldest first) for the
        engine's ``--state-tier`` persistence.  Counters are not part of
        the record: a reloaded cache starts cold statistically but warm
        in content."""
        return [
            [list(key), {
                "satisfiable": decision.satisfiable,
                "method": decision.method,
                "reason": decision.reason,
            }]
            for key, decision in self._entries.items()
        ]

    def load_records(self, records) -> int:
        """Insert persisted ``(key, decision)`` pairs (see
        :meth:`to_records`); malformed entries are skipped.  Returns the
        number of entries loaded."""
        loaded = 0
        for key, record in records:
            if not (isinstance(key, (list, tuple)) and len(key) == 3):
                continue
            if not (isinstance(record, dict) and "method" in record):
                continue
            satisfiable = record.get("satisfiable")
            if satisfiable is not None and not isinstance(satisfiable, bool):
                continue
            self.put(
                (str(key[0]), str(key[1]), str(key[2])),
                CachedDecision(
                    satisfiable, str(record["method"]), str(record.get("reason", ""))
                ),
            )
            loaded += 1
        return loaded

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> dict[str, int | float]:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
