"""Cross-run memoization of operator results.

Adaptive parallelization executes the *same* query tens of times,
morphing one operator region per run (paper Figure 2).  Consecutive
plans therefore share almost their entire DAG, yet a naive engine
re-evaluates every operator on real numpy data every run.  The
:class:`IntermediateCache` removes that host-side cost: results are
keyed by the structural plan fingerprint
(:meth:`repro.plan.graph.PlanNode.fingerprint`), so any node -- in any
plan copy, any run -- that computes the same value can reuse the stored
:class:`~repro.storage.column.Intermediate` and
:class:`~repro.operators.base.WorkProfile`.

Correctness invariants:

* Fingerprints cover operator kind + parameters + input fingerprints +
  order key, bottoming out in base-:class:`~repro.storage.column.Column`
  identity.  Stale hits are impossible by construction, so the cache
  never needs invalidation.
* Only the *host* work of ``evaluate``/``work_profile`` is skipped.
  Simulated time is still charged from the cached work profile through
  the roofline cost model, so response times, profiles, and convergence
  behaviour are bit-identical with the cache on or off.

The cache is bounded (LRU by payload bytes) and counts hits, misses,
evictions, and insertions so benchmarks can report reuse rates.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import ReproError
from ..operators.base import WorkProfile
from ..storage.column import ColumnSlice, Intermediate, Scalar

#: Default cache budget; big enough for tens of adaptive TPC-H runs at
#: the generated (shrunk) data sizes, small next to the base data.
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024

#: Fixed bookkeeping charge per entry (key, profile, dict slot).
_ENTRY_OVERHEAD = 128


def _entry_bytes(value: Intermediate) -> int:
    """Actual host bytes an entry pins.

    Column slices and scalars are views/constants -- caching them costs
    only the bookkeeping, not the bytes of the underlying base column.
    """
    if isinstance(value, (ColumnSlice, Scalar)):
        return _ENTRY_OVERHEAD
    return value.nbytes + _ENTRY_OVERHEAD


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of one :class:`IntermediateCache`'s counters.

    Returned by :meth:`IntermediateCache.stats`; the live counters stay
    private so concurrent readers never observe half-updated state.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    insertions: int = 0
    #: Entries refused because they alone exceed the capacity.
    oversized: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """JSON-ready counters (used by the wall-clock benchmark)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "insertions": self.insertions,
            "oversized": self.oversized,
            "hit_rate": self.hit_rate,
        }


class IntermediateCache:
    """Bounded LRU map: plan fingerprint -> (intermediate, work profile).

    The engine consults it at operator dispatch; a hit skips the real
    ``evaluate``/``work_profile`` calls entirely.  Reusing the stored
    objects is safe because operators treat inputs as read-only and
    intermediates are never mutated after production.

    Thread safety: one lock guards every entry and counter mutation, so
    a cache may be shared between executors running on different host
    threads (the serving engine's thread and its callers).
    Counters are only readable through :meth:`stats`, which returns an
    immutable snapshot taken under the lock.
    """

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES) -> None:
        if capacity_bytes <= 0:
            raise ReproError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.current_bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._insertions = 0
        self._oversized = 0
        self._entries: OrderedDict[bytes, tuple[Intermediate, WorkProfile, int]] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> CacheStats:
        """An immutable snapshot of the hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                insertions=self._insertions,
                oversized=self._oversized,
            )

    def get(self, key: bytes) -> tuple[Intermediate, WorkProfile] | None:
        """The cached (value, profile) for ``key``, refreshing recency."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0], entry[1]

    def peek(self, key: bytes) -> tuple[Intermediate, WorkProfile] | None:
        """Like :meth:`get` but touches neither counters nor recency.

        The scheduler's batch-evaluation phase uses this to decide which
        operators still need real evaluation; the commit phase then
        replays the counting :meth:`get`/:meth:`put` sequence in
        dispatch order, so the observable counter trace is identical to
        the serial engine's.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            return entry[0], entry[1]

    def put(self, key: bytes, value: Intermediate, profile: WorkProfile) -> int:
        """Store a freshly computed result, evicting LRU entries to fit.

        Returns the number of entries evicted to make room (0 when the
        value fit, or was refused as oversized) so the observability
        layer can count evictions without re-reading the stats under
        the lock.
        """
        size = _entry_bytes(value)
        evicted = 0
        with self._lock:
            if size > self.capacity_bytes:
                self._oversized += 1
                return 0
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[2]
            while self.current_bytes + size > self.capacity_bytes and self._entries:
                __, (__, __, evicted_size) = self._entries.popitem(last=False)
                self.current_bytes -= evicted_size
                self._evictions += 1
                evicted += 1
            self._entries[key] = (value, profile, size)
            self.current_bytes += size
            self._insertions += 1
        return evicted

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self.current_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"IntermediateCache(n={len(self._entries)}, "
            f"bytes={self.current_bytes}/{self.capacity_bytes}, "
            f"hit_rate={self.stats().hit_rate:.2f})"
        )
