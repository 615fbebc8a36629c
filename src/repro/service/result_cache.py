"""Cross-request result cache: (graph version, plan, source) → answer.

A production query mix is heavily repetitive — the same templated
reachability questions against a slowly-changing graph.  The plan cache
already makes recompilation free; this cache makes *re-evaluation* free
for exact repeats: a small LRU keyed on

    (query kind, graph name, graph version, canonical plan key, source)

The graph ``version`` — bumped by :class:`~repro.service.graph_store.
GraphStore` on every applied edge delta (and stamped by the persistent
store's WAL) — is the invalidation mechanism: a mutation changes the
version, every subsequent lookup misses, and the stale entries age out
of the LRU.  Entries are only written when the graph version is
unchanged after evaluation, so a delta racing a fixpoint can never
publish a result under a version it does not represent.

Answers are immutable — all-pairs answers are
:class:`~repro.utils.pairset.PairSet` key arrays, ``reach`` and
``dist`` answers frozensets, each built once by its engine — so the
cache stores the answer object itself and every hit returns that same
object: nothing is copied on the way in or out, and publishing is
O(1).  Uncacheable queries (prebuilt NFA/RSM plans have no canonical
key) bypass the cache entirely.

Entries optionally carry a :class:`~repro.incr.state.FixpointState`
next to the answer — the engine's resumable fixed point.  A query at
version ``v+k`` that misses exactly can still find its *ancestor* (same
key at the newest version ≤ v+k) via :meth:`ResultCache.get_ancestor`
and, when the delta since then was adds-only and small, warm-start the
fixpoint from it instead of recomputing (see :mod:`repro.incr`).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.analysis.locktrace import make_lock
from repro.errors import InvalidArgumentError
from repro.incr.state import FixpointState
from repro.utils.pairset import PairSet

_MISS = object()


class ResultCache:
    """Thread-safe LRU of query answers keyed on graph version."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise InvalidArgumentError("result cache capacity must be >= 1")
        self.capacity = capacity
        self._lock = make_lock("ResultCache._lock")
        self._entries: OrderedDict = OrderedDict()  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        self.invalidations = 0  # guarded-by: _lock
        self.ancestor_hits = 0  # guarded-by: _lock

    @staticmethod
    def make_key(
        kind: str,
        graph: str,
        version: int,
        plan,
        source,
    ) -> tuple | None:
        """Cache key for one query, or None when uncacheable.

        ``plan.key`` is the plan cache's canonical source key; plans
        without one (prebuilt automata) cannot be identified across
        requests and never hit.  The trailing component tags the entry
        with the plan's semiring (``bool-or-and`` for the boolean
        reachability kinds), so a min-plus answer can never shadow a
        boolean one for the same source text.
        """
        plan_key = getattr(plan, "key", None)
        if plan_key is None:
            return None
        meta = getattr(plan, "meta", None) or {}
        semiring = meta.get("semiring", "bool-or-and")
        return (kind, graph, int(version), plan.kind, plan_key, source, semiring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple | None):
        """``(hit, value)``; the value is the cached answer itself."""
        if key is None:
            return False, None
        with self._lock:
            entry = self._entries.get(key, _MISS)
            if entry is _MISS:
                self.misses += 1
                return False, None
            self.hits += 1
            self._entries.move_to_end(key)
        return True, entry[0]

    def get_ancestor(self, key: tuple | None):
        """Newest same-query entry at a version ≤ the requested one.

        Scans for entries equal to ``key`` in every component except
        version (index 2) and returns ``(version, value, state)`` for
        the newest match, or None.  The value is the cached answer *as
        of that version* — the caller owns deciding whether the delta
        since then permits reuse (adds-only, small; see the scheduler's
        arbitration).  Does not count as a hit/miss and does not touch
        LRU order: lineage lookups must not keep stale entries alive.
        """
        if key is None:
            return None
        rest = key[:2] + key[3:]
        version = key[2]
        best = None
        with self._lock:
            for k, (value, state) in self._entries.items():
                if k[:2] + k[3:] != rest or k[2] > version:
                    continue
                if best is None or k[2] > best[0]:
                    best = (k[2], value, state)
            if best is not None:
                self.ancestor_hits += 1
        return best

    def put(self, key: tuple | None, value, state=None) -> None:
        """Store an (immutable) answer, optionally with its resumable
        fixpoint ``state`` (a :class:`~repro.incr.state.FixpointState`)."""
        if key is None:
            return
        with self._lock:
            self._entries[key] = (value, state)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def invalidate_graph(self, graph: str) -> int:
        """Drop every entry for ``graph`` (re-register / drop / restore)."""
        with self._lock:
            doomed = [k for k in self._entries if k[1] == graph]
            for k in doomed:
                del self._entries[k]
            self.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counters, plus ``key_bytes``: the bytes of the
        :class:`~repro.utils.pairset.PairSet` answers and
        :class:`~repro.incr.state.FixpointState` key arrays held, each
        shared array counted once.  Small frozenset answers (``reach``,
        ``dist``) are not counted."""
        with self._lock:
            arrays = {}
            for value, state in self._entries.values():
                if isinstance(value, PairSet):
                    arrays[id(value.keys)] = value.keys
                if isinstance(state, FixpointState):
                    arrays.update((id(a), a) for a in state.keys.values())
            lookups = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "ancestor_hits": self.ancestor_hits,
                "hit_ratio": self.hits / lookups if lookups else 0.0,
                "key_bytes": sum(a.nbytes for a in arrays.values()),
            }
