"""repro.incr — incremental evaluation: O(Δ) answers that track the WAL.

The query engines compute fixed points; the service tier's mutations
arrive as tiny WAL-logged edge deltas.  This package closes the loop
between the two so that a query issued *after* a small delta pays for
the delta, not for the graph:

* :class:`~repro.incr.journal.DeltaJournal` — the per-graph journal of
  committed edge deltas.  :meth:`~repro.service.graph_store.GraphStore.
  add_edges` rewrites the host edge list, records the batch here and
  marks the label stale; the next read rebuilds each stale label once
  from the host edge list, and :meth:`~repro.incr.journal.DeltaJournal.
  delta_since` tells the scheduler whether a warm start is sound.
* :class:`~repro.incr.state.FixpointState` — host key-array snapshots of an
  engine's fixed point (closure words, final frontier, tensor facts),
  small enough to live inside the service's
  :class:`~repro.service.result_cache.ResultCache` next to the answer.
* :mod:`~repro.incr.engine` — delta-driven fixpoint restarts for the
  closure, RPQ (reach + pairs) and CFPQ (matrix + tensor) engines.  All
  of them lean on the masked-accumulate primitive
  ``mxm(..., accumulate=C, mask=M)`` = ``C ∨ ((A·B) ∧ ¬M)``: passing
  the previous fixed point as the mask makes every product return only
  *new* facts, so "no new facts" is a delta-``nnz`` test instead of a
  full-matrix entry count.

Correctness rests on Kleene warm-starting: the fixpoint operators here
are monotone, so iterating from any point between the old and the new
least fixed point converges to the new one — which is exactly where an
adds-only delta leaves the cached state.  Removals break monotonicity
and always fall back to recomputation (the version bump has already
invalidated the exact-match cache entry).

See ``docs/INCREMENTAL.md`` for the end-to-end walkthrough.
"""

from repro.incr.journal import DeltaJournal, DeltaSummary
from repro.incr.state import FixpointState

__all__ = [
    "DeltaJournal",
    "DeltaSummary",
    "FixpointState",
]
