"""Per-graph journal of committed edge deltas, for warm-start arbitration.

The host edge list is the one copy of a graph's edges: a commit rewrites
it and marks the touched labels stale, and the next read rebuilds each
of them once (:meth:`~repro.service.graph_store.GraphHandle.query_matrices`).
What the incremental engines still need is the *history*: the journal
of ``(version, op, label, batch)`` entries that :meth:`delta_since`
turns into the answer to "what changed after version v, and was it
adds-only?".  The journal is bounded; pruning raises the *floor* below
which the journal truthfully answers "unknown" (forcing recompute
rather than guessing).

Thread-safety: all state is guarded by one traced lock, taken inside
``GraphHandle._lock`` on commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.locktrace import make_lock

#: Journal entries kept before the floor rises (bounds host memory).
JOURNAL_LIMIT = 1024


@dataclass(frozen=True)
class DeltaSummary:
    """What happened to a graph after some version.

    ``adds_only`` is the warm-start eligibility bit; ``count`` is the
    raw delta edge count (arbitration compares it against the graph
    size); ``adds`` maps label → host ``(rows, cols)`` of the added
    edges, populated only when ``adds_only`` holds.
    """

    adds_only: bool
    count: int
    adds: dict = field(default_factory=dict)


class DeltaJournal:
    """Committed edge deltas of one graph handle."""

    def __init__(self, version: int, *, journal_limit: int = JOURNAL_LIMIT):
        self.journal_limit = int(journal_limit)
        self._lock = make_lock("DeltaJournal._lock")
        #: Versions <= floor are unknowable (pre-journal or pruned).
        self._floor = int(version)  # guarded-by: _lock
        self._journal: list = []  # guarded-by: _lock

    def record(self, op: str, label: str, batch, version: int) -> None:
        """Append one committed delta batch (the WAL already holds it)."""
        batch = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
        with self._lock:
            self._journal.append((int(version), op, label, batch.copy()))
            if len(self._journal) > self.journal_limit:
                drop = len(self._journal) - self.journal_limit
                self._floor = max(
                    self._floor, max(e[0] for e in self._journal[:drop])
                )
                del self._journal[:drop]

    def stats(self) -> dict:
        with self._lock:
            return {
                "journal_entries": len(self._journal),
                "floor_version": self._floor,
            }

    def delta_since(self, version: int) -> DeltaSummary | None:
        """Everything recorded after ``version``, or None if unknowable.

        "Unknowable" means the journal no longer covers that far back
        (pre-journal handle, pruned entries): the caller must recompute.
        """
        version = int(version)
        with self._lock:
            if version < self._floor:
                return None
            entries = [e for e in self._journal if e[0] > version]
        if not entries:
            return DeltaSummary(adds_only=True, count=0)
        adds_only = all(op == "add" for _, op, _, _ in entries)
        count = sum(batch.shape[0] for _, _, _, batch in entries)
        adds: dict = {}
        if adds_only:
            per_label: dict[str, list] = {}
            for _, _, label, batch in entries:
                per_label.setdefault(label, []).append(batch)
            adds = {
                label: (
                    np.concatenate([b[:, 0] for b in batches]),
                    np.concatenate([b[:, 1] for b in batches]),
                )
                for label, batches in per_label.items()
            }
        return DeltaSummary(adds_only=adds_only, count=count, adds=adds)
