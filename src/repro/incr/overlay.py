"""Per-(graph, label) COO delta overlay over base adjacency matrices.

Acknowledging an O(Δ) write must not cost an O(graph) device upload, so
a mutation records its batch here (the WAL has already made it
durable), the base matrix stays untouched, and query operands merge
``base ∨ adds ∖ removes`` lazily at plan time.  Merged operands are
cached per overlay stamp, so a read-heavy interval between two writes
builds the merge once.

The overlay keeps two structures:

* a **net map** per label — final ``present``/``absent`` verdict per
  touched ``(u, v)`` pair (last write wins), which is all a merge
  needs regardless of how many batches touched the pair;
* a **journal** of ``(version, op, label, batch)`` — the raw delta
  stream the incremental engines replay.  :meth:`delta_since` answers
  "what changed after version v, and was it adds-only?", which is the
  warm-start arbitration question.  The journal is bounded; pruning
  raises the *floor* below which the overlay truthfully answers
  "unknown" (forcing recompute rather than guessing).

Folding (:meth:`fold`) clears a label's net map after the caller has
rebuilt the base matrix from the authoritative host graph — on persist,
on compaction, or when the pending set outgrows its budget.  The
journal survives a fold: warm starts remain possible across it.

Thread-safety: all state is guarded by one traced lock; matrix builds
run *outside* it (kernels must not run under service locks — see
``REPRO_CHECK_LOCKS``).  A dropped cached merge is dereferenced, never
freed: in-flight evaluations may still be reading it, and the arena
reclaims the buffers when the last reference goes away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.locktrace import make_lock
from repro.utils.arrays import keys_from_coo

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


class DeltaOverlay:
    """Pending edge deltas for one graph handle."""

    def __init__(
        self,
        ctx,
        shape: tuple[int, int],
        version: int,
        *,
        journal_limit: int = JOURNAL_LIMIT,
    ):
        self._ctx = ctx
        self._shape = tuple(shape)
        self.journal_limit = int(journal_limit)
        self._lock = make_lock("DeltaOverlay._lock")
        #: Versions <= floor are unknowable (pre-overlay or pruned).
        self._floor = int(version)  # guarded-by: _lock
        self._journal: list = []  # guarded-by: _lock
        self._net: dict[str, dict] = {}  # label -> {(u, v): ±1}; _lock
        self._merged: dict[str, tuple] = {}  # label -> (stamp, Matrix); _lock
        self._stamp = 0  # guarded-by: _lock
        self.folds = 0  # guarded-by: _lock

    # -- recording (called by GraphStore._commit, WAL already fsynced) -----

    def record(self, op: str, label: str, batch, version: int) -> None:
        """Absorb one committed delta batch into the overlay."""
        batch = np.asarray(batch, dtype=np.int64).reshape(-1, 2)
        sign = 1 if op == "add" else -1
        with self._lock:
            self._journal.append((int(version), op, label, batch.copy()))
            if len(self._journal) > self.journal_limit:
                drop = len(self._journal) - self.journal_limit
                self._floor = max(
                    self._floor, max(e[0] for e in self._journal[:drop])
                )
                del self._journal[:drop]
            net = self._net.setdefault(label, {})
            for u, v in batch:
                net[(int(u), int(v))] = sign
            if not net:
                del self._net[label]
            self._merged.pop(label, None)
            self._stamp += 1

    # -- introspection -----------------------------------------------------

    def touched_labels(self) -> list[str]:
        with self._lock:
            return sorted(self._net)

    def pending_edges(self, label: str | None = None) -> int:
        with self._lock:
            if label is not None:
                return len(self._net.get(label, ()))
            return sum(len(net) for net in self._net.values())

    def has_removes(self, label: str | None = None) -> bool:
        with self._lock:
            nets = (
                [self._net.get(label, {})] if label is not None
                else list(self._net.values())
            )
        return any(sign < 0 for net in nets for sign in net.values())

    def stats(self) -> dict:
        with self._lock:
            return {
                "pending_edges": sum(len(n) for n in self._net.values()),
                "pending_labels": len(self._net),
                "journal_entries": len(self._journal),
                "floor_version": self._floor,
                "folds": self.folds,
                "merged_cached": len(self._merged),
            }

    # -- query-side merge --------------------------------------------------

    def operand(self, label: str, base):
        """The query operand for ``label``: ``base ∨ adds ∖ removes``.

        Returns ``base`` itself (borrowed) when the label has no pending
        deltas; otherwise an overlay-owned merged matrix, cached until
        the next mutation.  ``base`` may be None for a label born in the
        overlay (first edges arrived as deltas).
        """
        with self._lock:
            net = self._net.get(label)
            if not net:
                return base
            stamp = self._stamp
            cached = self._merged.get(label)
            if cached is not None and cached[0] == stamp:
                return cached[1]
            items = list(net.items())
        merged = self._build(base, items)
        with self._lock:
            current = self._merged.get(label)
            if current is not None and current[0] >= stamp:
                # A concurrent build won; ours was never handed out.
                merged.free()
                return current[1]
            self._merged[label] = (stamp, merged)
        return merged

    def _build(self, base, items):
        ctx = self._ctx
        add_rows = np.array([u for (u, _), s in items if s > 0], dtype=np.int64)
        add_cols = np.array([v for (_, v), s in items if s > 0], dtype=np.int64)
        removes = [(u, v) for (u, v), s in items if s < 0]
        if base is None or base.nnz == 0:
            return ctx.matrix_from_lists(self._shape, add_rows, add_cols)
        if not removes:
            # Adds-only fast path: one small upload + one device merge,
            # no read-back of the base pattern.
            adds = ctx.matrix_from_lists(self._shape, add_rows, add_cols)
            try:
                return base.ewise_add(adds)
            finally:
                adds.free()
        brows, bcols = base.to_arrays()
        rkeys = keys_from_coo(*np.array(removes, dtype=np.int64).T)
        keep = ~np.isin(keys_from_coo(brows, bcols), rkeys)
        return ctx.matrix_from_lists(
            self._shape,
            np.concatenate([brows[keep].astype(np.int64), add_rows]),
            np.concatenate([bcols[keep].astype(np.int64), add_cols]),
        )

    # -- warm-start arbitration -------------------------------------------

    def delta_since(self, version: int) -> DeltaSummary | None:
        """Everything recorded after ``version``, or None if unknowable.

        "Unknowable" means the journal no longer covers that far back
        (pre-overlay handle, pruned entries): the caller must recompute.
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

    # -- folding -----------------------------------------------------------

    def fold(self, label: str | None = None) -> None:
        """Forget pending deltas for ``label`` (or all labels).

        Call *after* rebuilding the base matrix from the authoritative
        host graph — the overlay trusts the caller that base now equals
        base ∨ adds ∖ removes.  The journal is kept: folding changes
        where the data lives, not what happened.
        """
        with self._lock:
            if label is None:
                self._net.clear()
                self._merged.clear()
            else:
                self._net.pop(label, None)
                self._merged.pop(label, None)
            self._stamp += 1
            self.folds += 1

    def free(self) -> None:
        """Drop cached merges (handle teardown)."""
        with self._lock:
            merged = list(self._merged.values())
            self._merged.clear()
        for _, matrix in merged:
            matrix.free()
