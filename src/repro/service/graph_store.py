"""Named-graph registry with format/backend residency.

The kernels operate on whatever matrices they are handed; the service
tier's job is to make sure hot graphs are *already* lowered — and, under
the hybrid backend, already in the right storage format — when a query
arrives.  :class:`GraphStore` owns that state: registering a graph
lowers its per-label adjacency matrices onto the service context once,
and the residency policy decides which labels additionally keep a
bit-packed view pinned (reusing the hybrid dispatcher's cached-view
machinery from :mod:`repro.backends.hybrid`), so fixpoints over dense
labels start word-parallel instead of paying the packing cost per query.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.analysis.locktrace import make_lock
from repro.errors import (
    IndexOutOfBoundsError,
    InvalidArgumentError,
    StoreError,
    UnknownGraphError,
)
from repro.graph import LabeledGraph
from repro.incr.journal import DeltaJournal

if TYPE_CHECKING:  # annotations only: the store layer is imported lazily
    from repro.store.volume import GraphVolume

RESIDENCY_MODES = ("auto", "bit", "tiled", "sparse")


@dataclass
class GraphHandle:
    """One registered graph: host container + resident device matrices."""

    name: str
    graph: LabeledGraph
    matrices: dict = field(default_factory=dict)  # label -> core Matrix
    residency: str = "auto"
    #: label -> resident formats after the residency pass ("sparse",
    #: "bit" or "both"); non-hybrid backends always report "sparse".
    formats: dict = field(default_factory=dict)
    #: Monotonic mutation counter; every applied edge delta bumps it.
    #: The result cache keys on it, so a bump invalidates stale answers.
    version: int = 0  # guarded-by: _lock
    #: Attached :class:`~repro.store.volume.GraphVolume` (or None for a
    #: purely in-memory graph); deltas are WAL-logged through it.
    volume: "GraphVolume | None" = field(default=None, repr=False, compare=False)
    #: :class:`~repro.incr.journal.DeltaJournal` of committed deltas,
    #: read by the scheduler's warm-start arbitration.
    journal: DeltaJournal = field(kw_only=True, repr=False, compare=False)
    #: The store's lowering-and-residency function
    #: (:meth:`GraphStore._lower`), which :meth:`query_matrices` calls
    #: to rebuild stale labels.
    lower: Callable = field(kw_only=True, repr=False, compare=False)
    #: Labels whose host edges changed since their matrix was built.
    stale: set = field(default_factory=set, repr=False, compare=False)  # guarded-by: _lock
    queries_served: int = 0  # guarded-by: _lock
    _lock: object = field(
        default_factory=lambda: make_lock("GraphHandle._lock"),
        repr=False,
        compare=False,
    )

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def labels(self) -> list[str]:
        return self.graph.labels

    def current_version(self) -> int:
        with self._lock:
            return self.version

    def record_served(self, count: int) -> None:
        """Count queries answered from this handle (worker threads)."""
        with self._lock:
            self.queries_served += count

    def served(self) -> int:
        with self._lock:
            return self.queries_served

    def memory_bytes(self) -> int:
        """Resident device bytes across all labels (every view)."""
        return sum(m.memory_bytes() for m in self.matrices.values())

    def query_matrices(self) -> dict:
        """Label → operand matrix, current with the host edge list.

        Each stale label is rebuilt once from ``graph.edges``, outside
        every lock, and installed only if no commit landed during the
        build; otherwise the fresh operands are returned uninstalled and
        the labels stay stale for the next read.  Borrowed either way —
        callers must not free.
        """
        with self._lock:
            version, stale, matrices = self.version, sorted(self.stale), self.matrices
        if not stale:
            return dict(matrices)
        built, formats = self.lower(self.graph, self.residency, stale)
        with self._lock:
            if self.version == version:
                # Copy-on-write, and the replaced matrices are
                # dereferenced, never freed: in-flight evaluations may
                # still read them; the arena reclaims their buffers when
                # the last reference drops.
                self.matrices = {**self.matrices, **built}
                self.formats = {**self.formats, **formats}
                self.stale.clear()
        return {**matrices, **built}

    def free(self) -> None:
        for m in self.matrices.values():
            m.free()
        self.matrices = {}
        if self.volume is not None:
            self.volume.close()


class GraphStore:
    """Thread-safe registry of named, device-resident graphs.

    With a ``store_root`` attached, graphs can round-trip to disk:
    :meth:`persist` writes a snapshot generation into the graph's
    :class:`~repro.store.volume.GraphVolume`, :meth:`restore` warm-starts
    a handle from the newest snapshot + WAL (BitMatrix snapshots come
    back as zero-copy ``np.memmap`` views), and :meth:`add_edges` /
    :meth:`remove_edges` WAL-log every mutation before applying it.
    """

    def __init__(self, ctx, *, store_root: str | Path | None = None):
        self.ctx = ctx
        self.store_root = Path(store_root) if store_root is not None else None
        self._lock = make_lock("GraphStore._lock")
        self._graphs: dict[str, GraphHandle] = {}  # guarded-by: _lock
        #: Replication hook (:mod:`repro.cluster`): called as
        #: ``on_mutate(name, version)`` after every committed mutation
        #: batch, outside all store locks.  Assigned once, before
        #: traffic starts (the primary's shipper wake-up); not guarded.
        self.on_mutate = None

    def _install(
        self,
        name: str,
        graph: LabeledGraph,
        residency: str,
        *,
        version: int = 0,
        volume: "GraphVolume | None" = None,
        bit_paths: dict | None = None,
    ) -> GraphHandle:
        """Make ``graph`` resident under ``name``: the one way a handle
        comes to exist.  Validates ``residency``, lowers every label
        (:meth:`_lower`), starts an empty journal at ``version``, then
        swaps the handle in and frees the one it replaced."""
        if residency not in RESIDENCY_MODES:
            raise InvalidArgumentError(
                f"residency {residency!r} not in {RESIDENCY_MODES}"
            )
        matrices, formats = self._lower(graph, residency, bit_paths=bit_paths)
        handle = GraphHandle(
            name=name,
            graph=graph,
            matrices=matrices,
            residency=residency,
            formats=formats,
            version=version,
            volume=volume,
            journal=DeltaJournal(version),
            lower=self._lower,
        )
        with self._lock:
            old = self._graphs.get(name)
            self._graphs[name] = handle
        if old is not None:
            old.free()
        return handle

    def register(
        self,
        name: str,
        graph: LabeledGraph,
        *,
        residency: str = "auto",
    ) -> GraphHandle:
        """Lower ``graph`` onto the service context under ``name``.

        ``residency`` (hybrid backend only; a no-op elsewhere):

        * ``"sparse"`` — stay CSR/COO-resident;
        * ``"bit"`` — pin every label's bit-packed view eagerly;
        * ``"tiled"`` — pin the bit view *and* its tiled presence grid
          (zero-tile skipping kernels start warm);
        * ``"auto"`` — pin the bit view only for labels whose density
          is at or above the dispatcher's crossover (those are the ones
          the cost model would route to the bit kernel anyway).

        Re-registering a name replaces (and frees) the previous entry.
        """
        return self._install(name, graph, residency)

    def _lower(self, graph, residency, labels=None, bit_paths=None):
        """Lower ``labels`` (default: every label) of ``graph`` onto the
        service context, attach snapshot bit containers, and run the
        residency pass: the one way a label becomes resident, on install
        and when a stale label is rebuilt.  Returns ``(matrices,
        formats)``."""
        matrices = graph.adjacency_matrices(self.ctx, labels)
        self._adopt_bit_views(matrices, bit_paths)
        formats = {
            label: self._label_residency(matrix, residency)
            for label, matrix in matrices.items()
        }
        return matrices, formats

    def _label_residency(self, matrix, residency: str) -> str:
        from repro.backends import hybrid

        backend = self.ctx.backend
        if not isinstance(backend, hybrid.HybridBackend):
            return "sparse"
        if residency == "tiled":
            return backend.ensure_resident(matrix.handle, "tiled")
        if residency == "bit" or (
            residency == "auto" and matrix.density >= hybrid.CROSSOVER_DENSITY
        ):
            return backend.ensure_resident(matrix.handle, "bit")
        return matrix.handle.resident

    def get(self, name: str) -> GraphHandle:
        with self._lock:
            handle = self._graphs.get(name)
        if handle is None:
            raise UnknownGraphError(name)
        return handle

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._graphs

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._graphs)

    def drop(self, name: str) -> None:
        with self._lock:
            handle = self._graphs.pop(name, None)
        if handle is None:
            raise UnknownGraphError(name)
        handle.free()

    def clear(self) -> None:
        with self._lock:
            handles = list(self._graphs.values())
            self._graphs.clear()
        for handle in handles:
            handle.free()

    # -- persistence (repro.store) ----------------------------------------

    def _require_store(self) -> Path:
        if self.store_root is None:
            raise StoreError(
                "no store attached (pass store_root= to GraphStore / "
                "QueryService, or set REPRO_STORE)"
            )
        return self.store_root

    def open_volume(self, name: str, *, create: bool = True):
        """The :class:`~repro.store.volume.GraphVolume` for ``name``,
        opened as a writer (the service mutates volumes; the advisory
        lock keeps CLI maintenance off a live one)."""
        from repro.store.volume import GraphVolume, volume_root

        path = volume_root(self._require_store()) / name
        if create:
            return GraphVolume.create(path, name)
        return GraphVolume.open(path, writer=True)

    def persist(self, name: str) -> int:
        """Snapshot a registered graph into its volume; returns the new
        generation.  Labels whose resident format includes a bit view
        also get a bit container, so the next :meth:`restore` maps them
        back zero-copy."""
        handle = self.get(name)
        # The whole snapshot+WAL-reset runs under the handle lock: a
        # concurrent add/remove_edges must not fsync a delta (and bump
        # the version) between "snapshot serialised version V" and
        # "WAL reset", or the reset would discard an acknowledged write
        # the snapshot does not contain.  Concurrent persist() calls
        # serialise here too, so generation numbers cannot collide.
        with handle._lock:
            volume = handle.volume
            if volume is None:
                volume = self.open_volume(name, create=True)
                handle.volume = volume
            generation = volume.write_snapshot(
                handle.graph,
                version=handle.version,
                bit_labels={
                    label
                    for label, fmt in handle.formats.items()
                    if fmt in ("bit", "both")
                }
                or None,
            )
        return generation

    def _adopt_bit_views(self, matrices: dict, bit_paths: dict) -> None:
        """Attach snapshot bit containers as read-only memmap views
        (hybrid backend only; a no-op elsewhere)."""
        from repro.backends.hybrid import HybridBackend

        backend = self.ctx.backend
        if not bit_paths or not isinstance(backend, HybridBackend):
            return
        from repro.store.container import load_matrix

        for label, path in bit_paths.items():
            if label in matrices:
                bit = load_matrix(path, mmap=True)
                backend.adopt_bit_mapped(matrices[label].handle, bit)

    def restore(
        self,
        name: str,
        *,
        residency: str = "auto",
        mmap: bool = True,
    ) -> GraphHandle:
        """Warm-start ``name`` from its on-disk volume.

        Loads the newest committed snapshot, replays the committed WAL
        suffix, and registers the result.  Under the hybrid backend,
        labels whose snapshot bit container is still valid (untouched by
        WAL deltas) attach it as a read-only ``np.memmap`` view — the
        packed words are *mapped*, not copied to the heap (visible as
        arena ``mapped_bytes``, not ``live_bytes``).
        """
        # A registered handle already holds the volume's writer lock;
        # take over its GraphVolume instead of re-opening (a second
        # writer open would conflict with our own advisory lock).
        with self._lock:
            prior = self._graphs.get(name)
        volume = None
        if prior is not None:
            with prior._lock:
                volume, prior.volume = prior.volume, None
        handed_off = volume is not None
        if not handed_off:
            volume = self.open_volume(name, create=False)
        try:
            state = volume.load(mmap=mmap)
            return self._install(
                name,
                state.graph,
                residency,
                version=state.version,
                volume=volume,
                bit_paths=state.bit_paths,
            )
        except Exception:
            if handed_off:
                prior.volume = volume  # hand the lease back
            else:
                volume.close()
            raise

    def restore_all(
        self, *, residency: str = "auto", mmap: bool = True
    ) -> list[str]:
        """Restore every volume under the store root; returns the names."""
        from repro.store.volume import list_volumes

        names = []
        for volume in list_volumes(self._require_store()):
            self.restore(volume.name, residency=residency, mmap=mmap)
            names.append(volume.name)
        return names

    def restore_replica(
        self,
        name: str,
        *,
        residency: str = "auto",
        mmap: bool = True,
        generation: int | None = None,
    ) -> tuple[GraphHandle, int]:
        """Bootstrap ``name`` as a read replica from its volume's snapshot.

        The follower-process twin of :meth:`restore`
        (:mod:`repro.cluster`): opens the volume *without* the writer
        lease, loads only the newest (or ``generation``-pinned)
        committed snapshot — no local WAL replay; the primary ships
        committed deltas over the wire instead — and registers the
        handle at the snapshot version with **no attached volume**, so
        local mutations would not double-log against the primary's WAL.
        With ``mmap=True`` the bit containers attach as read-only
        memmap views: N follower processes on one host share those
        pages through the page cache.  Returns ``(handle, generation)``.
        """
        from repro.store.volume import GraphVolume, volume_root

        volume = GraphVolume.open(volume_root(self._require_store()) / name)
        try:
            state = volume.load_snapshot(generation=generation, mmap=mmap)
        finally:
            volume.close()
        handle = self._install(
            name,
            state.graph,
            residency,
            version=state.version,
            bit_paths=state.bit_paths,
        )
        return handle, state.generation

    # -- mutation (edge deltas) -------------------------------------------

    def add_edges(self, name: str, label: str, edges) -> int:
        """Apply (and WAL-log) an edge-addition batch; returns the new
        graph version."""
        return self.apply_batch(name, [("add", label, edges)])

    def remove_edges(self, name: str, label: str, edges) -> int:
        """Apply (and WAL-log) an edge-removal batch; returns the new
        graph version."""
        return self.apply_batch(name, [("remove", label, edges)])

    @staticmethod
    def _edge_batch(handle: GraphHandle, edges) -> np.ndarray:
        batch = np.asarray(edges, dtype=np.int64)
        if batch.size == 0:
            return batch.reshape(0, 2)
        if batch.ndim != 2 or batch.shape[1] != 2:
            raise InvalidArgumentError("edges must have shape (count, 2)")
        n = handle.n
        for axis, values in (("row", batch[:, 0]), ("column", batch[:, 1])):
            lo, hi = int(values.min()), int(values.max())
            if lo < 0 or hi >= n:
                raise IndexOutOfBoundsError(axis, lo if lo < 0 else hi, n)
        return batch

    def apply_batch(self, name: str, deltas) -> int:
        """Apply (and WAL-log) a heterogeneous mutation batch.

        ``deltas`` is an iterable of ``(op, label, edges)`` triples with
        ``op`` in ``{"add", "remove"}``; each triple gets its own WAL
        record and version bump (matching :meth:`add_edges` semantics),
        all applied under one handle lock acquisition.  Triples without
        edges are dropped: a batch of only those changes nothing and
        returns the current version.

        No matrix is rebuilt here: the touched labels are marked stale
        and :meth:`GraphHandle.query_matrices` rebuilds each once, on
        the next read.

        Returns the final graph version.
        """
        from repro.store.wal import EdgeDelta

        handle = self.get(name)
        items = []
        for op, label, edges in deltas:
            if op not in ("add", "remove"):
                raise InvalidArgumentError(
                    f"unknown delta op {op!r} (add / remove)"
                )
            batch = self._edge_batch(handle, edges).astype(np.uint32)
            if batch.size:
                items.append(EdgeDelta(op, str(label), batch, 0))
        return self._commit(handle, items, mint=True)

    def apply_replicated(self, name: str, deltas) -> int:
        """Apply WAL-shipped deltas on a read replica; returns the version.

        The follower-side twin of :meth:`apply_batch`
        (:mod:`repro.cluster`): ``deltas`` are
        :class:`~repro.store.wal.EdgeDelta` records decoded (and
        CRC-verified) off the replication stream.  They are already
        durable on the primary, so nothing is logged here, and versions
        come from the deltas' own stamps rather than being minted.
        Deltas at or below the handle version are skipped — after a
        reconnect the primary re-ships from the follower's acked
        version, so replay must be idempotent.  All deltas land under
        one lock acquisition: every state a concurrent reader observes
        is a whole prefix of the primary's committed history.
        """
        return self._commit(self.get(name), deltas, mint=False)

    def _commit(self, handle: GraphHandle, deltas, *, mint: bool) -> int:
        """Commit :class:`~repro.store.wal.EdgeDelta` records to a
        resident graph — the one way a delta changes one.

        * One version and (on a volume) one WAL transaction per delta.
          With ``mint`` each delta is stamped ``handle.version + 1, …``
          and logged; otherwise it keeps the stamp it was shipped with,
          nothing is logged, and deltas at or below the handle version
          are skipped.
        * Every delta is fsynced before any state it changes is visible.
          When an append fails, the deltas logged before it are still
          applied and their version published — a later batch must not
          re-mint a version the log already holds — and the failure
          surfaces as :class:`~repro.errors.StoreError`; the log has cut
          the failed transaction's bytes back off.
        * All deltas of a call land under one ``handle._lock``
          acquisition, through one ``apply_deltas`` call; the same
          acquisition marks the touched labels stale and journals every
          delta.
        * ``on_mutate`` runs outside every store lock, for whatever
          prefix was committed.
        """
        from repro.store.volume import apply_deltas

        committed = []
        try:
            with handle._lock:
                version = handle.version
                try:
                    for delta in deltas:
                        if mint:
                            delta = replace(delta, version=version + 1)
                            self._log(handle, delta)
                        elif delta.version <= version:
                            continue
                        committed.append(delta)
                        version = delta.version
                finally:
                    handle.stale |= apply_deltas(handle.graph, committed)
                    for d in committed:
                        handle.journal.record(d.op, d.label, d.edges, d.version)
                    handle.version = version
        finally:
            hook = self.on_mutate
            if committed and hook is not None:
                hook(handle.name, committed[-1].version)
        return version

    @staticmethod
    def _log(handle: GraphHandle, delta) -> None:
        """WAL before state: once this returns the delta is fsynced, and
        a crash after this point replays it on restore."""
        if handle.volume is None:
            return
        try:
            handle.volume.append_delta(
                delta.op, delta.label, delta.edges, version=delta.version
            )
        except OSError as exc:
            raise StoreError(
                f"graph {handle.name!r}: WAL append of version "
                f"{delta.version} failed, earlier versions stand: {exc}"
            ) from exc

    def stats(self) -> dict:
        with self._lock:
            handles = list(self._graphs.values())
        return {
            "graphs": len(handles),
            "vertices": sum(h.n for h in handles),
            "edges": sum(h.graph.num_edges for h in handles),
            "resident_bytes": sum(h.memory_bytes() for h in handles),
            "queries_served": sum(h.served() for h in handles),
            "per_graph": {
                h.name: {
                    "n": h.n,
                    "labels": len(h.matrices),
                    "residency": h.residency,
                    "formats": dict(h.formats),
                    "bytes": h.memory_bytes(),
                    "version": h.current_version(),
                    "persistent": h.volume is not None,
                    "queries_served": h.served(),
                    "journal": h.journal.stats(),
                }
                for h in handles
            },
        }
