"""Per-graph on-disk volume: snapshot generations + edge-delta WAL.

A :class:`GraphVolume` is one directory per named graph::

    <root>/volumes/<name>/
        volume.json                   identity + store format version
        wal.log                       append-only committed edge deltas
        snapshots/
            gen-000001/
                manifest.json         label -> container map (commit marker)
                lab000.csr.rpc        sparse container (always present)
                lab000.bit.rpc        bit container (dense labels only)
            gen-000002/ ...

Generations are immutable: a snapshot is assembled in a temp directory
and renamed into place only after every container is fsynced, with
``manifest.json`` (itself written via temp + rename) doubling as the
generation's commit marker — a ``gen-*`` directory without a manifest
is an aborted write and is ignored.  The newest committed generation
plus the committed suffix of ``wal.log`` is the graph's current state;
:meth:`GraphVolume.load` replays only deltas *newer* than the snapshot
version, so a crash between "snapshot renamed" and "log reset" (both
orders of which the recovery path must tolerate) never double-applies.

Labels whose density makes them bit-kernel residents also get a
``.bit.rpc`` container; on load these come back as read-only
``np.memmap`` views (see :mod:`repro.store.container`) — but only for
labels untouched by log deltas, since a delta invalidates the packed
snapshot bytes.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

import numpy as np

from repro.errors import (
    IndexOutOfBoundsError,
    InvalidArgumentError,
    StoreCorruptError,
    StoreError,
)
from repro.formats.bitmatrix import BitMatrix
from repro.formats.csr import BoolCsr
from repro.graph import LabeledGraph
from repro.store.container import (
    container_info,
    dump_matrix,
    fsync_dir,
    load_matrix,
    verify_container,
)
from repro.store.wal import EdgeDelta, WriteAheadLog

STORE_VERSION = 1

#: Environment variable naming the default store root.
STORE_ENV = "REPRO_STORE"

#: Default density at which a label's snapshot also gets a bit container
#: (matches the hybrid dispatcher's analytic crossover).
BIT_SNAPSHOT_DENSITY = 0.02

_GEN_PREFIX = "gen-"

#: Advisory writer-lock file inside a volume directory.
_LOCK_FILE = ".lock"


def _atomic_json(path: Path, payload: dict) -> None:
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    fsync_dir(path.parent)


def apply_deltas(graph: LabeledGraph, deltas) -> set:
    """Apply edge deltas to ``graph`` in place; returns touched labels.

    Edge sets are treated as sets of ``(u, v)`` pairs: ``add`` unions,
    ``remove`` differences, and the label's edge list is rewritten in
    sorted canonical order.  Out-of-range endpoints raise — a delta can
    never grow the vertex set.
    """
    touched: dict[str, set] = {}
    n = graph.n
    for delta in deltas:
        edges = touched.get(delta.label)
        if edges is None:
            edges = {(int(u), int(v)) for u, v in graph.edges.get(delta.label, ())}
            touched[delta.label] = edges
        batch = {(int(u), int(v)) for u, v in delta.edges}
        for u, v in batch:
            if not 0 <= u < n:
                raise IndexOutOfBoundsError("row", u, n)
            if not 0 <= v < n:
                raise IndexOutOfBoundsError("column", v, n)
        if delta.op == "add":
            edges |= batch
        elif delta.op == "remove":
            edges -= batch
        else:  # replay already validated ops; belt and braces
            raise InvalidArgumentError(f"unknown delta op {delta.op!r}")
    for label, edges in touched.items():
        graph.edges[label] = sorted(edges)
    return set(touched)


@dataclass
class RestoredGraph:
    """What :meth:`GraphVolume.load` hands back to the service tier."""

    graph: LabeledGraph
    version: int
    generation: int
    #: labels whose snapshot bit container is still valid (no log deltas
    #: touched them) -> container path, eligible for zero-copy mmap.
    bit_paths: dict = field(default_factory=dict)
    deltas_applied: int = 0


class GraphVolume:
    """On-disk home of one named graph.

    Single-writer: in-process mutations are serialised through the
    graph handle's lock, and *cross-process* writers are excluded by an
    advisory ``flock`` on the volume's ``.lock`` file, held for the
    lifetime of every ``writer=True`` instance.  Opening a second
    writer — e.g. ``python -m repro store compact`` against a volume a
    live service has attached — fails fast instead of resetting the WAL
    under the service's open append handle.  Readers (``ls``, ``info``,
    ``verify``) take no lock and never mutate the volume.
    """

    def __init__(self, path: str | Path, *, writer: bool = False):
        self.path = Path(path)
        self._meta = self._read_volume_meta()
        self._lock_file = None
        if writer:
            self._acquire_writer_lock()
        self.wal = WriteAheadLog(self.path / "wal.log")

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def create(
        cls, path: str | Path, name: str, *, writer: bool = True
    ) -> "GraphVolume":
        """Initialise an empty volume directory (idempotent).

        Creation implies write intent, so the instance holds the
        volume's writer lock unless ``writer=False``.
        """
        path = Path(path)
        (path / "snapshots").mkdir(parents=True, exist_ok=True)
        meta_path = path / "volume.json"
        if not meta_path.exists():
            _atomic_json(
                meta_path, {"store_version": STORE_VERSION, "name": name}
            )
        return cls(path, writer=writer)

    @classmethod
    def open(cls, path: str | Path, *, writer: bool = False) -> "GraphVolume":
        path = Path(path)
        if not (path / "volume.json").exists():
            raise StoreError(f"{path} is not a graph volume (no volume.json)")
        return cls(path, writer=writer)

    def _acquire_writer_lock(self) -> None:
        if fcntl is None:  # pragma: no cover - non-POSIX
            self._lock_file = True  # in-process guard only
            return
        f = open(self.path / _LOCK_FILE, "a+b")
        try:
            fcntl.flock(f.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            f.close()
            raise StoreError(
                f"{self.path}: volume is locked by another writer (a live "
                f"service, or a concurrent maintenance command); quiesce it "
                f"before compacting or repairing"
            ) from None
        self._lock_file = f

    @property
    def is_writer(self) -> bool:
        return self._lock_file is not None

    def _require_writer(self, what: str) -> None:
        if self._lock_file is None:
            raise StoreError(
                f"{self.path}: {what} requires the volume writer lock "
                f"(open with writer=True)"
            )

    def _read_volume_meta(self) -> dict:
        meta_path = self.path / "volume.json"
        if not meta_path.exists():
            raise StoreError(f"{self.path} is not a graph volume (no volume.json)")
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise StoreCorruptError(f"{meta_path}: invalid JSON: {exc}") from exc
        version = meta.get("store_version")
        if version != STORE_VERSION:
            raise StoreCorruptError(
                f"{meta_path}: store version {version!r} "
                f"(supported: {STORE_VERSION})"
            )
        return meta

    @property
    def name(self) -> str:
        return self._meta.get("name", self.path.name)

    def close(self) -> None:
        self.wal.close()
        if self._lock_file not in (None, True):
            if fcntl is not None:
                fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_UN)
            self._lock_file.close()
        self._lock_file = None

    # -- generations -------------------------------------------------------

    def _gen_dir(self, generation: int) -> Path:
        return self.path / "snapshots" / f"{_GEN_PREFIX}{generation:06d}"

    def generations(self) -> list[int]:
        """Committed generation numbers, ascending."""
        snap_root = self.path / "snapshots"
        found = []
        if snap_root.is_dir():
            for entry in snap_root.iterdir():
                if not entry.name.startswith(_GEN_PREFIX):
                    continue
                try:
                    gen = int(entry.name[len(_GEN_PREFIX):])
                except ValueError:
                    continue
                if (entry / "manifest.json").exists():
                    found.append(gen)
        return sorted(found)

    def latest_generation(self) -> int | None:
        gens = self.generations()
        return gens[-1] if gens else None

    def read_manifest(self, generation: int) -> dict:
        path = self._gen_dir(generation) / "manifest.json"
        try:
            manifest = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StoreError(
                f"{self.path}: no committed generation {generation}"
            ) from None
        except ValueError as exc:
            raise StoreCorruptError(f"{path}: invalid JSON: {exc}") from exc
        for key in ("n", "version", "labels"):
            if key not in manifest:
                raise StoreCorruptError(f"{path}: manifest missing {key!r}")
        return manifest

    # -- snapshot write ----------------------------------------------------

    def write_snapshot(
        self,
        graph: LabeledGraph,
        *,
        version: int,
        bit_labels=None,
        bit_density: float = BIT_SNAPSHOT_DENSITY,
        reset_wal: bool = True,
    ) -> int:
        """Persist ``graph`` as the next immutable generation.

        Every label gets a sparse CSR container; labels in
        ``bit_labels`` (or, when that is None, labels at or above
        ``bit_density``) additionally get a bit container for zero-copy
        warm starts.  The generation directory is assembled under a
        temporary name and renamed into place after fsync, then the WAL
        is reset (its deltas are folded into the snapshot).
        """
        self._require_writer("write_snapshot")
        latest = self.latest_generation() or 0
        generation = latest + 1
        final_dir = self._gen_dir(generation)
        tmp_dir = final_dir.with_name("." + final_dir.name + ".tmp")
        if tmp_dir.exists():
            shutil.rmtree(tmp_dir)
        tmp_dir.mkdir(parents=True)

        n = graph.n
        labels_meta = []
        for i, label in enumerate(sorted(graph.edges)):
            pairs = graph.edges.get(label, [])
            if pairs:
                arr = np.asarray(pairs, dtype=np.int64)
                rows, cols = arr[:, 0], arr[:, 1]
            else:
                rows = cols = np.empty(0, dtype=np.int64)
            csr = BoolCsr.from_coo(rows, cols, (n, n))
            density = csr.nnz / (n * n) if n else 0.0
            want_bit = (
                label in bit_labels
                if bit_labels is not None
                else density >= bit_density
            )
            stem = f"lab{i:03d}"
            dump_matrix(csr, tmp_dir / f"{stem}.csr.rpc")
            if want_bit:
                dump_matrix(
                    BitMatrix.from_coo(rows, cols, (n, n)),
                    tmp_dir / f"{stem}.bit.rpc",
                )
            labels_meta.append(
                {
                    "label": label,
                    "nnz": csr.nnz,
                    "density": density,
                    "sparse": f"{stem}.csr.rpc",
                    "bit": f"{stem}.bit.rpc" if want_bit else None,
                }
            )

        _atomic_json(
            tmp_dir / "manifest.json",
            {
                "name": self.name,
                "n": n,
                "version": version,
                "generation": generation,
                "labels": labels_meta,
            },
        )
        os.replace(tmp_dir, final_dir)
        fsync_dir(final_dir.parent)
        if reset_wal:
            self.wal.reset()
        return generation

    # -- load / recovery ---------------------------------------------------

    def load_snapshot(
        self, *, generation: int | None = None, mmap: bool = True
    ) -> RestoredGraph:
        """Reconstruct one committed snapshot generation — no WAL replay.

        The replica bootstrap path (:mod:`repro.cluster`): a follower
        loads the newest generation (or the specific ``generation`` the
        primary named in its handoff), then catches up past the
        snapshot version from the *shipped* WAL stream rather than the
        local log.  With ``mmap=True`` the untouched bit containers
        come back as read-only memmap paths, so N follower processes on
        one host share those pages through the page cache.
        """
        if generation is None:
            generation = self.latest_generation()
            if generation is None:
                raise StoreError(
                    f"{self.path}: volume has no committed snapshot"
                )
        manifest = self.read_manifest(generation)
        n = int(manifest["n"])
        snapshot_version = int(manifest["version"])
        gen_dir = self._gen_dir(generation)

        graph = LabeledGraph(n=n)
        bit_paths: dict[str, Path] = {}
        for entry in manifest["labels"]:
            label = entry["label"]
            sparse = load_matrix(gen_dir / entry["sparse"], mmap=False)
            if sparse.shape != (n, n):
                raise StoreCorruptError(
                    f"{gen_dir / entry['sparse']}: shape {sparse.shape} "
                    f"!= graph ({n}, {n})"
                )
            rows, cols = sparse.to_coo_arrays()
            graph.edges[label] = list(zip(rows.tolist(), cols.tolist()))
            if mmap and entry.get("bit"):
                bit_paths[label] = gen_dir / entry["bit"]
        return RestoredGraph(
            graph=graph,
            version=snapshot_version,
            generation=generation,
            bit_paths=bit_paths,
        )

    def load(self, *, mmap: bool = True) -> RestoredGraph:
        """Reconstruct the current graph state from disk.

        Latest committed snapshot + committed WAL suffix; torn WAL tails
        are truncated (crash recovery).  Deltas at or below the snapshot
        version are skipped — they were folded into the snapshot by a
        compaction whose log reset did not survive the crash.

        Torn-tail truncation is a write, so a reader instance replays
        with ``repair=False`` (the tail is ignored, not repaired).
        """
        state = self.load_snapshot(mmap=mmap)
        deltas, wal_version = self.wal.replay(repair=self.is_writer)
        live = [d for d in deltas if d.version > state.version]
        touched = apply_deltas(state.graph, live)
        for label in touched:
            state.bit_paths.pop(label, None)
        state.version = max(state.version, wal_version)
        state.deltas_applied = len(live)
        return state

    def handoff(self) -> dict | None:
        """Bootstrap coordinates for a joining read replica.

        The primary answers a follower's hello with this: the newest
        committed generation and its snapshot version.  A follower
        already at or past ``snapshot_version`` streams the WAL suffix;
        one behind it first reloads the named generation from the
        shared volume directory (the catch-up state machine in
        docs/CLUSTER.md).  ``None`` when nothing has been persisted
        yet — there is no state to replicate from.
        """
        generation = self.latest_generation()
        if generation is None:
            return None
        manifest = self.read_manifest(generation)
        return {
            "generation": generation,
            "snapshot_version": int(manifest["version"]),
            "n": int(manifest["n"]),
        }

    def current_version(self) -> int:
        """Last committed graph version (snapshot or WAL, whichever is
        newer); 0 for a volume with neither."""
        generation = self.latest_generation()
        snapshot_version = (
            int(self.read_manifest(generation)["version"]) if generation else 0
        )
        _, wal_version = self.wal.replay(repair=False)
        return max(snapshot_version, wal_version)

    # -- mutation ----------------------------------------------------------

    def append_delta(self, op: str, label: str, edges, *, version: int) -> None:
        """Durably log one committed edge batch (fsynced before return)."""
        self._require_writer("append_delta")
        self.wal.append(op, label, edges, version=version)

    def compact(
        self,
        *,
        bit_density: float = BIT_SNAPSHOT_DENSITY,
        retain: int | None = None,
    ) -> int:
        """Fold the WAL into a fresh snapshot generation and reset it.

        Labels keep a bit container if the previous snapshot had one or
        their density now clears ``bit_density``.  With ``retain=N``,
        generations older than the newest N are pruned afterwards
        (:meth:`prune_generations`); the default keeps all.
        """
        self._require_writer("compact")
        state = self.load(mmap=False)
        manifest = self.read_manifest(state.generation)
        prev_bit = {e["label"] for e in manifest["labels"] if e.get("bit")}
        n = state.graph.n
        dense_now = {
            label
            for label, pairs in state.graph.edges.items()
            if n and len(set(pairs)) / (n * n) >= bit_density
        }
        generation = self.write_snapshot(
            state.graph,
            version=state.version,
            bit_labels=prev_bit | dense_now,
        )
        if retain is not None:
            self.prune_generations(retain=retain)
        return generation

    def prune_generations(self, *, retain: int) -> list[int]:
        """Delete committed generations older than the newest ``retain``.

        Snapshot GC: every generation is a *full* dump (never a delta
        chain), so nothing — no newer generation, no WAL record — ever
        references a pruned one; recovery only needs the newest
        generation plus the log suffix.  ``retain`` must be >= 1: the
        newest generation is the recovery point and is never pruned.
        Returns the pruned generation numbers, ascending.
        """
        self._require_writer("prune_generations")
        if retain < 1:
            raise InvalidArgumentError("retain must be >= 1")
        gens = self.generations()
        doomed = gens[:-retain]
        for gen in doomed:
            gen_dir = self._gen_dir(gen)
            # Drop the commit marker first: a crash mid-removal leaves a
            # marker-less directory, which every reader already ignores
            # as an aborted write.
            marker = gen_dir / "manifest.json"
            marker.unlink(missing_ok=True)
            fsync_dir(gen_dir)
            shutil.rmtree(gen_dir)
            fsync_dir(gen_dir.parent)
        return doomed

    # -- introspection -----------------------------------------------------

    def info(self) -> dict:
        generation = self.latest_generation()
        deltas, wal_version = self.wal.replay(repair=False)
        out = {
            "name": self.name,
            "path": str(self.path),
            "generations": self.generations(),
            "generation": generation,
            "wal_bytes": self.wal.size(),
            "wal_deltas": len(deltas),
            "wal_version": wal_version,
        }
        if generation is not None:
            manifest = self.read_manifest(generation)
            out.update(
                n=int(manifest["n"]),
                snapshot_version=int(manifest["version"]),
                version=max(int(manifest["version"]), wal_version),
                labels={
                    e["label"]: {
                        "nnz": e["nnz"],
                        "density": e["density"],
                        "bit": bool(e.get("bit")),
                    }
                    for e in manifest["labels"]
                },
            )
        return out

    def verify(self) -> dict:
        """Full integrity sweep: every container of every committed
        generation, plus a non-repairing WAL replay.  Raises
        :class:`~repro.errors.StoreCorruptError` on the first failure;
        returns a summary on success."""
        containers = 0
        for generation in self.generations():
            manifest = self.read_manifest(generation)
            gen_dir = self._gen_dir(generation)
            for entry in manifest["labels"]:
                for key in ("sparse", "bit"):
                    if entry.get(key):
                        info = verify_container(gen_dir / entry[key])
                        if info["shape"] != (manifest["n"], manifest["n"]):
                            raise StoreCorruptError(
                                f"{gen_dir / entry[key]}: shape {info['shape']} "
                                f"!= graph ({manifest['n']}, {manifest['n']})"
                            )
                        containers += 1
        deltas, wal_version = self.wal.replay(repair=False)
        return {
            "name": self.name,
            "generations": len(self.generations()),
            "containers": containers,
            "wal_deltas": len(deltas),
            "wal_version": wal_version,
            "ok": True,
        }


def store_root_from_env(environ=None) -> Path | None:
    """The ``REPRO_STORE`` root, when configured and non-empty."""
    raw = (environ if environ is not None else os.environ).get(STORE_ENV, "")
    raw = raw.strip()
    return Path(raw) if raw else None


def volume_root(store_root: str | Path) -> Path:
    """Directory under which a store root keeps its graph volumes."""
    return Path(store_root) / "volumes"


def list_volumes(store_root: str | Path) -> list[GraphVolume]:
    """Every openable graph volume under ``store_root`` (sorted by name)."""
    root = volume_root(store_root)
    volumes = []
    if root.is_dir():
        for entry in sorted(root.iterdir()):
            if (entry / "volume.json").exists():
                volumes.append(GraphVolume.open(entry))
    return volumes


def container_summary(path: str | Path) -> dict:
    """CLI helper: :func:`container_info` re-exported at volume level."""
    return container_info(path)
