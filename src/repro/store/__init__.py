"""repro.store — memory-mapped persistent graph storage.

On-disk layer for the service tier: stable little-endian containers for
every matrix format (:mod:`repro.store.container`), per-graph volumes
with immutable snapshot generations and a CRC-framed edge-delta WAL
(:mod:`repro.store.volume`, :mod:`repro.store.wal`).  ``python -m
repro store {ls,info,compact,verify}`` is the operator surface; full
design notes in ``docs/STORAGE.md``.
"""

from repro.store.container import (
    CONTAINER_SUFFIX,
    container_info,
    dump_matrix,
    load_matrix,
    verify_container,
)
from repro.store.volume import (
    BIT_SNAPSHOT_DENSITY,
    STORE_ENV,
    GraphVolume,
    RestoredGraph,
    apply_deltas,
    list_volumes,
    store_root_from_env,
    volume_root,
)
from repro.store.wal import EdgeDelta, WriteAheadLog

__all__ = [
    "BIT_SNAPSHOT_DENSITY",
    "CONTAINER_SUFFIX",
    "EdgeDelta",
    "GraphVolume",
    "RestoredGraph",
    "STORE_ENV",
    "WriteAheadLog",
    "apply_deltas",
    "container_info",
    "dump_matrix",
    "list_volumes",
    "load_matrix",
    "store_root_from_env",
    "verify_container",
    "volume_root",
]
