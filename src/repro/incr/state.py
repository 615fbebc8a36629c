"""Host key-array fixed-point state: what a warm restart needs to remember.

A fixed point is a device matrix; caching it *as* a device matrix would
pin arena memory for answers that may never be asked again.  Instead the
engines snapshot the coordinate pattern to host memory in the device
formats' own layout — :class:`FixpointState` is a named bag of sorted
uint64 ``row << 32 | col`` key arrays (:mod:`repro.utils.arrays`), one
per component, plus the metadata needed to validate that a later query
is allowed to resume from it (same engine, same automaton/grammar
geometry, same graph size).  A component may share its array with the
answer it was read out with (the tensor engine's fact keys are its
``cfpq`` answer), so a cached answer and its state cost one copy.

States ride inside the service's
:class:`~repro.service.result_cache.ResultCache` next to the immutable
answer, so LRU eviction bounds their memory and a graph drop /
re-register invalidates them with the answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.utils.arrays import coo_from_keys, keys_from_coo, sort_unique_keys


def matrix_keys(matrix):
    """Snapshot a device matrix's pattern to sorted host keys."""
    return sort_unique_keys(keys_from_coo(*matrix.to_arrays()))


@dataclass(frozen=True)
class FixpointState:
    """One engine's resumable fixed point, in host memory.

    ``kind`` names the producing engine (``"closure"``, ``"reach"``,
    ``"tensor"``, ``"matrix-cfpq"``); ``shape`` is the device shape of
    the primary matrix; ``keys`` maps component name → sorted uint64
    key array; ``meta`` carries the geometry checks (``n``, automaton
    state count, ...).  Instances are immutable — a state is a snapshot
    of one version, never edited in place.
    """

    kind: str
    shape: tuple[int, int]
    keys: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def nnz(self, name: str) -> int:
        return int(self.keys[name].size) if name in self.keys else 0

    def matrix(self, ctx, name: str, shape: tuple[int, int] | None = None):
        """Rebuild component ``name`` as a device matrix on ``ctx``."""
        return ctx.matrix_from_lists(shape or self.shape, *coo_from_keys(self.keys[name]))

    def compatible(self, kind: str, shape: tuple[int, int], **meta) -> bool:
        """May an engine of ``kind``/``shape`` resume from this state?

        Geometry must match exactly: a plan-cache recompile yields the
        same automaton, but a graph re-register with a different vertex
        count (new handle, same name) must never warm-start — the extra
        ``meta`` items (``n``, ``k``...) pin that down.
        """
        if self.kind != kind or tuple(self.shape) != tuple(shape):
            return False
        return all(self.meta.get(key) == value for key, value in meta.items())
