"""Benchmark-side spans around the public functions of each layer.

Nothing under ``src/`` knows about this module: a traced run patches
wrappers over the layer entry points listed in :data:`SPAN_TARGETS`,
records ``(name, thread, start, end, parent, request)`` per call in
memory, and writes a Chrome-trace file when the run ends.  Spans that
run on the service's own worker threads have no parent (the ticket
crosses a queue the benchmark cannot see into); spans inside the
program are ROADMAP item 2.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: span name -> "module:function" or "module:Class.method".  Several
#: targets may share one span name (they are then summed as one layer
#: entry, nested repeats of the same name counted once).
SPAN_TARGETS: tuple[tuple[str, str], ...] = (
    # core façade
    ("core.mxm", "repro.core.matrix:Matrix.mxm"),
    ("core.ewise_add", "repro.core.matrix:Matrix.ewise_add"),
    ("core.kron", "repro.core.matrix:Matrix.kron"),
    ("core.transpose", "repro.core.matrix:Matrix.transpose"),
    ("core.reduce", "repro.core.matrix:Matrix.reduce_to_vector"),
    ("core.extract", "repro.core.matrix:Matrix.extract_submatrix"),
    ("core.build", "repro.core.context:Context.matrix_from_lists"),
    ("core.read", "repro.core.matrix:Matrix.to_arrays"),
    # hybrid dispatcher
    ("hybrid.mxm", "repro.backends.hybrid:HybridBackend.mxm"),
    ("hybrid.ewise_add", "repro.backends.hybrid:HybridBackend.ewise_add"),
    ("hybrid.kron", "repro.backends.hybrid:HybridBackend.kron"),
    ("hybrid.kron", "repro.backends.hybrid:HybridBackend.kron_accumulate"),
    ("hybrid.transpose", "repro.backends.hybrid:HybridBackend.transpose"),
    ("hybrid.extract", "repro.backends.hybrid:HybridBackend.extract_submatrix"),
    # sparse backends and their raw SpGEMM kernels
    ("cubool.spgemm", "repro.backends.cubool.spgemm_hash:spgemm_boolean_csr"),
    ("cubool.mxm", "repro.backends.cubool.backend:CuBoolBackend.mxm"),
    ("cubool.ewise_add", "repro.backends.cubool.backend:CuBoolBackend.ewise_add"),
    ("cubool.kron", "repro.backends.cubool.backend:CuBoolBackend.kron"),
    ("clbool.spgemm", "repro.backends.clbool.spgemm_esc:spgemm_boolean_coo"),
    ("clbool.mxm", "repro.backends.clbool.backend:ClBoolBackend.mxm"),
    ("clbool.ewise_add", "repro.backends.clbool.backend:ClBoolBackend.ewise_add"),
    ("clbool.kron", "repro.backends.clbool.backend:ClBoolBackend.kron"),
    ("generic.mxm", "repro.backends.generic:GenericBackend.mxm"),
    ("generic.ewise_add", "repro.backends.generic:GenericBackend.ewise_add"),
    ("generic.kron", "repro.backends.generic:GenericBackend.kron"),
    # bit formats (kernels and conversions)
    ("formats.bit_mxm", "repro.formats.bitmatrix:BitMatrix.mxm_into"),
    ("formats.fr_mxm", "repro.formats.bitmatrix:BitMatrix.mxm_four_russians_into"),
    ("formats.bit_kron", "repro.formats.bitmatrix:BitMatrix.kron_into"),
    ("formats.bit_transpose", "repro.formats.bitmatrix:BitMatrix.transpose_into"),
    ("formats.pack", "repro.formats.bitmatrix:BitMatrix.from_coo"),
    ("formats.unpack", "repro.formats.bitmatrix:BitMatrix.to_coo_arrays"),
    ("formats.tiled_mxm", "repro.formats.tiled:TiledBitMatrix.mxm_into"),
    ("formats.tiled_kron", "repro.formats.tiled:TiledBitMatrix.kron_into"),
    ("formats.tile_wrap", "repro.formats.tiled:TiledBitMatrix.__init__"),
    # engines
    ("automata.compile", "repro.automata.regex_parse:parse_regex"),
    ("automata.compile", "repro.automata.glushkov:glushkov_nfa"),
    ("automata.compile", "repro.automata.dfa:determinize"),
    ("automata.compile", "repro.automata.dfa:minimize"),
    ("grammar.rsm_build", "repro.cfpq.engine:as_rsm"),
    ("grammar.rsm_build", "repro.grammar.rsm:RSM.from_cfg"),
    ("grammar.rsm_build", "repro.grammar.rsm:RSM.from_regex_rules"),
    ("grammar.rsm_build", "repro.grammar.cnf:to_wcnf"),
    ("rpq.index", "repro.rpq.engine:rpq_index"),
    ("rpq.reach", "repro.rpq.engine:rpq_reach_batch"),
    ("cfpq.tns", "repro.cfpq.tensor_algorithm:tensor_cfpq"),
    ("cfpq.mtx", "repro.cfpq.matrix_algorithm:matrix_cfpq"),
    ("algorithms.closure", "repro.algorithms.closure:transitive_closure"),
    ("algorithms.closure", "repro.algorithms.closure:incremental_transitive_closure"),
    ("algorithms.sssp", "repro.algorithms.shortest_paths:single_source_shortest_paths"),
    ("incr.engine", "repro.incr.engine:rpq_reach_incremental"),
    ("incr.engine", "repro.incr.engine:rpq_pairs_incremental"),
    ("incr.engine", "repro.incr.engine:tensor_cfpq_incremental"),
    # service, store, cluster
    ("service.reach", "repro.service.core:QueryService.reach"),
    ("service.pairs", "repro.service.core:QueryService.pairs"),
    ("service.cfpq", "repro.service.core:QueryService.cfpq"),
    ("service.distances", "repro.service.core:QueryService.distances"),
    ("service.apply_batch", "repro.service.core:QueryService.apply_batch"),
    ("service.plan", "repro.service.plan_cache:PlanCache.get"),
    ("store.persist", "repro.service.graph_store:GraphStore.persist"),
    ("store.restore", "repro.service.graph_store:GraphStore.restore_replica"),
    ("store.wal_append", "repro.store.wal:WriteAheadLog.append"),
    ("cluster.route", "repro.cluster.router:ReadRouter.route_reach"),
    ("cluster.route", "repro.cluster.router:ReadRouter.route_pairs"),
    ("cluster.route", "repro.cluster.router:ReadRouter.route_cfpq"),
)

#: Span record fields.
NAME, TID, START, END, PARENT, REQUEST = range(6)

#: Trace files keep at most this many spans (the longest ones win), so a
#: serve run's several hundred thousand kernel-level spans stay loadable.
TRACE_FILE_SPAN_LIMIT = 150_000


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id) -> None:
        """Tag this thread's following spans with ``request_id``."""
        self._local.request = request_id

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        stack = self._stack()
        rec = [
            name,
            threading.get_ident(),
            0.0,
            0.0,
            stack[-1] if stack else None,
            getattr(self._local, "request", None),
        ]
        stack.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets=SPAN_TARGETS) -> None:
        for name, path in targets:
            module_name, _, qualname = path.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self.wrap(name, raw.__func__))
                else:
                    wrapped = self.wrap(name, raw)
                setattr(owner, attr, wrapped)
                self._patched.append((owner, attr, raw))
                continue
            fn = getattr(module, attr)
            wrapped = self.wrap(name, fn)
            # ``from x import f`` copies the reference: patch every
            # module of the program and of this harness that holds it,
            # not just the defining one.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith(("repro", "benchmarks.layered")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
                        self._patched.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- analysis ------------------------------------------------------------

    def per_window_totals(self, windows: list[tuple[float, float]]) -> list[dict]:
        """For each ``(start, end)`` window: span name -> ``{"ms", "self_ms",
        "calls"}`` over the spans that *started* inside it.

        ``ms`` is inclusive time with same-name nesting counted once;
        ``self_ms`` subtracts the time covered by child spans.
        """
        starts = [w[0] for w in windows]
        out = [defaultdict(lambda: {"ms": 0.0, "self_ms": 0.0, "calls": 0}) for _ in windows]
        child_time: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            parent = rec[PARENT]
            if parent is not None:
                child_time[id(parent)] += rec[END] - rec[START]
        for rec in self.spans:
            slot = bisect.bisect_right(starts, rec[START]) - 1
            if slot < 0 or rec[START] >= windows[slot][1]:
                continue
            cell = out[slot][rec[NAME]]
            duration = rec[END] - rec[START]
            cell["calls"] += 1
            cell["self_ms"] += (duration - child_time.get(id(rec), 0.0)) * 1e3
            if not _has_ancestor(rec, rec[NAME]):
                cell["ms"] += duration * 1e3
        return [dict(d) for d in out]

    def count_nested(self, name: str, ancestor: str, windows) -> list[int]:
        """Per window: spans called ``name`` with an ``ancestor`` span above."""
        starts = [w[0] for w in windows]
        counts = [0] * len(windows)
        for rec in self.spans:
            if rec[NAME] != name or not _has_ancestor(rec, ancestor):
                continue
            slot = bisect.bisect_right(starts, rec[START]) - 1
            if slot >= 0 and rec[START] < windows[slot][1]:
                counts[slot] += 1
        return counts

    # -- export --------------------------------------------------------------

    def write_chrome_trace(self, path, *, workload: str, meta: dict | None = None) -> int:
        """Write the spans as Chrome/Perfetto complete events; returns
        how many were written."""
        spans = self.spans
        if len(spans) > TRACE_FILE_SPAN_LIMIT:
            spans = sorted(spans, key=lambda r: r[END] - r[START], reverse=True)
            spans = spans[:TRACE_FILE_SPAN_LIMIT]
        ids = {id(rec): i for i, rec in enumerate(spans)}
        tids: dict[int, int] = {}
        pid = os.getpid()
        events = [
            {"name": "process_name", "ph": "M", "pid": pid,
             "args": {"name": f"benchmarks.layered:{workload}"}},
        ]
        for rec in sorted(spans, key=lambda r: r[START]):
            tid = tids.setdefault(rec[TID], len(tids) + 1)
            args = {"id": ids[id(rec)]}
            if rec[PARENT] is not None and id(rec[PARENT]) in ids:
                args["parent"] = ids[id(rec[PARENT])]
            if rec[REQUEST] is not None:
                args["request"] = rec[REQUEST]
            events.append(
                {
                    "name": rec[NAME],
                    "cat": rec[NAME].split(".", 1)[0],
                    "ph": "X",
                    "ts": round((rec[START] - self.origin) * 1e6, 3),
                    "dur": round((rec[END] - rec[START]) * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"workload": workload, "spans_recorded": len(self.spans),
                          **(meta or {})},
        }
        with open(path, "w") as f:
            json.dump(doc, f)
        return len(spans)


def _has_ancestor(rec, name: str) -> bool:
    parent = rec[PARENT]
    while parent is not None:
        if parent[NAME] == name:
            return True
        parent = parent[PARENT]
    return False
