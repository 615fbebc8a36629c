"""The two serving workloads: ``serve_read`` and ``serve_mutate``.

Both drive one stack — ``QueryService`` primary + ``ClusterPrimary`` +
one in-process ``ClusterFollower`` + ``ReadRouter`` — from two client
threads in a closed loop (each waits for its reply before sending the
next request).
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from collections import deque
from pathlib import Path

import numpy as np

import repro
from repro.cfpq import cfpq
from repro.cluster import ClusterFollower, ClusterPrimary, ReadRouter
from repro.datasets.queries_cfpq import query_ma_cfg
from repro.errors import SpblaError
from repro.graph import LabeledGraph
from repro.rpq import rpq_pairs, rpq_reach
from repro.service import QueryService

from . import inputs, probes
from .common import OUT_DIR, bool_closure
from .workload import Recorder, Workload

#: Every n-th read of a client is kept and checked after the timed loop.
VERIFY_EVERY = 20
#: All-pairs and CFPQ answers densify: such graphs stay this small.
ALL_PAIRS_MAX_N = 1024


def _copy_graph(graph: LabeledGraph) -> LabeledGraph:
    return LabeledGraph(n=graph.n, edges={k: list(v) for k, v in graph.edges.items()})


def _wait_for(predicate, *, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.002)
    return bool(predicate())


def _hop_distances(graph: LabeledGraph, source: int) -> set:
    """Unit-weight shortest distances by breadth-first search."""
    succ: dict[int, list[int]] = {}
    for pairs in graph.edges.values():
        for u, v in pairs:
            succ.setdefault(u, []).append(v)
    dist = {source: 0.0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in succ.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1.0
                queue.append(v)
    return set(dist.items())


class _ServeWorkload(Workload):
    CLIENTS = 2
    concurrent = True

    def __init__(self, seed, *, smoke=False):
        super().__init__(seed, smoke=smoke)
        self.svc = self.primary = self.router = self.follower = self.root = None

    def start_stack(self, graphs: dict) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="store-", dir=OUT_DIR))
        self.svc = QueryService(workers=2, hybrid="auto", store_root=self.root)
        for name, graph in graphs.items():
            if name != "lubm" and graph.n > ALL_PAIRS_MAX_N:
                raise ValueError(f"{name}: all-pairs graph n={graph.n} > {ALL_PAIRS_MAX_N}")
            self.svc.register_graph(name, _copy_graph(graph))
            self.svc.persist_graph(name)
        self.primary = ClusterPrimary(self.svc, heartbeat=0.2).start()
        self.router = ReadRouter(self.svc, self.primary, max_staleness=8)
        self.svc.attach_router(self.router)
        self.follower = self.start_follower()
        names = list(graphs)
        ready = _wait_for(
            lambda: any(
                all(f["acked"].get(n, -1) >= 0 for n in names)
                for f in self.primary.followers()
            )
        )
        if not ready:
            raise RuntimeError("follower did not bootstrap within 30 s")

    def start_follower(self) -> ClusterFollower:
        return ClusterFollower(
            self.root, self.primary.address, workers=2, heartbeat=0.2, hybrid="auto"
        ).start()

    def close(self):
        if self.follower is not None:
            self.follower.close()
        if self.svc is not None:
            self.svc.detach_router()
        if self.router is not None:
            self.router.close()
        if self.primary is not None:
            self.primary.close()
        if self.svc is not None:
            self.svc.close()
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
        self.svc = self.primary = self.router = self.follower = self.root = None

    def contexts(self):
        return [self.svc.ctx, self.follower.service.ctx]

    def services(self):
        return [self.svc, self.follower.service]

    def layer_counters(self):
        volumes = self.root / "volumes"
        return {
            "store.snapshot_bytes": sum(
                f.stat().st_size
                for f in volumes.rglob("*")
                if f.is_file() and f.name != "wal.log"
            )
        }

    def run_clients(self, bodies, rec: Recorder, serial: bool = False) -> None:
        """Run one callable per client thread, each with its own recorder,
        and merge what they collected.  ``serial``: one client after the
        other instead of side by side."""
        locals_ = [Recorder() for _ in bodies]
        errors: list[BaseException] = []

        def guard(body, local):
            try:
                body(local)
            except BaseException as exc:  # reprolint: disable=R4
                errors.append(exc)  # re-raised on the calling thread below

        threads = [
            threading.Thread(target=guard, args=(b, l), name=f"bench-client-{i}")
            for i, (b, l) in enumerate(zip(bodies, locals_))
        ]
        for t in threads:
            t.start()
            if serial:
                t.join()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        for local in locals_:
            rec.ops.extend(local.ops)
            rec.mutate.extend(local.mutate)
            rec.fresh.extend(local.fresh)
            rec.kept.extend(local.kept)
            rec.attempted += local.attempted
            rec.failed += local.failed
            rec.notes.extend(local.notes)

    def read(self, rec: Recorder, tag: str, call, keep=None):
        """One client read: latency under ``tag``; a taxonomy error,
        refusal or timeout is a failure and records no latency."""
        rec.attempted += 1
        t0 = time.perf_counter()
        try:
            answer = call()
        except SpblaError as exc:
            rec.fail(f"{tag}: {type(exc).__name__}: {exc}")
            return None
        rec.ops.append((tag, time.perf_counter() - t0))
        if keep is not None:
            rec.kept.append((*keep, answer))
        return answer


# ---------------------------------------------------------------------------
# serve_read
# ---------------------------------------------------------------------------


class ServeRead(_ServeWorkload):
    name = "serve_read"
    PASSES = 6
    quiet_writes = True
    serial_arena = True
    #: Requests of each class one client sends per pass (102 in all; 70 %
    #: routed reach, 10 % primary reach, 10 % distances, 5 % pairs, 5 % cfpq;
    #: two thirds of the reach and distance requests repeat a hot key).
    ROUTED_HOT, ROUTED_COLD = 48, 24
    PRIMARY_HOT, PRIMARY_COLD = 6, 4
    DIST_HOT, DIST_COLD = 7, 3
    PAIRS, CFPQ = 5, 5
    HOT_ROUTED_KEYS, HOT_PRIMARY_KEYS, HOT_DIST_KEYS = 16, 2, 2
    PAIR_QUERIES = ("a . b", "b . a", "a . b . a")
    #: Publish cycles one caller runs after each pass.
    PUBLISH_CYCLES = 8
    #: First question asked of a published graph: several frontier rounds
    #: from every source, so the eight cycles of a round cost alike.
    PUBLISH_QUERY = "(a | b)+"
    #: Sources at the tail of client 0's cold stream that no pass may
    #: request (``probes.query_ladder`` asks them).
    LADDER_SOURCES = 12

    def build(self):
        if self.smoke:
            self.ROUTED_HOT, self.ROUTED_COLD = 24, 8
            self.PRIMARY_HOT, self.PRIMARY_COLD = 4, 2
            self.DIST_HOT, self.DIST_COLD = 4, 2
            self.PAIRS, self.CFPQ = 3, 2
            self.HOT_ROUTED_KEYS, self.HOT_PRIMARY_KEYS, self.HOT_DIST_KEYS = 8, 2, 2
            self.PUBLISH_CYCLES = 2
        self.lubm, self.queries, students = inputs.lubm_inputs(self.seed)
        self.block = inputs.community_graph(512, 8, 0.05, ("a", "b"), self.seed)
        self.alias = inputs.alias_graph(self.seed, 0.01)
        self.ma_text = query_ma_cfg().to_text()
        self.publish = inputs.community_graph(256, 4, 0.05, ("a", "b"), self.seed)
        #: First-answer sources on the published graph, by structural id.
        self.publish_sources = inputs.community_placement(256, 4, self.seed).tolist()
        if self.smoke:
            self.queries = self.queries[:2]
        # Sources are named structurally (the seed only relabels them), so
        # every seed asks for the same work.
        students = students.tolist()
        vertices = inputs.community_placement(512, 8, self.seed).tolist()
        nq = len(self.queries)
        self.hot, self.cold = [], []
        hot_per_client = self.HOT_ROUTED_KEYS + self.HOT_PRIMARY_KEYS
        cold_start = hot_per_client * self.CLIENTS
        for c in range(self.CLIENTS):
            mine = students[c * hot_per_client : (c + 1) * hot_per_client]
            self.hot.append(
                {
                    "routed": [(self.queries[i % nq], s) for i, s in
                               enumerate(mine[: self.HOT_ROUTED_KEYS])],
                    "primary": [(self.queries[i % nq], s) for i, s in
                                enumerate(mine[self.HOT_ROUTED_KEYS :])],
                    "dist": vertices[c * self.HOT_DIST_KEYS : (c + 1) * self.HOT_DIST_KEYS],
                }
            )
            self.cold.append(
                {
                    "reach": students[cold_start + c :: self.CLIENTS],
                    "dist": vertices[self.HOT_DIST_KEYS * self.CLIENTS + c :: self.CLIENTS],
                }
            )
        # Every pass asks for keys no earlier pass has used; the timed loop
        # ends when the shorter cold stream is spent (slot 0 is the warm-up).
        reach_cold = self.ROUTED_COLD + self.PRIMARY_COLD
        self.max_passes = min(
            (min(len(c["reach"]) for c in self.cold) - self.LADDER_SOURCES) // reach_cold,
            min(len(c["dist"]) for c in self.cold) // self.DIST_COLD,
        ) - 1
        self.start_stack({"lubm": self.lubm, "block": self.block, "alias": self.alias})

    def script(self, client: int, k: int) -> list[tuple]:
        """Requests of ``client`` in pass ``k`` as ``(tag, kind, query,
        source, route)``; fixed composition and order (the seed only
        relabels the sources), and cold keys no earlier pass has used."""
        hot, cold = self.hot[client], self.cold[client]
        nq = len(self.queries)
        slot = k + 1  # the warm-up pass is k = -1
        reach_cold = self.ROUTED_COLD + self.PRIMARY_COLD
        sources = cold["reach"][slot * reach_cold : (slot + 1) * reach_cold]
        dists = cold["dist"][slot * self.DIST_COLD : (slot + 1) * self.DIST_COLD]
        if not -1 <= k < self.max_passes:
            raise ValueError(f"pass {k}: the cold keys last for {self.max_passes} passes")
        out = []
        counts = inputs.zipf_counts(self.ROUTED_HOT, len(hot["routed"]))
        for (query, source), n in zip(hot["routed"], counts):
            out += [("reach.routed.hit", "reach", query, source, "auto")] * n
        for i, source in enumerate(sources[: self.ROUTED_COLD]):
            out.append(("reach.routed.miss", "reach", self.queries[i % nq], source, "auto"))
        # Four primary misses a pass: the templates alternate between passes.
        shift = (slot * self.PRIMARY_COLD) % nq
        counts = inputs.zipf_counts(self.PRIMARY_HOT, len(hot["primary"]))
        for (query, source), n in zip(hot["primary"], counts):
            out += [("reach.primary.hit", "reach", query, source, "primary")] * n
        for i, source in enumerate(sources[self.ROUTED_COLD :]):
            out.append(
                ("reach.primary.miss", "reach", self.queries[(shift + i) % nq], source, "primary")
            )
        counts = inputs.zipf_counts(self.DIST_HOT, len(hot["dist"]))
        for source, n in zip(hot["dist"], counts):
            out += [("dist.primary.hit", "dist", None, source, "primary")] * n
        for source in dists:
            out.append(("dist.primary.miss", "dist", None, source, "primary"))
        for i in range(self.PAIRS):
            query = self.PAIR_QUERIES[i % len(self.PAIR_QUERIES)]
            out.append(("pairs.routed.hit", "pairs", query, None, "auto"))
        out += [("cfpq.routed.hit", "cfpq", self.ma_text, None, "auto")] * self.CFPQ
        order = np.random.default_rng([inputs.STRUCTURE_SEED, client, slot]).permutation(len(out))
        return [out[i] for i in order]

    def call(self, kind, query, source, route):
        svc = self.svc
        if kind == "reach":
            return svc.reach("lubm", query, source=source, route=route)
        if kind == "dist":
            return svc.distances("block", source=source)
        if kind == "pairs":
            return svc.pairs("block", query, route=route)
        return svc.cfpq("alias", query, route=route)

    def run_pass(self, k, rec, serial=False):
        tracer = self.tracer

        def client(c):
            def body(local):
                for i, (tag, kind, query, source, route) in enumerate(self.script(c, k)):
                    if tracer is not None and tracer.enabled:
                        tracer.set_request(f"c{c}.p{k}.{i}")
                    keep = (kind, query, source) if i % VERIFY_EVERY == 0 else None
                    self.read(
                        local, tag, lambda: self.call(kind, query, source, route), keep
                    )
            return body

        self.run_clients([client(c) for c in range(self.CLIENTS)], rec, serial)

    def warm(self):
        """Every hot key once, so the timed passes start with the result
        caches of primary and follower filled."""
        def client(c):
            def body(local):
                seen = set()
                for tag, kind, query, source, route in self.script(c, -1):
                    if tag.endswith(".hit") and (kind, query, source) not in seen:
                        seen.add((kind, query, source))
                        self.read(local, tag, lambda: self.call(kind, query, source, route))
            return body

        self.run_clients([client(c) for c in range(self.CLIENTS)], Recorder())

    def between_passes(self, k, rec):
        """One round of publish cycles: a read-only deployment's only write
        is a new graph.  ``mutate`` = ``register_graph``; ``fresh`` = first
        answer on it.  One caller, clients idle, outside ``qps`` and the read
        latencies; a round after every pass, so the rounds meet the same
        phases of the host as the passes do."""
        for i in range(self.PUBLISH_CYCLES):
            name = f"published-{k}-{i}"
            rec.attempted += 2
            t0 = time.perf_counter()
            try:
                self.svc.register_graph(name, _copy_graph(self.publish))
                t1 = time.perf_counter()
                self.svc.reach(
                    name, self.PUBLISH_QUERY, source=self.publish_sources[i],
                    route="primary",
                )
                t2 = time.perf_counter()
                self.svc.drop_graph(name)
            except SpblaError as exc:
                rec.fail(f"publish {name}: {type(exc).__name__}: {exc}")
                continue
            rec.mutate.append(t1 - t0)
            rec.fresh.append(t2 - t1)

    def verify(self, rec):
        cache: dict = {}
        ma_cfg = query_ma_cfg()
        with repro.Context(backend="cubool", hybrid=False) as ctx:
            adjacency = self.lubm.adjacency_matrices(ctx)
            for kind, query, source, answer in rec.kept:
                key = (kind, query, source)
                if key not in cache:
                    if kind == "reach":
                        cache[key] = rpq_reach(
                            self.lubm, query, source, ctx, adjacency=adjacency
                        )
                    elif kind == "dist":
                        cache[key] = _hop_distances(self.block, source)
                    elif kind == "pairs":
                        cache[key] = rpq_pairs(self.block, query, ctx)
                    else:
                        index = cfpq(self.alias, ma_cfg, ctx, engine="tns")
                        cache[key] = index.pairs()
                        index.free()
                if answer is None or set(answer) != cache[key]:
                    rec.fail(f"{kind} {query!r} source={source}: wrong answer")
        return len(rec.kept)

    def probes(self):
        return probes.query_ladder(self)


# ---------------------------------------------------------------------------
# serve_mutate
# ---------------------------------------------------------------------------


class ServeMutate(_ServeWorkload):
    name = "serve_mutate"
    PASSES = 8
    QUERY = "(a | b)+"
    #: Edges per write in one pass (1-8, in a fixed shuffled order); the
    #: last write of a pass is the 10 % remove.
    BATCH_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 3, 6)
    #: Eight communities of 64 connected vertices (mean degree 2.6, so
    #: each closure is a stable four fifths of its block) among n = 1024;
    #: the other half of the vertices stay isolated.  With all 128
    #: vertices of a community connected every all-pairs answer holds
    #: 105 k tuples and the result cache grows 20 MB per write.
    N, BLOCKS, ACTIVE, DENSITY = 1024, 8, 64, 0.04

    def build(self):
        n = 256 if self.smoke else self.N
        self.n = n
        self.active = self.ACTIVE * n // self.N
        self.base = inputs.community_graph(
            n, self.BLOCKS, self.DENSITY * self.N / n, ("a", "b"), self.seed,
            active=self.active,
        )
        #: Structural vertex -> label.  Writes and reads are drawn in
        #: structural ids with a fixed generator, so every seed applies
        #: the same edits to the same structure under different labels.
        self.place = inputs.community_placement(n, self.BLOCKS, self.seed, self.active)
        structural = {int(label): i for i, label in enumerate(self.place)}
        #: Host-side replay state in structural ids: label -> edge set.
        self.host = {
            label: {(structural[u], structural[v]) for u, v in pairs}
            for label, pairs in self.base.edges.items()
        }
        self.log: list[tuple[int, str, str, list]] = []
        self.acked = 0
        self.cycle = 0
        self.start_stack({"block": self.base})

    def _write(self, rng, i: int, size: int):
        """The ``i``-th write of a pass as ``(op, label, structural edges)``."""
        label = ("a", "b")[i % 2]
        if i == len(self.BATCH_SIZES) - 1:
            pool = sorted(self.host[label])
            picks = rng.choice(len(pool), size=size, replace=False)
            return "remove", label, [pool[j] for j in picks]
        base = int(rng.integers(0, self.BLOCKS)) * self.active
        edges = zip(
            (base + rng.integers(0, self.active, size)).tolist(),
            (base + rng.integers(0, self.active, size)).tolist(),
        )
        return "add", label, list(edges)

    def run_pass(self, k, rec):
        slot = k + 1
        done = threading.Event()
        tracer = self.tracer

        def writer(local):
            rng = np.random.default_rng([inputs.STRUCTURE_SEED, 1, slot])
            sizes = rng.permutation(self.BATCH_SIZES).tolist()
            try:
                for i, size in enumerate(sizes):
                    op, label, structural = self._write(rng, i, size)
                    edges = [
                        (int(self.place[u]), int(self.place[v])) for u, v in structural
                    ]
                    local.attempted += 1
                    t0 = time.perf_counter()
                    version = self.svc.apply_batch("block", [(op, label, edges)])
                    t1 = time.perf_counter()
                    self.acked = version
                    if op == "add":
                        self.host[label].update(structural)
                    else:
                        self.host[label].difference_update(structural)
                    self.log.append((version, op, label, edges))
                    self.cycle += 1
                    keep = ("pairs", version) if self.cycle % VERIFY_EVERY == 1 else None
                    got = self.read(
                        local,
                        "pairs.fresh",
                        lambda: self.svc.pairs(
                            "block", self.QUERY, min_version=version, route="primary"
                        ),
                        keep,
                    )
                    if got is not None:
                        local.mutate.append(t1 - t0)
                        local.fresh.append(time.perf_counter() - t1)
            finally:
                done.set()

        def reader(local):
            rng = np.random.default_rng([inputs.STRUCTURE_SEED, 2, slot])
            i = 0
            while not done.is_set():
                source = int(self.place[rng.integers(0, self.place.size)])
                if tracer is not None and tracer.enabled:
                    tracer.set_request(f"r.p{k}.{i}")
                pinned = i % 10 == 9
                low = self.acked
                floor = low if pinned else max(0, low - self.router.max_staleness)
                answer = self.read(
                    local,
                    "reach.pinned" if pinned else "reach.stale",
                    lambda: self.svc.reach(
                        "block", self.QUERY, source=source,
                        min_version=low if pinned else None,
                    ),
                )
                if answer is not None and i % VERIFY_EVERY == 0:
                    # The writer may have one more version in flight.
                    local.kept.append(("reach", source, floor, self.acked + 1, answer))
                i += 1

        self.run_clients([writer, reader], rec)

    def _closure_at(self, version: int, cache: dict) -> np.ndarray:
        """Dense closure of the union graph replayed to ``version`` — for
        ``(a | b)+`` that is the whole answer, computed without the library."""
        if version not in cache:
            edges = {label: set(pairs) for label, pairs in self.base.edges.items()}
            for v, op, label, batch in self.log:
                if v > version:
                    break
                if op == "add":
                    edges[label].update(batch)
                else:
                    edges[label].difference_update(batch)
            dense = np.zeros((self.n, self.n), dtype=bool)
            for pairs in edges.values():
                if pairs:
                    arr = np.asarray(sorted(pairs))
                    dense[arr[:, 0], arr[:, 1]] = True
            cache[version] = bool_closure(dense)
        return cache[version]

    def verify(self, rec):
        closures: dict = {}
        top = self.log[-1][0] if self.log else 0
        for sample in rec.kept:
            if sample[0] == "pairs":
                _, version, answer = sample
                want = self._closure_at(version, closures)
                if answer != set(zip(*(x.tolist() for x in np.nonzero(want)))):
                    rec.fail(f"pairs at version {version}: wrong answer")
                continue
            _, source, low, high, answer = sample
            # Bounded staleness: right at *some* version in the window.
            for version in range(min(high, top), low - 1, -1):
                want = self._closure_at(version, closures)[source]
                if answer == set(np.nonzero(want)[0].tolist()):
                    break
            else:
                rec.fail(f"reach source={source}: no version in [{low}, {high}] matches")
        if len(closures) and max(int(c.sum()) for c in closures.values()) > 64 * 1024:
            rec.fail("all-pairs answer exceeds the 64 Ki pair size guard")
        return len(rec.kept)

    def layer_counters(self):
        out = super().layer_counters()
        out["store.wal_bytes"] = self.svc.graphs.get("block").volume.wal.size()
        out["store.wal_edges"] = sum(len(entry[3]) for entry in self.log)
        return out

    def probes(self):
        out = probes.incremental_closure(self)
        out.update(probes.replication(self))
        return out
