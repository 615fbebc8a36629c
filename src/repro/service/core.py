"""`QueryService` — the in-process concurrent boolean query server.

Ties the service tier together: a :class:`~repro.service.graph_store.
GraphStore` of resident graphs, a :class:`~repro.service.plan_cache.
PlanCache` of compiled queries, and a :class:`~repro.service.scheduler.
QueryScheduler` that batches and evaluates under deadlines — all over
one shared :class:`~repro.core.context.Context` whose backends and
device arena are thread-safe.

Typical use::

    import repro.service as svc

    with svc.QueryService(workers=4) as service:
        service.register_graph("social", graph, residency="auto")
        t1 = service.submit_reach("social", "follows+", source=42)
        t2 = service.submit_reach("social", "follows+", source=7)
        print(t1.result(), t2.result())      # one shared fixpoint
        print(service.stats().render())

Synchronous convenience wrappers (:meth:`QueryService.reach`,
:meth:`QueryService.pairs`, :meth:`QueryService.cfpq`) submit and wait.
"""

from __future__ import annotations

from repro.errors import InvalidArgumentError
from repro.graph import LabeledGraph
from repro.service.graph_store import GraphStore
from repro.service.kinds import CFPQ, DIST, PAIRS, REACH, get_kind
from repro.service.plan_cache import PlanCache, dist_query
from repro.service.result_cache import ResultCache
from repro.service.scheduler import QueryScheduler, QueryTicket
from repro.service.stats import ServiceStats, StatsSnapshot
from repro.utils.pairset import PairSet


class QueryService:
    """Concurrent RPQ/CFPQ query server over a shared context.

    Parameters
    ----------
    ctx:
        Library context to execute on.  ``None`` creates one from
        ``backend``/``hybrid`` (and then owns it: :meth:`close`
        finalizes it).
    backend / hybrid:
        Passed to :class:`~repro.core.context.Context` when ``ctx`` is
        None.  ``hybrid`` defaults to ``None`` — defer to the
        ``REPRO_HYBRID`` env var, so deployments (and CI) pick the
        dispatch policy without code changes; pass ``"auto"`` to force
        adaptive dispatch on.
    workers:
        Worker threads.  ``0`` is allowed (admission-only; useful for
        tests and manual draining).
    queue_limit / max_batch / plan_capacity:
        Admission-queue bound, batching window, and plan-cache size.
    result_capacity:
        Cross-request result cache size (entries); ``0`` disables it.
        Exact repeats of a (graph version, plan, source) triple are
        answered from memory without re-running the fixpoint.
    store_root:
        Directory of the persistent graph store (:mod:`repro.store`).
        Defaults to the ``REPRO_STORE`` environment variable; when set,
        :meth:`persist_graph` / :meth:`restore_graph` /
        :meth:`restore_all` round-trip named graphs to disk and edge
        mutations are WAL-logged.
    """

    def __init__(
        self,
        ctx=None,
        *,
        backend: str = "cubool",
        hybrid: bool | str | None = None,
        workers: int = 2,
        queue_limit: int = 64,
        max_batch: int = 8,
        plan_capacity: int = 128,
        result_capacity: int = 256,
        store_root=None,
    ):
        if ctx is None:
            from repro.core.context import Context

            ctx = Context(backend=backend, hybrid=hybrid)
            self._owns_ctx = True
        else:
            self._owns_ctx = False
        if store_root is None:
            from repro.store.volume import store_root_from_env

            store_root = store_root_from_env()
        self.ctx = ctx
        self.graphs = GraphStore(ctx, store_root=store_root)
        self.plans = PlanCache(plan_capacity)
        self.results = (
            ResultCache(result_capacity) if result_capacity else None
        )
        self.service_stats = ServiceStats()
        self.scheduler = QueryScheduler(
            ctx,
            self.graphs,
            self.plans,
            self.service_stats,
            workers=workers,
            queue_limit=queue_limit,
            max_batch=max_batch,
            results=self.results,
        )
        self._router = None
        self._closed = False

    # -- replication (repro.cluster) ---------------------------------------

    def attach_router(self, router) -> None:
        """Attach a cluster :class:`~repro.cluster.ReadRouter`.

        The sync read surface (:meth:`reach` / :meth:`pairs` /
        :meth:`cfpq`) then routes each query by freshness requirement
        across the primary's followers, and :meth:`stats` grows a
        ``replication`` section with per-replica applied versions and
        lag.  The async ``submit_*`` surface always executes locally.
        Assigned once during primary start-up, before traffic.
        """
        self._router = router

    def detach_router(self):
        """Detach (and return) the attached router, if any."""
        router, self._router = self._router, None
        return router

    # -- graph management --------------------------------------------------

    def register_graph(
        self, name: str, graph: LabeledGraph, *, residency: str = "auto"
    ):
        """Register (or replace) a named graph; see :class:`GraphStore`."""
        if self.results is not None:
            self.results.invalidate_graph(name)
        return self.graphs.register(name, graph, residency=residency)

    def drop_graph(self, name: str) -> None:
        if self.results is not None:
            self.results.invalidate_graph(name)
        self.graphs.drop(name)

    # -- persistence (repro.store) ----------------------------------------

    def persist_graph(self, name: str) -> int:
        """Snapshot a registered graph to its on-disk volume."""
        return self.graphs.persist(name)

    def restore_graph(
        self, name: str, *, residency: str = "auto", mmap: bool = True
    ):
        """Warm-start a graph from disk (snapshot + WAL replay)."""
        if self.results is not None:
            self.results.invalidate_graph(name)
        return self.graphs.restore(name, residency=residency, mmap=mmap)

    def restore_all(
        self, *, residency: str = "auto", mmap: bool = True
    ) -> list[str]:
        """Warm-start every graph volume under the store root."""
        if self.results is not None:
            self.results.clear()
        return self.graphs.restore_all(residency=residency, mmap=mmap)

    def add_edges(self, name: str, label: str, edges) -> int:
        """Apply (and WAL-log) an edge addition; bumps the graph version,
        which invalidates cached results for the graph."""
        return self.graphs.add_edges(name, label, edges)

    def remove_edges(self, name: str, label: str, edges) -> int:
        """Apply (and WAL-log) an edge removal; bumps the graph version."""
        return self.graphs.remove_edges(name, label, edges)

    def apply_batch(self, name: str, deltas) -> int:
        """Apply a heterogeneous ``(op, label, edges)`` mutation batch
        under one lock acquisition, one version per triple (see
        :meth:`GraphStore.apply_batch`)."""
        return self.graphs.apply_batch(name, deltas)

    # -- async surface -----------------------------------------------------

    def submit(
        self,
        kind: str,
        graph: str,
        query,
        *,
        source: int | None = None,
        timeout: float | None = None,
    ) -> QueryTicket:
        """Admit one query of any kind in :data:`repro.service.kinds.KINDS`.

        Validates the kind, the graph and the source before admission,
        so bad requests never reach the scheduler; every other entry
        point reduces to this one.
        """
        row = get_kind(kind)
        handle = self.graphs.get(graph)
        if row.needs_source:
            if source is None or not 0 <= int(source) < handle.n:
                raise InvalidArgumentError(f"source {source} outside [0, {handle.n})")
            source = int(source)
        elif source is not None:
            raise InvalidArgumentError(f"{kind} queries take no source")
        ticket = QueryTicket(
            kind=kind, graph=graph, query=query, source=source, timeout=timeout
        )
        return self.scheduler.submit(ticket)

    def submit_reach(
        self, graph: str, query, *, source: int, timeout: float | None = None
    ) -> QueryTicket:
        """Single-source RPQ reachability (the batchable kind)."""
        return self.submit(REACH.name, graph, query, source=source, timeout=timeout)

    def submit_pairs(
        self, graph: str, query, *, timeout: float | None = None
    ) -> QueryTicket:
        """All-pairs RPQ (closure of the product graph)."""
        return self.submit(PAIRS.name, graph, query, timeout=timeout)

    def submit_cfpq(
        self, graph: str, grammar, *, timeout: float | None = None
    ) -> QueryTicket:
        """All-pairs CFPQ on the tensor engine."""
        return self.submit(CFPQ.name, graph, grammar, timeout=timeout)

    def submit_distances(
        self,
        graph: str,
        *,
        source: int,
        weights: dict | None = None,
        semiring: str = "min-plus",
        timeout: float | None = None,
    ) -> QueryTicket:
        """Single-source shortest distances under a value semiring.

        ``weights`` optionally maps edge labels to weights (unlisted
        labels weigh 1); ``semiring`` names the algebra (only
        ``"min-plus"`` is evaluable today).  The answer is a set of
        ``(vertex, distance)`` pairs over reachable vertices.
        """
        query = dist_query(semiring, weights)
        return self.submit(DIST.name, graph, query, source=source, timeout=timeout)

    # -- sync convenience --------------------------------------------------
    #
    # With a cluster router attached (attach_router), these route by
    # freshness: ``min_version=`` pins read-your-writes (pass the
    # version a mutation returned), the default tolerates the router's
    # bounded staleness, and ``route="primary"`` forces local execution.

    def reach(
        self,
        graph: str,
        query,
        *,
        source: int,
        timeout: float | None = None,
        min_version: int | None = None,
        route: str = "auto",
    ) -> frozenset[int]:
        router = self._router
        if router is not None and route != "primary":
            return router.route_reach(
                graph, query, source=source, timeout=timeout, min_version=min_version
            )
        return self.submit_reach(graph, query, source=source, timeout=timeout).result()

    def pairs(
        self,
        graph: str,
        query,
        *,
        timeout: float | None = None,
        min_version: int | None = None,
        route: str = "auto",
    ) -> PairSet:
        router = self._router
        if router is not None and route != "primary":
            return router.route_pairs(
                graph, query, timeout=timeout, min_version=min_version
            )
        return self.submit_pairs(graph, query, timeout=timeout).result()

    def cfpq(
        self,
        graph: str,
        grammar,
        *,
        timeout: float | None = None,
        min_version: int | None = None,
        route: str = "auto",
    ) -> PairSet:
        router = self._router
        if router is not None and route != "primary":
            return router.route_cfpq(
                graph, grammar, timeout=timeout, min_version=min_version
            )
        return self.submit_cfpq(graph, grammar, timeout=timeout).result()

    def distances(
        self,
        graph: str,
        *,
        source: int,
        weights: dict | None = None,
        semiring: str = "min-plus",
        timeout: float | None = None,
    ) -> frozenset[tuple[int, float]]:
        """Sync :meth:`submit_distances` (always evaluated locally —
        distance answers carry no replication path yet)."""
        return self.submit_distances(
            graph, source=source, weights=weights, semiring=semiring, timeout=timeout
        ).result()

    # -- observability -----------------------------------------------------

    def stats(self) -> StatsSnapshot:
        router = self._router
        return self.service_stats.snapshot(
            plan_cache=self.plans,
            graph_store=self.graphs,
            result_cache=self.results,
            backend=self._backend_stats(),
            replication=router.stats() if router is not None else None,
        )

    def _backend_stats(self) -> dict:
        """Dispatch/kernel telemetry of the compute backend.

        Exposes the hybrid router's decisions (sparse vs bit routes,
        blocked vs Four-Russians mxm kernels) and the arena peak so
        operators can see whether the fused bit path is actually
        carrying the query load."""
        out: dict = {}
        device = getattr(self.ctx, "device", None)
        if device is not None:
            out["arena_peak_bytes"] = device.arena.peak_bytes
        telemetry = getattr(self.ctx.backend, "telemetry", None)
        if telemetry is not None:
            snap = telemetry()
            out["dispatch"] = snap["dispatch_counts"]
            out["kernels"] = snap["kernel_counts"]
            out["kernel_times_ms"] = {
                op: {k: round(s * 1e3, 3) for k, s in times.items()}
                for op, times in snap["kernel_times"].items()
            }
        return out

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Shut down workers, cancel queued queries, release graphs."""
        if self._closed:
            return
        self._closed = True
        self.scheduler.close()
        self.graphs.clear()
        if self._owns_ctx:
            self.ctx.finalize()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
