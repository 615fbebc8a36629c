"""Service observability: per-stage latency percentiles and counters.

Production query serving lives or dies by its tail latency, so the
stats tier records every request's per-stage timings (queue wait, plan
compilation, evaluation) into bounded reservoirs and reports
p50/p90/p99 over the most recent window, alongside batching
effectiveness (batch-size distribution) and queue depth.  Everything is
cheap enough to stay on by default: a deque append per stage under one
lock.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field

from repro.analysis.locktrace import make_lock

#: Per-stage reservoir size; percentiles are over the last N samples.
RESERVOIR = 4096

STAGES = ("queue_wait", "compile", "evaluate", "total")


@dataclass(frozen=True)
class LatencySummary:
    """Percentile summary of one stage's recent latencies (seconds)."""

    count: int = 0
    mean: float = 0.0
    p50: float = 0.0
    p90: float = 0.0
    p99: float = 0.0
    max: float = 0.0

    @classmethod
    def of(cls, samples) -> "LatencySummary":
        xs = sorted(samples)
        if not xs:
            return cls()

        def pct(p: float) -> float:
            return xs[min(len(xs) - 1, int(p * len(xs)))]

        return cls(
            count=len(xs),
            mean=sum(xs) / len(xs),
            p50=pct(0.50),
            p90=pct(0.90),
            p99=pct(0.99),
            max=xs[-1],
        )


@dataclass(frozen=True)
class StatsSnapshot:
    """Point-in-time view of service health (immutable)."""

    counters: dict
    latency: dict          # stage -> LatencySummary
    batch_sizes: dict      # {"count", "mean", "max", "histogram"}
    queue_depth: int
    queue_depth_max: int
    plan_cache: dict = field(default_factory=dict)
    graph_store: dict = field(default_factory=dict)
    result_cache: dict = field(default_factory=dict)
    backend: dict = field(default_factory=dict)
    #: Cluster view when a read router is attached (repro.cluster):
    #: graph versions, per-replica acked/lag, routing counters.
    replication: dict = field(default_factory=dict)

    def render(self) -> str:
        """Human-readable multi-line report (CLI self-test output)."""
        lines = ["service stats"]
        c = self.counters
        lines.append(
            f"  requests: submitted={c.get('submitted', 0)} "
            f"completed={c.get('completed', 0)} failed={c.get('failed', 0)} "
            f"expired={c.get('expired', 0)} cancelled={c.get('cancelled', 0)}"
        )
        lines.append(
            f"  queue: depth={self.queue_depth} max={self.queue_depth_max}"
        )
        if c.get("full_evals") or c.get("incremental_evals"):
            lines.append(
                f"  evaluations: full={c.get('full_evals', 0)} "
                f"incremental={c.get('incremental_evals', 0)} "
                f"declined={c.get('incremental_declined', 0)}"
            )
        bs = self.batch_sizes
        if bs.get("count"):
            lines.append(
                f"  batches: {bs['count']} executed, mean size "
                f"{bs['mean']:.2f}, max {bs['max']} "
                f"(histogram {dict(sorted(bs['histogram'].items()))})"
            )
        for stage in STAGES:
            s = self.latency.get(stage)
            if s is None or not s.count:
                continue
            lines.append(
                f"  {stage:10s} p50={s.p50 * 1e3:8.2f}ms "
                f"p90={s.p90 * 1e3:8.2f}ms p99={s.p99 * 1e3:8.2f}ms "
                f"max={s.max * 1e3:8.2f}ms (n={s.count})"
            )
        if self.plan_cache:
            pc = self.plan_cache
            lines.append(
                f"  plan cache: {pc['entries']}/{pc['capacity']} entries, "
                f"hits={pc['hits']} misses={pc['misses']} "
                f"evictions={pc['evictions']} hit_ratio={pc['hit_ratio']:.2f}"
            )
        if self.result_cache:
            rc = self.result_cache
            lines.append(
                f"  result cache: {rc['entries']}/{rc['capacity']} entries, "
                f"hits={rc['hits']} misses={rc['misses']} "
                f"invalidations={rc['invalidations']} "
                f"hit_ratio={rc['hit_ratio']:.2f}"
            )
        if self.graph_store:
            gs = self.graph_store
            lines.append(
                f"  graph store: {gs['graphs']} graphs, {gs['vertices']} "
                f"vertices, {gs['edges']} edges, "
                f"{gs['resident_bytes'] / 1024:.0f} KiB resident"
            )
        if self.backend:
            be = self.backend
            lines.append(
                f"  backend: arena peak {be.get('arena_peak_bytes', 0) / 1024:.0f} "
                f"KiB, routes {be.get('dispatch', {})}, "
                f"kernels {be.get('kernels', {})}"
            )
            if be.get("kernel_times_ms"):
                lines.append(f"  kernel times (ms): {be['kernel_times_ms']}")
        if self.replication:
            rep = self.replication
            rc = rep.get("counters", {})
            lines.append(
                f"  replication: {len(rep.get('followers', []))} follower(s), "
                f"max staleness {rep.get('max_staleness')} versions, "
                f"routed replica={rc.get('routed_replica', 0)} "
                f"primary={rc.get('routed_primary', 0)} "
                f"stale={rc.get('replica_stale', 0)} "
                f"errors={rc.get('replica_errors', 0)}"
            )
            for f in rep.get("followers", []):
                acked = dict(sorted(f.get("acked", {}).items()))
                lag = dict(sorted(f.get("lag", {}).items()))
                lines.append(
                    f"    {f.get('id')}: applied {acked} lag {lag}"
                )
        return "\n".join(lines)


class ServiceStats:
    """Mutable, thread-safe collector behind :class:`StatsSnapshot`."""

    def __init__(self):
        self._lock = make_lock("ServiceStats._lock")
        self._stages: dict[str, deque] = {
            s: deque(maxlen=RESERVOIR) for s in STAGES
        }  # guarded-by: _lock
        self._counters: Counter = Counter()  # guarded-by: _lock
        self._batch_sizes: deque = deque(maxlen=RESERVOIR)  # guarded-by: _lock
        self._queue_depth = 0  # guarded-by: _lock
        self._queue_depth_max = 0  # guarded-by: _lock

    # -- recording (hot path: one lock, O(1)) ------------------------------

    def record_stage(self, stage: str, seconds: float) -> None:
        with self._lock:
            self._stages.setdefault(stage, deque(maxlen=RESERVOIR)).append(
                float(seconds)
            )

    def record_batch(self, size: int) -> None:
        with self._lock:
            self._batch_sizes.append(int(size))

    def count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] += delta

    def set_queue_depth(self, depth: int) -> None:
        with self._lock:
            self._queue_depth = depth
            self._queue_depth_max = max(self._queue_depth_max, depth)

    # -- reading -----------------------------------------------------------

    def snapshot(
        self, *, plan_cache=None, graph_store=None, result_cache=None,
        backend=None, replication=None,
    ) -> StatsSnapshot:
        with self._lock:
            stages = {s: list(v) for s, v in self._stages.items()}
            counters = dict(self._counters)
            batches = list(self._batch_sizes)
            depth = self._queue_depth
            depth_max = self._queue_depth_max
        return StatsSnapshot(
            counters=counters,
            latency={s: LatencySummary.of(v) for s, v in stages.items()},
            batch_sizes={
                "count": len(batches),
                "mean": sum(batches) / len(batches) if batches else 0.0,
                "max": max(batches) if batches else 0,
                "histogram": dict(Counter(batches)),
            },
            queue_depth=depth,
            queue_depth_max=depth_max,
            plan_cache=plan_cache.stats() if plan_cache is not None else {},
            graph_store=graph_store.stats() if graph_store is not None else {},
            result_cache=result_cache.stats() if result_cache is not None else {},
            backend=backend or {},
            replication=replication or {},
        )
