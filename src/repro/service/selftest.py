"""Service self-test: the `python -m repro serve --selftest` entry.

Spins up a real :class:`~repro.service.core.QueryService` (worker
threads, plan cache, batching — everything), fires a concurrent mixed
workload at it from client threads, and verifies every answer against
the sequential single-query engines.  Phase 2 covers incremental
evaluation (interleaved mutations must warm-start, removals must
recompute, answers must track the oracle) and phase 3 min-plus distance
queries.  Persistence is pytest's job (``tests/test_service_store.py``,
``scripts/crash_recovery_check.py``).  Exercised by CI under both
``REPRO_HYBRID`` settings; exit status is the install check.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.analysis import locktrace
from repro.datasets.random_graphs import uniform_random_graph
from repro.errors import SpblaError
from repro.service.core import QueryService
from repro.service.kinds import CFPQ, PAIRS

#: Regex templates instantiated over the demo graph's labels.
SELFTEST_QUERIES = (
    "a b* c",
    "(a | b)+",
    "a (b c)*",
    "(a | c) b? c",
)

SELFTEST_GRAMMAR = "S -> a S b | a b"


def run_selftest(
    *,
    workers: int = 3,
    queries: int = 24,
    seed: int = 20210705,
    verbose: bool = True,
) -> int:
    """Run the concurrent self-test; returns a process exit code."""

    def say(msg: str) -> None:
        if verbose:
            print(msg)

    n = 96
    graph = uniform_random_graph(n, 4 * n, labels=("a", "b", "c"), seed=seed)

    with QueryService(workers=workers, max_batch=8, queue_limit=256) as service:
        say(
            f"query service up: backend={service.ctx.backend_name}, "
            f"{workers} workers"
        )
        service.register_graph("selftest", graph, residency="auto")

        # Sequential oracle on an independent plain context.
        import repro
        from repro.cfpq.engine import cfpq
        from repro.rpq import rpq_pairs

        from repro.grammar.cfg import CFG

        oracle_ctx = repro.Context(backend="cubool")
        oracle = {q: rpq_pairs(graph, q, oracle_ctx) for q in SELFTEST_QUERIES}
        cfpq_index = cfpq(graph, CFG.from_text(SELFTEST_GRAMMAR), oracle_ctx)
        cfpq_oracle = cfpq_index.pairs()
        cfpq_index.free()

        # Concurrent mixed workload: each client thread submits a slice
        # of reach queries (repeating templates, so the plan cache and
        # the batcher both get traffic) and checks its own answers.
        failures: list[str] = []
        lock = threading.Lock()

        def client(cid: int) -> None:
            rng_sources = [(cid * 7 + 3 * i) % n for i in range(queries)]
            tickets = [
                service.submit_reach(
                    "selftest",
                    SELFTEST_QUERIES[(cid + i) % len(SELFTEST_QUERIES)],
                    source=src,
                    timeout=30.0,
                )
                for i, src in enumerate(rng_sources)
            ]
            for i, (src, ticket) in enumerate(zip(rng_sources, tickets)):
                q = SELFTEST_QUERIES[(cid + i) % len(SELFTEST_QUERIES)]
                try:
                    got = ticket.result(timeout=60.0)
                # The service wraps everything into the taxonomy
                # (QueryExecutionError for non-taxonomy escapes);
                # TimeoutError is ticket.result's own still-pending path.
                except (SpblaError, TimeoutError) as exc:
                    with lock:
                        failures.append(f"client {cid} query {q!r}: {exc!r}")
                    continue
                want = {v for u, v in oracle[q] if u == src}
                if got != want:
                    with lock:
                        failures.append(
                            f"client {cid} query {q!r} from {src}: "
                            f"got {len(got)} targets, want {len(want)}"
                        )

        clients = [
            threading.Thread(target=client, args=(cid,)) for cid in range(4)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()

        # One request of each index-building kind through the same service.
        for row, query, want in (
            (PAIRS, SELFTEST_QUERIES[0], oracle[SELFTEST_QUERIES[0]]),
            (CFPQ, SELFTEST_GRAMMAR, cfpq_oracle),
        ):
            ticket = service.submit(row.name, "selftest", query, timeout=60.0)
            if ticket.result() != want:
                failures.append(f"{row.name} result mismatch")

        snapshot = service.stats()
        say("")
        say(snapshot.render())

        # Lock sentinel (REPRO_CHECK_LOCKS=1): the concurrent workload
        # above exercised every service lock under instrumentation; any
        # ordering inversion / held-across-kernel / long-hold hazard it
        # recorded is a failure.
        tracer = locktrace.tracer()
        if tracer is not None:
            say("")
            say(tracer.report())
            for hazard in tracer.hazards():
                failures.append(f"lock sentinel: {hazard.render()}")

        # Structural health checks: the repeated templates must have hit
        # the plan cache, and everything submitted must be accounted for.
        pc = snapshot.plan_cache
        if pc["hits"] == 0:
            failures.append("plan cache saw no hits on a repeating workload")
        if snapshot.counters.get("completed", 0) < 4 * queries:
            failures.append(
                f"only {snapshot.counters.get('completed', 0)} of "
                f"{4 * queries + 2} queries completed"
            )

        # Cross-request result cache: an exact repeat of an already-
        # answered (graph version, plan, source) triple must short-
        # circuit without re-running the fixpoint.
        repeat_q, repeat_src = SELFTEST_QUERIES[0], 3 % n
        first = service.reach("selftest", repeat_q, source=repeat_src)
        second = service.reach("selftest", repeat_q, source=repeat_src)
        rc = service.stats().result_cache
        if first != second:
            failures.append("result cache returned a different answer")
        if rc and rc["hits"] == 0:
            failures.append("result cache saw no hits on an exact repeat")

        oracle_ctx.finalize()

    # -- phase 2: incremental evaluation over live deltas ------------------
    failures.extend(_incremental_phase(say=say))

    # -- phase 3: value-semiring queries through the service ---------------
    failures.extend(_semiring_phase(say=say))

    # -- runtime vs static lock graph --------------------------------------
    tracer = locktrace.tracer()
    if tracer is not None:
        failures.extend(_lock_graph_crosscheck(tracer, say=say))

    if failures:
        say("")
        for f in failures:
            say(f"FAIL: {f}")
        return 1
    say("")
    say(
        f"selftest ok: {4 * queries} concurrent reach queries + all-pairs "
        f"+ cfpq match the sequential engines; "
        f"incremental warm starts track interleaved mutations; min-plus "
        f"distance queries match the dense oracle"
    )
    return 0


def _lock_graph_crosscheck(tracer, *, say) -> list[str]:
    """Assert runtime-observed lock-order edges ⊆ the static lock graph.

    The sentinel only sees executed interleavings; reprolint's
    whole-program pass claims to cover every resolvable path.  An edge
    the runtime saw but the static graph lacks therefore means one of
    two bugs worth failing on: the call-graph resolution lost a path
    (static-analysis regression), or a lock was created/ordered through
    dynamic indirection the index cannot see.
    """
    import repro
    from repro.analysis.dataflow import static_lock_graph

    runtime = tracer.order_graph()
    static = static_lock_graph([Path(repro.__file__).parent])
    missing = sorted(
        (held, acquired)
        for held, successors in runtime.items()
        for acquired in successors
        if acquired not in static.get(held, set())
    )
    n_runtime = sum(len(v) for v in runtime.values())
    n_static = sum(len(v) for v in static.values())
    if not missing:
        say(
            f"lock-edge cross-check ok: {n_runtime} runtime edge(s) within "
            f"{n_static} static edge(s)"
        )
    return [
        f"lock-edge cross-check: runtime edge {held!r} -> {acquired!r} "
        f"is absent from the static lock graph"
        for held, acquired in missing
    ]


def _incremental_phase(*, say) -> list[str]:
    """Incremental evaluation: interleave mutations with queries and
    assert (a) small adds-only deltas take the warm-start path, (b)
    removals force a full recompute, (c) every answer — warm or cold —
    agrees with a from-scratch oracle over the mutated graph, and (d)
    the masked-accumulate kernels the warm path relies on record their
    ``_masked`` telemetry on the hybrid bit route."""
    import numpy as np

    import repro
    from repro.graph import LabeledGraph
    from repro.rpq import rpq_pairs

    failures: list[str] = []
    n = 96
    graph = uniform_random_graph(n, 4 * n, labels=("a", "b"), seed=0xE15)
    query = "(a | b)+"
    probe_src = 5
    rng = np.random.default_rng(0xE15)

    def oracle_pairs(g):
        ctx = repro.Context(backend="cubool")
        try:
            return rpq_pairs(g, query, ctx)
        finally:
            ctx.finalize()

    with QueryService(workers=2) as svc:
        svc.register_graph("incr", graph, residency="auto")
        current = LabeledGraph.from_triples(graph.triples(), n=n)
        want = oracle_pairs(current)
        if svc.pairs("incr", query) != want:
            failures.append("incremental phase: cold all-pairs diverges")
        if svc.reach("incr", query, source=probe_src) != {
            v for u, v in want if u == probe_src
        }:
            failures.append("incremental phase: cold reach diverges")

        # Rounds of small adds-only deltas; each re-query must be able
        # to restart from the previous round's cached fixed point.
        rounds = 3
        for i in range(rounds):
            delta = rng.integers(0, n, size=(4, 2))
            svc.add_edges("incr", "a", delta)
            for u, v in delta:
                current.add_edge(int(u), "a", int(v))
            want = oracle_pairs(current)
            if svc.pairs("incr", query) != want:
                failures.append(f"incremental round {i}: pairs diverge")
            if svc.reach("incr", query, source=probe_src) != {
                v for u, v in want if u == probe_src
            }:
                failures.append(f"incremental round {i}: reach diverges")
        counters = svc.stats().counters
        if counters.get("incremental_evals", 0) < rounds:
            failures.append(
                f"adds-only re-queries took the full path "
                f"(incremental_evals="
                f"{counters.get('incremental_evals', 0)}, want >= {rounds})"
            )

        # A removal breaks the adds-only precondition: the next query
        # must recompute from scratch and track the removal.
        full_before = counters.get("full_evals", 0)
        u, v = current.edges["a"][0]
        svc.remove_edges("incr", "a", [(u, v)])
        current.edges["a"] = [e for e in current.edges["a"] if e != (u, v)]
        if svc.pairs("incr", query) != oracle_pairs(current):
            failures.append("post-removal pairs diverge from oracle")
        counters = svc.stats().counters
        if counters.get("full_evals", 0) <= full_before:
            failures.append(
                "removal delta did not force a full re-evaluation"
            )
        overlay = svc.stats().graph_store["per_graph"]["incr"]["overlay"]
        if overlay["journal_entries"] < rounds + 1:
            failures.append(
                f"overlay journal missing mutation history: {overlay}"
            )

    # Masked-accumulate telemetry: the warm path's mask pushdown must be
    # visible as `_masked` kernel counts when forced onto the bit route
    # (deterministic regardless of the REPRO_HYBRID dispatch setting).
    from repro.backends import get_backend
    from repro.backends.hybrid import HybridBackend, HybridPolicy

    backend = HybridBackend(
        inner=get_backend("cubool"), policy=HybridPolicy(mode="bit")
    )
    rows = np.arange(64, dtype=np.int64)
    a = backend.matrix_from_coo(rows, (rows + 1) % 64, (64, 64))
    out = backend.mxm(a, a, mask=a)
    out.free()
    a.free()
    mxm_kernels = backend.telemetry()["kernel_counts"].get("mxm", {})
    masked = [k for k in mxm_kernels if k.endswith("_masked")]
    if not masked:
        failures.append(
            f"masked mxm on the bit route recorded no _masked kernel "
            f"(kernels: {mxm_kernels})"
        )

    if not failures:
        say(
            f"incremental phase ok: {rounds} adds-only rounds warm-"
            f"started ({counters.get('incremental_evals', 0)} incremental "
            f"vs {counters.get('full_evals', 0)} full evals), removal "
            f"forced recompute, masked kernels {masked}"
        )
    return failures


def _semiring_phase(*, say) -> list[str]:
    """Min-plus distance queries through the full service stack.

    The ``dist`` query kind rides the same plan cache / result cache /
    scheduler machinery as the boolean kinds but evaluates on the value
    backend under the min-plus semiring.  Asserts (a) the answers match
    a dense Bellman-Ford oracle, (b) repeats hit the plan cache and the
    result cache, (c) the result-cache key is semiring-tagged so a
    distance answer can never shadow a boolean one, and (d) unknown or
    non-tropical semirings are rejected before admission."""
    import numpy as np

    from repro.errors import InvalidArgumentError

    failures: list[str] = []
    n = 48
    graph = uniform_random_graph(n, 3 * n, labels=("a", "b"), seed=0xE17)
    weights = {"a": 1.0, "b": 2.5}

    # Dense oracle: plain Bellman-Ford over the same weight assignment.
    dense = np.full((n, n), np.inf)
    for label, pairs in graph.edges.items():
        for u, v in pairs:
            dense[u, v] = min(dense[u, v], weights[label])
    src = 3
    want_dist = np.full(n, np.inf)
    want_dist[src] = 0.0
    for _ in range(n):
        relaxed = np.minimum(want_dist, (want_dist[:, None] + dense).min(axis=0))
        if np.array_equal(relaxed, want_dist):
            break
        want_dist = relaxed
    want = {(int(v), float(d)) for v, d in enumerate(want_dist) if d < np.inf}

    with QueryService(workers=2) as svc:
        svc.register_graph("weighted", graph, residency="auto")
        first = svc.distances("weighted", source=src, weights=weights)
        if first != want:
            failures.append(
                f"min-plus distances diverge from the dense oracle "
                f"({len(first)} vs {len(want)} reachable vertices)"
            )
        second = svc.distances("weighted", source=src, weights=weights)
        if second != first:
            failures.append("repeated distance query changed its answer")
        snap = svc.stats()
        if snap.plan_cache["hits"] == 0:
            failures.append("distance repeat missed the plan cache")
        rc = snap.result_cache
        if rc and rc["hits"] == 0:
            failures.append("distance repeat missed the result cache")
        # Semiring tagging: the same graph answers a boolean query
        # without either side shadowing the other.
        reach = svc.reach("weighted", "a b*", source=src)
        if not isinstance(reach, set) or any(
            isinstance(x, tuple) for x in reach
        ):
            failures.append(
                "boolean reach answer was shadowed by a distance entry"
            )
        try:
            svc.distances("weighted", source=src, semiring="plus-times")
            failures.append("non-tropical semiring was not rejected")
        except InvalidArgumentError:
            pass
        try:
            svc.distances("weighted", source=src, semiring="no-such-algebra")
            failures.append("unknown semiring was not rejected")
        except InvalidArgumentError:
            pass
    if not failures:
        say(
            f"semiring phase ok: min-plus distances to {len(want)} vertices "
            f"match the dense oracle; plan + result caches hit on repeat; "
            f"bad algebras rejected pre-admission"
        )
    return failures
