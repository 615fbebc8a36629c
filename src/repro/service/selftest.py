"""Service self-test: the ``python -m repro serve --selftest`` entry.

A thin harness over the query-kind table's oracles that checks what one
pytest process cannot: a real :class:`~repro.service.core.QueryService`
(worker threads, batching, plan and result caches) serving concurrent
readers while a writer commits, with the lock sentinel watching.

Per round, reader threads submit every kind in
:data:`~repro.service.kinds.KINDS`; between rounds the writer commits a
small add/remove batch.  Every answer must equal its row's ``oracle``
over a host mirror of the graph at the round's version.  The plan and
result caches must have hit, and every submission must complete.
Under ``REPRO_CHECK_LOCKS=1`` the sentinel must record no hazard.  CI
runs it under every ``REPRO_HYBRID`` × ``REPRO_CHECK_LOCKS`` setting;
the exit status is the install check.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.analysis import locktrace
from repro.datasets.random_graphs import uniform_random_graph
from repro.errors import SpblaError
from repro.graph import LabeledGraph
from repro.service.core import QueryService
from repro.service.kinds import KINDS

#: Regex templates over the demo graph's labels; ``(a | b c)*`` matches
#: the empty word, so the ε-pair readout is checked too.
SELFTEST_QUERIES = ("(a | b c)*", "(a | b)+", "a b* c", "(a | c) b? c")
SELFTEST_GRAMMAR = "S -> a S b | a b"
SELFTEST_DISTANCES = ("min-plus", (("a", 1.0), ("b", 2.5)))
LABELS = ("a", "b", "c")
GRAPH = "selftest"
ROUNDS = 4
READERS = 4


def run_selftest(
    *,
    workers: int = 3,
    queries: int = 24,
    seed: int = 20210705,
    verbose: bool = True,
) -> int:
    """Run the concurrent self-test; returns a process exit code.

    Every reader submits ``queries`` reach queries plus one query of
    each other kind per round.
    """

    def say(msg: str) -> None:
        if verbose:
            print(msg)

    n = 96
    graph = uniform_random_graph(n, 4 * n, labels=LABELS, seed=seed)
    mirror = {label: set(pairs) for label, pairs in graph.edges.items()}
    rng = np.random.default_rng(seed)
    failures: list[str] = []
    submitted = 0

    with QueryService(workers=workers, max_batch=8, queue_limit=256) as service:
        say(f"query service up: backend={service.ctx.backend_name}, {workers} workers")
        service.register_graph(GRAPH, graph, residency="auto")
        version = 0
        for rnd in range(ROUNDS):
            host = LabeledGraph.from_triples(
                ((u, label, v) for label, pairs in mirror.items() for u, v in sorted(pairs)),
                n=n,
            )
            jobs = _jobs(rnd // 2, queries, n)
            submitted += READERS * len(jobs)
            want: dict = {}
            for job, got in _read_round(service, jobs):
                if job not in want:
                    want[job] = KINDS[job[0]].oracle(host, *job[1:])
                if got != want[job]:
                    failures.append(f"v{version} {job}: {got!r:.60} differs from the oracle")
            # The writer: small adds, and a removal every other round.
            # Rounds come in pairs asking the same queries, so the second
            # of a pair warm-starts and the next pair re-evaluates cold.
            label = LABELS[rnd % len(LABELS)]
            added = set(map(tuple, rng.integers(0, n, size=(3, 2)).tolist()))
            removed = set(sorted(mirror[label])[rnd::7][:2]) if rnd % 2 else set()
            deltas = [("add", label, sorted(added)), ("remove", label, sorted(removed))]
            version = service.apply_batch(GRAPH, [d for d in deltas if d[2]])
            mirror[label] = (mirror[label] | added) - removed

        snapshot = service.stats()
        say("")
        say(snapshot.render())
        if snapshot.plan_cache["hits"] == 0:
            failures.append("plan cache saw no hits on a repeating workload")
        rc = snapshot.result_cache
        if rc and rc["hits"] == 0:
            failures.append("result cache saw no hits on repeated queries")
        completed = snapshot.counters.get("completed", 0)
        if completed != submitted:
            failures.append(f"only {completed} of {submitted} queries completed")

    tracer = locktrace.tracer()
    if tracer is not None:
        say("")
        say(tracer.report())
        failures.extend(f"lock sentinel: {h.render()}" for h in tracer.hazards())

    if failures:
        say("")
        for f in failures:
            say(f"FAIL: {f}")
        return 1
    say("")
    say(
        f"selftest ok: {submitted} concurrent queries of {len(KINDS)} kinds over "
        f"{ROUNDS} versions match the oracles"
    )
    return 0


def _jobs(step: int, queries: int, n: int) -> list[tuple]:
    """One round's ``(kind, query, source)`` list, shared by every reader."""
    reach = [
        ("reach", SELFTEST_QUERIES[i % len(SELFTEST_QUERIES)], (7 * i + step) % n)
        for i in range(queries)
    ]
    return reach + [
        ("pairs", SELFTEST_QUERIES[step % len(SELFTEST_QUERIES)], None),
        ("cfpq", SELFTEST_GRAMMAR, None),
        ("dist", SELFTEST_DISTANCES, step % n),
    ]


def _read_round(service: QueryService, jobs: list[tuple]) -> list[tuple]:
    """Every reader submits all of ``jobs`` (each from its own offset)
    and waits; returns ``(job, answer or exception)`` pairs."""
    answers: list[tuple] = []
    lock = threading.Lock()

    def reader(rid: int) -> None:
        mine = jobs[rid:] + jobs[:rid]
        tickets = [
            service.submit(kind, GRAPH, query, source=source, timeout=30.0)
            for kind, query, source in mine
        ]
        for job, ticket in zip(mine, tickets):
            try:
                got = ticket.result(timeout=60.0)
            # The service wraps everything into the taxonomy; TimeoutError
            # is ticket.result's own still-pending path.
            except (SpblaError, TimeoutError) as exc:
                got = exc
            with lock:
                answers.append((job, got))

    threads = [threading.Thread(target=reader, args=(rid,)) for rid in range(READERS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return answers
