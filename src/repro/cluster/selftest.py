"""Cluster self-test: the ``python -m repro cluster selftest`` entry.

Stands up a real deployment — one in-process primary
(:class:`~repro.cluster.ClusterPrimary` + attached
:class:`~repro.cluster.ReadRouter`) and N follower **subprocesses**
started through the public CLI — then drives interleaved mutate/query
traffic and checks the staleness contract end to end:

* a ``min_version=`` read issued right after a mutation is **never**
  stale: whatever it was routed to (a fresh replica or the primary),
  the answer equals the oracle at that exact version;
* a default-routed read never exceeds the configured staleness bound —
  the answering state's ``applied_version`` is within
  ``max_staleness`` of the primary, and the answer equals the oracle
  *at that applied version* (bounded staleness is still consistency:
  a stale answer must be a real historical state, not a torn one);
* ``ServiceStats.replication`` reports every follower with per-graph
  ``applied``/lag;
* a SIGKILLed follower is dropped by the primary, traffic continues
  through the surviving replica and the primary fallback, and a
  respawned follower rejoins from the snapshot + shipped WAL tail and
  converges to the primary's version.

Runs under ``REPRO_CHECK_LOCKS=1`` in CI: lock-sentinel hazards in the
primary process fail the test.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.analysis import locktrace
from repro.datasets.random_graphs import uniform_random_graph
from repro.graph import LabeledGraph
from repro.service.core import QueryService
from repro.service.kinds import REACH

from .protocol import MSG_QUERY, MSG_RESULT, connect, recv_message, send_message
from .router import ReadRouter
from .shipper import ClusterPrimary

SELFTEST_QUERY = "(a | b)+"
GRAPH = "cluster-selftest"


def run_cluster_selftest(
    *,
    followers: int = 2,
    rounds: int = 6,
    seed: int = 20210705,
    max_staleness: int = 2,
    verbose: bool = True,
) -> int:
    """Run the replication self-test; returns a process exit code."""

    def say(msg: str) -> None:
        if verbose:
            print(msg, flush=True)

    n = 64
    graph = uniform_random_graph(n, 3 * n, labels=("a", "b"), seed=seed)

    failures: list[str] = []
    procs: list[subprocess.Popen] = []
    with tempfile.TemporaryDirectory(prefix="repro-cluster-") as root:
        with QueryService(workers=2, store_root=root) as service:
            service.register_graph(GRAPH, graph)
            service.persist_graph(GRAPH)
            primary = ClusterPrimary(service, heartbeat=0.2).start()
            router = ReadRouter(service, primary, max_staleness=max_staleness)
            service.attach_router(router)
            say(
                f"primary up at {primary.address[0]}:{primary.address[1]} "
                f"(graph {GRAPH!r}, n={n}); spawning {followers} follower "
                f"process(es)"
            )
            try:
                for _ in range(followers):
                    procs.append(_spawn_follower(root, primary.address))
                failures.extend(
                    _drive(service, primary, router, graph, procs, root,
                           rounds=rounds, seed=seed, say=say)
                )
            finally:
                service.detach_router()
                router.close()
                primary.close()
                for proc in procs:
                    _reap(proc)

    tracer = locktrace.tracer()
    if tracer is not None:
        say("")
        say(tracer.report())
        for hazard in tracer.hazards():
            failures.append(f"lock sentinel: {hazard.render()}")

    if failures:
        say("")
        for f in failures:
            say(f"FAIL: {f}")
        return 1
    say("")
    say(
        f"cluster selftest ok: {rounds} mutation rounds over 1 primary + "
        f"{followers} follower processes; min_version reads never stale, "
        f"default reads within {max_staleness} versions and historically "
        f"consistent; SIGKILLed follower rejoined and converged"
    )
    return 0


# -- traffic ------------------------------------------------------------------


def _drive(
    service, primary, router, graph, procs, root, *, rounds, seed, say
) -> list[str]:
    import numpy as np

    failures: list[str] = []
    rng = np.random.default_rng(seed)

    version = service.graphs.get(GRAPH).current_version()
    if not _wait(
        lambda: _caught_up(primary, version) >= len(procs), timeout=60.0
    ):
        return [
            f"only {_caught_up(primary, version)}/{len(procs)} followers "
            f"caught up to v{version} within 60s"
        ]
    say(f"{len(procs)} follower(s) connected and caught up to v{version}")

    # One host graph per version, answered by the reach row's oracle.
    triples = list(graph.triples())
    history = {version: LabeledGraph.from_triples(triples, n=graph.n)}

    def oracle(version: int, source: int) -> set[int]:
        return REACH.oracle(history[version], SELFTEST_QUERY, source)

    def mutate() -> int:
        u, w = (int(x) for x in rng.integers(graph.n, size=2))
        v = service.add_edges(GRAPH, "a", [(u, w)])
        triples.append((u, "a", w))
        history[v] = LabeledGraph.from_triples(triples, n=graph.n)
        return v

    def check_round(tag: str) -> None:
        v = mutate()
        source = int(rng.integers(graph.n))

        # Read-your-writes: the min_version floor makes staleness
        # impossible — v is the newest version, so the answer must be
        # the oracle at exactly v.
        got = service.reach(GRAPH, SELFTEST_QUERY, source=source, min_version=v)
        if got != oracle(v, source):
            failures.append(f"{tag}: min_version=v{v} read is stale or wrong")
        route = router.last_route or {}
        if route.get("floor") != v:
            failures.append(f"{tag}: min_version floor not honored: {route}")

        # Default route: bounded staleness, historically consistent.
        got = service.reach(GRAPH, SELFTEST_QUERY, source=source)
        route = router.last_route or {}
        applied = route.get("applied_version")
        if applied is None or applied < v - router.max_staleness:
            failures.append(
                f"{tag}: default read exceeded staleness bound: {route} "
                f"(primary at v{v})"
            )
        elif got != oracle(int(applied), source):
            failures.append(
                f"{tag}: default read at v{applied} does not match the "
                f"oracle at v{applied}"
            )

    for i in range(rounds):
        check_round(f"round {i}")

    version = service.graphs.get(GRAPH).current_version()
    snap = service.stats()
    rep = snap.replication
    say("")
    say(snap.render())
    reported = rep.get("followers", [])
    if len(reported) != len(procs):
        failures.append(
            f"ServiceStats.replication reports {len(reported)} followers, "
            f"expected {len(procs)}"
        )
    for f in reported:
        if GRAPH not in f.get("acked", {}) or GRAPH not in f.get("lag", {}):
            failures.append(
                f"ServiceStats.replication follower {f.get('id')} lacks "
                f"applied_version/lag for {GRAPH!r}"
            )
    counters = rep.get("counters", {})
    if not counters.get("routed_replica"):
        failures.append("no read was ever routed to a replica")

    # -- SIGKILL a follower, keep mutating, respawn, converge --------------
    victim = procs[0]
    say("")
    say(f"SIGKILL follower pid {victim.pid}")
    os.kill(victim.pid, signal.SIGKILL)
    victim.wait()
    if not _wait(lambda: len(primary.followers()) < len(procs), timeout=30.0):
        failures.append("primary never dropped the SIGKILLed follower")

    for i in range(2):
        check_round(f"post-kill round {i}")

    procs[0] = _spawn_follower(root, primary.address)
    say(f"respawned follower pid {procs[0].pid}")
    version = service.graphs.get(GRAPH).current_version()
    if not _wait(
        lambda: _caught_up(primary, version) >= len(procs), timeout=60.0
    ):
        failures.append(
            f"respawned follower did not converge to v{version} within 60s"
        )
    else:
        say(f"rejoined: {len(procs)} follower(s) converged to v{version}")

    # Every follower, asked directly with the newest floor, must answer
    # with the oracle's newest state — follower ≡ primary at the acked
    # version.
    source = 0
    want = oracle(version, source)
    for f in primary.followers():
        addr = f.get("query_address")
        if addr is None:
            failures.append(f"follower {f['id']} published no query address")
            continue
        got, applied = _direct_query(
            tuple(addr), GRAPH, SELFTEST_QUERY, source, min_version=version
        )
        if applied < version or got != want:
            failures.append(
                f"follower {f['id']} at v{applied} disagrees with the "
                f"primary at v{version}"
            )
    return failures


# -- plumbing -----------------------------------------------------------------


def _spawn_follower(root: str, primary_address) -> subprocess.Popen:
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "cluster",
            "follower",
            "--root",
            root,
            "--primary",
            f"{primary_address[0]}:{primary_address[1]}",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--heartbeat",
            "0.2",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
    )


def _reap(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:  # pragma: no cover - last resort
            proc.kill()
            proc.wait()


def _caught_up(primary, version: int) -> int:
    return sum(
        1
        for f in primary.followers()
        if f["acked"].get(GRAPH, -1) >= version
    )


def _wait(predicate, *, timeout: float, poll: float = 0.05) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return bool(predicate())


def _direct_query(
    address, graph: str, query: str, source: int, *, min_version: int
) -> tuple[set[int], int]:
    """One raw wire query against a follower; returns (answer, version)."""
    sock = connect(address, timeout=10.0)
    try:
        sock.settimeout(30.0)
        send_message(
            sock,
            {
                "type": MSG_QUERY,
                "kind": REACH.name,
                "graph": graph,
                "query": query,
                "source": source,
                "min_version": min_version,
            },
        )
        msg = recv_message(sock)
    finally:
        sock.close()
    if msg is None or msg[0].get("type") != MSG_RESULT:
        return set(), -1
    header = msg[0]
    return (
        REACH.decode(header.get("value") or []),
        int(header.get("applied_version", -1)),
    )
