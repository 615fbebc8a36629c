"""Property tests: a follower is the primary at every acked version.

The replication pipeline is exercised without sockets — timing-free, so
hypothesis can drive many interleavings: the primary's real WAL bytes
(what :class:`~repro.cluster.shipper.ClusterPrimary` ships verbatim) are
tailed with :class:`~repro.store.wal.WalCursor`, round-tripped through
``encode_transaction``/``decode_transaction``, and applied to a replica
service bootstrapped via ``restore_replica`` — exactly the follower's
apply path.  Invariants:

* after applying the transactions for version *v*, the replica's answer
  set equals the ``pairs`` row's host-only oracle over the primary's
  graph at *v*, for every *v* in the history (not just the final state);
* per-label edge sets match the oracle at every version;
* re-applying an already-acked prefix is a no-op (reconnect replay is
  idempotent).
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import QueryService
from repro.service.kinds import PAIRS
from repro.store.wal import WalCursor, decode_transaction, encode_transaction
from tests.property.conftest import Mirror, edge_batches, random_graph

QUERIES = ("(a | b)+", "a b*", "(a b)+ | b")


def _replica_edge_sets(replica, name):
    handle = replica.graphs.get(name)
    with handle._lock:
        return {
            label: {(u, v) for u, v in pairs}
            for label, pairs in handle.graph.edges.items()
            if pairs
        }


@settings(max_examples=10, deadline=None)
@given(random_graph(max_n=8), st.data())
def test_replica_matches_primary_at_every_version(graph, data):
    deltas = data.draw(edge_batches(graph.n, max_batch=3))
    query = data.draw(st.sampled_from(QUERIES))
    mirror = Mirror(graph)
    with tempfile.TemporaryDirectory() as root:
        with QueryService(backend="cpu", workers=0, store_root=root) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            cursor = WalCursor(svc.graphs.get("g").volume.wal.path)
            assert cursor.poll() == []  # snapshot folded the history away
            with QueryService(
                backend="cpu", workers=1, store_root=root
            ) as replica:
                handle, generation = replica.graphs.restore_replica("g")
                assert generation == 1
                assert handle.version == 0
                shipped = []
                for op, label, batch in deltas:
                    if op == "add":
                        version = svc.add_edges("g", label, batch)
                    else:
                        version = svc.remove_edges("g", label, batch)
                    assert mirror.apply(op, label, batch) == version
                    # The wire format IS the WAL encoding: what the
                    # cursor tails off disk must round-trip the codec.
                    polled = cursor.poll()
                    assert [v for v, _ in polled] == [version]
                    for v, raw in polled:
                        decoded, dv = decode_transaction(raw)
                        assert dv == v
                        assert raw == encode_transaction(
                            decoded[0].op,
                            decoded[0].label,
                            [tuple(e) for e in decoded[0].edges],
                            version=v,
                        )
                        shipped.append((v, decoded))
                        replica.graphs.apply_replicated("g", decoded)
                    assert replica.graphs.get("g").version == version
                    assert _replica_edge_sets(replica, "g") == mirror.versions[version]
                    assert replica.pairs("g", query) == PAIRS.oracle(
                        mirror.graph(version), query, None
                    )
                # Reconnect replay: re-applying the acked history is a
                # no-op at every prefix length.
                final = replica.graphs.get("g").version
                answer = replica.pairs("g", query)
                for _, decoded in shipped:
                    replica.graphs.apply_replicated("g", decoded)
                assert replica.graphs.get("g").version == final
                assert replica.pairs("g", query) == answer
