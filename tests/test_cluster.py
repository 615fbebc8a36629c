"""repro.cluster: wire codec, WAL cursors, replicas, routing, fault paths."""

from __future__ import annotations

import errno
import time

import numpy as np
import pytest

from repro.automata.glushkov import glushkov_nfa
from repro.automata.regex_parse import parse_regex
from repro.cluster import (
    DEFAULT_MAX_STALENESS,
    ClusterFollower,
    ClusterPrimary,
    ReadRouter,
)
from repro.cluster import protocol
from repro.datasets.random_graphs import uniform_random_graph
from repro.errors import (
    ClusterProtocolError,
    InvalidArgumentError,
    StoreCorruptError,
    StoreError,
)
from repro.grammar.cfg import CFG
from repro.grammar.rsm import RSM
from repro.service import QueryService
from repro.service.kinds import KINDS, REACH
from repro.store.volume import GraphVolume, volume_root
from repro.store.wal import (
    WalCursor,
    WriteAheadLog,
    decode_transaction,
    encode_transaction,
)

QUERY = "(a | b)+"
GRAMMAR = "S -> a S b | a b"


@pytest.fixture(scope="module")
def graph():
    return uniform_random_graph(40, 140, labels=("a", "b"), seed=5)


def wait_for(predicate, *, timeout=20.0, poll=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll)
    return bool(predicate())


def wait_acked(primary, version, graph="g"):
    """Some follower has acked ``graph`` at ``version`` or later."""
    return wait_for(
        lambda: any(
            f["acked"].get(graph, -1) >= version for f in primary.followers()
        )
    )


def restart_primary(svc, port, *, timeout=30.0):
    """Rebind a fresh primary on ``port``, riding out FIN_WAIT races.

    The just-closed primary's accepted sockets keep the port busy until
    the follower notices the EOF and closes its end; SO_REUSEADDR only
    covers TIME_WAIT, so the rebind can transiently fail.
    """
    deadline = time.monotonic() + timeout
    while True:
        try:
            return ClusterPrimary(svc, port=port, heartbeat=0.1).start()
        except OSError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.2)


# -- transaction codec (the WAL framing as wire format) -----------------------


class TestTransactionCodec:
    def test_round_trip(self):
        raw = encode_transaction("add", "a", [(1, 2), (3, 4)], version=9)
        deltas, version = decode_transaction(raw)
        assert version == 9
        assert len(deltas) == 1
        assert deltas[0].op == "add"
        assert deltas[0].label == "a"
        assert [tuple(e) for e in deltas[0].edges] == [(1, 2), (3, 4)]

    def test_remove_round_trip(self):
        raw = encode_transaction("remove", "b", [(7, 7)], version=3)
        deltas, _ = decode_transaction(raw)
        assert deltas[0].op == "remove"

    def test_bit_flip_rejected(self):
        raw = bytearray(encode_transaction("add", "a", [(1, 2)], version=1))
        raw[-9] ^= 0x40  # damage inside the commit frame
        with pytest.raises(StoreCorruptError):
            decode_transaction(bytes(raw))

    def test_payload_flip_rejected(self):
        raw = bytearray(encode_transaction("add", "abc", [(1, 2)], version=1))
        raw[30] ^= 0x01  # damage inside the delta payload
        with pytest.raises(StoreCorruptError):
            decode_transaction(bytes(raw))

    def test_truncation_rejected(self):
        raw = encode_transaction("add", "a", [(1, 2)], version=1)
        for cut in (5, len(raw) // 2, len(raw) - 1):
            with pytest.raises(StoreCorruptError):
                decode_transaction(raw[:cut])

    def test_trailing_garbage_rejected(self):
        raw = encode_transaction("add", "a", [(1, 2)], version=1)
        with pytest.raises(StoreCorruptError):
            decode_transaction(raw + b"x")

    def test_missing_commit_rejected(self):
        one = encode_transaction("add", "a", [(1, 2)], version=1)
        two = encode_transaction("add", "a", [(3, 4)], version=2)
        # Two transactions in one buffer: the decoder takes exactly one.
        with pytest.raises(StoreCorruptError):
            decode_transaction(one + two)

    def test_wire_format_is_the_wal_encoding(self, tmp_path):
        """The shipped bytes are byte-identical to what the WAL fsyncs."""
        wal = WriteAheadLog(tmp_path / "log.wal")
        wal.append("add", "a", [(0, 1), (2, 3)], version=1)
        on_disk = (tmp_path / "log.wal").read_bytes()
        assert on_disk == encode_transaction(
            "add", "a", [(0, 1), (2, 3)], version=1
        )


# -- WAL cursor (the shipper's tail-follower) --------------------------------


class TestWalCursor:
    def test_poll_returns_committed_transactions_in_order(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "log.wal")
        cursor = WalCursor(tmp_path / "log.wal")
        assert cursor.poll() == []
        wal.append("add", "a", [(0, 1)], version=1)
        wal.append("remove", "a", [(0, 1)], version=2)
        polled = cursor.poll()
        assert [v for v, _ in polled] == [1, 2]
        for version, raw in polled:
            deltas, decoded = decode_transaction(raw)
            assert decoded == version
        assert cursor.poll() == []  # nothing new
        wal.append("add", "b", [(2, 2)], version=3)
        assert [v for v, _ in cursor.poll()] == [3]

    def test_torn_tail_is_held_back(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        wal.append("add", "a", [(0, 1)], version=1)
        whole = path.read_bytes()
        tail = encode_transaction("add", "a", [(5, 6)], version=2)
        with open(path, "ab") as f:  # torn write: half a transaction
            f.write(tail[: len(tail) // 2])
        cursor = WalCursor(path)
        assert [v for v, _ in cursor.poll()] == [1]
        assert cursor.poll() == []  # torn tail never surfaces
        with open(path, "wb") as f:  # the retry completes the txn
            f.write(whole + tail)
        assert [v for v, _ in cursor.poll()] == [2]

    def test_log_reset_rewinds_the_cursor(self, tmp_path):
        path = tmp_path / "log.wal"
        wal = WriteAheadLog(path)
        wal.append("add", "a", [(0, 1)], version=1)
        cursor = WalCursor(path)
        cursor.poll()
        assert cursor.resets == 0
        wal.reset()  # compaction folded the log away
        wal.append("add", "a", [(2, 3)], version=2)
        assert [v for v, _ in cursor.poll()] == [2]
        assert cursor.resets == 1

    def test_missing_file_is_empty(self, tmp_path):
        cursor = WalCursor(tmp_path / "absent.wal")
        assert cursor.poll() == []


# -- snapshot handoff (follower bootstrap inputs) -----------------------------


class TestSnapshotHandoff:
    def test_handoff_before_any_snapshot_is_none(self, tmp_path, graph):
        with QueryService(workers=0, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            volume = svc.graphs.open_volume("g", create=True)
            try:
                assert volume.handoff() is None
                with pytest.raises(StoreError):
                    volume.load_snapshot()
            finally:
                volume.close()

    def test_handoff_names_the_newest_generation(self, tmp_path, graph):
        with QueryService(workers=0, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            svc.add_edges("g", "a", [(0, 1)])
            svc.persist_graph("g")
            volume = svc.graphs.get("g").volume
            h = volume.handoff()
            assert h["generation"] == 2
            assert h["snapshot_version"] == 1
            assert h["n"] == graph.n

    def test_load_snapshot_skips_wal(self, tmp_path, graph):
        with QueryService(workers=0, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            svc.persist_graph("g")
            svc.add_edges("g", "a", [(0, 1)])  # WAL-only delta
        volume = GraphVolume.open(volume_root(tmp_path) / "g")
        try:
            state = volume.load_snapshot()
            assert state.version == 0  # snapshot only, no replay
            full = volume.load()
            assert full.version == 1  # load() still replays
        finally:
            volume.close()


# -- replica apply path -------------------------------------------------------


class TestApplyReplicated:
    def test_applies_and_is_idempotent(self, tmp_path, graph):
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            raw = encode_transaction("add", "a", [(0, 39), (1, 38)], version=1)
            deltas, version = decode_transaction(raw)
            assert svc.graphs.apply_replicated("g", deltas) == version == 1
            assert (0, 39) in svc.graphs.get("g").graph.edges["a"]
            # Re-shipping the same transaction after a reconnect is a no-op.
            count = len(svc.graphs.get("g").graph.edges["a"])
            assert svc.graphs.apply_replicated("g", deltas) == 1
            assert len(svc.graphs.get("g").graph.edges["a"]) == count

    def test_matches_direct_mutation(self, tmp_path, graph):
        with QueryService(workers=1, store_root=tmp_path) as svc:
            svc.register_graph("g", graph)
            edits = [
                ("add", "a", [(0, 10), (10, 20)], 1),
                ("remove", "a", [(0, 10)], 2),
                ("add", "b", [(20, 30)], 3),
            ]
            for op, label, edges, version in edits:
                deltas, _ = decode_transaction(
                    encode_transaction(op, label, edges, version=version)
                )
                svc.graphs.apply_replicated("g", deltas)
            direct = uniform_random_graph(40, 140, labels=("a", "b"), seed=5)
            direct.edges["a"] = [
                e for e in direct.edges["a"] + [(0, 10), (10, 20)]
                if e != (0, 10)
            ]
            direct.edges["b"] = list(direct.edges["b"]) + [(20, 30)]
            assert svc.reach("g", QUERY, source=0) == REACH.oracle(direct, QUERY, 0)


# -- wire protocol edges ------------------------------------------------------


class TestProtocol:
    def test_parse_and_format_address(self):
        assert protocol.parse_address("127.0.0.1:8000") == ("127.0.0.1", 8000)
        assert protocol.format_address(("h", 1)) == "h:1"
        with pytest.raises(InvalidArgumentError):
            protocol.parse_address("no-port")

    def test_message_round_trip_over_socketpair(self):
        import socket

        a, b = socket.socketpair()
        try:
            protocol.send_message(a, {"type": "x", "k": 1}, b"payload")
            header, payload = protocol.recv_message(b)
            assert header == {"type": "x", "k": 1}
            assert payload == b"payload"
            a.close()
            assert protocol.recv_message(b) is None  # clean EOF
        finally:
            b.close()

    def test_mid_message_eof_is_a_protocol_error(self):
        import socket

        a, b = socket.socketpair()
        try:
            a.sendall(b"\x10\x00\x00\x00")  # half a length prefix, then EOF
            a.close()
            with pytest.raises(ClusterProtocolError):
                protocol.recv_message(b)
        finally:
            b.close()


# -- end-to-end (in-process primary + follower) -------------------------------


@pytest.fixture()
def cluster(tmp_path, graph):
    """One primary and one in-process follower over a shared store root."""
    svc = QueryService(workers=2, store_root=tmp_path)
    svc.register_graph("g", graph)
    svc.persist_graph("g")
    primary = ClusterPrimary(svc, heartbeat=0.1).start()
    router = ReadRouter(svc, primary, max_staleness=2)
    svc.attach_router(router)
    follower = ClusterFollower(
        tmp_path, primary.address, workers=1, heartbeat=0.1
    ).start()
    yield svc, primary, router, follower
    svc.detach_router()
    router.close()
    follower.close()
    primary.close()
    svc.close()


class TestClusterEndToEnd:
    def test_follower_converges_and_serves(self, cluster, graph):
        svc, primary, router, follower = cluster
        v = svc.add_edges("g", "a", [(0, 39)])
        assert follower.wait_applied("g", v, timeout=20)
        assert follower.applied_version("g") == v
        assert wait_for(
            lambda: any(
                f["acked"].get("g", -1) >= v for f in primary.followers()
            )
        )
        got = svc.reach("g", QUERY, source=0, min_version=v)
        assert got == svc.reach("g", QUERY, source=0, route="primary")
        route = router.last_route
        assert route["floor"] == v

    def test_replica_route_and_stats(self, cluster, graph):
        svc, primary, router, follower = cluster
        v = svc.add_edges("g", "b", [(1, 2)])
        assert follower.wait_applied("g", v, timeout=20)
        assert wait_for(
            lambda: any(
                f["acked"].get("g", -1) >= v for f in primary.followers()
            )
        )
        got = svc.reach("g", QUERY, source=1, min_version=v)
        assert router.last_route["target"] != "primary"
        assert got == svc.reach("g", QUERY, source=1, route="primary")
        rep = svc.stats().replication
        assert rep["max_staleness"] == 2
        assert len(rep["followers"]) == 1
        assert rep["followers"][0]["lag"]["g"] >= 0
        assert rep["counters"].get("routed_replica", 0) >= 1
        assert "replication:" in svc.stats().render()

    @pytest.mark.parametrize(
        "kind", sorted(k for k, row in KINDS.items() if row.encode is not None)
    )
    def test_routed_matches_primary(self, cluster, kind):
        svc, primary, router, follower = cluster
        row = KINDS[kind]
        v = svc.add_edges("g", "a", [(2, 38)])
        assert wait_acked(primary, v)
        query = GRAMMAR if row.plan_kind == KINDS["cfpq"].plan_kind else QUERY
        source = 1 if row.needs_source else None
        got = router._route(row, "g", query, source=source, min_version=v)
        assert router.last_route["target"] != "primary"
        assert got == svc.submit(kind, "g", query, source=source).result()

    @pytest.mark.parametrize(
        "read, build, text",
        [
            ("reach", lambda: parse_regex(QUERY), QUERY),
            ("pairs", lambda: glushkov_nfa(parse_regex(QUERY)), QUERY),
            ("cfpq", lambda: CFG.from_text(GRAMMAR), GRAMMAR),
            ("cfpq", lambda: RSM.from_cfg(CFG.from_text(GRAMMAR)), GRAMMAR),
        ],
        ids=["ast", "nfa", "cfg", "rsm"],
    )
    def test_query_without_wire_form_runs_on_primary(
        self, cluster, read, build, text
    ):
        # A prebuilt automaton / grammar / AST cannot cross the JSON
        # wire: it must answer locally, not raise out of send_message.
        svc, primary, router, follower = cluster
        assert wait_acked(primary, 0)
        read = getattr(svc, read)
        kwargs = {"source": 0} if read == svc.reach else {}
        got = read("g", build(), **kwargs)
        assert router.last_route["target"] == "primary"
        assert router.stats()["counters"] == {"routed_primary": 1}
        assert got == read("g", text, route="primary", **kwargs)

    def test_future_floor_falls_back_to_primary(self, cluster):
        svc, primary, router, follower = cluster
        current = svc.graphs.get("g").current_version()
        got = svc.reach("g", QUERY, source=0, min_version=current + 100)
        assert router.last_route["target"] == "primary"
        assert got == svc.reach("g", QUERY, source=0, route="primary")

    def test_torn_frame_on_wire_is_rejected_and_reshipped(self, cluster):
        svc, primary, router, follower = cluster
        mangled = []

        def corrupt_once(name, version, payload):
            if not mangled:
                mangled.append(version)
                flipped = bytearray(payload)
                flipped[len(flipped) // 2] ^= 0xFF
                return bytes(flipped)
            return payload

        primary.corrupt_hook = corrupt_once
        v = svc.add_edges("g", "a", [(2, 3)])
        # The follower drops the damaged connection, reconnects, and the
        # primary re-ships the transaction intact.
        assert follower.wait_applied("g", v, timeout=30)
        primary.corrupt_hook = None
        assert mangled == [v]
        assert follower.stats()["counters"].get("wire_corrupt", 0) >= 1
        assert svc.reach("g", QUERY, source=2, min_version=v) == svc.reach(
            "g", QUERY, source=2, route="primary"
        )

    def test_follower_matches_primary_after_failed_batch(
        self, cluster, monkeypatch
    ):
        """A WAL append failing mid-batch must not fork the replica: the
        logged prefix is version 1 on both sides, the failed triple is
        on neither, and the next batch ships as version 2 (a re-minted
        version 1 would be dropped by the shipper as already sent)."""
        svc, primary, router, follower = cluster
        handle = svc.graphs.get("g")
        # Three edges no earlier test put into the shared graph.
        have = set(handle.graph.edges["a"])
        kept, lost, later = [
            e for e in ((u, u + 1) for u in range(39)) if e not in have
        ][:3]
        real, calls = handle.volume.append_delta, []

        def failing(op, label, edges, *, version):
            calls.append(version)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            real(op, label, edges, version=version)

        monkeypatch.setattr(handle.volume, "append_delta", failing)
        with pytest.raises(StoreError) as exc:
            svc.apply_batch("g", [("add", "a", [kept]), ("add", "a", [lost])])
        assert isinstance(exc.value.__cause__, OSError)
        assert handle.current_version() == 1
        assert svc.apply_batch("g", [("add", "a", [later])]) == 2
        assert [d.version for d in handle.volume.wal.replay()[0]] == [1, 2]
        assert follower.wait_applied("g", 2, timeout=20)
        assert wait_acked(primary, 2)
        replica = follower.service.graphs.get("g").graph.edges
        for label in ("a", "b"):
            assert set(replica[label]) == set(handle.graph.edges[label])
        assert {kept, later} <= set(replica["a"])
        assert lost not in replica["a"]

    def test_follower_killed_mid_catchup_rejoins(self, cluster, tmp_path):
        svc, primary, router, follower = cluster
        v = svc.add_edges("g", "a", [(3, 4)])
        assert follower.wait_applied("g", v, timeout=20)
        follower.close()  # abrupt replica loss
        assert wait_for(lambda: not primary.followers(), timeout=20)
        # Traffic continues against the primary while the replica is gone.
        v2 = svc.add_edges("g", "a", [(4, 5)])
        assert svc.reach("g", QUERY, source=3, min_version=v2) == svc.reach(
            "g", QUERY, source=3, route="primary"
        )
        # A fresh follower bootstraps from the snapshot + shipped tail.
        rejoined = ClusterFollower(
            tmp_path, primary.address, workers=1, heartbeat=0.1
        ).start()
        try:
            assert rejoined.wait_applied("g", v2, timeout=30)
        finally:
            rejoined.close()

    def test_primary_restart_mid_ship(self, tmp_path, graph):
        svc = QueryService(workers=1, store_root=tmp_path)
        svc.register_graph("g", graph)
        svc.persist_graph("g")
        primary = ClusterPrimary(svc, heartbeat=0.1).start()
        port = primary.address[1]
        follower = ClusterFollower(
            tmp_path, primary.address, workers=1, heartbeat=0.1,
            backoff_min=0.05, backoff_max=0.2,
        ).start()
        try:
            v = svc.add_edges("g", "a", [(0, 1)])
            assert follower.wait_applied("g", v, timeout=20)
            # Primary goes away mid-stream...
            primary.close()
            svc.close()
            assert wait_for(lambda: not follower.connected(), timeout=20)
            # ...restarts from its own volume, and keeps shipping.
            svc = QueryService(workers=1, store_root=tmp_path)
            svc.restore_all()
            primary = restart_primary(svc, port)
            v2 = svc.add_edges("g", "a", [(5, 6)])
            assert follower.wait_applied("g", v2, timeout=30)
            assert follower.stats()["counters"].get("reconnects", 0) >= 1
        finally:
            follower.close()
            primary.close()
            svc.close()

    def test_compaction_while_disconnected_forces_resync(self, tmp_path, graph):
        svc = QueryService(workers=1, store_root=tmp_path)
        svc.register_graph("g", graph)
        svc.persist_graph("g")
        primary = ClusterPrimary(svc, heartbeat=0.1).start()
        port = primary.address[1]
        follower = ClusterFollower(
            tmp_path, primary.address, workers=1, heartbeat=0.1,
            backoff_min=0.05, backoff_max=0.2,
        ).start()
        try:
            v = svc.add_edges("g", "a", [(0, 1)])
            assert follower.wait_applied("g", v, timeout=20)
            primary.close()  # connection drops; follower backs off
            assert wait_for(lambda: not follower.connected(), timeout=20)
            # While the follower is away: more traffic, then a snapshot
            # that folds and resets the WAL — the deltas the follower
            # missed are no longer on disk.
            v2 = svc.add_edges("g", "a", [(6, 7)])
            generation = svc.persist_graph("g")
            assert generation == 2
            primary = restart_primary(svc, port)
            # The reconnect handshake sees have < snapshot_version and
            # resyncs from the new generation instead of streaming.
            assert follower.wait_applied("g", v2, timeout=30)
            assert wait_for(
                lambda: follower.stats()["counters"].get("resyncs", 0) >= 1,
                timeout=10,
            )
            assert follower.stats()["generations"]["g"] == generation
        finally:
            follower.close()
            primary.close()
            svc.close()


class TestReplicaConn:
    def test_request_closes_the_socket_on_any_exception(self, monkeypatch):
        # An error outside the taxonomy (here: a header json cannot
        # encode) must not strand the checked-out socket.
        from repro.cluster.router import ReplicaConn

        opened = []
        real_connect = protocol.connect

        def connect(address, *, timeout):
            opened.append(real_connect(address, timeout=timeout))
            return opened[-1]

        monkeypatch.setattr(protocol, "connect", connect)
        listener = protocol.listener("127.0.0.1", 0)
        try:
            conn = ReplicaConn("f1", listener.getsockname())
            with pytest.raises(TypeError):
                conn.request({"type": protocol.MSG_QUERY, "query": object()}, timeout=5.0)
            assert len(opened) == 1 and opened[0].fileno() == -1
            assert conn._sock is None
        finally:
            listener.close()


class TestFollowerQuerySurface:
    def test_direct_query_and_stale_rejection(self, cluster, graph):
        svc, primary, router, follower = cluster
        v = svc.graphs.get("g").current_version()
        sock = protocol.connect(tuple(follower.query_address), timeout=5.0)
        try:
            sock.settimeout(10.0)
            protocol.send_message(sock, {
                "type": protocol.MSG_QUERY, "kind": "reach", "graph": "g",
                "query": QUERY, "source": 0, "min_version": v,
            })
            header, _ = protocol.recv_message(sock)
            assert header["type"] == protocol.MSG_RESULT
            assert set(header["value"]) == svc.reach(
                "g", QUERY, source=0, route="primary"
            )
            protocol.send_message(sock, {
                "type": protocol.MSG_QUERY, "kind": "reach", "graph": "g",
                "query": QUERY, "source": 0, "min_version": v + 100,
            })
            header, _ = protocol.recv_message(sock)
            assert header["type"] == protocol.MSG_ERROR
            assert header["error"] == "stale"
        finally:
            sock.close()
        assert follower.stats()["counters"].get("stale_rejected", 0) >= 1

    def test_status_message(self, cluster):
        svc, primary, router, follower = cluster
        sock = protocol.connect(primary.address, timeout=5.0)
        try:
            sock.settimeout(10.0)
            protocol.send_message(sock, {"type": protocol.MSG_STATUS})
            header, _ = protocol.recv_message(sock)
            assert header["type"] == protocol.MSG_STATUS_OK
            assert header["stats"]["role"] == "primary"
        finally:
            sock.close()
