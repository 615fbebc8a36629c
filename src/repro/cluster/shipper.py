"""WAL shipper: the primary side of :mod:`repro.cluster` replication.

A :class:`ClusterPrimary` wraps a live
:class:`~repro.service.QueryService` and streams every committed WAL
transaction to subscribed followers:

* one **accept thread** takes connections on the replication port;
* each follower connection gets a **sender thread** (handshake, then
  :class:`~repro.store.wal.WalCursor` tailing per graph, heartbeats
  when idle) and an **ack thread** (drains ``ack`` messages into the
  follower registry, which feeds the read router's freshness map);
* a condition variable woken by :attr:`GraphStore.on_mutate` turns
  commits into immediate ships instead of poll latency.

The sender owns its socket's write side exclusively (acks flow only
follower -> primary on that socket), so no lock is ever held across
network I/O or a kernel.
"""

from __future__ import annotations

import socket
import threading
import time

from repro.analysis.locktrace import make_lock
from repro.errors import ClusterProtocolError, SpblaError, UnknownGraphError
from repro.store.wal import WalCursor

from . import protocol
from .protocol import MSG_FRAMES, MSG_HEARTBEAT


class FollowerState:
    """Registry entry for one connected follower.

    Plain data; every field is guarded by the owning
    :class:`ClusterPrimary`'s ``_lock``.
    """

    def __init__(self, fid: str, query_address: tuple[str, int] | None):
        self.id = fid
        self.query_address = query_address
        self.acked: dict[str, int] = {}  # graph -> last acked applied version
        self.sent: dict[str, int] = {}  # graph -> last shipped version
        self.last_ack = time.monotonic()


class ClusterPrimary:
    """Replication endpoint for the writable service instance."""

    def __init__(
        self,
        service,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat: float = 0.5,
    ):
        self.service = service
        self.host = host
        self.port = port
        self.heartbeat = max(0.05, float(heartbeat))
        self._lock = make_lock("ClusterPrimary._lock")
        self._followers: dict[str, FollowerState] = {}  # guarded-by: _lock
        self._conns: set = set()  # guarded-by: _lock
        self._counters: dict[str, int] = {}  # guarded-by: _lock
        self._seq = 0  # guarded-by: _lock
        # Commit wake-up: GraphStore.on_mutate notifies, idle senders wait.
        self._wake = threading.Condition(make_lock("ClusterPrimary._wake"))
        self._closed = threading.Event()
        self._listener = None
        self._address: tuple[str, int] | None = None
        #: Test hook: ``corrupt_hook(graph, version, payload) -> payload``
        #: mangles outgoing frame payloads to exercise the follower's
        #: CRC rejection path.  Assigned before traffic; not guarded.
        self.corrupt_hook = None

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ClusterPrimary":
        self._listener = protocol.listener(self.host, self.port)
        self._address = self._listener.getsockname()
        self.service.graphs.on_mutate = self._on_mutate
        threading.Thread(
            target=self._accept_loop, name="repro-ship-accept", daemon=True
        ).start()
        return self

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise ClusterProtocolError("primary not started")
        return self._address

    def close(self) -> None:
        self._closed.set()
        if self.service.graphs.on_mutate is self._on_mutate:
            self.service.graphs.on_mutate = None
        if self._listener is not None:
            _close_quietly(self._listener)
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            _close_quietly(conn)
        with self._wake:
            self._wake.notify_all()

    def __enter__(self) -> "ClusterPrimary":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- commit wake-up ----------------------------------------------------

    def _on_mutate(self, name: str, version: int) -> None:
        # Called by GraphStore._commit outside its locks.
        with self._wake:
            self._wake.notify_all()

    # -- connection handling -----------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, addr = self._listener.accept()
            except OSError:
                return  # listener closed
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_conn,
                args=(conn, addr),
                name="repro-ship-conn",
                daemon=True,
            ).start()

    def _serve_conn(self, conn, addr) -> None:
        with self._lock:
            self._conns.add(conn)
        try:
            conn.settimeout(30.0)
            msg = protocol.recv_message(conn)
            if msg is None:
                return
            header, _ = msg
            kind = header.get("type")
            if kind == protocol.MSG_STATUS:
                protocol.send_message(
                    conn, {"type": protocol.MSG_STATUS_OK, "stats": self.stats()}
                )
                return
            if kind != protocol.MSG_HELLO:
                protocol.send_message(
                    conn,
                    {
                        "type": protocol.MSG_ERROR,
                        "error": f"expected hello, got {kind!r}",
                    },
                )
                return
            self._serve_follower(conn, addr, header)
        except (SpblaError, OSError, TimeoutError):
            self._count("conn_errors")
        finally:
            with self._lock:
                self._conns.discard(conn)
            _close_quietly(conn)

    def _serve_follower(self, conn, addr, hello: dict) -> None:
        wanted = hello.get("graphs")
        if not isinstance(wanted, dict):
            wanted = {}
        names = sorted(wanted) or self.service.graphs.names()

        plan: dict[str, dict] = {}
        for name in names:
            try:
                handle = self.service.graphs.get(name)
            except UnknownGraphError:
                plan[name] = {"action": "unknown"}
                continue
            volume = handle.volume
            coords = volume.handoff() if volume is not None else None
            if coords is None:
                plan[name] = {
                    "action": "unavailable",
                    "reason": "graph has no committed snapshot "
                    "(persist it on the primary first)",
                }
                continue
            have = int(wanted.get(name, -1))
            # A follower at or past the snapshot version streams: the WAL
            # holds exactly the (snapshot_version, now] suffix, so every
            # transaction it lacks is shippable.  One behind the snapshot
            # reloads that generation from the shared volume dir first.
            action = (
                "stream" if have >= coords["snapshot_version"] else "resync"
            )
            plan[name] = {
                "action": action,
                "from": have if action == "stream" else coords["snapshot_version"],
                "wal_path": str(volume.wal.path),
                **coords,
            }

        raw_qaddr = hello.get("query_address")
        query_address = (
            (str(raw_qaddr[0]), int(raw_qaddr[1]))
            if isinstance(raw_qaddr, (list, tuple)) and len(raw_qaddr) == 2
            else None
        )
        with self._lock:
            self._seq += 1
            fid = (
                protocol.format_address(query_address)
                if query_address is not None
                else f"{addr[0]}:{addr[1]}#{self._seq}"
            )
            fol = FollowerState(fid, query_address)
            for name, entry in plan.items():
                if entry["action"] == "stream":
                    fol.acked[name] = int(wanted.get(name, -1))
            self._followers[fid] = fol

        try:
            wire_plan = {
                name: {k: v for k, v in entry.items() if k != "wal_path"}
                for name, entry in plan.items()
            }
            protocol.send_message(
                conn, {"type": protocol.MSG_HELLO_OK, "graphs": wire_plan}
            )
            ack_thread = threading.Thread(
                target=self._ack_loop,
                args=(conn, fol),
                name="repro-ship-ack",
                daemon=True,
            )
            ack_thread.start()
            self._ship_loop(conn, fol, plan)
        finally:
            with self._lock:
                if self._followers.get(fid) is fol:
                    del self._followers[fid]
            self._count("disconnects")

    # -- shipping ----------------------------------------------------------

    def _ship_loop(self, conn, fol: FollowerState, plan: dict) -> None:
        streams: dict[str, WalCursor] = {}
        last_sent: dict[str, int] = {}
        for name, entry in plan.items():
            if entry["action"] in ("stream", "resync"):
                streams[name] = WalCursor(entry["wal_path"])
                last_sent[name] = int(entry["from"])
        if not streams:
            raise ClusterProtocolError(
                "no replicable graphs (nothing persisted on the primary)"
            )

        conn.settimeout(None)  # sends block until the kernel takes them
        last_beat = time.monotonic()
        while not self._closed.is_set():
            sent_any = False
            for name, cursor in streams.items():
                for version, raw in cursor.poll():
                    if version <= last_sent[name]:
                        continue  # re-read after a log reset; already shipped
                    if version != last_sent[name] + 1:
                        # A compaction reset the log before this cursor
                        # polled the tail: the missing transactions are
                        # gone from disk.  Drop the connection; the
                        # follower renegotiates and resyncs from the new
                        # snapshot generation.
                        self._count("gaps")
                        raise ClusterProtocolError(
                            f"{name}: WAL gap at v{version} "
                            f"(last shipped v{last_sent[name]})"
                        )
                    payload = raw
                    hook = self.corrupt_hook
                    if hook is not None:
                        payload = hook(name, version, payload)
                    protocol.send_message(
                        conn,
                        {"type": MSG_FRAMES, "graph": name, "version": version},
                        payload,
                    )
                    last_sent[name] = version
                    with self._lock:
                        fol.sent[name] = version
                    self._count("shipped_txns")
                    self._count("shipped_bytes", len(payload))
                    sent_any = True
            now = time.monotonic()
            if sent_any:
                last_beat = now
                continue
            if now - last_beat >= self.heartbeat:
                versions = {
                    name: self._graph_version(name) for name in streams
                }
                protocol.send_message(
                    conn, {"type": MSG_HEARTBEAT, "versions": versions}
                )
                self._count("heartbeats")
                last_beat = now
            with self._wake:
                self._wake.wait(timeout=self.heartbeat / 2)

    def _graph_version(self, name: str) -> int:
        try:
            return self.service.graphs.get(name).current_version()
        except UnknownGraphError:
            return -1

    def _ack_loop(self, conn, fol: FollowerState) -> None:
        try:
            while not self._closed.is_set():
                msg = protocol.recv_message(conn)
                if msg is None:
                    return
                header, _ = msg
                if header.get("type") != protocol.MSG_ACK:
                    continue
                graphs = header.get("graphs")
                if not isinstance(graphs, dict):
                    continue
                with self._lock:
                    for name, version in graphs.items():
                        fol.acked[name] = int(version)
                    fol.last_ack = time.monotonic()
                self._count("acks")
        except (SpblaError, OSError, TimeoutError):
            return
        finally:
            # A dead read side means a dead follower: shut the socket so
            # the sender's next write fails promptly, and wake it.
            _shutdown_quietly(conn)
            with self._wake:
                self._wake.notify_all()

    # -- introspection -----------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def followers(self) -> list[dict]:
        """Connected followers with per-graph shipped/acked versions."""
        with self._lock:
            return [
                {
                    "id": f.id,
                    "query_address": f.query_address,
                    "acked": dict(f.acked),
                    "sent": dict(f.sent),
                    "last_ack": f.last_ack,
                }
                for f in self._followers.values()
            ]

    def stats(self) -> dict:
        """Role status: graph versions, per-follower lag, counters."""
        versions = {
            name: self._graph_version(name)
            for name in self.service.graphs.names()
        }
        followers = []
        for f in self.followers():
            f = dict(f)
            f["lag"] = {
                name: versions.get(name, 0) - acked
                for name, acked in f["acked"].items()
            }
            followers.append(f)
        with self._lock:
            counters = dict(self._counters)
        return {
            "role": "primary",
            "address": list(self.address),
            "graphs": versions,
            "followers": followers,
            "counters": counters,
        }


def _close_quietly(sock) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close races are benign
        pass


def _shutdown_quietly(sock) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
