"""Read replica: the follower side of :mod:`repro.cluster` replication.

A :class:`ClusterFollower` owns its own
:class:`~repro.service.QueryService` and keeps it converged with the
primary:

* **bootstrap** — :meth:`GraphStore.restore_replica` loads the newest
  committed snapshot generation with ``mmap=True``, so N follower
  processes on one host share the snapshot's pages through the page
  cache (no per-process copy of the bit containers);
* **catch-up / steady state** — a replication thread connects to the
  primary, announces its per-graph applied versions (``hello``),
  resyncs any graph the snapshot left behind, then applies shipped WAL
  transactions through :meth:`GraphStore.apply_replicated` (the same
  commit path as a primary write, minus the WAL) and acks each one;
* **serving** — a query listener answers read-only queries, enforcing
  each query's ``min_version`` floor against the tracked
  ``applied_version`` (stale -> ``error``, so the router tries the
  next candidate or the primary).

Shipped payloads are CRC-validated by
:func:`~repro.store.wal.decode_transaction` before touching any state;
a torn frame on the wire drops the connection, and the reconnect
handshake re-requests everything after the last applied version.
"""

from __future__ import annotations

import threading
import time

from repro.analysis.locktrace import make_lock
from repro.errors import (
    ClusterError,
    ClusterProtocolError,
    InvalidArgumentError,
    SpblaError,
    StoreCorruptError,
    StoreError,
)
from repro.service.kinds import get_kind
from repro.store.wal import decode_transaction

from . import protocol
from .protocol import (
    MSG_ACK,
    MSG_ERROR,
    MSG_FRAMES,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_HELLO_OK,
    MSG_QUERY,
    MSG_RESULT,
    MSG_STATUS,
    MSG_STATUS_OK,
)


class ClusterFollower:
    """One read-replica process tailing a primary's WAL stream."""

    def __init__(
        self,
        store_root,
        primary: tuple[str, int],
        *,
        graphs: list[str] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        heartbeat: float = 0.5,
        backoff_min: float = 0.1,
        backoff_max: float = 2.0,
        backend: str = "cubool",
        hybrid=None,
    ):
        from repro.service import QueryService

        self.store_root = store_root
        self.primary = (str(primary[0]), int(primary[1]))
        self.heartbeat = max(0.05, float(heartbeat))
        self.backoff_min = float(backoff_min)
        self.backoff_max = float(backoff_max)
        self.service = QueryService(
            backend=backend,
            hybrid=hybrid,
            workers=workers,
            store_root=store_root,
        )
        self._graph_filter = list(graphs) if graphs else None
        self._lock = make_lock("ClusterFollower._lock")
        # Waiters (wait_applied) sleep on _lock via this condition; the
        # two share one lock object, so `with self._lock:` guards both
        # the fields and the notify/wait calls.
        self._cond = threading.Condition(self._lock)
        self._applied: dict[str, int] = {}  # guarded-by: _lock
        self._generations: dict[str, int] = {}  # guarded-by: _lock
        self._primary_versions: dict[str, int] = {}  # guarded-by: _lock
        self._counters: dict[str, int] = {}  # guarded-by: _lock
        self._last_error: str | None = None  # guarded-by: _lock
        self._connected = False  # guarded-by: _lock
        self._rsock = None  # guarded-by: _lock  (live replication socket)
        self._closed = threading.Event()
        self._qsock = protocol.listener(host, port)
        self.query_address = self._qsock.getsockname()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ClusterFollower":
        self._bootstrap()
        threading.Thread(
            target=self._query_accept_loop,
            name="repro-follower-query",
            daemon=True,
        ).start()
        threading.Thread(
            target=self._replication_loop,
            name="repro-follower-repl",
            daemon=True,
        ).start()
        return self

    def close(self) -> None:
        self._closed.set()
        _close_quietly(self._qsock)
        with self._lock:
            rsock = self._rsock
        if rsock is not None:
            _close_quietly(rsock)
        self.service.close()

    def __enter__(self) -> "ClusterFollower":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- bootstrap ---------------------------------------------------------

    def _bootstrap(self) -> None:
        """Load every replicable volume's newest snapshot (mmap'd)."""
        from repro.store.volume import list_volumes

        if self._graph_filter is not None:
            names = list(self._graph_filter)
        else:
            names = []
            for volume in list_volumes(self.store_root):
                names.append(volume.path.name)
                volume.close()
        for name in names:
            try:
                handle, generation = self.service.graphs.restore_replica(name)
            except StoreError:
                # Nothing committed yet; announce "have nothing" and let
                # the primary's handoff drive a resync once it persists.
                with self._lock:
                    self._applied[name] = -1
                continue
            with self._lock:
                self._applied[name] = handle.current_version()
                self._generations[name] = generation

    # -- replication -------------------------------------------------------

    def _replication_loop(self) -> None:
        backoff = self.backoff_min
        while not self._closed.is_set():
            try:
                self._replicate_once()
                backoff = self.backoff_min
            except (SpblaError, OSError, TimeoutError) as exc:
                with self._lock:
                    self._last_error = f"{type(exc).__name__}: {exc}"
                self._count("stream_errors")
            with self._lock:
                self._connected = False
            if self._closed.is_set():
                return
            self._count("reconnects")
            self._closed.wait(backoff)
            backoff = min(backoff * 2, self.backoff_max)

    def _replicate_once(self) -> None:
        sock = protocol.connect(self.primary, timeout=5.0)
        with self._lock:
            self._rsock = sock
        try:
            with self._lock:
                applied = dict(self._applied)
            protocol.send_message(
                sock,
                {
                    "type": MSG_HELLO,
                    "graphs": applied,
                    "query_address": list(self.query_address),
                },
            )
            msg = protocol.recv_message(sock)
            if msg is None:
                return
            header, _ = msg
            if header.get("type") != MSG_HELLO_OK:
                raise ClusterProtocolError(
                    f"expected hello_ok, got {header.get('type')!r}"
                )
            plan = header.get("graphs")
            plan = plan if isinstance(plan, dict) else {}
            acks: dict[str, int] = {}
            for name, entry in sorted(plan.items()):
                action = entry.get("action")
                if action == "resync":
                    self._resync(name, entry)
                if action in ("stream", "resync"):
                    acks[name] = self.applied_version(name)
            if not acks:
                raise ClusterError(
                    "primary has no replicable graphs yet; retrying"
                )
            protocol.send_message(sock, {"type": MSG_ACK, "graphs": acks})
            with self._lock:
                self._connected = True

            # Steady state: a silent primary past several heartbeat
            # periods is a dead one — time out and reconnect.
            sock.settimeout(max(10 * self.heartbeat, 5.0))
            while not self._closed.is_set():
                msg = protocol.recv_message(sock)
                if msg is None:
                    return
                header, payload = msg
                kind = header.get("type")
                if kind == MSG_FRAMES:
                    self._apply_frames(sock, header, payload)
                elif kind == MSG_HEARTBEAT:
                    versions = header.get("versions")
                    with self._lock:
                        if isinstance(versions, dict):
                            self._primary_versions = {
                                k: int(v) for k, v in versions.items()
                            }
                        applied = dict(self._applied)
                    protocol.send_message(
                        sock, {"type": MSG_ACK, "graphs": applied}
                    )
                elif kind == MSG_ERROR:
                    raise ClusterError(f"primary: {header.get('error')}")
        finally:
            with self._lock:
                self._rsock = None
            _close_quietly(sock)

    def _apply_frames(self, sock, header: dict, payload: bytes) -> None:
        name = str(header.get("graph"))
        try:
            deltas, version = decode_transaction(
                payload, where=f"{name} replication stream"
            )
        except StoreCorruptError:
            # Damage on the wire fails closed: drop the connection; the
            # reconnect hello re-requests from the last *applied*
            # version, so the mangled transaction is shipped again.
            self._count("wire_corrupt")
            raise
        applied = self.service.graphs.apply_replicated(name, deltas)
        with self._lock:
            self._applied[name] = applied
            self._cond.notify_all()
        self._count("applied_txns")
        protocol.send_message(sock, {"type": MSG_ACK, "graphs": {name: applied}})

    def _resync(self, name: str, entry: dict) -> None:
        """Reload from the (newer) snapshot generation the primary named."""
        target = entry.get("generation")
        target = int(target) if target is not None else None
        with self._lock:
            have = self._generations.get(name)
        if (
            have is not None
            and target is not None
            and have >= target
            and name in self.service.graphs
        ):
            return  # already at (or past) that generation
        handle, generation = self.service.graphs.restore_replica(
            name, generation=target
        )
        with self._lock:
            self._applied[name] = handle.current_version()
            self._generations[name] = generation
            self._cond.notify_all()
        self._count("resyncs")

    # -- query serving -----------------------------------------------------

    def _query_accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._qsock.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve_query_conn,
                args=(conn,),
                name="repro-follower-serve",
                daemon=True,
            ).start()

    def _serve_query_conn(self, conn) -> None:
        try:
            conn.settimeout(120.0)
            while not self._closed.is_set():
                msg = protocol.recv_message(conn)
                if msg is None:
                    return
                header, _ = msg
                kind = header.get("type")
                if kind == MSG_STATUS:
                    protocol.send_message(
                        conn, {"type": MSG_STATUS_OK, "stats": self.stats()}
                    )
                elif kind == MSG_QUERY:
                    self._answer(conn, header)
                else:
                    protocol.send_message(
                        conn,
                        {
                            "type": MSG_ERROR,
                            "error": f"expected query, got {kind!r}",
                        },
                    )
        except (SpblaError, OSError, TimeoutError):
            self._count("query_conn_errors")
        finally:
            _close_quietly(conn)

    def _answer(self, conn, header: dict) -> None:
        name = str(header.get("graph"))
        kind = str(header.get("kind"))
        min_version = int(header.get("min_version") or 0)
        applied = self.applied_version(name)
        if applied < min_version:
            # The hard staleness guarantee: a replica never serves below
            # the requested floor, whatever the router believed.
            self._count("stale_rejected")
            protocol.send_message(
                conn,
                {
                    "type": MSG_ERROR,
                    "error": "stale",
                    "graph": name,
                    "applied_version": applied,
                    "min_version": min_version,
                },
            )
            return
        try:
            row = get_kind(kind)
            if row.encode is None:
                raise InvalidArgumentError(f"{kind} queries have no wire form")
            query, source, timeout = map(header.get, ("query", "source", "timeout"))
            ticket = self.service.submit(
                kind, name, str(query), source=source, timeout=timeout
            )
            value = row.encode(ticket.result())
        except SpblaError as exc:
            protocol.send_message(
                conn,
                {
                    "type": MSG_ERROR,
                    "error": str(exc),
                    "kind": type(exc).__name__,
                    "graph": name,
                },
            )
            return
        self._count("queries_served")
        protocol.send_message(
            conn,
            {
                "type": MSG_RESULT,
                "graph": name,
                "kind": kind,
                "value": value,
                "applied_version": applied,
            },
        )

    # -- introspection -----------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def applied_version(self, name: str) -> int:
        with self._lock:
            return self._applied.get(name, -1)

    def applied_versions(self) -> dict[str, int]:
        with self._lock:
            return dict(self._applied)

    def connected(self) -> bool:
        with self._lock:
            return self._connected

    def wait_applied(
        self, name: str, version: int, *, timeout: float = 10.0
    ) -> bool:
        """Block until ``name`` reaches ``version``; False on timeout."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._applied.get(name, -1) < version:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def stats(self) -> dict:
        with self._lock:
            return {
                "role": "follower",
                "primary": list(self.primary),
                "query_address": list(self.query_address),
                "connected": self._connected,
                "applied": dict(self._applied),
                "generations": dict(self._generations),
                "primary_versions": dict(self._primary_versions),
                "counters": dict(self._counters),
                "last_error": self._last_error,
            }


def _close_quietly(sock) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close races are benign
        pass
