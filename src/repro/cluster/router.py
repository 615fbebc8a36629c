"""Version-aware read routing across a primary's followers.

The staleness contract (docs/CLUSTER.md):

* every routed read carries a version **floor** —
  ``max(min_version or 0, primary_version - max_staleness)``;
* only followers whose acked version meets the floor are candidates
  (freshest first), and the floor travels with the query, so the
  replica re-checks it against its *actual* applied version — the
  router's view can lag, the guarantee cannot;
* ``min_version=`` therefore gives read-your-writes: pass the version
  a mutation returned and the answer can never predate it;
* when no candidate works (none fresh enough, connection errors, a
  replica raced below the floor) the read falls back to local
  execution on the primary, which is by definition the freshest state;
* a query with no wire form (a prebuilt automaton, grammar or AST
  rather than text) is never sent: it executes on the primary.

The router holds no lock across network I/O or query evaluation:
per-replica connections are checked out under the lock, used outside
it, and checked back in.
"""

from __future__ import annotations

from repro.analysis.locktrace import make_lock
from repro.errors import ClusterProtocolError, SpblaError
from repro.service.kinds import CFPQ, PAIRS, REACH
from repro.utils.pairset import PairSet

from . import protocol
from .protocol import MSG_ERROR, MSG_QUERY, MSG_RESULT

DEFAULT_MAX_STALENESS = 8  # versions behind the primary a default read may be


class ReplicaConn:
    """One follower's persistent query connection (checkout pattern)."""

    def __init__(self, fid: str, address: tuple[str, int]):
        self.fid = fid
        self.address = address
        self._lock = make_lock("ReplicaConn._lock")
        self._sock = None  # guarded-by: _lock  (None while checked out)

    def request(self, header: dict, *, timeout: float) -> dict:
        """One request/response round trip; reconnects lazily."""
        with self._lock:
            sock, self._sock = self._sock, None
        msg = None
        try:
            if sock is None:
                sock = protocol.connect(self.address, timeout=timeout)
            sock.settimeout(timeout)
            protocol.send_message(sock, header)
            msg = protocol.recv_message(sock)
        finally:
            # Any failure (in or outside the taxonomy) or EOF leaves the
            # stream in an unknown state: never check it back in.
            if msg is None and sock is not None:
                _close_quietly(sock)
        if msg is None:
            raise ClusterProtocolError(
                f"{self.fid}: replica closed the connection"
            )
        with self._lock:
            if self._sock is None:
                self._sock = sock
            else:  # a concurrent request already checked one back in
                _close_quietly(sock)
        return msg[0]

    def close(self) -> None:
        with self._lock:
            sock, self._sock = self._sock, None
        if sock is not None:
            _close_quietly(sock)


class ReadRouter:
    """Routes the service's sync read surface by freshness requirement."""

    def __init__(
        self,
        service,
        primary,
        *,
        max_staleness: int = DEFAULT_MAX_STALENESS,
        request_timeout: float = 30.0,
    ):
        self.service = service
        self.primary = primary
        self.max_staleness = int(max_staleness)
        self.request_timeout = float(request_timeout)
        self._lock = make_lock("ReadRouter._lock")
        self._conns: dict[str, ReplicaConn] = {}  # guarded-by: _lock
        self._counters: dict[str, int] = {}  # guarded-by: _lock
        self._last_route: dict | None = None  # guarded-by: _lock

    # -- routing -----------------------------------------------------------

    def route_reach(
        self, graph, query, *, source, timeout=None, min_version=None
    ) -> frozenset[int]:
        return self._route(
            REACH, graph, query, source=source, timeout=timeout, min_version=min_version
        )

    def route_pairs(
        self, graph, query, *, timeout=None, min_version=None
    ) -> PairSet:
        return self._route(PAIRS, graph, query, timeout=timeout, min_version=min_version)

    def route_cfpq(
        self, graph, query, *, timeout=None, min_version=None
    ) -> PairSet:
        return self._route(CFPQ, graph, query, timeout=timeout, min_version=min_version)

    def _route(
        self, kind, graph, query, *, source=None, timeout=None, min_version=None
    ):
        primary_version = self.service.graphs.get(graph).current_version()
        if min_version is not None:
            floor = int(min_version)
        else:
            floor = max(0, primary_version - self.max_staleness)

        wire = kind.wire_query(query)
        # No wire form (prebuilt automaton / AST): nothing to send.
        candidates = self._candidates(graph, floor) if wire is not None else ()
        header = {
            "type": MSG_QUERY,
            "kind": kind.name,
            "graph": graph,
            "query": wire,
            "min_version": floor,
        }
        if source is not None:
            header["source"] = int(source)
        if timeout is not None:
            header["timeout"] = float(timeout)
        request_timeout = (
            min(self.request_timeout, float(timeout))
            if timeout is not None
            else self.request_timeout
        )

        for fid, address, acked in candidates:
            conn = self._conn(fid, address)
            try:
                reply = conn.request(header, timeout=request_timeout)
            except (SpblaError, OSError, TimeoutError):
                self._count("replica_errors")
                continue
            rtype = reply.get("type")
            if rtype == MSG_RESULT:
                self._count("routed_replica")
                self._note_route(fid, reply.get("applied_version"), floor)
                return kind.decode(reply.get("value") or [])
            if rtype == MSG_ERROR and reply.get("error") == "stale":
                # The router's acked map outran the replica (e.g. it just
                # restarted); honor the floor and try the next candidate.
                self._count("replica_stale")
                continue
            self._count("replica_errors")

        # Primary fallback: local execution is always fresh enough.
        self._count("routed_primary")
        self._note_route("primary", primary_version, floor)
        ticket = self.service.submit(kind.name, graph, query, source=source, timeout=timeout)
        return ticket.result()

    def _candidates(self, graph: str, floor: int) -> list:
        """Followers able to satisfy ``floor``, freshest first."""
        out = []
        for f in self.primary.followers():
            acked = f["acked"].get(graph)
            address = f.get("query_address")
            if acked is None or address is None or acked < floor:
                continue
            out.append((f["id"], tuple(address), acked))
        out.sort(key=lambda item: item[2], reverse=True)
        return out

    def _conn(self, fid: str, address: tuple[str, int]) -> ReplicaConn:
        with self._lock:
            conn = self._conns.get(fid)
            if conn is None or conn.address != address:
                conn = ReplicaConn(fid, address)
                self._conns[fid] = conn
            return conn

    # -- bookkeeping -------------------------------------------------------

    def _count(self, name: str, delta: int = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def _note_route(self, target: str, applied, floor: int) -> None:
        with self._lock:
            self._last_route = {
                "target": target,
                "applied_version": applied,
                "floor": floor,
            }

    @property
    def last_route(self) -> dict | None:
        """Where the previous routed read went (diagnostics/tests)."""
        with self._lock:
            return dict(self._last_route) if self._last_route else None

    def stats(self) -> dict:
        """Replication view for :class:`~repro.service.stats.ServiceStats`."""
        primary = self.primary.stats()
        with self._lock:
            counters = dict(self._counters)
            last = dict(self._last_route) if self._last_route else None
        return {
            "max_staleness": self.max_staleness,
            "graphs": primary["graphs"],
            "followers": primary["followers"],
            "counters": counters,
            "shipper": primary["counters"],
            "last_route": last,
        }

    def close(self) -> None:
        with self._lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn in conns:
            conn.close()


def _close_quietly(sock) -> None:
    try:
        sock.close()
    except OSError:  # pragma: no cover - close races are benign
        pass
