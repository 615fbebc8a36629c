"""Runtime lock sentinel: instrumented locks for the service tier.

The static half of :mod:`repro.analysis` (reprolint's R3) can prove
that annotated attributes are only touched under ``with self._lock`` —
it cannot see *between* locks.  The hazards that survive static
checking are dynamic: two components acquiring the same pair of locks
in opposite orders (deadlock-in-waiting), a lock held across a kernel
call (serializing the worker pool on device work), or a lock held so
long it becomes the service's real admission queue.

:class:`LockTracer` catches those at runtime.  :func:`make_lock`
returns an instrumented :class:`TracedLock` when ``REPRO_CHECK_LOCKS=1``
and a plain :class:`threading.Lock` otherwise, so production pays zero
overhead while the threaded stress tests and the CI self-test run fully
instrumented.  Each acquisition records, per thread,

* the set of locks already held (building a global *lock-order graph*
  keyed by lock **name** — instances of the same role, e.g. every
  ``GraphHandle._lock``, share a node, which is the granularity
  deadlock ordering is defined at);
* an abbreviated acquisition stack, kept for the first sighting of
  every edge so an inversion report shows *both* call paths.

Hazards are collected, not raised: the tracer is a sentinel, not a
tripwire — a stress test finishes its workload and then asserts
:meth:`LockTracer.hazards` is empty (see ``repro.service.selftest``).

Detected hazard kinds
---------------------
``order-inversion``
    Acquiring B while holding A when a path B ⇝ A already exists in
    the order graph.
``held-across-kernel``
    A traced lock held while crossing a declared kernel boundary
    (:func:`kernel_boundary` — the scheduler declares one before every
    batch evaluation).
``long-hold``
    A lock held longer than :data:`HOLD_THRESHOLD_S` (200 ms).
``unheld-release``
    Releasing a traced lock this thread does not hold (lock discipline
    broken outside ``with``).
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass, field


def locks_checked_from_env(environ=None) -> bool:
    """Parse ``REPRO_CHECK_LOCKS`` (default: off)."""
    raw = (environ if environ is not None else os.environ).get(
        "REPRO_CHECK_LOCKS", ""
    )
    return raw.strip().lower() in ("1", "on", "true", "yes")


#: Hold time (seconds) past which a release reports ``long-hold``.
HOLD_THRESHOLD_S = 0.2

#: Frames kept per acquisition stack (innermost last, tracer frames cut).
_STACK_LIMIT = 12


def _capture_stack() -> str:
    frames = traceback.extract_stack(limit=_STACK_LIMIT + 2)[:-2]
    return "".join(traceback.format_list(frames))


@dataclass(frozen=True)
class Hazard:
    """One detected lock-discipline hazard."""

    kind: str          # "order-inversion" | "held-across-kernel" | ...
    message: str
    thread: str
    stacks: tuple = field(default_factory=tuple, compare=False)

    def render(self) -> str:
        out = [f"[{self.kind}] {self.message} (thread {self.thread})"]
        for title, stack in self.stacks:
            out.append(f"  -- {title}:")
            out.extend("  " + line for line in stack.rstrip().splitlines())
        return "\n".join(out)


class TracedLock:
    """``threading.Lock`` work-alike that reports to a :class:`LockTracer`.

    Supports the full Lock protocol (``acquire``/``release``/context
    manager/``locked``) so it can be dropped anywhere a plain lock is
    used, including ``threading.Condition(lock=...)``.
    """

    __slots__ = ("name", "_tracer", "_lock")

    def __init__(self, tracer: "LockTracer", name: str):
        self.name = name
        self._tracer = tracer
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._tracer._note_acquire(self)
        return acquired

    def release(self) -> None:
        self._tracer._note_release(self)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "locked" if self._lock.locked() else "unlocked"
        return f"TracedLock({self.name!r}, {state})"


class _Held:
    """One live acquisition on a thread's stack."""

    __slots__ = ("lock", "t0", "stack")

    def __init__(self, lock: TracedLock, t0: float, stack: str):
        self.lock = lock
        self.t0 = t0
        self.stack = stack


class LockTracer:
    """Collects acquisition order, hold times, and hazards.

    Internal state is protected by a *plain* ``threading.Lock`` — the
    tracer's own lock is a leaf (never held while acquiring a traced
    lock), so instrumenting cannot itself deadlock.
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._meta = threading.Lock()
        self._tls = threading.local()
        #: lock name -> set of lock names acquired while it was held.
        self._edges: dict[str, set[str]] = {}
        #: (a, b) -> (stack holding a, stack acquiring b), first sighting.
        self._edge_stacks: dict[tuple[str, str], tuple[str, str]] = {}
        self._hazards: list[Hazard] = []
        self._acquisitions = 0
        self._names: set[str] = set()

    # -- lock construction -------------------------------------------------

    def lock(self, name: str) -> TracedLock:
        """A new traced lock participating in this tracer's order graph."""
        with self._meta:
            self._names.add(name)
        return TracedLock(self, name)

    # -- per-thread bookkeeping --------------------------------------------

    def _held(self) -> list[_Held]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = self._tls.held = []
        return held

    def _note_acquire(self, lock: TracedLock) -> None:
        held = self._held()
        stack = _capture_stack()
        now = time.monotonic()
        if held:
            me = threading.current_thread().name
            with self._meta:
                self._acquisitions += 1
                for h in held:
                    a, b = h.lock.name, lock.name
                    if a == b:
                        continue
                    new_edge = b not in self._edges.setdefault(a, set())
                    if new_edge:
                        self._edges[a].add(b)
                        self._edge_stacks[(a, b)] = (h.stack, stack)
                    # Inversion: a path b ⇝ a existed before (or exists
                    # now through other edges than the one just added).
                    if self._reachable(b, a, skip=(a, b)):
                        first = self._edge_stacks.get((b, a))
                        stacks = [
                            (f"holding {a!r}, acquiring {b!r}", stack),
                        ]
                        if first is not None:
                            stacks.append(
                                (f"earlier: holding {b!r}, acquiring {a!r}", first[1])
                            )
                        self._hazards.append(
                            Hazard(
                                kind="order-inversion",
                                message=(
                                    f"lock order inversion: {a!r} -> {b!r} "
                                    f"conflicts with existing order {b!r} ⇝ {a!r}"
                                ),
                                thread=me,
                                stacks=tuple(stacks),
                            )
                        )
        else:
            with self._meta:
                self._acquisitions += 1
        held.append(_Held(lock, now, stack))

    def _reachable(self, src: str, dst: str, *, skip: tuple[str, str]) -> bool:
        """True if dst is reachable from src, ignoring the edge ``skip``."""
        seen = {src}
        frontier = [src]
        while frontier:
            node = frontier.pop()
            for nxt in self._edges.get(node, ()):
                if (node, nxt) == skip:
                    continue
                if nxt == dst:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def _note_release(self, lock: TracedLock) -> None:
        held = self._held()
        for i in range(len(held) - 1, -1, -1):
            if held[i].lock is lock:
                h = held.pop(i)
                dt = time.monotonic() - h.t0
                if dt > HOLD_THRESHOLD_S:
                    with self._meta:
                        self._hazards.append(
                            Hazard(
                                kind="long-hold",
                                message=(
                                    f"{lock.name!r} held for {dt * 1e3:.1f} ms "
                                    f"(threshold {HOLD_THRESHOLD_S * 1e3:.0f} ms)"
                                ),
                                thread=threading.current_thread().name,
                                stacks=(("acquired at", h.stack),),
                            )
                        )
                return
        with self._meta:
            self._hazards.append(
                Hazard(
                    kind="unheld-release",
                    message=f"release of {lock.name!r} not held by this thread",
                    thread=threading.current_thread().name,
                    stacks=(("released at", _capture_stack()),),
                )
            )

    # -- kernel boundary ---------------------------------------------------

    def kernel_boundary(self, what: str) -> None:
        """Declare that this thread is about to enter device-kernel work.

        Any traced lock still held here serializes every other thread on
        the kernel's runtime — the exact hazard the fine-grained service
        locking exists to avoid.
        """
        held = self._held()
        if not held:
            return
        names = ", ".join(repr(h.lock.name) for h in held)
        with self._meta:
            self._hazards.append(
                Hazard(
                    kind="held-across-kernel",
                    message=f"{names} held across kernel boundary {what!r}",
                    thread=threading.current_thread().name,
                    stacks=tuple(
                        (f"{h.lock.name!r} acquired at", h.stack) for h in held
                    ),
                )
            )

    # -- reporting ---------------------------------------------------------

    def hazards(self) -> list[Hazard]:
        with self._meta:
            return list(self._hazards)

    def stats(self) -> dict:
        with self._meta:
            return {
                "locks": len(self._names),
                "acquisitions_nested": self._acquisitions,
                "edges": sum(len(v) for v in self._edges.values()),
                "hazards": len(self._hazards),
            }

    def order_graph(self) -> dict[str, set[str]]:
        with self._meta:
            return {k: set(v) for k, v in self._edges.items()}

    def reset(self) -> None:
        with self._meta:
            self._edges.clear()
            self._edge_stacks.clear()
            self._hazards.clear()
            self._acquisitions = 0

    def report(self) -> str:
        hazards = self.hazards()
        stats = self.stats()
        lines = [
            f"lock sentinel: {stats['locks']} lock roles, "
            f"{stats['edges']} order edges, {stats['hazards']} hazards"
        ]
        lines.extend(h.render() for h in hazards)
        return "\n".join(lines)


# -- process-wide default tracer ----------------------------------------------

_TRACER: LockTracer | None = LockTracer() if locks_checked_from_env() else None


def enabled() -> bool:
    """True when the process-wide sentinel is active (REPRO_CHECK_LOCKS)."""
    return _TRACER is not None


def tracer() -> LockTracer | None:
    """The process-wide tracer, or None when disabled."""
    return _TRACER


def make_lock(name: str):
    """A lock for role ``name``: traced under the sentinel, plain otherwise.

    This is the adoption point for the service tier — every
    ``threading.Lock()`` in :mod:`repro.service` is created through it.
    """
    if _TRACER is not None:
        return _TRACER.lock(name)
    return threading.Lock()


def kernel_boundary(what: str) -> None:
    """No-op unless the sentinel is active; see LockTracer.kernel_boundary."""
    if _TRACER is not None:
        _TRACER.kernel_boundary(what)
