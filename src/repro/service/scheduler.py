"""Query admission, scheduling, and multi-query batching.

The scheduler is the concurrency heart of the service tier:

* **bounded admission** — a fixed-capacity queue; when it is full,
  :meth:`QueryScheduler.submit` fails fast with
  :class:`~repro.errors.ServiceOverloadedError` instead of buffering
  unbounded work (load shedding at the front door);
* **worker pool** — N daemon threads drain the queue; every worker
  owns no state, so any worker can serve any request (the backends and
  the device arena are already thread-safe);
* **multi-query batching** — a worker dequeues up to ``max_batch``
  requests at once and coalesces same-graph queries of a kind whose
  :mod:`~repro.service.kinds` row has a ``batch`` evaluator (RPQ
  reachability): one product build and one fixpoint answer the group,
  and each member still warm-starts from, and publishes, its own
  fixpoint state;
* **deadlines + cooperative cancellation** — each request may carry a
  deadline; requests expire in the queue, are re-checked before and
  during evaluation (the fixpoint polls a cancel hook every
  iteration), and report :class:`~repro.errors.DeadlineExceededError`.

Callers interact through :class:`QueryTicket` — a future-like handle
with ``result(timeout)``, ``cancel()`` and per-stage timings.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from typing import TYPE_CHECKING

from repro.analysis.locktrace import kernel_boundary, make_lock
from repro.errors import (
    DeadlineExceededError,
    QueryCancelledError,
    QueryExecutionError,
    ServiceOverloadedError,
    SpblaError,
)
from repro.service.kinds import KINDS, get_kind

if TYPE_CHECKING:  # collaborator types, for annotations only
    from repro.service.graph_store import GraphStore
    from repro.service.plan_cache import PlanCache
    from repro.service.result_cache import ResultCache
    from repro.service.stats import ServiceStats

_SHUTDOWN = object()

#: Process-wide query ids (itertools.count is atomic under the GIL).
_TICKET_IDS = itertools.count(1)


class QueryTicket:
    """Future-like handle for one submitted query.

    The scheduler fills in exactly one of ``result`` / ``error`` and
    sets the completion event; ``timings`` maps stage name → seconds
    (``queue_wait``, ``compile``, ``evaluate``, ``total``) and
    ``batch_size`` records how many queries shared the evaluation this
    ticket rode in (1 = not coalesced).
    """

    def __init__(
        self,
        *,
        kind: str,
        graph: str,
        query,
        source: int | None = None,
        timeout: float | None = None,
    ):
        self.id = next(_TICKET_IDS)
        self.kind = get_kind(kind).name  # raises on an unknown kind
        self.graph = graph
        self.query = query
        self.source = source
        self.submitted_at = time.monotonic()
        self.deadline = (
            self.submitted_at + timeout if timeout is not None else None
        )
        self.timings: dict[str, float] = {}
        self.batch_size = 0
        self._event = threading.Event()
        self._cancelled = threading.Event()
        self._result = None
        self._error: BaseException | None = None

    # -- caller side -------------------------------------------------------

    def cancel(self) -> None:
        """Request cooperative cancellation (idempotent, asynchronous)."""
        self._cancelled.set()

    @property
    def cancelled(self) -> bool:
        return self._cancelled.is_set()

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Block for the outcome; raises the query's error if it failed."""
        if not self._event.wait(timeout):
            raise TimeoutError("query still pending")
        if self._error is not None:
            raise self._error
        return self._result

    def exception(self, timeout: float | None = None) -> BaseException | None:
        if not self._event.wait(timeout):
            raise TimeoutError("query still pending")
        return self._error

    # -- scheduler side ----------------------------------------------------

    def _expired(self, now: float | None = None) -> bool:
        return self.deadline is not None and (now or time.monotonic()) > self.deadline

    def _finish(self, result=None, error: BaseException | None = None) -> None:
        if self._event.is_set():
            return
        self._result = result
        self._error = error
        self.timings["total"] = time.monotonic() - self.submitted_at
        self._event.set()


class QueryScheduler:
    """Bounded-queue worker pool with same-graph query coalescing.

    Evaluation is two-speed (see :mod:`repro.incr`): a cache miss first
    looks for an *ancestor* entry — the same query at an older graph
    version whose cached fixed point can be warm-started — and only
    falls back to the from-scratch fixpoint when the delta since that
    version was empty-handed (removals, too large, or unknowable).
    Counters ``incremental_evals`` / ``full_evals`` /
    ``incremental_declined`` report which path ran.
    """

    #: Warm-start is declined when the delta exceeds
    #: ``max(INCR_MIN_BUDGET, edges / INCR_BUDGET_FRACTION)`` — past
    #: that point replaying the delta approaches recomputation cost.
    INCR_MIN_BUDGET = 64
    INCR_BUDGET_FRACTION = 8

    def __init__(
        self,
        ctx,
        graphs: "GraphStore",
        plans: "PlanCache",
        stats: "ServiceStats",
        *,
        workers: int = 2,
        queue_limit: int = 64,
        max_batch: int = 8,
        results: "ResultCache | None" = None,
    ):
        self.ctx = ctx
        self.graphs = graphs
        self.plans = plans
        self.stats = stats
        #: Optional cross-request ResultCache; None disables it.
        self.results = results
        self.max_batch = max(1, int(max_batch))
        self._queue: queue.Queue = queue.Queue(maxsize=queue_limit)
        self._lock = make_lock("QueryScheduler._lock")
        self._closed = False  # guarded-by: _lock
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-svc-{i}", daemon=True
            )
            for i in range(max(0, int(workers)))
        ]
        for t in self._workers:
            t.start()

    # -- admission ---------------------------------------------------------

    def submit(self, ticket: QueryTicket) -> QueryTicket:
        with self._lock:
            if self._closed:
                raise QueryCancelledError("service is shut down")
        try:
            self._queue.put_nowait(ticket)
        except queue.Full:
            self.stats.count("rejected")
            raise ServiceOverloadedError(
                f"admission queue full ({self._queue.maxsize} pending)"
            ) from None
        self.stats.count("submitted")
        self.stats.set_queue_depth(self._queue.qsize())
        return ticket

    # -- shutdown ----------------------------------------------------------

    def close(self, *, wait: bool = True) -> None:
        """Stop accepting work; cancel queued queries; join workers."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        # Flush still-queued tickets (in-flight evaluations finish).
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _SHUTDOWN:
                self.stats.count("cancelled")
                item._finish(error=QueryCancelledError("service shut down"))
        for _ in self._workers:
            self._queue.put(_SHUTDOWN)
        if wait:
            for t in self._workers:
                t.join()
        self.stats.set_queue_depth(0)

    # -- worker loop -------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                return
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    # Keep the poison pill for the next worker.
                    self._queue.put(_SHUTDOWN)
                    break
                batch.append(extra)
            self.stats.set_queue_depth(self._queue.qsize())

            now = time.monotonic()
            for ticket in batch:
                ticket.timings["queue_wait"] = now - ticket.submitted_at
                self.stats.record_stage("queue_wait", ticket.timings["queue_wait"])

            for group in self._group(batch):
                try:
                    self._run_group(group)
                # Last-resort guard: a worker must survive anything
                # _run_group escalates (it wraps and re-raises unexpected
                # errors as QueryExecutionError; see docs/ANALYSIS.md).
                except BaseException as exc:  # reprolint: disable=R4
                    for ticket in group:
                        if not ticket.done():
                            self.stats.count("failed")
                            ticket._finish(error=exc)

    def _group(self, batch: list) -> list[list]:
        """Coalescible groups: batchable kinds by graph; others singleton."""
        coalesced: dict[tuple, list] = {}
        groups: list[list] = []
        for ticket in batch:
            if KINDS[ticket.kind].batch is not None:
                coalesced.setdefault((ticket.kind, ticket.graph), []).append(ticket)
            else:
                groups.append([ticket])
        groups.extend(coalesced.values())
        return groups

    def _settle_dead(self, ticket, now: float, when: str) -> bool:
        """Finish ``ticket`` if it was cancelled or its deadline passed."""
        if ticket.cancelled:
            self.stats.count("cancelled")
            ticket._finish(error=QueryCancelledError("cancelled by caller"))
        elif ticket._expired(now):
            self.stats.count("expired")
            ticket._finish(error=DeadlineExceededError(f"deadline passed {when}"))
        else:
            return False
        return True

    def _make_cancel_hook(self, group: list):
        """Cooperative cancellation polled between fixpoint iterations.

        Aborts the shared evaluation only when *no* member still wants
        the answer — individual members that cancel or expire mid-batch
        are settled after the evaluation without punishing the rest.
        """

        def check() -> None:
            now = time.monotonic()
            if all(t.cancelled or t._expired(now) for t in group):
                raise QueryCancelledError(
                    "all queries in the batch were cancelled or expired"
                )

        return check

    def _run_group(self, group: list) -> None:
        now = time.monotonic()
        group = [
            t for t in group
            if not self._settle_dead(t, now, "before evaluation started")
        ]
        if not group:
            return
        row = KINDS[group[0].kind]

        # Resolve graph + plan per member (plan-cache hits are counted
        # here; a repeated query does zero recompilation), then try the
        # cross-request result cache: exact repeats against an unchanged
        # graph version short-circuit — no fixpoint, no batch slot.
        resolved = []  # (ticket, handle, plan, result-cache key | None)
        for ticket in group:
            try:
                handle = self.graphs.get(ticket.graph)
                t0 = time.perf_counter()
                plan = self.plans.get(row.plan_kind, ticket.query)
                dt = time.perf_counter() - t0
                ticket.timings["compile"] = dt
                self.stats.record_stage("compile", dt)
            except SpblaError as exc:
                # Expected failure modes (unknown graph, bad query, ...)
                # already speak the taxonomy: deliver as-is.
                self.stats.count("failed")
                ticket._finish(error=exc)
                continue
            except Exception as exc:
                # Outside the taxonomy = internal invariant broken.
                # Deliver with query context, then escalate to the
                # worker guard so the rest of the group fails loudly.
                self.stats.count("failed")
                wrapped = QueryExecutionError((ticket.id,), exc)
                ticket._finish(error=wrapped)
                raise wrapped from exc
            key = None
            if self.results is not None:
                key = self.results.make_key(
                    row.name, ticket.graph, handle.current_version(), plan, ticket.source
                )
                hit, value = self.results.get(key)
                if hit:
                    ticket.timings["evaluate"] = 0.0
                    ticket.batch_size = 1
                    handle.record_served(1)
                    self.stats.count("completed")
                    self.stats.count("result_cache_hits")
                    ticket._finish(result=value)
                    self.stats.record_stage(
                        "total", time.monotonic() - ticket.submitted_at
                    )
                    continue
            resolved.append((ticket, handle, plan, key))
        if not resolved:
            return

        tickets, handles, plans, keys = (list(col) for col in zip(*resolved))
        handle = handles[0]  # one group, one graph
        sources = [ticket.source for ticket in tickets]
        cancel = self._make_cancel_hook(tickets)
        # Under REPRO_CHECK_LOCKS: a traced lock held past this point
        # would serialize the whole pool on the evaluation.
        kernel_boundary("QueryScheduler.evaluate")
        t0 = time.perf_counter()
        try:
            # Every member is offered its own warm start; a coalesced
            # group shares one fixpoint but not one lineage.
            warms = [
                self._warm_start(handle, key) if row.warm_starts else None for key in keys
            ]
            if len(tickets) > 1:
                outs = row.batch(self.ctx, handle, plans, sources, warms, cancel)
            else:
                # A fixpoint state is only worth capturing if cacheable.
                outs = [row.evaluate(
                    self.ctx, handle, plans[0], sources[0], warms[0], cancel, keys[0] is not None
                )]
        except QueryCancelledError as exc:
            for ticket in tickets:
                if ticket._expired():
                    self.stats.count("expired")
                    ticket._finish(error=DeadlineExceededError(str(exc)))
                else:
                    self.stats.count("cancelled")
                    ticket._finish(error=exc)
            return
        except SpblaError as exc:
            for ticket in tickets:
                self.stats.count("failed")
                ticket._finish(error=exc)
            return
        except Exception as exc:
            # See the resolve loop: wrap with every affected query id,
            # deliver, then escalate to the worker guard.
            wrapped = QueryExecutionError([t.id for t in tickets], exc)
            for ticket in tickets:
                self.stats.count("failed")
                ticket._finish(error=wrapped)
            raise wrapped from exc
        eval_time = time.perf_counter() - t0

        self.stats.record_batch(len(tickets))
        handle.record_served(len(tickets))
        now = time.monotonic()
        for ticket, (result, state, used_warm), key in zip(tickets, outs, keys):
            self.stats.count("incremental_evals" if used_warm else "full_evals")
            ticket.timings["evaluate"] = eval_time
            self.stats.record_stage("evaluate", eval_time)
            ticket.batch_size = len(tickets)
            if self._settle_dead(ticket, now, "during evaluation"):
                continue
            # Publish before resolving, so a caller that has its answer
            # finds it cached; answers are immutable, so this is O(1).
            # Publish only if no delta raced the evaluation: the key
            # embeds the pre-eval version (index 2); a mismatch means
            # the answer may reflect newer matrices than it names.
            if key is not None and handle.current_version() == key[2]:
                self.results.put(key, result, state=state)
            self.stats.count("completed")
            ticket._finish(result=result)
            self.stats.record_stage("total", now - ticket.submitted_at)

    # -- incremental arbitration ------------------------------------------

    def _warm_start(self, handle, key):
        """``(state, adds)`` when an incremental restart is worthwhile.

        Requires an ancestor cache entry carrying a fixpoint state AND
        a journal proving the delta since that version was
        adds-only and small.  Removals, oversized deltas, and unknowable
        spans (journal pruned) all return None — the from-scratch path
        is the only safe answer there.
        """
        if self.results is None or key is None:
            return None
        ancestor = self.results.get_ancestor(key)
        if ancestor is None:
            return None
        version, _value, state = ancestor
        if state is None:
            return None
        summary = handle.journal.delta_since(version)
        if summary is None or not summary.adds_only or summary.count == 0:
            return None
        budget = max(
            self.INCR_MIN_BUDGET,
            handle.graph.num_edges // self.INCR_BUDGET_FRACTION,
        )
        if summary.count > budget:
            self.stats.count("incremental_declined")
            return None
        return state, summary.adds
