"""Lock sentinel: hazard detection and service-tier adoption."""

import threading
import time

import pytest

from repro.analysis import locktrace
from repro.analysis.locktrace import LockTracer, TracedLock


@pytest.fixture
def generous_hold(monkeypatch):
    # Generous long-hold threshold so only deliberate holds trip it.
    monkeypatch.setattr(locktrace, "HOLD_THRESHOLD_S", 5.0)


@pytest.fixture
def tracer(generous_hold):
    return LockTracer()


# -- hazard detection ---------------------------------------------------------


def test_consistent_order_is_clean(tracer):
    a, b = tracer.lock("A"), tracer.lock("B")
    for _ in range(3):
        with a:
            with b:
                pass
    assert tracer.hazards() == []
    assert tracer.order_graph() == {"A": {"B"}}


def test_inversion_detected(tracer):
    a, b = tracer.lock("A"), tracer.lock("B")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    kinds = [h.kind for h in tracer.hazards()]
    assert kinds == ["order-inversion"]
    hazard = tracer.hazards()[0]
    assert "'B' -> 'A'" in hazard.message
    # The report carries both call paths: current and first sighting.
    assert len(hazard.stacks) == 2
    assert "acquiring" in hazard.render()


def test_inversion_detected_across_threads(tracer):
    a, b = tracer.lock("A"), tracer.lock("B")

    def forward():
        with a:
            with b:
                pass

    def backward():
        with b:
            with a:
                pass

    t = threading.Thread(target=forward)
    t.start()
    t.join()
    t = threading.Thread(target=backward)
    t.start()
    t.join()
    assert [h.kind for h in tracer.hazards()] == ["order-inversion"]


def test_transitive_inversion_detected(tracer):
    a, b, c = tracer.lock("A"), tracer.lock("B"), tracer.lock("C")
    with a:
        with b:
            pass
    with b:
        with c:
            pass
    with c:
        with a:  # A ⇝ C already exists through B
            pass
    assert [h.kind for h in tracer.hazards()] == ["order-inversion"]


def test_same_role_reentrancy_not_an_inversion(tracer):
    # Two GraphHandle._lock instances share one order-graph node; nesting
    # distinct roles is what the graph tracks, not same-name pairs.
    h1, h2 = tracer.lock("GraphHandle._lock"), tracer.lock("GraphHandle._lock")
    with h1:
        with h2:
            pass
    assert tracer.hazards() == []


def test_held_across_kernel_boundary(tracer):
    a = tracer.lock("A")
    tracer.kernel_boundary("mxm")  # nothing held: fine
    with a:
        tracer.kernel_boundary("mxm")
    hazards = tracer.hazards()
    assert [h.kind for h in hazards] == ["held-across-kernel"]
    assert "'mxm'" in hazards[0].message


def test_long_hold_detected(monkeypatch):
    monkeypatch.setattr(locktrace, "HOLD_THRESHOLD_S", 0.01)
    tracer = LockTracer()
    a = tracer.lock("A")
    with a:
        time.sleep(0.05)
    assert [h.kind for h in tracer.hazards()] == ["long-hold"]


def test_unheld_release_detected(tracer):
    a = tracer.lock("A")
    in_worker = threading.Event()
    done = threading.Event()

    def worker():
        a.acquire()
        in_worker.set()
        done.wait(5.0)

    t = threading.Thread(target=worker)
    t.start()
    in_worker.wait(5.0)
    a.release()  # this thread never acquired it
    done.set()
    t.join()
    assert "unheld-release" in [h.kind for h in tracer.hazards()]


def test_reset_clears_state(tracer):
    a, b = tracer.lock("A"), tracer.lock("B")
    with b:
        with a:
            pass
    with a:
        with b:
            pass
    assert tracer.hazards()
    tracer.reset()
    assert tracer.hazards() == []
    assert tracer.order_graph() == {}
    assert "0 hazards" in tracer.report()


# -- lock protocol ------------------------------------------------------------


def test_traced_lock_full_protocol(tracer):
    a = tracer.lock("A")
    assert not a.locked()
    assert a.acquire()
    assert a.locked()
    assert not a.acquire(blocking=False)
    a.release()
    assert not a.locked()
    # Works as the lock behind a Condition (waiters re-acquire through it).
    cond = threading.Condition(tracer.lock("C"))
    with cond:
        cond.notify_all()
    assert tracer.hazards() == []


# -- env gating and adoption --------------------------------------------------


def test_env_parsing():
    assert locktrace.locks_checked_from_env({"REPRO_CHECK_LOCKS": "1"})
    assert locktrace.locks_checked_from_env({"REPRO_CHECK_LOCKS": "on"})
    assert not locktrace.locks_checked_from_env({"REPRO_CHECK_LOCKS": "0"})
    assert not locktrace.locks_checked_from_env({})


def test_make_lock_plain_when_disabled(monkeypatch):
    monkeypatch.setattr(locktrace, "_TRACER", None)
    assert not locktrace.enabled()
    lock = locktrace.make_lock("X")
    assert not isinstance(lock, TracedLock)
    locktrace.kernel_boundary("noop")  # no tracer: must be a no-op


def test_make_lock_traced_when_enabled(monkeypatch, generous_hold):
    tracer = LockTracer()
    monkeypatch.setattr(locktrace, "_TRACER", tracer)
    assert locktrace.enabled()
    lock = locktrace.make_lock("X")
    assert isinstance(lock, TracedLock)
    with lock:
        locktrace.kernel_boundary("op")
    assert [h.kind for h in tracer.hazards()] == ["held-across-kernel"]


# -- the service tier under full instrumentation ------------------------------


def test_service_stress_is_hazard_free(monkeypatch, generous_hold):
    tracer = LockTracer()
    monkeypatch.setattr(locktrace, "_TRACER", tracer)

    from repro.datasets.random_graphs import uniform_random_graph
    from repro.service.core import QueryService

    graph = uniform_random_graph(48, 160, labels=("a", "b"), seed=7)
    with QueryService(workers=3, max_batch=4, queue_limit=64) as service:
        service.register_graph("g", graph)

        def client(cid):
            for i in range(6):
                service.submit_reach(
                    "g", ["a b*", "(a | b)+"][i % 2], source=(cid + i) % 48
                ).result(timeout=30.0)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        service.stats()

    hazards = tracer.hazards()
    assert hazards == [], "\n".join(h.render() for h in hazards)
    stats = tracer.stats()
    assert stats["locks"] >= 4  # scheduler, store, handle, cache, stats


def test_selftest_reports_seeded_hazard(monkeypatch, capsys, generous_hold):
    # The selftest must both pass clean under the sentinel and fail loudly
    # when the tracer holds a hazard.
    tracer = LockTracer()
    monkeypatch.setattr(locktrace, "_TRACER", tracer)

    from repro.service.selftest import run_selftest

    a, b = tracer.lock("A"), tracer.lock("B")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    assert run_selftest(workers=2, queries=4, verbose=False) == 1

    tracer.reset()
    assert run_selftest(workers=2, queries=4, verbose=False) == 0
