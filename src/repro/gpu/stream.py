"""Streams: ordered command queues with event timing.

SPbLA issues all kernels and copies on a stream (CUDA stream / OpenCL
command queue) and times phases with events.  The simulated stream
executes eagerly (every "enqueue" runs immediately) but preserves the
interface: ``launch`` records the launch and invokes the kernel,
``record_event``/``elapsed`` give wall-clock timing, and ``synchronize``
is a (recorded) no-op.  Eager execution is equivalent to a real in-order
stream followed by a sync, which is exactly how SPbLA uses streams.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import DeviceError
from repro.gpu.launch import LaunchConfig

#: Launch records a stream retains (the newest).  The default stream
#: lives as long as its context, so an unbounded log leaks under service
#: traffic; ``launch_count`` and ``total_kernel_time`` stay exact.
LAUNCH_LOG_LIMIT = 4096


@dataclass
class StreamEvent:
    """A recorded point in stream time (CUDA event analogue)."""

    name: str
    timestamp: float

    def elapsed_since(self, earlier: "StreamEvent") -> float:
        """Seconds between two events recorded on the same stream."""
        return self.timestamp - earlier.timestamp


@dataclass
class LaunchRecord:
    """Bookkeeping entry for one kernel launch (read by ablation benches)."""

    kernel_name: str
    config: LaunchConfig
    duration_s: float


class Stream:
    """An in-order command queue on a simulated device."""

    def __init__(self, device: "Any", name: str = "stream"):
        self.device = device
        self.name = name
        self.launches: deque[LaunchRecord] = deque(maxlen=LAUNCH_LOG_LIMIT)
        self._launch_count = 0
        self._kernel_time = 0.0
        self._events: list[StreamEvent] = []
        self._closed = False

    # -- command submission ------------------------------------------------

    def launch(
        self,
        kernel: Callable[..., Any],
        config: LaunchConfig,
        *args: Any,
        **kwargs: Any,
    ) -> Any:
        """Enqueue (and, simulated, immediately run) a kernel.

        The kernel is called as ``kernel(config, *args, **kwargs)`` and may
        return a value (symbolic-phase kernels return row counts etc.).
        """
        if self._closed:
            raise DeviceError(f"launch on destroyed stream {self.name!r}")
        start = time.perf_counter()
        result = kernel(config, *args, **kwargs)
        duration = time.perf_counter() - start
        name = getattr(kernel, "__name__", repr(kernel))
        self.launches.append(LaunchRecord(name, config, duration))
        self._launch_count += 1
        self._kernel_time += duration
        self.device.counters.note_launch(config, duration)
        return result

    def record_event(self, name: str = "event") -> StreamEvent:
        """Record a timing event on the stream."""
        if self._closed:
            raise DeviceError(f"event on destroyed stream {self.name!r}")
        ev = StreamEvent(name=name, timestamp=time.perf_counter())
        self._events.append(ev)
        return ev

    def synchronize(self) -> None:
        """Block until all enqueued work completes (no-op when eager)."""
        if self._closed:
            raise DeviceError(f"synchronize on destroyed stream {self.name!r}")

    # -- lifecycle -----------------------------------------------------------

    def destroy(self) -> None:
        self._closed = True

    def __enter__(self) -> "Stream":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.synchronize()
        self.destroy()

    # -- introspection ---------------------------------------------------

    @property
    def launch_count(self) -> int:
        return self._launch_count

    def total_kernel_time(self) -> float:
        """Sum of kernel durations on this stream, in seconds."""
        return self._kernel_time
