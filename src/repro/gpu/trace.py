"""Chrome-trace export of kernel launch records.

Every :class:`~repro.gpu.stream.Stream` records its launches (kernel
name, grid/block, duration); this module renders them in the Chrome
``chrome://tracing`` / Perfetto JSON event format so a profiling session
on the simulated device can be inspected with the same tools one would
use for a real GPU timeline.  A stream keeps only its newest
:data:`~repro.gpu.stream.LAUNCH_LOG_LIMIT` records, so a trace of a
long-running context covers its most recent launches, not all of them
(``device.counters`` has the exact totals).

Events are complete-events (``"ph": "X"``) on one row per stream;
launch arguments carry the grid/block geometry and occupancy.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.gpu.device import Device
from repro.gpu.launch import occupancy
from repro.gpu.stream import Stream


def stream_trace_events(stream: Stream, *, pid: int = 1, tid: int = 1) -> list[dict]:
    """Trace events for one stream (timestamps are cumulative µs)."""
    events = []
    cursor = 0.0
    sm_count = stream.device.limits.multiprocessor_count
    for record in stream.launches:
        duration_us = record.duration_s * 1e6
        events.append(
            {
                "name": record.kernel_name,
                "cat": "kernel",
                "ph": "X",
                "ts": round(cursor, 3),
                "dur": round(duration_us, 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    "grid": record.config.grid,
                    "block": record.config.block,
                    "work_items": record.config.work_items,
                    "occupancy": round(occupancy(record.config, sm_count), 4),
                },
            }
        )
        cursor += duration_us
    return events


def device_trace(device: Device, streams: list[Stream] | None = None) -> dict:
    """A complete trace document for a device.

    ``streams`` defaults to just the default stream (where the backends
    submit everything unless told otherwise).
    """
    streams = streams if streams is not None else [device.default_stream]
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": device.id,
            "args": {"name": device.name},
        }
    ]
    for tid, stream in enumerate(streams, start=1):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": device.id,
                "tid": tid,
                "args": {"name": stream.name},
            }
        )
        events.extend(stream_trace_events(stream, pid=device.id, tid=tid))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "device": device.name,
            "kernel_launches": device.counters.kernel_launches,
            "kernel_time_s": device.counters.kernel_time_s,
        },
    }


def write_trace(device: Device, target, streams: list[Stream] | None = None) -> None:
    """Write the device trace as JSON to a path or file object."""
    doc = device_trace(device, streams)
    text = json.dumps(doc, indent=1)
    if isinstance(target, (str, Path)):
        Path(target).write_text(text)
    else:
        target.write(text)
