"""The workload interface and the per-phase sample recorder."""

from __future__ import annotations

import time


class Recorder:
    """Samples of one measured phase (all durations in seconds)."""

    def __init__(self):
        #: ``(class tag, seconds)`` per completed operation / read.
        self.ops: list[tuple[str, float]] = []
        self.mutate: list[float] = []
        self.fresh: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        #: First-seen cheap fingerprint (nnz / answer size) per result key;
        #: a later pass that disagrees is a wrong answer.
        self._expected: dict = {}
        #: Answers kept for the post-run checks (serve workloads).
        self.kept: list = []

    def timed(self, tag: str, fn):
        """Run one operation, record its latency under ``tag``."""
        self.attempted += 1
        t0 = time.perf_counter()
        out = fn()
        self.ops.append((tag, time.perf_counter() - t0))
        return out

    def fail(self, note: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(note)

    def expect(self, key, value) -> None:
        """Every pass must reproduce the first pass's ``value`` for ``key``."""
        first = self._expected.setdefault(key, value)
        if first != value:
            self.fail(f"{key}: {value!r} != first pass {first!r}")

    def latencies(self, tag: str) -> list[float]:
        return [s for t, s in self.ops if t == tag]


class Workload:
    """One named workload: build, warm, timed passes, checks, probes.

    ``build`` + ``warm`` together are the measured set-up; ``run_pass`` is
    the unit the timed loop repeats; ``verify`` runs after the timed loop
    (answer checks stay outside the timed windows); ``probes`` runs only
    in traced runs and returns per-layer numbers no counter exposes.
    """

    name = ""
    #: Whether several client threads drive the passes; decides which
    #: pass a run reports (see ``cli.typical``).
    concurrent = False
    #: Timed passes every run makes, however long they take.  One-caller
    #: figures are the best of exactly these, so both sides of a
    #: comparison take their minimum over the same number of passes;
    #: later passes of the window only feed the quartiles of the detail
    #: file.  Sized to fit ``--seconds 10`` on the reference host.
    PASSES = 3
    #: Whether ``peak_arena_mib`` is read from one more pass whose clients
    #: run one after the other (``run_pass(k, rec, serial=True)``).  Two
    #: evaluations that happen to overlap on a device add their peaks, so
    #: with clients side by side the figure is a draw, not a count.
    serial_arena = False
    #: Whether the write / fresh-answer samples come from one caller with
    #: the clients idle (then they follow the one-caller rule).
    quiet_writes = False

    def __init__(self, seed: int, *, smoke: bool = False):
        self.seed = int(seed)
        self.smoke = smoke
        #: Set by the runner in traced runs.
        self.tracer = None
        #: Sizes a probe chose at run time; stored in the results file.
        self.scaled: dict = {}
        #: Passes (warm-up excluded) the inputs last for; None = no limit.
        self.max_passes: int | None = None

    # -- lifecycle ---------------------------------------------------------

    def build(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        """One untimed pass: fills caches and lazy state."""
        self.run_pass(-1, Recorder())

    def run_pass(self, k: int, rec: Recorder) -> None:
        raise NotImplementedError

    def between_passes(self, k: int, rec: Recorder) -> None:
        """Writes timed by one caller once pass ``k`` has ended, outside its
        window, for workloads whose passes hold none (nothing by default)."""

    def close(self) -> None:
        raise NotImplementedError

    # -- measurements the runner reads -------------------------------------

    def devices(self) -> list:
        """Simulated devices whose arena and counters this workload uses."""
        return [ctx.device for ctx in self.contexts()]

    def hybrid_backends(self) -> list:
        from repro.backends.hybrid import HybridBackend

        out = []
        for ctx in self.contexts():
            if isinstance(ctx.backend, HybridBackend):
                out.append(ctx.backend)
        return out

    def contexts(self) -> list:
        raise NotImplementedError

    def services(self) -> list:
        """``QueryService`` instances (primary first); empty for library
        workloads."""
        return []

    def verify(self, rec: Recorder) -> int:
        """Check answers; report wrong ones through ``rec.fail``; returns
        how many answers were checked."""
        raise NotImplementedError

    def probes(self) -> dict:
        return {}

    def layer_counters(self) -> dict:
        """Extra monotone counters (flat name -> number) for per-pass deltas."""
        return {}
