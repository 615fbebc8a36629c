"""Analysis subsystem: contract lint (reprolint) + runtime lock sentinel.

Two halves guard the kernel/service boundary:

* **reprolint** (static, :mod:`~repro.analysis.engine` +
  :mod:`~repro.analysis.rules`): an AST linter whose per-module rules
  encode the repo's domain contracts — no silent densification in hot
  paths (R1), arena accounting for word buffers (R2), ``# guarded-by``
  lock discipline (R3), taxonomy-only error handling (R4), kernel
  purity (R5), and shape-contract presence (R6).  Run it with
  ``python -m repro lint``; CI diffs against the committed
  ``metadata/lint_baseline.json`` snapshot.
* **locktrace** (runtime, :mod:`~repro.analysis.locktrace`):
  instrumented locks (``REPRO_CHECK_LOCKS=1``) that build a lock-order
  graph across the service tier and report ordering inversions, locks
  held across kernel calls, and long holds.

The package re-exports nothing, so a module that only needs
``make_lock`` / ``kernel_boundary`` loads the sentinel without the
linter.  See ``docs/ANALYSIS.md`` for every rule's rationale, example
findings, and the suppression / allowlist / baseline policy.
"""
