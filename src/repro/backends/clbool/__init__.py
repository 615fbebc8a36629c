"""clBool backend port (S4): boolean COO on the simulated OpenCL device.

Storage is coordinate format — the paper's stated choice "because COO
gives better memory footprint for very sparse matrices with a lot of
empty rows" (an ``m x n`` matrix costs ``2·nnz`` indices, independent of
``m``).  The operations differ from cuBool's in exactly the ways the
paper describes:

* **SpGEMM** — expansion–sort–compaction
  (:mod:`repro.backends.clbool.spgemm_esc`): the candidate-product
  stream is materialized in a *global-memory* expansion buffer, sorted,
  and duplicates are compacted away (boolean saturation).  Peak memory
  is proportional to the expansion size — the structural contrast with
  cuBool's shared-memory hash tables that the memory benchmarks expose.
  The arithmetic is the boolean core shared with cuBool and cpu; the
  launches and arena charges are clBool's own.
* **Element-wise add** — one-pass merge
  (:mod:`repro.backends.clbool.merge_add`): "it allocates single merge
  buffer of size NNZ(A) + NNZ(B) before actual merge … what can
  negatively affect memory consumption for large matrices with lots of
  duplicated non-zero values at the same positions" (paper).  Since COO
  keeps the whole matrix in one array, the merge happens in a single
  launch rather than per-row.
"""

from repro.backends.clbool.backend import ClBoolBackend

__all__ = ["ClBoolBackend"]
