"""cuBool backend port (S3): boolean CSR on the simulated CUDA device.

Operation implementations follow the paper's description of cuBool:

* **SpGEMM** — the Nsparse algorithm (Nagasaka et al.) adapted to
  boolean values: rows are classified by an upper bound on their product
  size into power-of-two bins; each bin runs a hash-table kernel sized
  for the bin, with small bins using shared-memory tables and oversized
  rows falling back to global-memory tables.  Each launch computes its
  rows through the one boolean core shared with clBool and cpu instead
  of replaying the probe race (:mod:`repro.backends.cubool.spgemm_hash`).
* **Element-wise add** — GPU Merge Path with "two pass processing":
  pass one computes exact merged sizes so the output can be allocated
  precisely, pass two performs the merge
  (:mod:`repro.backends.cubool.ewise_add`).
* **Kronecker / transpose / sub-matrix / reduce** — index-arithmetic
  kernels (:mod:`repro.backends.cubool.kernels`).

Device-memory accounting rule (applies to every backend on the simulated
device): a buffer goes through the device arena **iff the CUDA original
allocates it in global device memory** — matrix storage, exact-sized
outputs, global-bin hash tables, merge buffers.  Streams the real kernel
keeps in registers/shared memory (candidate streams, per-block tables,
partition indices) are plain NumPy arrays here and are *not* accounted,
so arena peaks reproduce the original's global-memory footprint.
"""

from repro.backends.cubool.backend import CuBoolBackend

__all__ = ["CuBoolBackend"]
