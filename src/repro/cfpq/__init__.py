"""Context-free path querying (S13).

Two engines, matching the paper's Table IV comparison:

* **Mtx** — :mod:`repro.cfpq.matrix_algorithm`: Azimov's algorithm.
  Requires weak Chomsky normal form; iterates ``T_A += T_B · T_C`` over
  the binary rules until fixpoint.  Simple and fast per iteration, but
  the CNF transform grows the grammar (the paper's stated weakness).
* **Tns** — :mod:`repro.cfpq.tensor_algorithm`: the Kronecker-product
  algorithm over a recursive state machine.  No normal form, handles
  regular *and* context-free queries uniformly, and its closure matrix
  is an index for **all-paths** extraction (:mod:`repro.cfpq.paths`) —
  strictly more information than Mtx computes, which is why the paper
  expects Tns ≥ Mtx in time on most graphs while winning on queries
  whose CNF blowup hurts Mtx (go-hierarchy in Table IV).

:mod:`repro.cfpq.naive` is the worklist CFL-reachability oracle: the
``cfpq`` query kind's reference answer (:mod:`repro.service.kinds`).
"""

from repro.cfpq.naive import naive_cfpq
from repro.cfpq.matrix_algorithm import MatrixIndex, matrix_cfpq
from repro.cfpq.tensor_algorithm import TensorIndex, tensor_cfpq
from repro.cfpq.paths import extract_paths
from repro.cfpq.witnesses import SinglePath, WitnessTable, build_witnesses
from repro.cfpq.engine import as_rsm, cfpq

__all__ = [
    "MatrixIndex",
    "SinglePath",
    "TensorIndex",
    "WitnessTable",
    "as_rsm",
    "build_witnesses",
    "cfpq",
    "extract_paths",
    "matrix_cfpq",
    "naive_cfpq",
    "tensor_cfpq",
]
