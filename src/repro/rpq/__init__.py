"""Regular path querying (S12) via the Kronecker product.

The evaluation's RPQ workload: build the query automaton, form the
product graph ``M = Σ_label R_label ⊗ G_label``, transitively close it,
and read reachable (source, target) vertex pairs out of the
(start-state, final-state) blocks — "index creation" in Figures 2–3 of
the paper.  Path extraction walks the product graph guided by the
closure.  :mod:`repro.rpq.naive` is the host-only product-BFS oracle
the engines are checked against.
"""

from repro.rpq.engine import (
    RpqIndex,
    rpq_index,
    rpq_pairs,
    rpq_reach,
    rpq_reach_batch,
)
from repro.rpq.naive import naive_rpq
from repro.rpq.paths import extract_paths

__all__ = [
    "RpqIndex",
    "extract_paths",
    "naive_rpq",
    "rpq_index",
    "rpq_pairs",
    "rpq_reach",
    "rpq_reach_batch",
]
