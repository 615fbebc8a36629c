"""Graph algorithms the paper's applications run on the sparse API (S9).

Transitive closure is the CFPQ and RPQ engines' core loop and the
paper's stated complexity bottleneck; min-plus shortest paths serve the
query service's ``dist`` kind.  Other algorithms (BFS, components,
triangle counting, ...) are clients of the operations, as in GraphBLAS,
and are not shipped: no workload, paper table or entry point used them.
"""

from repro.algorithms.closure import (
    incremental_transitive_closure,
    transitive_closure,
)
from repro.algorithms.shortest_paths import (
    all_pairs_shortest_paths,
    single_source_shortest_paths,
    weight_matrix,
)

__all__ = [
    "all_pairs_shortest_paths",
    "incremental_transitive_closure",
    "single_source_shortest_paths",
    "transitive_closure",
    "weight_matrix",
]
