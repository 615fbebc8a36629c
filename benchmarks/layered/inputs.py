"""Seeded input generators.  Operand sizes are fixed; the seed picks
which cells, vertices and edges, never how many — so every seed gives the
same amount of work and the metrics compare across seeds.

Uniform operands are resampled per seed (their products differ by well
under 1 %).  *Structured* graphs — power-law, LUBM-like, alias, RDF
hierarchy, communities — are generated once with :data:`STRUCTURE_SEED`
and the run's seed relabels their vertices: across ten seeds the same
generators gave CFPQ fixpoints 2.4x apart and products 10 % apart, which
would measure the sample, not the program.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import (
    grid_graph,
    instantiate_template,
    lubm_like_graph,
    memory_alias_graph,
    power_law_graph,
    rdf_like_graph,
)
from repro.graph import LabeledGraph

#: Generator seed of every structured graph (the run's seed relabels it).
STRUCTURE_SEED = 0

#: The eight E3 templates (Table II rows used by the LUBM series).
RPQ_TEMPLATE_NAMES = ("Q1", "Q2", "Q4_3", "Q5", "Q9_2", "Q11_3", "Q12", "Q14")

#: go-hierarchy scale at which G1 (Tns) takes 0.1-0.5 s on the reference host.
GO_HIERARCHY_SCALE = 0.3


def uniform_coo(n: int, density: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Exactly ``round(density * n * n)`` distinct cells of an n x n matrix."""
    count = int(round(density * n * n))
    keys = rng.choice(n * n, size=count, replace=False)
    return keys // n, keys % n


def block_diagonal_coo(n: int, blocks: int, density: float, rng):
    """``blocks`` equal diagonal blocks, each uniform at ``density``."""
    size = n // blocks
    rows, cols = [], []
    for b in range(blocks):
        r, c = uniform_coo(size, density, rng)
        rows.append(r + b * size)
        cols.append(c + b * size)
    return np.concatenate(rows), np.concatenate(cols)


def graph_coo(graph: LabeledGraph) -> tuple[np.ndarray, np.ndarray]:
    """Union adjacency of a labeled graph as (rows, cols)."""
    parts = [np.asarray(p, dtype=np.int64) for p in graph.edges.values() if p]
    both = np.concatenate(parts)
    return both[:, 0], both[:, 1]


def relabel(graph: LabeledGraph, perm: np.ndarray) -> LabeledGraph:
    """Copy of ``graph`` with vertex ``v`` renamed ``perm[v]``."""
    out = LabeledGraph(n=graph.n)
    for label, pairs in graph.edges.items():
        if pairs:
            arr = perm[np.asarray(pairs, dtype=np.int64)]
            out.edges[label].extend(zip(arr[:, 0].tolist(), arr[:, 1].tolist()))
    return out


def community_placement(n: int, blocks: int, seed: int, active: int | None = None):
    """Label of every *structural* vertex of :func:`community_graph`:
    entry ``b * size + i`` is where the seed puts vertex ``i`` of
    structural block ``b`` (blocks and the active vertices inside each are
    permuted).  Requests that name structural vertices do the same work
    under every seed."""
    stride = n // blocks
    size = stride if active is None else active
    rng = np.random.default_rng(seed)
    block_of = rng.permutation(blocks)
    within = np.stack([rng.permutation(size) for _ in range(blocks)])
    return (block_of[:, None] * stride + within).reshape(-1)


def community_graph(
    n: int, blocks: int, density: float, labels: tuple[str, ...], seed: int,
    *, active: int | None = None,
) -> LabeledGraph:
    """``blocks`` disjoint communities on ``n`` vertices; the first
    ``active`` vertices of each block (default: all) carry its edges, the
    rest stay isolated.  Labels alternate over the edges so each label
    gets the same share.  The seed only relabels
    (:func:`community_placement`)."""
    size = n // blocks if active is None else active
    structure = np.random.default_rng(STRUCTURE_SEED)
    rows, cols = block_diagonal_coo(size * blocks, blocks, density, structure)
    order = structure.permutation(rows.size)
    place = community_placement(n, blocks, seed, active)
    rows, cols = place[rows[order]], place[cols[order]]
    g = LabeledGraph(n=n)
    for i, label in enumerate(labels):
        g.edges[label].extend(
            zip(rows[i :: len(labels)].tolist(), cols[i :: len(labels)].tolist())
        )
    return g


def sparse_operands(seed: int) -> dict:
    """The hyper-sparse ``ops_sparse`` operand families as host COO."""
    rng = np.random.default_rng(seed)
    out = {}
    r, c = uniform_coo(4096, 0.001, rng)
    out["uniform4096"] = (r, c, 4096)
    power = power_law_graph(8192, 6 * 8192, exponent=1.8, seed=STRUCTURE_SEED)
    r, c = graph_coo(relabel(power, rng.permutation(power.n)))
    out["powerlaw8192"] = (r, c, power.n)
    grid = grid_graph(96)
    r, c = graph_coo(relabel(grid, rng.permutation(grid.n)))
    out["grid96"] = (r, c, grid.n)
    lubm, _, _ = lubm_inputs(seed)
    r, c = graph_coo(lubm)
    out["lubm16k"] = (r, c, lubm.n)
    return out


def lubm_inputs(seed: int) -> tuple[LabeledGraph, list[str], np.ndarray]:
    """The LUBM-like graph (n = 16 152), the eight instantiated templates,
    and the students (sources with ``takesCourse`` edges) in a fixed
    structural order, under the seed's labels."""
    base = lubm_like_graph("LUBM1k", scale=1.0, seed=STRUCTURE_SEED)
    perm = np.random.default_rng(seed).permutation(base.n)
    graph = relabel(base, perm)
    labels = graph.most_frequent_labels(6)
    queries = [instantiate_template(name, labels) for name in RPQ_TEMPLATE_NAMES]
    students = np.array(sorted({u for u, _ in base.edges["takesCourse"]}))
    students = np.random.default_rng(STRUCTURE_SEED).permutation(students)
    return graph, queries, perm[students]


def alias_graph(seed: int, scale: float) -> LabeledGraph:
    graph = memory_alias_graph("arch", scale=scale, seed=STRUCTURE_SEED)
    return relabel(graph, np.random.default_rng(seed).permutation(graph.n))


def go_hierarchy_graph(seed: int) -> LabeledGraph:
    graph = rdf_like_graph(
        "go-hierarchy", scale=GO_HIERARCHY_SCALE, seed=STRUCTURE_SEED
    ).with_inverses()
    return relabel(graph, np.random.default_rng(seed).permutation(graph.n))


def zipf_counts(total: int, ranks: int, exponent: float = 1.2) -> list[int]:
    """Split ``total`` requests over ``ranks`` keys by Zipf(exponent)
    weights, every key at least once (largest-remainder rounding)."""
    weights = np.arange(1, ranks + 1, dtype=np.float64) ** (-exponent)
    ideal = weights / weights.sum() * (total - ranks)
    counts = np.floor(ideal).astype(int)
    short = total - ranks - int(counts.sum())
    for i in np.argsort(-(ideal - counts))[:short]:
        counts[i] += 1
    return (counts + 1).tolist()
