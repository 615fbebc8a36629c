"""Property tests: incremental evaluation ≡ from-scratch.

Two families of invariants pin the repro.incr subsystem:

* **refresh transparency** — for any interleaving of add/remove batches
  and reads, every read's operands are element-identical to the host
  edge sets at that version;
* **warm-start soundness** — for any adds-only delta, restarting a
  fixpoint from the previous fixed point (closure, single-source reach,
  all-pairs RPQ, tensor and matrix CFPQ) produces exactly the answer of
  the merged graph.

Reach additionally pins **batched ≡ singleton**: a coalesced group's
stacked fixpoint gives each member the singleton engine's answer and
state, so coalescing never changes an answer or a warm-start lineage.

The last test is the service-level differential test: every query kind
under every hybrid setting, through random add/remove scripts where the
scheduler warm-starts or recomputes, answers at every version exactly
as the kind's host-only ``oracle`` does.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.algorithms.closure import (
    incremental_transitive_closure,
    transitive_closure,
)
from repro.cfpq import matrix_cfpq, tensor_cfpq
from repro.grammar import CFG
from repro.incr.engine import (
    pairs_state_from_index,
    rpq_pairs_incremental,
    rpq_reach_incremental,
    tensor_cfpq_incremental,
    tensor_state_from_index,
)
from repro.rpq import rpq_index
from repro.rpq.engine import _compile
from repro.service import QueryService
from repro.service.graph_store import GraphStore
from repro.service.kinds import CFPQ, KINDS, PAIRS, REACH
from tests.property.conftest import Mirror, adds_script, edge_batches, random_graph

CTX = repro.Context(backend="cpu")

QUERIES = ("(a | b)+", "a b*", "(a b)+ | b", "(a b)*")
GRAMMAR = CFG.from_text("S -> a S b | a b")
#: The differential test's query pool, per kind.
KIND_QUERIES = {
    "reach": QUERIES,
    "pairs": QUERIES,
    "cfpq": ("S -> a S b | a b", "S -> a S b S | eps"),
    "dist": (("min-plus", None), ("min-plus", (("a", 0.5), ("b", 2.5)))),
}
HYBRID_SETTINGS = (False, "sparse", "bit", "auto")


@st.composite
def adds_only(draw, n, max_edges=5, labels=("a", "b")):
    """label → (rows, cols) host arrays of added edges."""
    out = {}
    for label in labels:
        size = draw(st.integers(0, max_edges))
        if size:
            pairs = [
                (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
                for _ in range(size)
            ]
            out[label] = (
                np.array([u for u, _ in pairs], np.int64),
                np.array([v for _, v in pairs], np.int64),
            )
    return out


def _to_set(matrix):
    rows, cols = matrix.to_arrays()
    return set(zip(rows.tolist(), cols.tolist()))


# -- refresh transparency ----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(random_graph(), st.data())
def test_overlay_operand_matches_rebuild(graph, data):
    script = data.draw(edge_batches(graph.n))
    mirror = Mirror(graph).replay(script)
    # Always include a label born from a delta and one emptied by removes.
    tail = [("add", "c", [(0, 1)]), ("remove", "a", sorted(mirror.edges.get("a") or [(0, 0)]))]
    mirror.replay(tail)
    script += tail
    store = GraphStore(CTX)
    handle = store.register("g", graph)
    for version, delta in enumerate(script, start=1):
        assert store.apply_batch("g", [delta]) == version
        if version == len(script) or data.draw(st.booleans()):
            operands = handle.query_matrices()
            want = mirror.versions[version]
            for label in set(operands) | set(want):
                assert _to_set(operands[label]) == want.get(label, set()), (label, script)
    store.clear()


# -- warm-start soundness, engine by engine ----------------------------------


@settings(max_examples=25, deadline=None)
@given(random_graph(), st.data())
def test_incremental_closure_matches_scratch(graph, data):
    base = graph.adjacency_union(CTX)
    n = graph.n
    delta_pairs = data.draw(edge_batches(n, max_batches=1))[0][2]
    delta = CTX.matrix_from_lists(
        (n, n),
        [u for u, _ in delta_pairs],
        [v for _, v in delta_pairs],
    )
    closure = transitive_closure(base)
    warm = incremental_transitive_closure(closure, delta)
    both = base.ewise_add(delta)
    cold = transitive_closure(both)
    assert _to_set(warm) == _to_set(cold)
    for m in (base, delta, closure, warm, both, cold):
        m.free()


@settings(max_examples=20, deadline=None)
@given(random_graph(), st.data())
def test_incremental_reach_matches_scratch(graph, data):
    query = data.draw(st.sampled_from(QUERIES))
    source = data.draw(st.integers(0, graph.n - 1))
    adds = data.draw(adds_only(graph.n))
    nfa = _compile(query)
    adjacency = graph.adjacency_matrices(CTX)
    targets, state, warm, _ = rpq_reach_incremental(
        nfa, graph.n, source, CTX, adjacency
    )
    assert not warm
    merged = Mirror(graph).replay(adds_script(adds)).graph()
    merged_adj = merged.adjacency_matrices(CTX)
    warm_targets, _, warm_used, _ = rpq_reach_incremental(
        nfa, graph.n, source, CTX, merged_adj, state=state
    )
    assert warm_used
    assert warm_targets == REACH.oracle(merged, query, source)
    assert targets == REACH.oracle(graph, query, source)
    for m in (*adjacency.values(), *merged_adj.values()):
        m.free()


@settings(max_examples=20, deadline=None)
@given(random_graph(), st.data())
def test_batched_reach_matches_singleton(graph, data):
    """One stacked fixpoint answers every member exactly as the
    singleton engine does — targets, warm flag and resumable state —
    with shared or distinct NFA objects, each member cold or warm."""
    size = data.draw(st.integers(1, 6))
    queries = [data.draw(st.sampled_from(QUERIES)) for _ in range(size)]
    sources = [data.draw(st.integers(0, graph.n - 1)) for _ in range(size)]
    compiled = {q: _compile(q) for q in QUERIES}
    shared = data.draw(st.booleans())
    nfas = [compiled[q] if shared else _compile(q) for q in queries]
    before = graph.adjacency_matrices(CTX)
    seeds = [
        rpq_reach_incremental(nfa, graph.n, src, CTX, before)[1]
        if data.draw(st.booleans()) else None
        for nfa, src in zip(nfas, sources)
    ]
    merged = Mirror(graph).replay(adds_script(data.draw(adds_only(graph.n)))).graph()
    adjacency = merged.adjacency_matrices(CTX)
    batched = rpq_reach_incremental(nfas, graph.n, sources, CTX, adjacency, seeds)
    assert len(batched) == size
    for nfa, src, seed, (targets, state, used, _) in zip(nfas, sources, seeds, batched):
        want, want_state, want_used, _ = rpq_reach_incremental(
            nfa, graph.n, src, CTX, adjacency, state=seed
        )
        assert (targets, used) == (want, want_used) == (want, seed is not None)
        assert (state.kind, state.shape, state.meta) == (
            want_state.kind, want_state.shape, want_state.meta
        )
        assert np.array_equal(state.keys["frontier"], want_state.keys["frontier"])
    for m in (*before.values(), *adjacency.values()):
        m.free()


@settings(max_examples=20, deadline=None)
@given(random_graph(), st.data())
def test_incremental_pairs_matches_scratch(graph, data):
    query = data.draw(st.sampled_from(QUERIES))
    adds = data.draw(adds_only(graph.n))
    nfa = _compile(query)
    index = rpq_index(graph, nfa, CTX)
    state = pairs_state_from_index(index)
    index.free()
    result = rpq_pairs_incremental(nfa, graph.n, CTX, state, adds)
    assert result is not None
    pairs, new_state = result
    merged = Mirror(graph).replay(adds_script(adds)).graph()
    assert pairs == PAIRS.oracle(merged, query, None)
    # The republished state must itself be a valid restart point.
    again = rpq_pairs_incremental(nfa, graph.n, CTX, new_state, {})
    assert again is not None and again[0] == pairs


@settings(max_examples=15, deadline=None)
@given(random_graph(), st.data())
def test_incremental_tensor_cfpq_matches_scratch(graph, data):
    adds = data.draw(adds_only(graph.n))
    index = tensor_cfpq(graph, GRAMMAR, CTX)
    state = tensor_state_from_index(index)
    index.free()
    result = tensor_cfpq_incremental(graph, GRAMMAR, CTX, state, adds)
    assert result is not None
    pairs, _ = result
    merged = Mirror(graph).replay(adds_script(adds)).graph()
    assert pairs == CFPQ.oracle(merged, GRAMMAR, None)


@settings(max_examples=15, deadline=None)
@given(random_graph(), st.data())
def test_incremental_matrix_cfpq_matches_scratch(graph, data):
    adds = data.draw(adds_only(graph.n))
    cold_base = matrix_cfpq(graph, GRAMMAR, CTX)
    prev = {
        nt: m.to_arrays() for nt, m in cold_base.matrices.items()
    }
    cold_base.free()
    merged = Mirror(graph).replay(adds_script(adds)).graph()
    warm = matrix_cfpq(merged, GRAMMAR, CTX, warm_start=prev)
    assert warm.stats["warm_started"]
    assert warm.pairs() == CFPQ.oracle(merged, GRAMMAR, None)
    warm.free()


# -- service level: the differential test ------------------------------------


@settings(max_examples=20, deadline=None)
@given(random_graph(max_n=8), st.data())
def test_service_tracks_interleaved_mutations(graph, data):
    """Every kind × every hybrid setting × a random add/remove script:
    each answer at each version equals the kind's oracle.  Answers
    only — whether an evaluation ran warm or cold is not asserted."""
    script = data.draw(edge_batches(graph.n, max_batches=4, max_batch=3))
    queries = {kind: data.draw(st.sampled_from(pool)) for kind, pool in KIND_QUERIES.items()}
    source = data.draw(st.integers(0, graph.n - 1))
    for hybrid in HYBRID_SETTINGS:
        mirror = Mirror(graph)
        with QueryService(hybrid=hybrid, workers=1) as svc:
            svc.register_graph("g", graph)
            for step in [None, *script]:
                if step is not None:
                    op, label, batch = step
                    version = (svc.add_edges if op == "add" else svc.remove_edges)(
                        "g", label, batch
                    )
                    assert version == mirror.apply(op, label, batch)
                host = mirror.graph()
                for kind, row in KINDS.items():
                    src = source if row.needs_source else None
                    got = svc.submit(kind, "g", queries[kind], source=src).result(timeout=60.0)
                    assert got == row.oracle(host, queries[kind], src), (hybrid, kind, step)
