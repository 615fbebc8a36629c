"""Shared scaffolding of the property suites: random labeled graphs,
random add/remove scripts, and a host mirror that replays a script and
keeps the graph at every version for the query-kind oracles."""

from hypothesis import strategies as st

from repro.graph import LabeledGraph

LABELS = ("a", "b")


@st.composite
def random_graph(draw, max_n=10, labels=LABELS):
    n = draw(st.integers(3, max_n))
    g = LabeledGraph(n=n)
    for _ in range(draw(st.integers(0, 3 * n))):
        g.add_edge(
            draw(st.integers(0, n - 1)),
            draw(st.sampled_from(labels)),
            draw(st.integers(0, n - 1)),
        )
    return g


@st.composite
def edge_batches(draw, n, max_batches=5, max_batch=4, labels=LABELS):
    """A random script of ``(op, label, edges)`` add/remove batches."""
    out = []
    for _ in range(draw(st.integers(1, max_batches))):
        op = draw(st.sampled_from(["add", "remove"]))
        size = draw(st.integers(1, max_batch))
        batch = [
            (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
            for _ in range(size)
        ]
        out.append((op, draw(st.sampled_from(labels)), batch))
    return out


def adds_script(adds):
    """An engine-form ``label → (rows, cols)`` adds-only delta as a script."""
    return [
        ("add", label, zip(rows.tolist(), cols.tolist()))
        for label, (rows, cols) in adds.items()
    ]


class Mirror:
    """Host edge sets replaying a script under matrix (set) semantics,
    one version per batch as the graph store numbers them.
    ``versions[v]`` maps each non-empty label to its edge set at ``v``."""

    def __init__(self, graph):
        self.n = graph.n
        self.edges = {label: {(u, v) for u, v in pairs} for label, pairs in graph.edges.items()}
        self.versions = [self._snapshot()]

    def _snapshot(self):
        return {label: set(pairs) for label, pairs in self.edges.items() if pairs}

    def apply(self, op, label, batch) -> int:
        """Apply one batch; returns the version it creates."""
        target = self.edges.setdefault(label, set())
        for u, v in batch:
            (target.add if op == "add" else target.discard)((int(u), int(v)))
        self.versions.append(self._snapshot())
        return len(self.versions) - 1

    def replay(self, script) -> "Mirror":
        for op, label, batch in script:
            self.apply(op, label, batch)
        return self

    def graph(self, version=-1) -> LabeledGraph:
        """The host graph at ``version`` (default: the newest)."""
        return LabeledGraph.from_triples(
            (
                (u, label, v)
                for label, pairs in sorted(self.versions[version].items())
                for u, v in sorted(pairs)
            ),
            n=self.n,
        )
