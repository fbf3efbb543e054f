"""Graph containers and exact combinatorial checks.

The checks in this module are deliberately independent of the constructions
they validate: they only look at the graph through a tiny protocol
(``vertices()``, ``edges()``, ``has_edge``, ``neighbors``, and ``edge_within``
where a graph offers one), so the same code verifies materialized graphs and
the lazily generated reduction graphs.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Iterator, NamedTuple

Vertex = Hashable
Edge = tuple


class CheckResult(NamedTuple):
    """Outcome of a verification, with the first witness of failure."""

    ok: bool
    witness: object = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok


class Graph:
    """Undirected simple graph with deterministic vertex and edge order.

    Vertices keep first-insertion order and every edge is stored once,
    oriented so the endpoint inserted earlier comes first.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        self._index: dict[Vertex, int] = {}
        self._vertices: list[Vertex] = []
        self._adjacency: dict[Vertex, list[Vertex]] = {}
        self._edge_list: list[tuple[Vertex, Vertex]] = []
        self._edge_set: set[tuple[Vertex, Vertex]] = set()
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    def add_vertex(self, v: Vertex) -> None:
        if v not in self._index:
            self._index[v] = len(self._vertices)
            self._vertices.append(v)
            self._adjacency[v] = []

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        if u == v:
            raise ValueError(f"self-loop at {u!r} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        a, b = self._orient(u, v)
        if (a, b) in self._edge_set:
            return
        self._edge_set.add((a, b))
        self._edge_list.append((a, b))
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)

    def _orient(self, u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
        if self._index[u] <= self._index[v]:
            return (u, v)
        return (v, u)

    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(self._vertices)

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        return iter(self._edge_list)

    def sorted_edges(self) -> list[tuple[Vertex, Vertex]]:
        """Edges sorted by (index, index) pairs, for canonical output."""
        return sorted(self._edge_list, key=lambda e: (self._index[e[0]], self._index[e[1]]))

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u not in self._index or v not in self._index or u == v:
            return False
        return self._orient(u, v) in self._edge_set

    adjacent = has_edge

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return tuple(self._adjacency[v])

    def degree(self, v: Vertex) -> int:
        return len(self._adjacency[v])

    def index(self, v: Vertex) -> int:
        return self._index[v]

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    @property
    def n_vertices(self) -> int:
        return len(self._vertices)

    @property
    def n_edges(self) -> int:
        return len(self._edge_list)


class Bipartite:
    """Bipartite graph with explicit sides and deterministic order."""

    def __init__(
        self,
        left: Iterable[Vertex],
        right: Iterable[Vertex],
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        self.left: tuple[Vertex, ...] = tuple(left)
        self.right: tuple[Vertex, ...] = tuple(right)
        if len(set(self.left)) != len(self.left) or len(set(self.right)) != len(self.right):
            raise ValueError("duplicate vertex within a side")
        if set(self.left) & set(self.right):
            raise ValueError("sides are not disjoint")
        self._left_index = {v: i for i, v in enumerate(self.left)}
        self._right_index = {v: i for i, v in enumerate(self.right)}
        self._edge_list: list[tuple[Vertex, Vertex]] = []
        self._edge_set: set[tuple[Vertex, Vertex]] = set()
        for a, b in edges:
            self.add_edge(a, b)

    def add_edge(self, a: Vertex, b: Vertex) -> None:
        if a not in self._left_index or b not in self._right_index:
            raise ValueError(f"edge ({a!r}, {b!r}) does not run from left to right")
        if (a, b) in self._edge_set:
            return
        self._edge_set.add((a, b))
        self._edge_list.append((a, b))

    def has_edge(self, a: Vertex, b: Vertex) -> bool:
        return (a, b) in self._edge_set

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        return iter(self._edge_list)

    @property
    def n_edges(self) -> int:
        return len(self._edge_list)

    def left_index(self, v: Vertex) -> int:
        return self._left_index[v]

    def right_index(self, v: Vertex) -> int:
        return self._right_index[v]

    def to_graph(self) -> Graph:
        g = Graph(vertices=self.left + self.right)
        for a, b in sorted(
            self._edge_list,
            key=lambda e: (self._left_index[e[0]], self._right_index[e[1]]),
        ):
            g.add_edge(a, b)
        return g


def matched_vertices(matching: Iterable[tuple[Vertex, Vertex]]) -> set[Vertex]:
    out: set[Vertex] = set()
    for u, v in matching:
        out.add(u)
        out.add(v)
    return out


def verify_vertex_cover(graph, cover: Iterable[Vertex]) -> CheckResult:
    """True iff every edge has an endpoint in ``cover``; witness is the first uncovered edge."""
    cover_set = set(cover)
    for u, v in graph.edges():
        if u not in cover_set and v not in cover_set:
            return CheckResult(False, (u, v), "uncovered edge")
    return CheckResult(True)


def verify_matching(graph, matching: Iterable[tuple[Vertex, Vertex]]) -> CheckResult:
    """Check that ``matching`` consists of pairwise disjoint graph edges."""
    seen: set[Vertex] = set()
    for u, v in matching:
        if not graph.has_edge(u, v):
            return CheckResult(False, (u, v), "edge not in graph")
        if u in seen or v in seen:
            return CheckResult(False, (u, v), "vertex matched twice")
        seen.add(u)
        seen.add(v)
    return CheckResult(True)


def verify_maximal_matching(graph, matching: Iterable[tuple[Vertex, Vertex]]) -> CheckResult:
    """True iff no graph edge has both endpoints unmatched.

    Raises ValueError when the input is not a matching at all; a maximality
    failure is reported through the result, with the addable edge as witness.
    """
    matching = list(matching)
    valid = verify_matching(graph, matching)
    if not valid:
        raise ValueError(f"not a matching: {valid.reason} at {valid.witness!r}")
    matched = matched_vertices(matching)
    for u, v in graph.edges():
        if u not in matched and v not in matched:
            return CheckResult(False, (u, v), "addable edge")
    return CheckResult(True)


def verify_maximal_matching_via_unmatched(
    graph, matching: Iterable[tuple[Vertex, Vertex]]
) -> CheckResult:
    """Maximality check that looks at the unmatched vertices instead of edges.

    Equivalent to ``verify_maximal_matching``: a matching is maximal exactly
    when no edge joins two unmatched vertices.  Preferable when the graph is
    large but the unmatched set is small.  A graph with an ``edge_within``
    method (the gadget's independence kernel) answers for the whole unmatched
    set at once; any other graph is scanned pair by pair with ``has_edge``.
    """
    matching = list(matching)
    valid = verify_matching(graph, matching)
    if not valid:
        raise ValueError(f"not a matching: {valid.reason} at {valid.witness!r}")
    matched = matched_vertices(matching)
    unmatched = [v for v in graph.vertices() if v not in matched]
    edge_within = getattr(graph, "edge_within", None)
    if edge_within is not None:
        edge = edge_within(unmatched)
        return CheckResult(True) if edge is None else CheckResult(False, edge, "addable edge")
    for i, u in enumerate(unmatched):
        for v in unmatched[i + 1 :]:
            if graph.has_edge(u, v):
                return CheckResult(False, (u, v), "addable edge")
    return CheckResult(True)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style graph on vertices 0..n-1 with edge probability p."""
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g
