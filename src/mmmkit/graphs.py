"""The one graph container, the one size rule, and exact combinatorial checks.

``Graph`` is the only materialized graph; ``Bipartite`` is a ``Graph`` with
two named sides that refuses an edge not running from left to right, and
its ``has_edge`` is symmetric like any graph's.  ``Graph.of`` lists a lazy
graph only once ``check_size`` has passed its exact counts.  The checks here
are independent of the constructions they validate: they only look at the
graph through a tiny protocol (``vertices()``, ``edges()``, ``has_edge``,
and ``edge_within`` where a graph offers one), so the same code verifies
materialized graphs and the lazily generated reduction graphs.
"""

from __future__ import annotations

import random
from typing import Hashable, Iterable, Iterator, NamedTuple

Vertex = Hashable
Edge = tuple
MAX_GRAPH_SIZE = 1 << 20  # vertices plus edges of the largest graph listed in memory or in a file


def check_size(n_vertices: int, n_edges: int) -> None:
    """Refuse a graph of more than ``MAX_GRAPH_SIZE`` vertices plus edges, before any is listed."""
    if n_vertices + n_edges > MAX_GRAPH_SIZE:
        raise ValueError(f"graph with {n_vertices} vertices and {n_edges} edges exceeds the size cap {MAX_GRAPH_SIZE}")


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

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u not in self._index or v not in self._index or u == v:
            return False
        return self._orient(u, v) in self._edge_set

    def neighbors(self, v: Vertex) -> tuple[Vertex, ...]:
        return tuple(self._adjacency[v])

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

    def to_graph(self) -> Graph:
        return self

    @staticmethod
    def of(lazy) -> Graph:
        """``lazy`` listed into a ``Graph``, once ``check_size`` has passed its exact counts."""
        check_size(lazy.n_vertices, lazy.n_edges)
        return Graph(lazy.vertices(), lazy.edges())


class Bipartite(Graph):
    """A ``Graph`` on ``left + right`` whose every edge runs from a left
    vertex to a right one, and is stored in that orientation."""

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
        super().__init__(self.left + self.right, edges)

    def add_edge(self, a: Vertex, b: Vertex) -> None:
        n_left, n = len(self.left), len(self.left) + len(self.right)
        if not self._index.get(a, n) < n_left <= self._index.get(b, n) < n:
            raise ValueError(f"edge ({a!r}, {b!r}) does not run from left to right")
        super().add_edge(a, b)

    def to_graph(self) -> Graph:
        """A plain ``Graph`` with the edges sorted by left index, then right index."""
        index = self._index
        return Graph(self._vertices, sorted(self._edge_list, key=lambda e: (index[e[0]], index[e[1]])))


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

    A graph with an ``edge_within`` method (the gadget's independence
    kernel) answers for the whole unmatched set at once; any other graph is
    scanned edge by edge.  Raises ValueError when the input is not a
    matching at all; a maximality failure is reported through the result,
    with the addable edge as witness.
    """
    matching = list(matching)
    valid = verify_matching(graph, matching)
    if not valid:
        raise ValueError(f"not a matching: {valid.reason} at {valid.witness!r}")
    matched = matched_vertices(matching)
    edge_within = getattr(graph, "edge_within", None)
    if edge_within is not None:
        edge = edge_within([v for v in graph.vertices() if v not in matched])
    else:
        edge = next(((u, v) for u, v in graph.edges() if u not in matched and v not in matched), None)
    return CheckResult(True) if edge is None else CheckResult(False, edge, "addable edge")


verify_maximal_matching_via_unmatched = verify_maximal_matching  # the name the benchmark grid imports


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi style graph on vertices 0..n-1 with edge probability p, counted by ``check_size`` row by row."""
    check_size(n, 0)
    rng = random.Random(seed)
    g = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
        check_size(n, g.n_edges)
    return g
