"""Bipartite doubling of a graph, path/cycle covers, and the pad gadget.

Doubling a graph gives two copies v^l, v^r of every vertex with u^l ~ v^r
exactly when u ~ v.  A matching of the doubled graph reads as a set of arcs
u -> v on the base vertices with in- and out-degree at most one, so it
decomposes into vertex-disjoint directed paths and cycles; the vertices of
that decomposition cover the base graph whenever the matching is maximal.

The pad gadget turns balanced-biclique hardness into matching hardness: the
bipartite complement of a graph on sides of size n is padded with two fully
joined vertex blocks of size (1/2 + eps) n; large planted bicliques yield a
small maximal matching, and conversely any maximal matching leaves behind a
balanced biclique of the original graph.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .graphs import Bipartite, Graph, check_size, verify_matching, verify_vertex_cover


class BipVertex(NamedTuple):
    side: str  # "l" or "r"
    base: object

    def label(self) -> str:
        return f"{self.base}^{self.side}"


class Bipartisation:
    """Doubled view of a base graph, with lazy adjacency."""

    def __init__(self, base) -> None:
        self.base = base
        self._base_verts = tuple(base.vertices())
        self.n_vertices = 2 * len(self._base_verts)

    def vertices(self) -> Iterator[BipVertex]:
        for v in self._base_verts:
            yield BipVertex("l", v)
        for v in self._base_verts:
            yield BipVertex("r", v)

    def has_edge(self, u: BipVertex, v: BipVertex) -> bool:
        if u.side == v.side:
            return False
        return self.base.has_edge(u.base, v.base)

    def edges(self) -> Iterator[tuple[BipVertex, BipVertex]]:
        for u, v in self.base.edges():
            yield (BipVertex("l", u), BipVertex("r", v))
            yield (BipVertex("l", v), BipVertex("r", u))

    @property
    def n_edges(self) -> int:
        return 2 * self.base.n_edges

    def to_graph(self) -> Graph:
        return Graph.of(self)

    def to_bipartite(self) -> Bipartite:
        check_size(self.n_vertices, self.n_edges)
        return Bipartite(
            left=(BipVertex("l", v) for v in self._base_verts),
            right=(BipVertex("r", v) for v in self._base_verts),
            edges=self.edges(),
        )


def bipartise(base) -> Bipartisation:
    return Bipartisation(base)


def double_matching(bip: Bipartisation, matching: Iterable) -> tuple:
    """Both oriented copies of every base matching edge.

    The result is a matching of the doubled graph with twice the size, and
    it is maximal there exactly when the input is maximal in the base.
    """
    pairs = list(matching)
    check = verify_matching(bip.base, pairs)
    if not check:
        raise ValueError(f"not a matching of the base graph: {check.reason} at {check.witness!r}")
    out = []
    for u, v in pairs:
        out.append((BipVertex("l", u), BipVertex("r", v)))
        out.append((BipVertex("l", v), BipVertex("r", u)))
    return tuple(out)


class PathCycleDecomposition(NamedTuple):
    """Arc components of a doubled-graph matching, on base vertices.

    A path (v0, ..., vk) carries the arcs v0->v1->...->vk; a cycle
    (v0, ..., vk) additionally closes vk->v0.  Components are vertex
    disjoint.
    """

    paths: tuple[tuple, ...]
    cycles: tuple[tuple, ...]

    @property
    def n_edges(self) -> int:
        return sum(len(p) - 1 for p in self.paths) + sum(len(c) for c in self.cycles)

    def vertices(self) -> tuple:
        out = []
        for part in self.paths + self.cycles:
            out.extend(part)
        return tuple(out)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices())


def decompose(bip: Bipartisation, matching: Iterable) -> PathCycleDecomposition:
    """Split a matching of the doubled graph into directed paths and cycles.

    Every base vertex has at most one outgoing arc (its left copy is matched
    at most once) and one incoming arc, so the components really are simple
    paths and cycles.  Paths come first, each listed from its start; cycles
    are rotated to start at their smallest base vertex; both lists are
    ordered by that smallest contained vertex.
    """
    pairs = list(matching)
    check = verify_matching(bip, pairs)
    if not check:
        raise ValueError(f"not a matching of the doubled graph: {check.reason} at {check.witness!r}")
    nxt: dict = {}
    prev: dict = {}
    for a, b in pairs:
        if a.side == "r":
            a, b = b, a
        nxt[a.base] = b.base
        prev[b.base] = a.base

    idx = bip.base.index
    paths = []
    for start in sorted((v for v in nxt if v not in prev), key=idx):
        walk = [start]
        while walk[-1] in nxt:
            walk.append(nxt[walk[-1]])
        paths.append(tuple(walk))
    used = {v for p in paths for v in p}
    cycles = []
    seen = set()
    for v in sorted(nxt, key=idx):
        if v in used or v in seen:
            continue
        walk = [v]
        seen.add(v)
        w = nxt[v]
        while w != v:
            walk.append(w)
            seen.add(w)
            w = nxt[w]
        pivot = min(range(len(walk)), key=lambda i: idx(walk[i]))
        cycles.append(tuple(walk[pivot:] + walk[:pivot]))
    decomp = PathCycleDecomposition(tuple(paths), tuple(cycles))
    if decomp.n_edges != len(pairs):
        raise AssertionError("decomposition does not account for every matching edge")
    return decomp


def cover_from_decomposition(base, decomp: PathCycleDecomposition) -> tuple:
    """All vertices met by the decomposition, verified to cover the base graph.

    A base vertex outside the decomposition has both copies unmatched, so an
    uncovered edge would contradict maximality of the doubled matching; the
    cover size is the matching size plus the number of paths.
    """
    cover = sorted(set(decomp.vertices()), key=base.index)
    check = verify_vertex_cover(base, cover)
    if not check:
        raise ValueError(
            f"uncovered edge {check.witness}; the matching was not maximal in the doubled graph"
        )
    return tuple(cover)


class SsehGadget(NamedTuple):
    """Padded bipartite complement on which small maximal matchings certify bicliques."""

    graph: Bipartite
    original: Bipartite
    a: tuple
    b: tuple
    a_pad: tuple
    b_pad: tuple
    epsilon: Fraction
    n: int

    @property
    def side(self) -> int:
        return self.n + len(self.a_pad)


def sseh_gadget(original: Bipartite, epsilon: Fraction) -> SsehGadget:
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < Fraction(1, 2):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    a, b = original.left, original.right
    if len(a) != len(b):
        raise ValueError("both sides must have the same size")
    n = len(a)
    pad_size = (Fraction(1, 2) + epsilon) * n
    if pad_size.denominator != 1:
        raise ValueError(f"pad size (1/2 + epsilon) n = {pad_size} is not an integer")
    pad_size = int(pad_size)
    check_size(2 * (n + pad_size), n * n - original.n_edges + n * pad_size + pad_size * (n + pad_size))
    a_pad = tuple(("a'", i) for i in range(pad_size))
    b_pad = tuple(("b'", i) for i in range(pad_size))
    taken = set(a) | set(b)
    if taken & set(a_pad) or taken & set(b_pad):
        raise ValueError("original vertices collide with pad vertex names")
    g = Bipartite(left=a + a_pad, right=b + b_pad)
    for u in a:  # complement of the original between the two sides
        for v in b:
            if not original.has_edge(u, v):
                g.add_edge(u, v)
    for u in a:
        for v in b_pad:
            g.add_edge(u, v)
    for u in a_pad:  # pad vertices see the entire opposite side, pads included
        for v in b + b_pad:
            g.add_edge(u, v)
    return SsehGadget(g, original, a, b, a_pad, b_pad, epsilon, n)


def sseh_yes_matching(gadget: SsehGadget, biclique_a: Iterable, biclique_b: Iterable) -> tuple:
    """Maximal matching of size n (1 + 2 eps) built from a planted biclique.

    The rest of side a pairs with the b pad and the a pad pairs with the
    rest of side b; the biclique itself stays unmatched, which is safe
    because its pairs are complete in the original and hence absent here.
    """
    k_a, k_b = sorted(set(biclique_a)), sorted(set(biclique_b))
    want = 2 * gadget.n - gadget.side  # (1/2 - eps) n
    if len(k_a) != want or len(k_b) != want:
        raise ValueError(f"planted sides must have size (1/2 - epsilon) n = {want}")
    if not set(k_a) <= set(gadget.a) or not set(k_b) <= set(gadget.b):
        raise ValueError("planted sets must lie in the original sides")
    for u in k_a:
        for v in k_b:
            if not gadget.original.has_edge(u, v):
                raise ValueError(f"planted pair ({u}, {v}) is missing from the original graph")
    rest_a = [v for v in gadget.a if v not in set(k_a)]
    rest_b = [v for v in gadget.b if v not in set(k_b)]
    pairs = list(zip(rest_a, gadget.b_pad)) + list(zip(gadget.a_pad, rest_b))
    for u, v in pairs:
        if not gadget.graph.has_edge(u, v):
            raise AssertionError(f"pad pairing ({u}, {v}) is not an edge")
    for u in k_a:  # the unmatched pairs really are non-edges: maximality
        for v in k_b:
            if gadget.graph.has_edge(u, v):
                raise AssertionError("biclique pair survived into the complement")
    return tuple(pairs)


def anti_biclique_bound(gadget: SsehGadget, mbb_value: int) -> int:
    """Lower bound on any maximal matching of the padded complement.

    A maximal matching leaves equal-size unmatched sets that avoid the pads
    and span no complement edge, hence a balanced biclique of the original;
    the bound concedes one extra vertex for the corner cases of the pad
    accounting.
    """
    if mbb_value < 0:
        raise ValueError("biclique size cannot be negative")
    return max(gadget.side - (mbb_value + 1), 0)


def random_planted_biclique(
    n: int, epsilon: Fraction, seed: int = 0, p_edge: float = 0.5
) -> tuple[Bipartite, tuple, tuple]:
    """Random balanced bipartite graph with a planted complete (1/2 - eps) n biclique."""
    if n < 1:
        raise ValueError(f"each side needs n >= 1 vertices, got n = {n}")
    epsilon = Fraction(epsilon)
    k = (Fraction(1, 2) - epsilon) * n
    if k.denominator != 1:
        raise ValueError(f"planted size (1/2 - epsilon) n = {k} is not an integer")
    k = int(k)
    check_size(2 * n, n * n)  # the most edges it can draw
    rng = random.Random(seed)
    a = tuple(("a", i) for i in range(n))
    b = tuple(("b", i) for i in range(n))
    k_a = tuple(sorted(rng.sample(range(n), k)))
    k_b = tuple(sorted(rng.sample(range(n), k)))
    g = Bipartite(left=a, right=b)
    chosen_a = set(k_a)
    chosen_b = set(k_b)
    for i in range(n):
        for j in range(n):
            planted = i in chosen_a and j in chosen_b
            if planted or rng.random() < p_edge:
                g.add_edge(("a", i), ("b", j))
    return g, tuple(("a", i) for i in k_a), tuple(("b", j) for j in k_b)
