"""Unweighted blowups of the gadget graph and discretized matchings.

Each base vertex v becomes 4 * n_v interchangeable copies, where n_v rounds
n times the vertex weight and n scales with 1/rho; copies of adjacent base
vertices are completely joined, copies of the same vertex are not adjacent.
Vertex covers of such graphs are essentially products (all or none of a
vertex's copies), and the fractional matching of the base discretizes into
an honest maximal matching on the copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .fracmatch import FractionalMatching, empty_set_plan, layer_plan, stage_one_partner
from .gadget import (
    GadgetGraph,
    GadgetVertex,
    complement_pairs,
    planted_independent_set,
    resolve_planted,
)
from .graphs import CheckResult, Graph, verify_matching, verify_vertex_cover
from .ulc import Planted

DEFAULT_VERTEX_CAP = 200_000


def round_half_away(q: Fraction) -> int:
    """Round to the nearest integer, ties away from zero."""
    q = Fraction(q)
    floor = q.numerator // q.denominator
    frac = q - floor
    if frac > Fraction(1, 2):
        return floor + 1
    if frac < Fraction(1, 2):
        return floor
    return floor + 1 if q > 0 else floor


class BlowupVertex(NamedTuple):
    base: GadgetVertex
    copy: int

    def label(self) -> str:
        return f"⟨{self.base.label()},{self.copy}⟩"


class BlowupGraph:
    """Unweighted copy graph over a gadget base.

    Copy counts are 4 * n_v with n_v = round(n * w(v)); vertices whose count
    rounds to zero are dropped entirely.  Adjacency is inherited from the
    base, so edges are enumerated lazily.
    """

    def __init__(self, gadget: GadgetGraph, rho: Fraction, cap: int = DEFAULT_VERTEX_CAP) -> None:
        rho = Fraction(rho)
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.gadget = gadget
        self.rho = rho
        self.n = Fraction(gadget.n_vertices) / rho
        self.n_v_by_size = tuple(
            round_half_away(self.n * w) for w in gadget.weight_by_size
        )
        per_cloud = sum(
            4 * self.n_v_by_size[s.bit_count()] for s in range(gadget.cloud_size)
        )
        total = per_cloud * gadget.num_vars
        if total > cap:
            raise ValueError(f"blowup would have {total} vertices, exceeding the cap {cap}")
        self.n_vertices = total
        self._actives: list[GadgetVertex] = [
            v for v in gadget.vertices() if self.n_v_by_size[v.subset.bit_count()] > 0
        ]
        self._offsets: dict[GadgetVertex, int] = {}
        offset = 0
        for v in self._actives:
            self._offsets[v] = offset
            offset += self.copy_count(v)

    def copy_count(self, base: GadgetVertex) -> int:
        return 4 * self.n_v_by_size[base.subset.bit_count()]

    def base_vertices(self) -> tuple[GadgetVertex, ...]:
        """Base vertices that kept at least one copy, in base order."""
        return tuple(self._actives)

    def vertices(self) -> Iterator[BlowupVertex]:
        for v in self._actives:
            for i in range(self.copy_count(v)):
                yield BlowupVertex(v, i)

    def index(self, v: BlowupVertex) -> int:
        return self._offsets[v.base] + v.copy

    def __contains__(self, v) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and v[0] in self._offsets
            and 0 <= v[1] < self.copy_count(v[0])
        )

    def adjacent(self, u: BlowupVertex, v: BlowupVertex) -> bool:
        if u.base not in self._offsets or v.base not in self._offsets:
            return False
        return self.gadget.adjacent(u.base, v.base)

    has_edge = adjacent

    def neighbors(self, v: BlowupVertex) -> Iterator[BlowupVertex]:
        for w in self.gadget.neighbors(v.base):
            count = 4 * self.n_v_by_size[w.subset.bit_count()]
            for i in range(count):
                yield BlowupVertex(w, i)

    def edges(self) -> Iterator[tuple[BlowupVertex, BlowupVertex]]:
        for u, v in self.gadget.edges():
            cu = 4 * self.n_v_by_size[u.subset.bit_count()]
            cv = 4 * self.n_v_by_size[v.subset.bit_count()]
            if cu == 0 or cv == 0:
                continue
            for i in range(cu):
                for j in range(cv):
                    yield (BlowupVertex(u, i), BlowupVertex(v, j))

    def to_graph(self, cap: int = 2_000) -> Graph:
        if self.n_vertices > cap:
            raise ValueError(f"refusing to materialize {self.n_vertices} blowup vertices (cap {cap})")
        g = Graph(vertices=self.vertices())
        for u, v in self.edges():
            g.add_edge(u, v)
        return g


def blow_up(gadget: GadgetGraph, rho: Fraction, cap: int = DEFAULT_VERTEX_CAP) -> BlowupGraph:
    return BlowupGraph(gadget, rho, cap)


def product_cover(blowup: BlowupGraph, base_cover: Iterable[GadgetVertex]) -> tuple[BlowupVertex, ...]:
    """All copies of the vertices of a base cover.

    The base set is first verified to cover the gadget; the product then
    covers the blowup because every blowup edge projects onto a base edge.
    """
    base_cover = list(base_cover)
    check = verify_vertex_cover(blowup.gadget, base_cover)
    if not check:
        raise ValueError(f"base set is not a vertex cover, uncovered edge {check.witness}")
    out: list[BlowupVertex] = []
    chosen = set(base_cover)
    for v in blowup.base_vertices():
        if v in chosen:
            out.extend(BlowupVertex(v, i) for i in range(blowup.copy_count(v)))
    return tuple(out)


@dataclass(frozen=True)
class ProductVerdict:
    product: bool
    base_set: tuple[GadgetVertex, ...] | None
    witness: BlowupVertex | None


def is_product_cover(blowup: BlowupGraph, cover: Iterable[BlowupVertex]) -> ProductVerdict:
    """Product iff the cover takes all or none of every vertex's copies."""
    chosen = set(cover)
    for v in chosen:
        if v not in blowup:
            raise ValueError(f"{v} is not a vertex of this blowup")
    base_set: list[GadgetVertex] = []
    for v in blowup.base_vertices():
        copies = [BlowupVertex(v, i) for i in range(blowup.copy_count(v))]
        inside = sum(1 for c in copies if c in chosen)
        if inside == len(copies):
            base_set.append(v)
        elif inside != 0:
            witness = next(c for c in copies if c in chosen)
            return ProductVerdict(False, None, witness)
    return ProductVerdict(True, tuple(base_set), None)


def minimalize_cover(graph: Graph, cover: Iterable) -> tuple:
    """Greedily remove vertices while coverage holds.

    Removal is attempted in descending vertex-index order, so lower-index
    vertices are preferentially retained.  The result is minimal: removing
    any single remaining vertex would uncover an edge.
    """
    cover = list(cover)
    check = verify_vertex_cover(graph, cover)
    if not check:
        raise ValueError(f"input is not a vertex cover, uncovered edge {check.witness}")
    current = set(cover)
    for v in sorted(current, key=graph.index, reverse=True):
        if all(w in current for w in graph.neighbors(v)):
            current.remove(v)
    result = tuple(sorted(current, key=graph.index))
    for v in result:  # minimality: every member still has a private edge
        if all(w in current for w in graph.neighbors(v)):
            raise AssertionError(f"cover is not minimal, {v} is removable")
    return result


@dataclass(frozen=True)
class CopyMatching:
    """Matching over blowup copies, with the projection to base edges."""

    pairs: tuple[tuple[BlowupVertex, BlowupVertex], ...]

    def __len__(self) -> int:
        return len(self.pairs)

    def base_edges(self) -> set[tuple[GadgetVertex, GadgetVertex]]:
        return {(u.base, v.base) for u, v in self.pairs}

    def matched_vertices(self) -> set[BlowupVertex]:
        out: set[BlowupVertex] = set()
        for u, v in self.pairs:
            out.add(u)
            out.add(v)
        return out


def discretize_matching(
    fm: FractionalMatching,
    blowup: BlowupGraph,
    planted: Planted | None = None,
) -> CopyMatching:
    """Turn the full fractional matching into an integral matching on copies.

    It reads the same stage plans as the fractional stages.  Each complement
    pair gets min(copies, copies) parallel copy pairs.  A vertex u left with
    copy_count(u) - copy_count(partner) unmatched copies by its stage-one
    partner gets half of them on each of the two layer or empty-set arcs
    through it, which is 2 * (n_|u| - n_partner) copy pairs per arc.  Copy
    indices are handed out sequentially per vertex, so the output is
    deterministic.  The matched set ends up being exactly the copies of the
    base vertices outside the planted independent set.
    """
    gadget = blowup.gadget
    if fm.gadget is not gadget:
        raise ValueError("fractional matching and blowup are over different gadgets")
    chosen = resolve_planted(gadget, planted)
    cursors: dict[GadgetVertex, int] = {}
    pairs: list[tuple[BlowupVertex, BlowupVertex]] = []

    def take(u: GadgetVertex, v: GadgetVertex, count: int) -> None:
        if count < 0:
            raise AssertionError("copy counts are not monotone in the weight")
        if count == 0:
            return
        if fm.value(u, v) <= 0:
            raise AssertionError(f"discretization uses edge ({u}, {v}) without fractional support")
        cu, cv = cursors.get(u, 0), cursors.get(v, 0)
        if cu + count > blowup.copy_count(u) or cv + count > blowup.copy_count(v):
            raise AssertionError(f"copy budget overrun on edge ({u}, {v})")
        for t in range(count):
            a, b = BlowupVertex(u, cu + t), BlowupVertex(v, cv + t)
            if blowup.index(a) > blowup.index(b):
                a, b = b, a
            pairs.append((a, b))
        cursors[u] = cu + count
        cursors[v] = cv + count

    for u, v in complement_pairs(gadget, chosen):
        take(u, v, min(blowup.copy_count(u), blowup.copy_count(v)))
    for u, v in layer_plan(gadget, chosen) + empty_set_plan(gadget, chosen):
        leftover = blowup.copy_count(u) - blowup.copy_count(stage_one_partner(gadget, chosen, u))
        take(u, v, leftover // 2)

    is_members = set(planted_independent_set(gadget, chosen).vertices)
    is_copies = 0
    for v in blowup.base_vertices():
        expected = 0 if v in is_members else blowup.copy_count(v)
        if v in is_members:
            is_copies += blowup.copy_count(v)
        if cursors.get(v, 0) != expected:
            raise AssertionError(
                f"vertex {v} matched {cursors.get(v, 0)} of {blowup.copy_count(v)} copies, expected {expected}"
            )
    if 2 * len(pairs) != blowup.n_vertices - is_copies:
        raise AssertionError("matched copy count does not complement the planted copies")
    pairs.sort(key=lambda e: (blowup.index(e[0]), blowup.index(e[1])))
    return CopyMatching(tuple(pairs))


def blowup_maximality_check(blowup: BlowupGraph, matching: CopyMatching | Iterable) -> CheckResult:
    """Maximality check that projects the unmatched copies onto base vertices.

    A blowup edge joins copies of base-adjacent vertices, so the matching is
    maximal exactly when no two base vertices with unmatched copies are
    adjacent in the base (copies of one vertex are never adjacent).  The
    gadget's ``edge_within`` answers that for the whole deficient set at
    once, so no pairs are scanned, while the verdict remains one about the
    blowup graph itself.
    """
    pairs = list(matching.pairs if isinstance(matching, CopyMatching) else matching)
    valid = verify_matching(blowup, pairs)
    if not valid:
        raise ValueError(f"not a matching: {valid.reason} at {valid.witness!r}")
    matched_per_base: dict[GadgetVertex, int] = {}
    for u, v in pairs:
        for w in (u, v):
            matched_per_base[w.base] = matched_per_base.get(w.base, 0) + 1
    deficient = [
        v for v in blowup.base_vertices() if matched_per_base.get(v, 0) < blowup.copy_count(v)
    ]
    edge = blowup.gadget.edge_within(deficient)
    if edge is not None:
        return CheckResult(False, edge, "base-adjacent vertices both have unmatched copies")
    return CheckResult(True)


def total_vertex_cover_check(graph, vertex_set: Iterable) -> CheckResult:
    """True iff the set is a vertex cover and every member has a neighbor in the set."""
    chosen = set(vertex_set)
    for u, v in graph.edges():
        if u not in chosen and v not in chosen:
            return CheckResult(False, (u, v), "uncovered edge")
    for v in chosen:
        if not any(w in chosen for w in graph.neighbors(v)):
            return CheckResult(False, v, "member without a neighbor in the set")
    return CheckResult(True)
