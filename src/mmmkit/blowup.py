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

from .fracmatch import FractionalMatching
from .gadget import GadgetGraph, GadgetVertex, planted_independent_set, stage_plan
from .graphs import CheckResult, Graph, verify_vertex_cover

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
        self.copies_by_size = tuple(4 * n for n in self.n_v_by_size)
        per_cloud = sum(self.copies_by_size[s.bit_count()] for s in range(gadget.cloud_size))
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
        return self.copies_by_size[base.subset.bit_count()]

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

    def has_edge(self, u: BlowupVertex, v: BlowupVertex) -> bool:
        if u.base not in self._offsets or v.base not in self._offsets:
            return False
        return self.gadget.has_edge(u.base, v.base)

    def neighbors(self, v: BlowupVertex) -> Iterator[BlowupVertex]:
        for w in self.gadget.neighbors(v.base):
            for i in range(self.copies_by_size[w.subset.bit_count()]):
                yield BlowupVertex(w, i)

    def edges(self) -> Iterator[tuple[BlowupVertex, BlowupVertex]]:
        for u, v in self.gadget.edges():
            cu = self.copies_by_size[u.subset.bit_count()]
            cv = self.copies_by_size[v.subset.bit_count()]
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

    def matched_vertices(self) -> set[BlowupVertex]:
        out: set[BlowupVertex] = set()
        for u, v in self.pairs:
            out.add(u)
            out.add(v)
        return out


def discretize_matching(fm: FractionalMatching, blowup: BlowupGraph) -> CopyMatching:
    """Turn the full fractional matching into an integral matching on copies.

    It reads the gadget's one stage plan and amount rule, as the fractional
    stages do, with the blowup's copy counts for the weights.  Each
    complement pair gets min(copies, copies) parallel copy pairs.  A vertex
    u left with copy_count(u) - copy_count(partner) unmatched copies by its
    stage-one partner gets half of them on each of the two layer or
    empty-set arcs through it, which is 2 * (n_|u| - n_partner) copy pairs
    per arc.  Every arc used must carry fractional support, read as the
    integer value over the matching's common denominator.  Copy indices are
    handed out sequentially per vertex, in plan order, and the pairs are
    sorted by the blowup indices of their ends, so the output is
    deterministic.  The matched set ends up being exactly the copies of the
    base vertices outside the gadget's planted independent set, which is
    built and verified once per gadget.
    """
    gadget = blowup.gadget
    if fm.gadget is not gadget:
        raise ValueError("fractional matching and blowup are over different gadgets")
    cursors: dict[GadgetVertex, int] = {}
    indexed: list[tuple[int, int, BlowupVertex, BlowupVertex]] = []

    def take(u: GadgetVertex, v: GadgetVertex, count: int) -> None:
        if count < 0:
            raise AssertionError("copy counts are not monotone in the weight")
        if count == 0:
            return
        if fm.units(u, v) <= 0:
            raise AssertionError(f"discretization uses edge ({u}, {v}) without fractional support")
        cu, cv = cursors.get(u, 0), cursors.get(v, 0)
        if cu + count > blowup.copy_count(u) or cv + count > blowup.copy_count(v):
            raise AssertionError(f"copy budget overrun on edge ({u}, {v})")
        iu, iv = blowup.index(BlowupVertex(u, cu)), blowup.index(BlowupVertex(v, cv))
        if iu > iv:  # the t-th pair shifts both indices by t, so this holds for all
            u, cu, iu, v, cv, iv = v, cv, iv, u, cu, iu
        for t in range(count):
            indexed.append((iu + t, iv + t, BlowupVertex(u, cu + t), BlowupVertex(v, cv + t)))
        cursors[u] = cu + count
        cursors[v] = cv + count

    plan = stage_plan(gadget)
    for stage in (1, 2, 3):
        for (u, v), count in plan.amounts(stage, blowup.copies_by_size):
            take(u, v, count)

    is_members = set(planted_independent_set(gadget).vertices)
    is_copies = 0
    for v in blowup.base_vertices():
        expected = 0 if v in is_members else blowup.copy_count(v)
        if v in is_members:
            is_copies += blowup.copy_count(v)
        if cursors.get(v, 0) != expected:
            raise AssertionError(
                f"vertex {v} matched {cursors.get(v, 0)} of {blowup.copy_count(v)} copies, expected {expected}"
            )
    if 2 * len(indexed) != blowup.n_vertices - is_copies:
        raise AssertionError("matched copy count does not complement the planted copies")
    indexed.sort()
    return CopyMatching(tuple((a, b) for _, _, a, b in indexed))


def blowup_maximality_check(blowup: BlowupGraph, matching: CopyMatching | Iterable) -> CheckResult:
    """Maximality check that projects the unmatched copies onto base vertices.

    The pairs must form a matching of the blowup: every end is a copy of the
    blowup, with its index below its base's copy count, every copy is used
    at most once, and every pair's base pair is a base edge, which is tested
    once per distinct base pair, since all copies of two base vertices are
    joined or none are.  A blowup edge joins copies of base-adjacent
    vertices, so the matching is maximal exactly when no two base vertices
    with unmatched copies are adjacent in the base (copies of one vertex
    are never adjacent).  The gadget's ``edge_within`` answers that for the
    whole deficient set at once, so no pairs are scanned, while the verdict
    remains one about the blowup graph itself.
    """
    pairs = matching.pairs if isinstance(matching, CopyMatching) else matching
    copies = {w: blowup.copy_count(w) for w in blowup.base_vertices()}
    offsets = blowup._offsets
    # per distinct base pair: [pairs on it, copies of its first end, of its
    # second, blowup index of its first end's copy 0, of its second's]
    per_base_pair: dict[tuple[GadgetVertex, GadgetVertex], list[int]] = {}
    used: set[int] = set()  # blowup indices of the matched copies
    for u, v in pairs:
        ub, uc = u
        vb, vc = v
        entry = per_base_pair.get((ub, vb))
        if entry is None:
            cu, cv = copies.get(ub, 0), copies.get(vb, 0)
            # a base without copies is left to the range check below
            if cu and cv and not blowup.has_edge(u, v):
                raise ValueError(f"not a matching: edge not in graph at {(u, v)!r}")
            entry = per_base_pair[ub, vb] = [0, cu, cv, offsets.get(ub, 0), offsets.get(vb, 0)]
        _, cu, cv, first_u, first_v = entry
        if not (0 <= uc < cu and 0 <= vc < cv):
            raise ValueError(f"not a matching: vertex not in graph at {(u, v)!r}")
        i, j = first_u + uc, first_v + vc
        if i in used or j in used:
            raise ValueError(f"not a matching: vertex matched twice at {(u, v)!r}")
        used.add(i)
        used.add(j)
        entry[0] += 1
    matched_per_base: dict[GadgetVertex, int] = {}
    for bases, (count, *_) in per_base_pair.items():
        for w in bases:
            matched_per_base[w] = matched_per_base.get(w, 0) + count
    deficient = [w for w, n in copies.items() if matched_per_base.get(w, 0) < n]
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
