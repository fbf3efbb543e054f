"""Unweighted blowups of the gadget graph and discretized matchings.

Each base vertex v becomes 4 * n_v interchangeable copies, where n_v rounds
n times the vertex weight and n scales with 1/rho; copies of adjacent base
vertices are completely joined, copies of the same vertex are not adjacent.
Vertex covers of such graphs are essentially products (all or none of a
vertex's copies), and the fractional matching of the base discretizes into
an honest maximal matching on the copies.  A blowup is counted exactly and
takes no cap; only ``to_graph`` lists it, under ``graphs.check_size``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Iterable, Iterator, NamedTuple

from .fracmatch import FractionalMatching
from .gadget import GadgetGraph, GadgetVertex, planted_independent_set, stage_plan
from .graphs import CheckResult, Graph, verify_vertex_cover


def round_half_away(q: Fraction) -> int:
    """Round to the nearest integer, ties away from zero."""
    n = int(abs(Fraction(q)) + Fraction(1, 2))
    return n if q >= 0 else -n


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

    def __init__(self, gadget: GadgetGraph, rho: Fraction) -> None:
        rho = Fraction(rho)
        if rho <= 0:
            raise ValueError("rho must be positive")
        self.gadget = gadget
        self.rho = rho
        self.n = Fraction(gadget.n_vertices) / rho
        self.n_v_by_size = tuple(round_half_away(self.n * w) for w in gadget.weight_by_size)
        self.copies_by_size = tuple(4 * n for n in self.n_v_by_size)
        m = gadget.num_colors
        self.n_vertices = sum(comb(m, k) * c for k, c in enumerate(self.copies_by_size)) * gadget.num_vars

    @cached_property
    def _offsets(self) -> dict[GadgetVertex, int]:
        """The blowup index of each kept base vertex's first copy, in base order, laid out on first use."""
        offsets, offset = {}, 0
        for v in self.gadget.vertices():
            if self.copy_count(v) > 0:
                offsets[v], offset = offset, offset + self.copy_count(v)
        return offsets

    @property
    def n_edges(self) -> int:
        return self.gadget.copy_edges(self.copies_by_size)

    def copy_count(self, base: GadgetVertex) -> int:
        return self.copies_by_size[base.subset.bit_count()]

    def base_vertices(self) -> tuple[GadgetVertex, ...]:
        """Base vertices that kept at least one copy, in base order."""
        return tuple(self._offsets)

    def vertices(self) -> Iterator[BlowupVertex]:
        for v in self._offsets:
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

    def edges(self) -> Iterator[tuple[BlowupVertex, BlowupVertex]]:
        for u, v in self.gadget.edges():
            cu = self.copies_by_size[u.subset.bit_count()]
            cv = self.copies_by_size[v.subset.bit_count()]
            if cu == 0 or cv == 0:
                continue
            for i in range(cu):
                for j in range(cv):
                    yield (BlowupVertex(u, i), BlowupVertex(v, j))

    def to_graph(self) -> Graph:
        return Graph.of(self)


def blow_up(gadget: GadgetGraph, rho: Fraction) -> BlowupGraph:
    return BlowupGraph(gadget, rho)


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


class ProductVerdict(NamedTuple):
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


Run = tuple[GadgetVertex, int, GadgetVertex, int, int]


class CopyMatching(NamedTuple):
    """Matching over blowup copies as runs: (u, cu, v, cv, count) stands for
    the pairs (u, cu + t) - (v, cv + t) for t < count.  Runs are sorted by
    the blowup index of their first end, and the ends' copy intervals are
    disjoint, so ``pairs`` comes out sorted by the blowup indices of its ends.
    """

    runs: tuple[Run, ...]

    @property
    def pairs(self) -> tuple[tuple[BlowupVertex, BlowupVertex], ...]:
        return tuple(
            (BlowupVertex(u, cu + t), BlowupVertex(v, cv + t)) for u, cu, v, cv, n in self.runs for t in range(n)
        )

    def __len__(self) -> int:
        return sum(run[4] for run in self.runs)

    def matched_vertices(self) -> set[BlowupVertex]:
        out: set[BlowupVertex] = set()
        for u, cu, v, cv, count in self.runs:
            out.update(BlowupVertex(u, c) for c in range(cu, cu + count))
            out.update(BlowupVertex(v, c) for c in range(cv, cv + count))
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
    handed out sequentially per vertex, in plan order, so each arc's pairs
    form one run, and the runs are sorted by the blowup index of their first
    end, so the output is deterministic.  The matched set ends up being
    exactly the copies of the base vertices outside the gadget's planted
    independent set, which is built and verified once per gadget.
    """
    gadget = blowup.gadget
    if fm.gadget is not gadget:
        raise ValueError("fractional matching and blowup are over different gadgets")
    offsets = blowup._offsets
    cursors: dict[GadgetVertex, int] = {}
    indexed: list[tuple[int, Run]] = []
    plan = stage_plan(gadget)
    for stage in (1, 2, 3):
        for (u, v), count in plan.amounts(stage, blowup.copies_by_size):
            if count < 0:
                raise AssertionError("copy counts are not monotone in the weight")
            if count == 0:
                continue
            if fm.units(u, v) <= 0:
                raise AssertionError(f"discretization uses edge ({u}, {v}) without fractional support")
            cu, cv = cursors.get(u, 0), cursors.get(v, 0)
            if cu + count > blowup.copy_count(u) or cv + count > blowup.copy_count(v):
                raise AssertionError(f"copy budget overrun on edge ({u}, {v})")
            cursors[u] = cu + count
            cursors[v] = cv + count
            iu, iv = offsets[u] + cu, offsets[v] + cv
            # the t-th pair shifts both indices by t, so the lower end stays first
            indexed.append((iu, (u, cu, v, cv, count)) if iu < iv else (iv, (v, cv, u, cu, count)))

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
    matching = CopyMatching(tuple(run for _, run in sorted(indexed)))
    if 2 * len(matching) != blowup.n_vertices - is_copies:
        raise AssertionError("matched copy count does not complement the planted copies")
    return matching


def blowup_maximality_check(blowup: BlowupGraph, matching: CopyMatching | Iterable) -> CheckResult:
    """Maximality check that projects the unmatched copies onto base vertices.

    A plain list of copy pairs is read as runs of one pair each.  The runs
    must form a matching of the blowup: each has a positive count and copy
    ranges below its bases' copy counts, each base pair is a base edge,
    tested once per distinct pair since all copies of two base vertices are
    joined or none are, and the runs' copy intervals of one base are
    disjoint.  A blowup edge joins copies of base-adjacent vertices, so the
    matching is maximal exactly when no two base vertices with unmatched
    copies are adjacent in the base (copies of one vertex never are).  The
    gadget's ``edge_within`` answers that for the whole deficient set at
    once, so no pairs are scanned, while the verdict remains one about the
    blowup graph itself.
    """
    if isinstance(matching, CopyMatching):
        runs = matching.runs
    else:
        runs = tuple((ub, uc, vb, vc, 1) for (ub, uc), (vb, vc) in matching)

    def at(i: int) -> str:
        u, cu, v, cv, _ = runs[i]
        return f"at {(BlowupVertex(u, cu), BlowupVertex(v, cv))!r}"

    copies = {w: blowup.copy_count(w) for w in blowup.base_vertices()}
    tested: set[tuple[GadgetVertex, GadgetVertex]] = set()
    # per base: (first copy, count, run number) of every run through it
    intervals: dict[GadgetVertex, list[tuple[int, int, int]]] = {}
    for i, (u, cu, v, cv, count) in enumerate(runs):
        if count <= 0:
            raise ValueError(f"not a matching: run of {count} copy pairs {at(i)}")
        if not (0 <= cu and cu + count <= copies.get(u, 0) and 0 <= cv and cv + count <= copies.get(v, 0)):
            raise ValueError(f"not a matching: vertex not in graph {at(i)}")
        if (u, v) not in tested:
            if not blowup.gadget.has_edge(u, v):
                raise ValueError(f"not a matching: edge not in graph {at(i)}")
            tested.add((u, v))
        intervals.setdefault(u, []).append((cu, count, i))
        intervals.setdefault(v, []).append((cv, count, i))
    deficient = []
    for w, n in copies.items():
        matched = end = 0
        for first, count, i in sorted(intervals.get(w, ())):
            if first < end:
                raise ValueError(f"not a matching: vertex matched twice {at(i)}")
            end = first + count
            matched += count
        if matched < n:
            deficient.append(w)
    edge = blowup.gadget.edge_within(deficient)
    if edge is not None:
        return CheckResult(False, edge, "base-adjacent vertices both have unmatched copies")
    return CheckResult(True)


def total_vertex_cover_check(graph, vertex_set: Iterable) -> CheckResult:
    """True iff the set is a vertex cover and every member has a neighbor in the set.

    One pass over the edges returns on the first uncovered edge, and strikes
    both ends of every edge inside the set off the members still lonely.
    """
    chosen = set(vertex_set)
    lonely = set(chosen)
    for u, v in graph.edges():
        if u in chosen:
            if v in chosen:
                lonely.discard(u)
                lonely.discard(v)
        elif v not in chosen:
            return CheckResult(False, (u, v), "uncovered edge")
    for v in chosen:
        if v in lonely:
            return CheckResult(False, v, "member without a neighbor in the set")
    return CheckResult(True)
