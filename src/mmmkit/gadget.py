"""Weighted reduction graphs over (variable, colour-subset) vertices.

Every variable of a label cover instance becomes a cloud of 2^|R| vertices,
one per colour subset, weighted so that smaller subsets are heavier and the
whole graph weighs exactly 1.  Cross-cloud edges join subset pairs that fail
the constraint between their variables; the extended flavor adds intra-cloud
edges between disjoint subsets.  Adjacency is rule-generated, so graphs are
cheap to build and edges are enumerated lazily.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple

from .bitsets import down_closure, elements_of, submasks
from .graphs import Graph
from .ulc import MAX_COLORS, Planted, UlcInstance, check_labelling

FLAVORS = ("base", "extended")
EDGE_RULES = ("plus", "min")


class GadgetVertex(NamedTuple):
    variable: int
    subset: int  # colour bit mask

    def label(self) -> str:
        inner = ",".join(str(c) for c in elements_of(self.subset))
        return f"({self.variable},{{{inner}}})"


def biased_weight(num_vars: int, num_colors: int, epsilon: Fraction, set_size: int) -> Fraction:
    """Exact vertex weight for a subset of the given size.

    Equals p^size * (1-p)^(colours-size) / num_vars with p = 1/2 - epsilon,
    so the 2^|R| subsets of one cloud weigh 1/num_vars together.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon < Fraction(1, 2):
        raise ValueError("epsilon must lie strictly between 0 and 1/2")
    if not 0 <= set_size <= num_colors:
        raise ValueError("set size out of range")
    p = Fraction(1, 2) - epsilon
    return Fraction(1, num_vars) * p**set_size * (1 - p) ** (num_colors - set_size)


class GadgetGraph:
    """Weighted gadget graph with lazy, rule-based adjacency.

    Vertex order is deterministic: variable-major, subset-as-integer minor,
    so ``index`` and serialization are stable across runs.
    """

    def __init__(self, instance: UlcInstance, epsilon: Fraction, flavor: str = "extended") -> None:
        if flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}")
        self.instance = instance
        self.epsilon = Fraction(epsilon)
        self.flavor = flavor
        self.num_vars = instance.num_vars
        self.num_colors = instance.num_colors
        self.cloud_size = 1 << self.num_colors
        self.full_mask = self.cloud_size - 1
        self.weight_by_size = tuple(
            biased_weight(self.num_vars, self.num_colors, self.epsilon, s)
            for s in range(self.num_colors + 1)
        )
        self._image_tables: dict[tuple[int, int], list[int]] = {}

    # -- vertices ----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.num_vars * self.cloud_size

    def vertices(self) -> Iterator[GadgetVertex]:
        for x in range(self.num_vars):
            for subset in range(self.cloud_size):
                yield GadgetVertex(x, subset)

    def index(self, v: GadgetVertex) -> int:
        return v.variable * self.cloud_size + v.subset

    def vertex_at(self, i: int) -> GadgetVertex:
        return GadgetVertex(i // self.cloud_size, i % self.cloud_size)

    def vertex_weight(self, v: GadgetVertex) -> Fraction:
        return self.weight_by_size[v.subset.bit_count()]

    def total_weight(self) -> Fraction:
        return sum(
            (self.weight_by_size[s.bit_count()] for s in range(self.cloud_size)),
            Fraction(0),
        ) * self.num_vars

    def __contains__(self, v) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and 0 <= v[0] < self.num_vars
            and 0 <= v[1] <= self.full_mask
        )

    # -- adjacency ---------------------------------------------------------

    def _image_table(self, x1: int, x2: int) -> list[int]:
        """image[S] = bit mask of the constraint images of S's colours, for
        the stored orientation x1 -> x2 with x1 < x2."""
        key = (x1, x2)
        table = self._image_tables.get(key)
        if table is None:
            perm = self.instance.permutation_between(x1, x2)
            table = [0] * self.cloud_size
            for s in range(1, self.cloud_size):
                low = s & -s
                table[s] = table[s ^ low] | (1 << perm[low.bit_length() - 1])
            self._image_tables[key] = table
        return table

    def constraint_failed(self, x1: int, s1: int, x2: int, s2: int) -> bool:
        """True when the pair (s1 at x1, s2 at x2) leaves the constraint
        unsatisfied, i.e. no colour of s1 maps into s2."""
        if x1 > x2:
            x1, x2, s1, s2 = x2, x1, s2, s1
        return self._image_table(x1, x2)[s1] & s2 == 0

    def adjacent(self, u: GadgetVertex, v: GadgetVertex) -> bool:
        if u == v:
            return False
        if u.variable == v.variable:
            return self.flavor == "extended" and (u.subset & v.subset) == 0
        if not self.instance.has_constraint_edge(u.variable, v.variable):
            return False
        return self.constraint_failed(u.variable, u.subset, v.variable, v.subset)

    def has_edge(self, u: GadgetVertex, v: GadgetVertex) -> bool:
        return self.adjacent(u, v)

    def edge_within(
        self, vertices: Iterable[GadgetVertex]
    ) -> tuple[GadgetVertex, GadgetVertex] | None:
        """An edge with both ends in ``vertices``, or None when they are
        independent.

        A member s of cloud x2 is adjacent to s1 of a constrained cloud x1
        exactly when s lies below full ^ image(s1), and to another member t
        of its own cloud (extended flavor) exactly when it lies below
        full ^ t; so one down-closure table per cloud answers for every
        member at once, in O(m * 2^m) per cloud instead of a scan over member
        pairs.  Only the empty set's lookup can return the member itself,
        and every other member's lookup then finds at least the empty set,
        so a cloud holding it and anything else is caught too.  Clouds,
        constraint edges and members are visited in sorted order, so the
        witness is deterministic.
        """
        clouds: dict[int, set[int]] = {}
        for x, s in vertices:
            clouds.setdefault(x, set()).add(s)
        tables = {x: down_closure(members, self.num_colors) for x, members in clouds.items()}
        full = self.full_mask
        if self.flavor == "extended":
            for x in sorted(clouds):
                table = tables[x]
                for s in sorted(clouds[x]):
                    t = table[full ^ s]
                    if t >= 0 and t != s:
                        return (GadgetVertex(x, min(s, t)), GadgetVertex(x, max(s, t)))
        for x1, x2 in sorted(self.instance.edges):
            if x1 not in clouds or x2 not in clouds:
                continue
            image = self._image_table(x1, x2)
            table = tables[x2]
            for s1 in sorted(clouds[x1]):
                s2 = table[full ^ image[s1]]
                if s2 >= 0:
                    return (GadgetVertex(x1, s1), GadgetVertex(x2, s2))
        return None

    def neighbors(self, v: GadgetVertex) -> Iterator[GadgetVertex]:
        if self.flavor == "extended":
            free = self.full_mask & ~v.subset
            for s in sorted(submasks(free)):
                if s != v.subset:  # excludes v itself, possible only when v.subset == 0
                    yield GadgetVertex(v.variable, s)
        for x1, x2 in self.instance.edges:
            other = x2 if x1 == v.variable else x1 if x2 == v.variable else None
            if other is None:
                continue
            for s in range(self.cloud_size):
                if self.constraint_failed(v.variable, v.subset, other, s):
                    yield GadgetVertex(other, s)

    def edges(self) -> Iterator[tuple[GadgetVertex, GadgetVertex]]:
        """All edges, lazily; deterministic order, lower index first per pair."""
        if self.flavor == "extended":
            for x in range(self.num_vars):
                for s1 in range(self.cloud_size):
                    free = self.full_mask & ~s1
                    for s2 in sorted(submasks(free)):
                        if s2 > s1:
                            yield (GadgetVertex(x, s1), GadgetVertex(x, s2))
        for x1, x2 in self.instance.edges:
            for s1 in range(self.cloud_size):
                for s2 in range(self.cloud_size):
                    if self.constraint_failed(x1, s1, x2, s2):
                        yield (GadgetVertex(x1, s1), GadgetVertex(x2, s2))

    # -- edge weights ------------------------------------------------------

    def edge_weight(self, u: GadgetVertex, v: GadgetVertex, rule: str = "plus") -> Fraction:
        if rule not in EDGE_RULES:
            raise ValueError(f"edge weight rule must be one of {EDGE_RULES}")
        wu, wv = self.vertex_weight(u), self.vertex_weight(v)
        return wu + wv if rule == "plus" else min(wu, wv)

    def matching_weight(self, matching: Iterable[tuple[GadgetVertex, GadgetVertex]], rule: str = "plus") -> Fraction:
        return sum((self.edge_weight(u, v, rule) for u, v in matching), Fraction(0))

    def set_weight(self, vertex_set: Iterable[GadgetVertex]) -> Fraction:
        return sum((self.vertex_weight(v) for v in vertex_set), Fraction(0))

    # -- materialization ---------------------------------------------------

    def to_graph(self, cap: int = 200_000) -> Graph:
        if self.n_vertices > cap:
            raise ValueError(f"gadget with {self.n_vertices} vertices exceeds the cap {cap}")
        g = Graph(vertices=self.vertices())
        for u, v in self.edges():
            g.add_edge(u, v)
        return g


def build_gadget(instance: UlcInstance, epsilon: Fraction, flavor: str = "extended") -> GadgetGraph:
    """Build the weighted gadget graph for an instance.

    The number of colours is capped because every cloud has 2^|R| vertices.
    """
    if instance.num_colors > MAX_COLORS:
        raise ValueError(f"colour count {instance.num_colors} exceeds the cap {MAX_COLORS}")
    return GadgetGraph(instance, epsilon, flavor)


def resolve_planted(gadget: GadgetGraph, planted: Planted | None) -> Planted:
    chosen = planted if planted is not None else gadget.instance.planted
    if chosen is None:
        raise ValueError("the instance has no planted labelling and none was supplied")
    if len(chosen.labelling) != gadget.num_vars:
        raise ValueError("planted labelling does not cover every variable")
    for x, label in enumerate(chosen.labelling):
        if label not in range(gadget.num_colors):
            raise ValueError(
                f"planted labelling gives variable {x} colour {label!r}, "
                f"outside 0..{gadget.num_colors - 1}"
            )
    for x in chosen.core:
        if x not in range(gadget.num_vars):
            raise ValueError(
                f"planted core names variable {x!r}, outside 0..{gadget.num_vars - 1}"
            )
    violated = check_labelling(gadget.instance, chosen.labelling, chosen.core).violated
    if violated:
        x1, x2 = violated[0]
        raise ValueError(
            f"planted core edge ({x1}, {x2}) violates its constraint: colour "
            f"{chosen.labelling[x1]} at {x1} does not map to colour {chosen.labelling[x2]} at {x2}"
        )
    if chosen.core and gadget.num_colors < 2:
        raise ValueError("planted constructions with a nonempty core need at least 2 colours")
    return chosen


def cloud_ground(gadget: GadgetGraph, planted: Planted, x: int) -> int:
    """The colours cloud x pairs its subsets within: all of them, minus the
    planted colour in core clouds."""
    if x in planted.core:
        return gadget.full_mask & ~(1 << planted.labelling[x])
    return gadget.full_mask


def complement_pairs(
    gadget: GadgetGraph, planted: Planted
) -> list[tuple[GadgetVertex, GadgetVertex]]:
    """Every subset of each cloud's ground paired with its complement there,
    the numerically smaller subset first."""
    pairs = []
    for x in range(gadget.num_vars):
        ground = cloud_ground(gadget, planted, x)
        for s in submasks(ground):
            if s < ground ^ s:
                pairs.append((GadgetVertex(x, s), GadgetVertex(x, ground ^ s)))
    return pairs


class PlantedIndependentSet(NamedTuple):
    vertices: tuple[GadgetVertex, ...]
    weight: Fraction


def planted_independent_set(gadget: GadgetGraph, planted: Planted | None = None) -> PlantedIndependentSet:
    """The independent set {(x, S) : x in core, r_x in S} with its exact weight.

    The weight is summed over the members, tallied by subset size, and must
    match the closed form (|core| / |X|) * p; independence is verified with
    ``edge_within``, so a violation (which would indicate an inconsistent
    planted instance) is reported rather than assumed away.
    """
    chosen = resolve_planted(gadget, planted)
    members: list[GadgetVertex] = []
    per_size = [0] * (gadget.num_colors + 1)
    for x in sorted(chosen.core):
        bit = 1 << chosen.labelling[x]
        for s in range(gadget.cloud_size):
            if s & bit:
                members.append(GadgetVertex(x, s))
                per_size[s.bit_count()] += 1
    weight = sum((n * w for n, w in zip(per_size, gadget.weight_by_size)), Fraction(0))
    p = Fraction(1, 2) - gadget.epsilon
    formula = Fraction(len(chosen.core), gadget.num_vars) * p
    if weight != formula:
        raise AssertionError(f"summed weight {weight} differs from closed form {formula}")
    edge = gadget.edge_within(members)
    if edge is not None:
        raise ValueError(
            f"planted set is not independent: {edge[0]} ~ {edge[1]}; "
            "the instance's core constraints are inconsistent with its labelling"
        )
    return PlantedIndependentSet(tuple(members), weight)


def yes_matching(
    gadget: GadgetGraph, planted: Planted | None = None
) -> tuple[tuple[GadgetVertex, GadgetVertex], ...]:
    """The complement-pairing matching that saturates everything outside the
    planted independent set.

    Inside a core cloud the planted colour is removed from the ground set and
    each remaining subset is matched to its complement within that ground;
    outside the core, subsets are matched to their full complements.  The
    matched set therefore equals the complement of the planted independent
    set, and maximality is verified by ``edge_within`` on the unmatched set.
    """
    if gadget.flavor != "extended":
        raise ValueError("the complement pairing needs the extended flavor (intra-cloud edges)")
    chosen = resolve_planted(gadget, planted)
    pairs = sorted(complement_pairs(gadget, chosen), key=lambda e: gadget.index(e[0]))
    seen: set[GadgetVertex] = set()
    for u, v in pairs:
        if u in seen or v in seen:
            raise AssertionError(f"pairing collision at {u} / {v}")
        seen.add(u)
        seen.add(v)

    unmatched = [v for v in gadget.vertices() if v not in seen]
    if set(unmatched) != set(planted_independent_set(gadget, chosen).vertices):
        raise AssertionError("matched set does not equal the complement of the planted set")
    edge = gadget.edge_within(unmatched)
    if edge is not None:
        raise AssertionError(f"matching is not maximal, {edge[0]} ~ {edge[1]} both unmatched")
    return tuple(pairs)
