"""Weighted reduction graphs over (variable, colour-subset) vertices.

Every variable of a label cover instance becomes a cloud of 2^|R| vertices,
one per colour subset, weighted so that smaller subsets are heavier and the
whole graph weighs exactly 1.  One edge rule joins two clouds x1, x2: S1 at
x1 and S2 at x2 are adjacent when pi(S1) and S2 are disjoint, for pi the
constraint between them.  The constraint edges are joined that way, and the
extended flavor also joins each cloud to itself with pi the identity, which
gives its edges between disjoint subsets.  Adjacency is rule-generated, so
graphs are cheap to build, and ``edges()`` lists the partners of S1 as the
submasks of the complement of pi(S1), visiting only the edges themselves.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .bitsets import down_closure, elements_of, submasks
from .graphs import Graph
from .ulc import Planted, UlcInstance

FLAVORS = ("base", "extended")
MAX_GADGET_VERTICES = 1 << 21  # the largest gadget built, small enough for any subset walk: 8 variables at 18 colours


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
        n_vertices = instance.num_vars << instance.num_colors
        if n_vertices > MAX_GADGET_VERTICES:
            raise ValueError(f"gadget with {n_vertices} vertices exceeds the cap {MAX_GADGET_VERTICES}")
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
        # Every weight is an integer over D = 2 * num_vars * b^m for
        # p = 1/2 - epsilon = a/b; the factor 2 keeps half of any difference
        # of weights integral too.
        p = Fraction(1, 2) - self.epsilon
        self.denominator = 2 * self.num_vars * p.denominator**self.num_colors
        scaled = tuple(w * self.denominator for w in self.weight_by_size)
        if any(w.denominator != 1 for w in scaled):
            raise AssertionError(f"weights {self.weight_by_size} are not integers over {self.denominator}")
        self.units_by_size = tuple(int(w) for w in scaled)
        # the joined cloud pairs in edge order, each with its image table:
        # every cloud with itself through the identity in the extended
        # flavor, then the constraint edges as the instance stores them,
        # whose tables are built on first use (``()`` until then)
        intra = range(self.num_vars) if flavor == "extended" else ()
        self._images: dict[tuple[int, int], Sequence[int]] = dict.fromkeys(
            ((x, x) for x in intra), range(self.cloud_size)
        )
        self._images.update(dict.fromkeys(instance.edges, ()))
        self._constraints = dict(zip(instance.edges, instance.constraints))
        self._weights: dict[int, Fraction] = {}  # matching weight by unit total
        self._planted_set: PlantedIndependentSet | None = None
        self._stage_plan: StagePlan | None = None

    @property
    def planted(self) -> Planted:
        """The instance's planted labelling, which the instance checked when
        it was built.  Raises ValueError when there is none, or when a
        nonempty core meets fewer than 2 colours."""
        planted = self.instance.planted
        if planted is None:
            raise ValueError("the instance has no planted labelling")
        if planted.core and self.num_colors < 2:
            raise ValueError("planted constructions with a nonempty core need at least 2 colours")
        return planted

    # -- vertices ----------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.num_vars * self.cloud_size

    @property
    def n_edges(self) -> int:
        return self.copy_edges((1,) * (self.num_colors + 1))

    def copy_edges(self, copies: Sequence[int]) -> int:
        """Edges of the blowup with ``copies[k]`` copies of each k-subset: per
        joined cloud pair, the sum over a, b of C(m, a) C(m - a, b) copies[a]
        copies[b], as pi(S1) of size a misses C(m - a, b) b-subsets S2; per
        cloud joined to itself, half of that less copies[0]^2 for ({}, {}).
        One copy each gives 3^m and (3^m - 1) / 2."""
        m = self.num_colors
        pair = sum(comb(m, a) * comb(m - a, b) * copies[a] * copies[b] for a in range(m + 1) for b in range(m - a + 1))
        return sum(pair if x1 != x2 else (pair - copies[0] ** 2) // 2 for x1, x2 in self._images)

    def vertices(self) -> Iterator[GadgetVertex]:
        for x in range(self.num_vars):
            for subset in range(self.cloud_size):
                yield GadgetVertex(x, subset)

    def index(self, v: GadgetVertex) -> int:
        return v.variable * self.cloud_size + v.subset

    def vertex_weight(self, v: GadgetVertex) -> Fraction:
        return self.weight_by_size[v.subset.bit_count()]

    def total_weight(self) -> Fraction:
        m = self.num_colors
        cloud = sum(comb(m, k) * u for k, u in enumerate(self.units_by_size))
        return Fraction(cloud * self.num_vars, self.denominator)

    def __contains__(self, v) -> bool:
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and 0 <= v[0] < self.num_vars
            and 0 <= v[1] <= self.full_mask
        )

    # -- adjacency ---------------------------------------------------------

    def _image_table(self, x1: int, x2: int) -> Sequence[int]:
        """image[S] = bit mask of the constraint images of S's colours, for
        the joined pair x1 -> x2 with x1 <= x2 (the identity when x1 == x2)."""
        table = self._images[(x1, x2)]
        if not table:
            perm = self._constraints[(x1, x2)]
            table = [0] * self.cloud_size
            for s in range(1, self.cloud_size):
                low = s & -s
                table[s] = table[s ^ low] | (1 << perm[low.bit_length() - 1])
            self._images[(x1, x2)] = table
        return table

    def has_edge(self, u: GadgetVertex, v: GadgetVertex) -> bool:
        """The one edge rule: the clouds are joined, the ends are distinct,
        and no colour of the lower end's subset maps into the other's."""
        x1, s1 = u
        x2, s2 = v
        if x2 < x1:
            x1, s1, x2, s2 = x2, s2, x1, s1
        image = self._images.get((x1, x2))
        if image is None:
            return False
        if x1 == x2:  # the identity: disjoint and distinct
            return s1 & s2 == 0 and s1 != s2
        return (image or self._image_table(x1, x2))[s1] & s2 == 0

    def edge_within(
        self, vertices: Iterable[GadgetVertex]
    ) -> tuple[GadgetVertex, GadgetVertex] | None:
        """An edge with both ends in ``vertices``, or None when they are
        independent.

        A member s of cloud x2 is adjacent to s1 of a joined cloud x1 exactly
        when s lies below full ^ image(s1), so one down-closure table per
        cloud answers for every member at once, in O(m * 2^m) per cloud
        instead of a scan over member pairs.  Inside a cloud only the empty
        set's lookup can return the member itself, and every other member's
        lookup then finds at least the empty set, so a cloud holding it and
        anything else is caught too.  Joined pairs are visited in edge order
        and members in sorted order, so the witness is deterministic; it is
        given lower index first.
        """
        clouds: dict[int, set[int]] = {}
        for x, s in vertices:
            clouds.setdefault(x, set()).add(s)
        tables = {x: down_closure(members, self.num_colors) for x, members in clouds.items()}
        full = self.full_mask
        for x1, x2 in self._images:
            if x1 not in clouds or x2 not in clouds:
                continue
            image = self._image_table(x1, x2)
            table = tables[x2]
            for s1 in sorted(clouds[x1]):
                s2 = table[full ^ image[s1]]
                if s2 >= 0 and (x1 != x2 or s2 != s1):
                    return tuple(sorted((GadgetVertex(x1, s1), GadgetVertex(x2, s2))))
        return None

    def edges(self) -> Iterator[tuple[GadgetVertex, GadgetVertex]]:
        """All edges, lazily, lower index first: joined pair by joined pair,
        each s1 in ascending order with its partners, the submasks of
        full ^ image(s1), in ascending order; inside a cloud only those
        above s1, so each edge comes once."""
        full = self.full_mask
        for x1, x2 in self._images:
            image = self._image_table(x1, x2)
            for s1 in range(self.cloud_size):
                u = GadgetVertex(x1, s1)
                for s2 in sorted(submasks(full ^ image[s1])):
                    if x1 != x2 or s2 > s1:
                        yield (u, GadgetVertex(x2, s2))

    # -- edge weights ------------------------------------------------------

    def edge_weight(self, u: GadgetVertex, v: GadgetVertex) -> Fraction:
        """w_u + w_v, the weight a matching edge takes from the vertices it covers."""
        return self.vertex_weight(u) + self.vertex_weight(v)

    def matching_weight(self, matching: Iterable[tuple[GadgetVertex, GadgetVertex]]) -> Fraction:
        """The summed ``edge_weight`` of the matching's edges, added as
        integers over the common denominator D.  The ``Fraction`` of each
        unit total is built once per gadget and handed back on every later
        call with that total."""
        units = self.units_by_size
        total = 0
        for u, v in matching:
            total += units[u.subset.bit_count()] + units[v.subset.bit_count()]
        weight = self._weights.get(total)
        if weight is None:
            weight = self._weights[total] = Fraction(total, self.denominator)
        return weight

    def set_weight(self, vertex_set: Iterable[GadgetVertex]) -> Fraction:
        """The summed ``vertex_weight`` of the set, added in units over D."""
        units = self.units_by_size
        return Fraction(sum(units[v.subset.bit_count()] for v in vertex_set), self.denominator)

    # -- materialization ---------------------------------------------------

    def to_graph(self) -> Graph:
        return Graph.of(self)


def build_gadget(instance: UlcInstance, epsilon: Fraction, flavor: str = "extended") -> GadgetGraph:
    """Build the weighted gadget graph for an instance, if it has at most ``MAX_GADGET_VERTICES``."""
    return GadgetGraph(instance, epsilon, flavor)


class PlantedIndependentSet(NamedTuple):
    vertices: tuple[GadgetVertex, ...]
    weight: Fraction


def planted_independent_set(gadget: GadgetGraph) -> PlantedIndependentSet:
    """The independent set {(x, S) : x in core, r_x in S} of the instance's
    planted labelling, with its exact weight.

    The weight is summed over the members, tallied by subset size, and must
    match the closed form (|core| / |X|) * p; independence is verified with
    ``edge_within``, so a violation is reported rather than assumed away.
    The plant cannot change after the instance is built, so the set is built
    and verified once per gadget and kept there; every later call (and
    ``yes_matching``, the saturation check and ``discretize_matching``)
    reuses it, as they all reuse the gadget's one ``stage_plan``.
    """
    if gadget._planted_set is None:
        gadget._planted_set = _verified_planted_set(gadget)
    return gadget._planted_set


def _verified_planted_set(gadget: GadgetGraph) -> PlantedIndependentSet:
    planted = gadget.planted
    members: list[GadgetVertex] = []
    per_size = [0] * (gadget.num_colors + 1)
    for x in sorted(planted.core):
        bit = 1 << planted.labelling[x]
        for s in range(gadget.cloud_size):
            if s & bit:
                members.append(GadgetVertex(x, s))
                per_size[s.bit_count()] += 1
    weight = sum((n * w for n, w in zip(per_size, gadget.weight_by_size)), Fraction(0))
    p = Fraction(1, 2) - gadget.epsilon
    formula = Fraction(len(planted.core), gadget.num_vars) * p
    if weight != formula:
        raise AssertionError(f"summed weight {weight} differs from closed form {formula}")
    edge = gadget.edge_within(members)
    if edge is not None:
        raise ValueError(
            f"planted set is not independent: {edge[0]} ~ {edge[1]}; "
            "the instance's core constraints are inconsistent with its labelling"
        )
    return PlantedIndependentSet(tuple(members), weight)


Arc = tuple[GadgetVertex, GadgetVertex]


def bracket_partner(subset: int, ground: int) -> int:
    """The k-subset of ``ground`` disjoint from ``subset`` (k = |subset|,
    2k < |ground|) that the Greene-Kleitman bracket rule pairs it with.

    Reading the ground's colours in ascending order, members are ``)`` and
    non-members ``(``; each ``)`` closes the nearest open ``(`` to its left.
    Adding the |ground| - 2k leftmost unclosed ``(`` reflects the subset to
    the other end of its symmetric chain, and the complement of that is the
    partner.  The map is a bijection on the k-subsets of the ground.
    """
    open_colours: list[int] = []
    for c in elements_of(ground):
        if subset >> c & 1:
            if open_colours:
                open_colours.pop()
        else:
            open_colours.append(c)
    grown = subset
    for c in open_colours[: ground.bit_count() - 2 * subset.bit_count()]:
        grown |= 1 << c
    return ground ^ grown


def cycle_cover(vertices: Iterable, adjacent: Callable[[object, object], bool]) -> dict | None:
    """A permutation sigma of the vertices with x ~ sigma(x) for every x, or None.

    sigma is a perfect matching x^l - sigma(x)^r of the bipartite double,
    grown by breadth-first augmenting paths: left vertices in the given
    order, each scanning right vertices in the given order, so the result is
    deterministic.  Its cycles (2-cycles included) carry half a unit per arc,
    so sigma exists exactly when the graph has a fractional perfect matching.
    """
    verts = list(vertices)
    nbrs = [[j for j, w in enumerate(verts) if adjacent(v, w)] for v in verts]
    left_of: dict[int, int] = {}  # right index -> the left index matched to it
    right_of: dict[int, int] = {}
    for i in range(len(verts)):
        reached_from: dict[int, int] = {}  # right index -> left index that reached it
        frontier, free = [i], None
        for a in frontier:  # grows while it is scanned
            for j in nbrs[a]:
                if j in reached_from:
                    continue
                reached_from[j] = a
                if j not in left_of:
                    free = j
                    break
                frontier.append(left_of[j])
            if free is not None:
                break
        if free is None:
            return None
        j = free
        while j is not None:  # flip the augmenting path back to i
            a = reached_from[j]
            j_next = right_of.get(a)
            left_of[j], right_of[a] = a, j
            j = j_next
    return {verts[a]: verts[j] for a, j in sorted(right_of.items())}


class StagePlan:
    """The arcs of the three saturation stages of one gadget.

    A cloud's ground is every colour, minus the planted colour in core
    clouds.  ``pairs`` (stage one) joins each subset of the ground to its
    complement there, ``layer`` (stage two) each small subset to its bracket
    partner, and ``empty_set`` (stage three) each (x, {}) to (sigma(x), {})
    for a permutation sigma of its class with x ~ sigma(x).  Stage three is
    built when first read, so only its consumers fail on a class with no
    sigma.  The plan holds its gadget weakly, since the gadget keeps it.
    """

    def __init__(self, gadget: GadgetGraph) -> None:
        if gadget.flavor != "extended":
            raise ValueError("the saturation stages need the extended flavor (intra-cloud edges)")
        planted, full = gadget.planted, gadget.full_mask
        grounds = [
            full & ~(1 << planted.labelling[x]) if x in planted.core else full for x in range(gadget.num_vars)
        ]
        pairs: list[Arc] = []
        layer: list[Arc] = []
        for x, ground in enumerate(grounds):
            members = {s: GadgetVertex(x, s) for s in submasks(ground)}
            for s, u in members.items():
                if s < ground ^ s:
                    pairs.append((u, members[ground ^ s]))
                if 0 < 2 * s.bit_count() < ground.bit_count():
                    layer.append((u, members[bracket_partner(s, ground)]))
        self.ground_sizes = tuple(ground.bit_count() for ground in grounds)
        self.pairs = tuple(pairs)
        self.layer = tuple(layer)
        self._gadget = weakref.ref(gadget)
        self._empty_set: tuple[Arc, ...] | None = None

    @property
    def empty_set(self) -> tuple[Arc, ...]:
        if self._empty_set is None:
            self._empty_set = _empty_set_arcs(self._gadget())
        return self._empty_set

    def amounts(self, stage: int, table: Sequence[int]) -> Iterator[tuple[Arc, int]]:
        """Stage 1, 2 or 3's arcs with their amounts under ``table``, a
        per-subset-size table: min(t[|u|], t[|v|]) on a complement pair, and
        (t[|u|] - t[g - |u|]) // 2, half the deficit stage one leaves, on a
        cycle arc from u, for g the size of u's ground.  The halves are exact
        for ``units_by_size`` (even over D) and for copy counts (4 * n_v)."""
        if stage == 1:
            for arc in self.pairs:
                yield arc, min(table[arc[0].subset.bit_count()], table[arc[1].subset.bit_count()])
            return
        grounds = self.ground_sizes
        for arc in self.layer if stage == 2 else self.empty_set:
            size = arc[0].subset.bit_count()
            yield arc, (table[size] - table[grounds[arc[0].variable] - size]) // 2


def _empty_set_arcs(gadget: GadgetGraph) -> tuple[Arc, ...]:
    core = gadget.planted.core
    non_core = [x for x in range(gadget.num_vars) if x not in core]
    arcs: list[Arc] = []
    for name, members in (("non-core", non_core), ("core", sorted(core))):
        sigma = cycle_cover([GadgetVertex(x, 0) for x in members], gadget.has_edge)
        if sigma is None:
            raise ValueError(
                f"the empty-set vertices of the {name} class (variables {members}) "
                "have no fractional perfect matching, so they cannot be saturated"
            )
        arcs.extend(sigma.items())
    return tuple(arcs)


def stage_plan(gadget: GadgetGraph) -> StagePlan:
    """The gadget's one stage plan, built once and kept on the gadget for
    ``yes_matching``, the fractional stages and ``discretize_matching``."""
    if gadget._stage_plan is None:
        gadget._stage_plan = StagePlan(gadget)
    return gadget._stage_plan


def yes_matching(gadget: GadgetGraph) -> tuple[tuple[GadgetVertex, GadgetVertex], ...]:
    """The complement-pairing matching that saturates everything outside the
    independent set of the instance's planted labelling.

    These are the ``pairs`` of the gadget's one stage plan, which stage one
    of the fractional matching and of ``discretize_matching`` read too:
    inside a core cloud the planted colour is removed from the ground set and
    each remaining subset is matched to its complement within that ground;
    outside the core, subsets are matched to their full complements.  The
    matched set is checked to equal the complement of the planted
    independent set, so the unmatched set is that set, which
    ``planted_independent_set`` verified independent with ``edge_within``:
    the matching is maximal.
    """
    # vertices order like their indices, so this sorts by the first index
    pairs = sorted(stage_plan(gadget).pairs)
    seen: set[GadgetVertex] = set()
    for u, v in pairs:
        if u in seen or v in seen:
            raise AssertionError(f"pairing collision at {u} / {v}")
        seen.add(u)
        seen.add(v)

    unmatched = {v for v in gadget.vertices() if v not in seen}
    if unmatched != set(planted_independent_set(gadget).vertices):
        raise AssertionError("matched set does not equal the complement of the planted set")
    return tuple(pairs)
