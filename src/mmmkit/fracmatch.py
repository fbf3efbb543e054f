"""Fractional matchings on the extended gadget graph with the min edge rule.

The construction has three stages, each given by a plan: a list of arcs
(u, v) inside the gadget that ``discretize_matching`` in the blowup module
reads too.  Complement pairing puts the full min edge weight on every pair of
complementary subsets within a cloud's ground (the colour set, minus the
planted colour in core clouds).  That leaves a vertex u of a cloud with
ground size g the deficit mu(|u|) - mu(g - |u|).  The layer stage sends each
small subset A (2|A| < g) to its bracket partner, a disjoint subset of the
same size; the empty-set stage sends each (x, {}) to (sigma(x), {}) for a
permutation sigma of its class with x ~ sigma(x).  Both maps are bijections,
so every vertex is the tail of one arc and the head of one, and half its
deficit on each arc saturates it.  Together the three stages saturate
exactly the complement of the planted independent set.  Every stage reads the
planted labelling from its gadget's instance, which checked it when it was
built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bipartite import cycle_cover
from .bitsets import elements_of, submasks
from .gadget import GadgetGraph, GadgetVertex, cloud_ground, complement_pairs, planted_independent_set

Arc = tuple[GadgetVertex, GadgetVertex]


class FractionalMatching:
    """Mapping from gadget edges to nonnegative exact rationals.

    Values accumulate: adding to the same unordered pair twice sums the
    contributions.  Per-vertex loads are maintained incrementally and are
    queryable at any time.
    """

    def __init__(self, gadget: GadgetGraph) -> None:
        self.gadget = gadget
        self._values: dict[tuple[GadgetVertex, GadgetVertex], Fraction] = {}
        self._loads: dict[GadgetVertex, Fraction] = {}

    def _key(self, u: GadgetVertex, v: GadgetVertex) -> tuple[GadgetVertex, GadgetVertex]:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        return (u, v) if self.gadget.index(u) < self.gadget.index(v) else (v, u)

    def add(self, u: GadgetVertex, v: GadgetVertex, value: Fraction) -> None:
        value = Fraction(value)
        if value < 0:
            raise ValueError("negative edge value")
        if value == 0:
            return
        key = self._key(u, v)
        self._values[key] = self._values.get(key, Fraction(0)) + value
        for w in key:
            self._loads[w] = self._loads.get(w, Fraction(0)) + value

    def value(self, u: GadgetVertex, v: GadgetVertex) -> Fraction:
        return self._values.get(self._key(u, v), Fraction(0))

    def load(self, v: GadgetVertex) -> Fraction:
        return self._loads.get(v, Fraction(0))

    def support(self) -> list[tuple[GadgetVertex, GadgetVertex, Fraction]]:
        """Positive-value edges sorted by index pairs."""
        items = [(u, v, val) for (u, v), val in self._values.items()]
        items.sort(key=lambda t: (self.gadget.index(t[0]), self.gadget.index(t[1])))
        return items

    @property
    def n_support_edges(self) -> int:
        return len(self._values)

    def total_value(self) -> Fraction:
        return sum(self._values.values(), Fraction(0))

    def absorb(self, other: "FractionalMatching") -> None:
        if other.gadget is not self.gadget:
            raise ValueError("cannot combine fractional matchings over different gadgets")
        for (u, v), val in other._values.items():
            self.add(u, v, val)


def combine(*parts: FractionalMatching) -> FractionalMatching:
    if not parts:
        raise ValueError("nothing to combine")
    out = FractionalMatching(parts[0].gadget)
    for part in parts:
        out.absorb(part)
    return out


@dataclass(frozen=True)
class SaturationReport:
    """Exact per-vertex loads plus capacity and budget verdicts."""

    loads: dict[GadgetVertex, Fraction]
    saturated: tuple[GadgetVertex, ...]
    unsaturated: tuple[tuple[GadgetVertex, Fraction], ...]  # (vertex, deficit)
    support_ok: bool
    support_violation: tuple | None
    capacity_ok: bool
    capacity_violation: tuple | None
    budget_ok: bool
    budget_violation: tuple | None

    @property
    def ok(self) -> bool:
        return self.support_ok and self.capacity_ok and self.budget_ok


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


def layer_plan(gadget: GadgetGraph) -> list[Arc]:
    """Stage two's arcs: every small subset A of a cloud's ground (0 < 2|A|
    < ground size) to its bracket partner."""
    if gadget.flavor != "extended":
        raise ValueError("fractional matchings need the extended flavor")
    arcs = []
    for x in range(gadget.num_vars):
        ground = cloud_ground(gadget, x)
        for s in submasks(ground):
            if 0 < 2 * s.bit_count() < ground.bit_count():
                arcs.append((GadgetVertex(x, s), GadgetVertex(x, bracket_partner(s, ground))))
    return arcs


def empty_set_plan(gadget: GadgetGraph) -> list[Arc]:
    """Stage three's arcs: (x, {}) to (sigma(x), {}) for a permutation sigma
    of each class (core and non-core clouds) with x ~ sigma(x).

    Raises ValueError, naming the class, when no such sigma exists, as for a
    class of one cloud or a star of clouds.
    """
    if gadget.flavor != "extended":
        raise ValueError("fractional matchings need the extended flavor")
    core = gadget.planted.core
    classes = (
        ("non-core", [x for x in range(gadget.num_vars) if x not in core]),
        ("core", sorted(core)),
    )
    arcs = []
    for name, members in classes:
        if not members:
            continue
        sigma = cycle_cover([GadgetVertex(x, 0) for x in members], gadget.has_edge)
        if sigma is None:
            raise ValueError(
                f"the empty-set vertices of the {name} class (variables {members}) "
                "have no fractional perfect matching, so they cannot be saturated"
            )
        arcs.extend(sigma.items())
    return arcs


def stage_one_partner(gadget: GadgetGraph, u: GadgetVertex) -> GadgetVertex:
    """The complement of u within its cloud's ground, which stage one pairs
    u with; u's deficit after stage one is w(u) - w(partner)."""
    return GadgetVertex(u.variable, cloud_ground(gadget, u.variable) ^ u.subset)


def build_complement_pairing(gadget: GadgetGraph) -> FractionalMatching:
    """Stage one: the min edge weight on every complementary subset pair.

    Within each cloud the ground set is the full colour set, or the colour
    set minus the planted colour for core clouds; subsets containing the
    planted colour are left untouched there.
    """
    if gadget.flavor != "extended":
        raise ValueError("fractional matchings need the extended flavor")
    fm = FractionalMatching(gadget)
    for u, v in complement_pairs(gadget):
        fm.add(u, v, gadget.edge_weight(u, v, "min"))
    return fm


def _half_deficits(gadget: GadgetGraph, arcs: list[Arc]) -> FractionalMatching:
    fm = FractionalMatching(gadget)
    for u, v in arcs:
        partner = stage_one_partner(gadget, u)
        fm.add(u, v, (gadget.vertex_weight(u) - gadget.vertex_weight(partner)) / 2)
    return fm


def build_layer_cycles(gadget: GadgetGraph) -> FractionalMatching:
    """Stage two: half the deficit of every small subset on each arc of
    ``layer_plan`` through it, one as tail and one as head."""
    return _half_deficits(gadget, layer_plan(gadget))


def build_empty_set_cycles(gadget: GadgetGraph) -> FractionalMatching:
    """Stage three: half the deficit of every (x, {}) on each arc of
    ``empty_set_plan`` through it; a 2-cycle of sigma puts the whole deficit
    on its one edge."""
    return _half_deficits(gadget, empty_set_plan(gadget))


def build_full(gadget: GadgetGraph) -> FractionalMatching:
    """All three stages combined into one fractional matching."""
    return combine(
        build_complement_pairing(gadget),
        build_layer_cycles(gadget),
        build_empty_set_cycles(gadget),
    )


def validate(fm: FractionalMatching) -> SaturationReport:
    """Exact validation of the fractional matching invariants.

    Checks that every support edge exists in the graph, respects the min
    edge-weight capacity, and that no vertex load exceeds its weight; then
    classifies every vertex as saturated (load equals weight exactly) or
    unsaturated with its deficit.  Nothing is assumed about how the matching
    was built.
    """
    gadget = fm.gadget
    support_ok, support_violation = True, None
    capacity_ok, capacity_violation = True, None
    for u, v, value in fm.support():
        if not gadget.has_edge(u, v):
            support_ok, support_violation = False, (u, v)
            break
        cap = gadget.edge_weight(u, v, "min")
        if value > cap:
            capacity_ok, capacity_violation = False, (u, v, value, cap)
            break
    budget_ok, budget_violation = True, None
    loads: dict[GadgetVertex, Fraction] = {}
    saturated: list[GadgetVertex] = []
    unsaturated: list[tuple[GadgetVertex, Fraction]] = []
    for v in gadget.vertices():
        load = fm.load(v)
        weight = gadget.vertex_weight(v)
        loads[v] = load
        if load > weight and budget_ok:
            budget_ok, budget_violation = False, (v, load, weight)
        if load == weight:
            saturated.append(v)
        else:
            unsaturated.append((v, weight - load))
    return SaturationReport(
        loads=loads,
        saturated=tuple(saturated),
        unsaturated=tuple(unsaturated),
        support_ok=support_ok,
        support_violation=support_violation,
        capacity_ok=capacity_ok,
        capacity_violation=capacity_violation,
        budget_ok=budget_ok,
        budget_violation=budget_violation,
    )


def saturates_exactly_outside_planted_set(fm: FractionalMatching) -> tuple[bool, str]:
    """Convenience check used by the verification campaigns: valid matching,
    saturated set equal to the complement of the independent set of the
    instance's planted labelling, and zero load on that set itself."""
    gadget = fm.gadget
    is_vertices = set(planted_independent_set(gadget).vertices)
    report = validate(fm)
    if not report.ok:
        return False, "invalid fractional matching"
    saturated = set(report.saturated)
    expected = {v for v in gadget.vertices() if v not in is_vertices}
    if saturated != expected:
        return False, "saturated set differs from the complement of the planted set"
    for v in is_vertices:
        if report.loads[v] != 0:
            return False, f"planted vertex {v} has nonzero load"
    return True, "ok"
