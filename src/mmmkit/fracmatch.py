"""Fractional matchings on the extended gadget graph.

A valid matching puts at most min(w_u, w_v) on each edge (u, v) and at most
w_v on each vertex v; ``validate`` checks both.

The construction has three stages, and each gadget has one plan for them,
``gadget.stage_plan``: its arcs (u, v) inside the gadget, with one amount
rule that ``discretize_matching`` in the blowup module reads too.
Complement pairing puts min(w_u, w_v) on every pair of complementary
subsets within a cloud's ground (the colour set, minus the planted colour
in core clouds).  That leaves a vertex u of a cloud with ground size g the
deficit mu(|u|) - mu(g - |u|).  The layer stage sends each
small subset A (2|A| < g) to its bracket partner, a disjoint subset of the
same size; the empty-set stage sends each (x, {}) to (sigma(x), {}) for a
permutation sigma of its class with x ~ sigma(x).  Both maps are bijections,
so every vertex is the tail of one arc and the head of one, and half its
deficit on each arc saturates it.  Together the three stages saturate
exactly the complement of the planted independent set.  Every stage reads
the planted labelling from its gadget's instance, which checked it when it
was built; the planted set and the plan are each built once per gadget.

Every vertex weight is an integer over the gadget's common denominator
D = 2 * num_vars * b^m, for p = 1/2 - epsilon = a/b, and so is half of any
difference of two weights.  A ``FractionalMatching`` therefore keeps its
values and loads as integers over D (or over a multiple of it, once a value
with another denominator is added), the stages add integer units, and
``validate`` compares integers; values, loads and reports still come out as
``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .gadget import GadgetGraph, GadgetVertex, planted_independent_set, stage_plan


class FractionalMatching:
    """Mapping from gadget edges to nonnegative exact rationals.

    Values are held as integers over a common denominator, ``denominator``,
    which starts at the gadget's D (every vertex weight, and half of every
    difference of weights, is an integer over it) and only ever grows to a
    multiple of it.  Adding a value whose denominator does not divide the
    current one rescales the container once.  Values accumulate: adding to
    the same unordered pair twice sums the contributions.  Per-vertex loads
    are maintained incrementally; ``value``, ``load``, ``support`` and
    ``total_value`` hand them out as ``Fraction``.
    """

    def __init__(self, gadget: GadgetGraph) -> None:
        self.gadget = gadget
        self.denominator = gadget.denominator
        self._values: dict[tuple[GadgetVertex, GadgetVertex], int] = {}
        self._loads: dict[GadgetVertex, int] = {}

    def _key(self, u: GadgetVertex, v: GadgetVertex) -> tuple[GadgetVertex, GadgetVertex]:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        return (u, v) if self.gadget.index(u) < self.gadget.index(v) else (v, u)

    def _over(self, denominator: int) -> int:
        """Rescale so that ``denominator`` divides the container's, and
        return the factor that takes units over it to units over ours."""
        if self.denominator % denominator:
            factor = denominator // gcd(self.denominator, denominator)
            self.denominator *= factor
            self._values = {key: units * factor for key, units in self._values.items()}
            self._loads = {v: units * factor for v, units in self._loads.items()}
        return self.denominator // denominator

    def _add_units(self, u: GadgetVertex, v: GadgetVertex, units: int) -> None:
        """Add ``units`` / ``denominator`` to the pair."""
        if units < 0:
            raise ValueError("negative edge value")
        if units == 0:
            return
        key = self._key(u, v)
        self._values[key] = self._values.get(key, 0) + units
        for w in key:
            self._loads[w] = self._loads.get(w, 0) + units

    def add(self, u: GadgetVertex, v: GadgetVertex, value: Fraction) -> None:
        value = Fraction(value)
        self._add_units(u, v, value.numerator * self._over(value.denominator))

    def units(self, u: GadgetVertex, v: GadgetVertex) -> int:
        """The pair's value as an integer over ``denominator``."""
        return self._values.get(self._key(u, v), 0)

    def value(self, u: GadgetVertex, v: GadgetVertex) -> Fraction:
        return Fraction(self.units(u, v), self.denominator)

    def load(self, v: GadgetVertex) -> Fraction:
        return Fraction(self._loads.get(v, 0), self.denominator)

    def unit_support(self) -> list[tuple[tuple[GadgetVertex, GadgetVertex], int]]:
        """Positive-value edges with their units, sorted by index pairs."""
        return sorted(self._values.items())

    def support(self) -> list[tuple[GadgetVertex, GadgetVertex, Fraction]]:
        """Positive-value edges sorted by index pairs."""
        # few distinct values recur
        fractions: dict[int, Fraction] = {}
        items = []
        for (u, v), units in self.unit_support():
            value = fractions.get(units)
            if value is None:
                value = fractions[units] = Fraction(units, self.denominator)
            items.append((u, v, value))
        return items

    @property
    def n_support_edges(self) -> int:
        return len(self._values)

    def total_value(self) -> Fraction:
        return Fraction(sum(self._values.values()), self.denominator)

    def absorb(self, other: "FractionalMatching") -> None:
        if other.gadget is not self.gadget:
            raise ValueError("cannot combine fractional matchings over different gadgets")
        factor = self._over(other.denominator)
        values, loads = self._values, self._loads
        for key, units in other._values.items():
            values[key] = values.get(key, 0) + units * factor
        for v, units in other._loads.items():
            loads[v] = loads.get(v, 0) + units * factor


def combine(*parts: FractionalMatching) -> FractionalMatching:
    if not parts:
        raise ValueError("nothing to combine")
    out = FractionalMatching(parts[0].gadget)
    for part in parts:
        out.absorb(part)
    return out


class SaturationReport(NamedTuple):
    """What ``validate`` found: the first support, capacity and budget
    violation, each None when there is none, and every vertex whose load
    differs from its weight, with its deficit (negative over the budget)."""

    unsaturated: tuple[tuple[GadgetVertex, Fraction], ...]  # (vertex, deficit)
    support_violation: tuple | None  # (u, v)
    capacity_violation: tuple | None  # (u, v, value, capacity)
    budget_violation: tuple | None  # (v, load, weight)

    @property
    def ok(self) -> bool:
        return self.support_violation is None and self.capacity_violation is None and self.budget_violation is None

    def first_violation(self) -> str:
        """The first broken invariant in words, or '' when the matching is valid."""
        if self.support_violation is not None:
            u, v = self.support_violation
            return f"support edge {u.label()} ~ {v.label()} is not a gadget edge"
        if self.capacity_violation is not None:
            u, v, value, cap = self.capacity_violation
            return f"edge {u.label()} ~ {v.label()} carries {value}, over its capacity {cap}"
        if self.budget_violation is not None:
            v, load, weight = self.budget_violation
            return f"vertex {v.label()} has load {load}, over its weight {weight}"
        return ""


def _stage(gadget: GadgetGraph, stage: int) -> FractionalMatching:
    fm = FractionalMatching(gadget)
    for (u, v), units in stage_plan(gadget).amounts(stage, gadget.units_by_size):
        fm._add_units(u, v, units)
    return fm


def build_complement_pairing(gadget: GadgetGraph) -> FractionalMatching:
    """Stage one: min(w_u, w_v) on every complementary subset pair (u, v).

    Within each cloud the ground set is the full colour set, or the colour
    set minus the planted colour for core clouds; subsets containing the
    planted colour are left untouched there.
    """
    return _stage(gadget, 1)


def build_layer_cycles(gadget: GadgetGraph) -> FractionalMatching:
    """Stage two: half the deficit of every small subset on each of the two
    layer arcs through it, one as tail and one as head."""
    return _stage(gadget, 2)


def build_empty_set_cycles(gadget: GadgetGraph) -> FractionalMatching:
    """Stage three: half the deficit of every (x, {}) on each of the two
    empty-set arcs through it; a 2-cycle of sigma puts the whole deficit on
    its one edge."""
    return _stage(gadget, 3)


def build_full(gadget: GadgetGraph) -> FractionalMatching:
    """All three stages combined into one fractional matching."""
    return combine(
        build_complement_pairing(gadget),
        build_layer_cycles(gadget),
        build_empty_set_cycles(gadget),
    )


def validate(fm: FractionalMatching) -> SaturationReport:
    """Exact validation of the fractional matching invariants.

    Finds the first support edge, in sorted order, that is not a gadget edge
    or carries more than the smaller weight of its two ends, and the first
    vertex whose load exceeds its weight; and lists every vertex whose load
    differs from its weight with its deficit.  Nothing is assumed about how
    the matching was built.  Every compare is between integers over the
    matching's common denominator, and a ``Fraction`` is made only for what
    the report hands out; an unloaded vertex's deficit is the gadget's own
    weight object.
    """
    gadget, denominator = fm.gadget, fm.denominator
    scale = denominator // gadget.denominator
    units = [w * scale for w in gadget.units_by_size]
    weights = gadget.weight_by_size
    support_violation = capacity_violation = budget_violation = None
    for (u, v), value in sorted(fm._values.items()):
        if not gadget.has_edge(u, v):
            support_violation = (u, v)
            break
        cap = min(units[u.subset.bit_count()], units[v.subset.bit_count()])
        if value > cap:
            capacity_violation = (u, v, Fraction(value, denominator), Fraction(cap, denominator))
            break
    loads = fm._loads
    unsaturated: list[tuple[GadgetVertex, Fraction]] = []
    for v in gadget.vertices():
        size = v.subset.bit_count()
        load = loads.get(v, 0)
        if load == units[size]:
            continue
        if load == 0:
            unsaturated.append((v, weights[size]))
            continue
        if load > units[size] and budget_violation is None:
            budget_violation = (v, Fraction(load, denominator), weights[size])
        unsaturated.append((v, Fraction(units[size] - load, denominator)))
    return SaturationReport(tuple(unsaturated), support_violation, capacity_violation, budget_violation)


def saturates_exactly_outside_planted_set(fm: FractionalMatching) -> tuple[bool, str]:
    """Valid matching, unsaturated set equal to the independent set of the
    instance's planted labelling, and every planted vertex short of its
    whole weight, so carrying no load.  The planted set is the gadget's,
    built and verified once."""
    gadget = fm.gadget
    report = validate(fm)
    if not report.ok:
        return False, "invalid fractional matching"
    if {v for v, _ in report.unsaturated} != set(planted_independent_set(gadget).vertices):
        return False, "saturated set differs from the complement of the planted set"
    for v, deficit in report.unsaturated:
        if deficit != gadget.vertex_weight(v):
            return False, f"planted vertex {v} has nonzero load"
    return True, "ok"
