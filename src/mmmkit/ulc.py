"""Unique label cover instances with bijective edge constraints.

An instance couples a constraint graph over variables with one permutation of
the colour set per edge.  A labelling satisfies an edge when the permutation
maps the colour of one endpoint to the colour of the other.  Planted
instances additionally carry a labelling and a core of variables on which
every internal constraint is consistent with it.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

MAX_COLORS = 30
TOPOLOGIES = ("cycle", "complete", "random")

Permutation = tuple[int, ...]
VarEdge = tuple[int, int]


class Planted(NamedTuple):
    """A full labelling plus the core on which it is guaranteed consistent."""

    labelling: tuple[int, ...]
    core: frozenset[int]


class _Frozen:
    """A record whose ``__init__`` checks and sets its fields, which then never change.
    Equality, hash and repr run over the values named in ``_fields``."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class TLabelling(_Frozen):
    """Assignment of equal-size colour subsets to variables."""

    _fields = ("assignment", "t")

    def __init__(self, assignment: Mapping[int, frozenset[int]], t: int) -> None:
        if t < 1:
            raise ValueError("t must be positive")
        for x, subset in assignment.items():
            if len(subset) != t:
                raise ValueError(f"variable {x} has a subset of size {len(subset)}, expected {t}")
        self.__dict__.update(assignment=assignment, t=t)


class ConstraintReport(NamedTuple):
    """Partition of the edges inside a variable subset by satisfaction."""

    satisfied: tuple[VarEdge, ...]
    violated: tuple[VarEdge, ...]


class UlcInstance(_Frozen):
    """Immutable label cover instance.

    ``edges[i]`` is an ordered pair (x1, x2) with x1 < x2 and
    ``constraints[i]`` maps colours at x1 to colours at x2.  A planted
    labelling is checked on construction: one integer colour per variable,
    core members among the variables, and every core edge satisfied, so a
    bad plant raises ValueError here rather than in a later stage.
    """

    _fields = ("num_vars", "num_colors", "edges", "constraints", "planted")

    def __init__(self, num_vars: int, num_colors: int, edges: tuple[VarEdge, ...],
                 constraints: tuple[Permutation, ...], planted: Planted | None = None) -> None:
        self.__dict__.update(zip(self._fields, (num_vars, num_colors, edges, constraints, planted)))
        if planted is None:
            return
        labelling, core = planted.labelling, planted.core
        if len(labelling) != self.num_vars:
            raise ValueError("planted labelling does not cover every variable")
        for x, label in enumerate(labelling):
            if not _is_int_in(label, self.num_colors):
                raise ValueError(
                    f"planted labelling gives variable {x} colour {label!r}, "
                    f"outside 0..{self.num_colors - 1}"
                )
        for x in core:
            if not _is_int_in(x, self.num_vars):
                raise ValueError(
                    f"planted core names variable {x!r}, outside 0..{self.num_vars - 1}"
                )
        violated = check_labelling(self, labelling, core).violated
        if violated:
            x1, x2 = violated[0]
            raise ValueError(
                f"planted core edge ({x1}, {x2}) violates its constraint: colour "
                f"{labelling[x1]} at {x1} does not map to colour {labelling[x2]} at {x2}"
            )

    def with_planted(self, planted: Planted) -> "UlcInstance":
        return UlcInstance(self.num_vars, self.num_colors, self.edges, self.constraints, planted)


def _is_int_in(value, bound: int) -> bool:
    """True for an int (not a bool) in range(bound)."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < bound


def _validate_permutation(perm: Sequence[int], num_colors: int) -> Permutation:
    tup = tuple(perm)
    if sorted(tup) != list(range(num_colors)):
        raise ValueError(f"constraint {tup!r} is not a bijection on {num_colors} colours")
    return tup


def new_instance(
    num_vars: int,
    num_colors: int,
    constraint_list: Iterable[tuple[VarEdge, Sequence[int]]],
) -> UlcInstance:
    """Build and validate an instance from (edge, permutation) pairs.

    Permutations given for an edge (x1, x2) with x1 > x2 are inverted so the
    stored orientation always runs from the lower to the higher variable.
    """
    if num_vars < 1:
        raise ValueError("need at least one variable")
    if not 1 <= num_colors <= MAX_COLORS:
        raise ValueError(f"number of colours must be in 1..{MAX_COLORS}")
    edges: list[VarEdge] = []
    constraints: list[Permutation] = []
    seen: set[VarEdge] = set()
    for (x1, x2), perm in constraint_list:
        for x in (x1, x2):
            if not 0 <= x < num_vars:
                raise ValueError(f"edge ({x1}, {x2}) references unknown variable {x}")
        if x1 == x2:
            raise ValueError(f"self-loop at variable {x1}")
        tup = _validate_permutation(perm, num_colors)
        if x1 > x2:
            inv = [0] * num_colors
            for r, image in enumerate(tup):
                inv[image] = r
            x1, x2, tup = x2, x1, tuple(inv)
        if (x1, x2) in seen:
            raise ValueError(f"duplicate edge ({x1}, {x2})")
        seen.add((x1, x2))
        edges.append((x1, x2))
        constraints.append(tup)
    return UlcInstance(num_vars, num_colors, tuple(edges), tuple(constraints))


def _consistent_permutation(rng: random.Random, num_colors: int, r1: int, r2: int) -> Permutation:
    """Uniform permutation with the single value pi[r1] = r2 pinned."""
    perm = [0] * num_colors
    perm[r1] = r2
    sources = [r for r in range(num_colors) if r != r1]
    targets = [r for r in range(num_colors) if r != r2]
    rng.shuffle(targets)
    for s, t in zip(sources, targets):
        perm[s] = t
    return tuple(perm)


def generate_yes(
    num_vars: int,
    num_colors: int,
    xi: Fraction | int | str = 0,
    topology: str = "cycle",
    seed: int = 0,
    p_edge: float | None = None,
) -> UlcInstance:
    """Generate a planted instance whose core constraints are all consistent.

    The labelling is drawn uniformly; the core keeps all but floor(xi * n)
    variables.  A complement of exactly one variable is widened back into the
    core (the empty-set saturation stage needs at least two variables per
    class), which only ever grows the core, so the size guarantee
    ``|core| >= (1 - xi) * n`` still holds.

    The constraint graph always contains the cycle 0-1-..-(n-1)-0, a cycle
    inside each planted class of size >= 3, and the single connecting edge
    for a class of size 2; topology "complete" adds all remaining pairs and
    topology "random" adds each remaining pair with probability ``p_edge``.
    """
    if num_vars < 3:
        raise ValueError("need at least 3 variables")
    if not 1 <= num_colors <= MAX_COLORS:
        raise ValueError(f"number of colours must be in 1..{MAX_COLORS}")
    xi = Fraction(xi)
    if not 0 <= xi < 1:
        raise ValueError("xi must lie in [0, 1)")
    if topology not in TOPOLOGIES:
        raise ValueError(f"unknown topology {topology!r}")
    if topology == "random" and p_edge is None:
        raise ValueError("topology 'random' needs p_edge")
    if p_edge is not None and not 0 <= p_edge <= 1:  # NaN fails both compares
        raise ValueError(f"p_edge must lie in [0, 1], got {p_edge}")

    rng = random.Random(seed)
    labelling = tuple(rng.randrange(num_colors) for _ in range(num_vars))
    out_size = int(xi * num_vars)  # floor for nonnegative xi
    if out_size >= num_vars:
        raise ValueError("xi leaves no core variable")
    if out_size == 1:
        out_size = 0
    outside = sorted(rng.sample(range(num_vars), out_size))
    core = frozenset(range(num_vars)) - frozenset(outside)

    edge_set: set[VarEdge] = set()

    def add(x1: int, x2: int) -> None:
        if x1 > x2:
            x1, x2 = x2, x1
        edge_set.add((x1, x2))

    for i in range(num_vars):
        add(i, (i + 1) % num_vars)
    for cls in (sorted(core), outside):
        if len(cls) == 2:
            add(cls[0], cls[1])
        elif len(cls) >= 3:
            for i in range(len(cls)):
                add(cls[i], cls[(i + 1) % len(cls)])
    if topology == "complete":
        for x1 in range(num_vars):
            for x2 in range(x1 + 1, num_vars):
                add(x1, x2)
    elif topology == "random":
        for x1 in range(num_vars):
            for x2 in range(x1 + 1, num_vars):
                if (x1, x2) not in edge_set and rng.random() < p_edge:
                    add(x1, x2)

    edges = sorted(edge_set)
    constraints = []
    for x1, x2 in edges:
        if x1 in core and x2 in core:
            constraints.append(_consistent_permutation(rng, num_colors, labelling[x1], labelling[x2]))
        else:
            perm = list(range(num_colors))
            rng.shuffle(perm)
            constraints.append(tuple(perm))

    return UlcInstance(
        num_vars, num_colors, tuple(edges), tuple(constraints), Planted(labelling, core)
    )


def _lookup(labelling, x: int):
    if isinstance(labelling, Mapping):
        if x not in labelling:
            raise ValueError(f"labelling is missing variable {x}")
        return labelling[x]
    try:
        return labelling[x]
    except IndexError:
        raise ValueError(f"labelling is missing variable {x}") from None


def check_labelling(
    instance: UlcInstance,
    labelling: Sequence[int] | Mapping[int, int],
    subset: Iterable[int] | None = None,
) -> ConstraintReport:
    """Partition the edges inside ``subset`` by single-colour satisfaction.

    An edge (x1, x2) is satisfied when the stored permutation maps the colour
    of x1 to the colour of x2.  Edges with an endpoint outside the subset are
    ignored.
    """
    chosen = set(range(instance.num_vars) if subset is None else subset)
    satisfied: list[VarEdge] = []
    violated: list[VarEdge] = []
    for (x1, x2), perm in zip(instance.edges, instance.constraints):
        if x1 not in chosen or x2 not in chosen:
            continue
        r1 = _lookup(labelling, x1)
        r2 = _lookup(labelling, x2)
        (satisfied if perm[r1] == r2 else violated).append((x1, x2))
    return ConstraintReport(tuple(satisfied), tuple(violated))


def check_t_labelling(
    instance: UlcInstance,
    t_labelling: TLabelling,
    subset: Iterable[int] | None = None,
) -> ConstraintReport:
    """Partition the edges inside ``subset`` by subset satisfaction.

    An edge is satisfied when some colour of the first endpoint maps into the
    subset of the second.  With t = 1 this reduces to ``check_labelling``.
    """
    chosen = set(range(instance.num_vars) if subset is None else subset)
    satisfied: list[VarEdge] = []
    violated: list[VarEdge] = []
    for (x1, x2), perm in zip(instance.edges, instance.constraints):
        if x1 not in chosen or x2 not in chosen:
            continue
        s1 = _lookup(t_labelling.assignment, x1)
        s2 = _lookup(t_labelling.assignment, x2)
        for subset_colour in (s1, s2):
            for r in subset_colour:
                if not 0 <= r < instance.num_colors:
                    raise ValueError(f"colour {r} outside the colour set")
        ok = any(perm[r] in s2 for r in s1)
        (satisfied if ok else violated).append((x1, x2))
    return ConstraintReport(tuple(satisfied), tuple(violated))
