from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmkit.fracmatch import (
    FractionalMatching,
    build_complement_pairing,
    build_empty_set_cycles,
    build_full,
    build_layer_cycles,
    combine,
    saturates_exactly_outside_planted_set,
    validate,
)
from mmmkit.gadget import GadgetVertex, biased_weight, build_gadget, planted_independent_set, yes_matching
from mmmkit.ulc import Planted, generate_yes, new_instance

F = Fraction


@pytest.fixture(scope="module")
def gadget():
    return build_gadget(generate_yes(4, 3, xi=0, seed=0), F(1, 4))


def test_container_accumulates_and_tracks_loads(gadget):
    fm = FractionalMatching(gadget)
    u, v = GadgetVertex(0, 0), GadgetVertex(0, 0b110)
    fm.add(u, v, F(1, 10))
    fm.add(v, u, F(1, 10))  # same unordered pair
    assert fm.value(u, v) == F(1, 5)
    assert fm.load(u) == fm.load(v) == F(1, 5)
    assert fm.n_support_edges == 1
    assert fm.total_value() == F(1, 5)
    assert fm.load(GadgetVertex(1, 0)) == 0


def test_container_rejects_bad_values(gadget):
    fm = FractionalMatching(gadget)
    u = GadgetVertex(0, 1)
    with pytest.raises(ValueError):
        fm.add(u, u, F(1, 2))
    with pytest.raises(ValueError):
        fm.add(u, GadgetVertex(0, 2), F(-1, 2))
    fm.add(u, GadgetVertex(0, 2), 0)
    assert fm.n_support_edges == 0


def test_support_is_sorted_by_index(gadget):
    fm = FractionalMatching(gadget)
    fm.add(GadgetVertex(1, 0), GadgetVertex(1, 0b11), F(1, 100))
    fm.add(GadgetVertex(0, 0), GadgetVertex(0, 0b11), F(1, 100))
    (a, _, _), (b, _, _) = fm.support()
    assert gadget.index(a) < gadget.index(b)


def test_combine_requires_same_gadget(gadget):
    other = build_gadget(generate_yes(4, 3, xi=0, seed=0), F(1, 4))
    with pytest.raises(ValueError):
        combine(FractionalMatching(gadget), FractionalMatching(other))
    with pytest.raises(ValueError):
        combine()


def test_complement_pairing_loads(gadget):
    fm = build_complement_pairing(gadget)
    # the empty set is paired against the full ground set at that set's weight
    labelled = gadget.instance.planted.labelling[0]
    ground = gadget.full_mask & ~(1 << labelled)
    assert fm.value(GadgetVertex(0, 0), GadgetVertex(0, ground)) == gadget.weight_by_size[2]
    # large half of each pair is saturated, small half keeps a deficit
    assert fm.load(GadgetVertex(0, ground)) == gadget.weight_by_size[2]
    report = validate(fm)
    assert report.ok


def test_full_saturates_exactly_outside_planted_set(gadget):
    fm = build_full(gadget)
    ok, reason = saturates_exactly_outside_planted_set(fm)
    assert ok, reason


def test_full_total_value_accounts_for_planted_weight(gadget):
    # every vertex outside the planted set is saturated, so twice the total
    # equals the graph weight minus the planted weight
    fm = build_full(gadget)
    planted = planted_independent_set(gadget)
    assert 2 * fm.total_value() == 1 - planted.weight


def test_partial_core_instance():
    inst = generate_yes(8, 2, xi=F(1, 4), seed=1)
    gadget = build_gadget(inst, F(1, 8))
    fm = build_full(gadget)
    ok, reason = saturates_exactly_outside_planted_set(fm)
    assert ok, reason


def test_explicit_planted_override(gadget):
    other = Planted(gadget.instance.planted.labelling, frozenset())
    gadget = build_gadget(gadget.instance.with_planted(other), gadget.epsilon)
    fm = build_full(gadget)
    ok, reason = saturates_exactly_outside_planted_set(fm)
    assert ok, reason
    # with an empty core nothing is planted, so everything saturates
    assert validate(fm).unsaturated == ()


def test_empty_set_cycles_size_two_class():
    # 8 variables at xi 1/4 put exactly 2 outside the core, so the non-core
    # class's permutation is a 2-cycle that puts the whole deficit on one edge
    inst = generate_yes(8, 2, xi=F(1, 4), seed=1)
    assert len(inst.planted.core) == 6
    gadget = build_gadget(inst, F(1, 4))
    fm = build_empty_set_cycles(gadget)
    mu = gadget.weight_by_size
    for x in range(8):
        assert fm.load(GadgetVertex(x, 0)) == (mu[0] - mu[1] if x in inst.planted.core else mu[0] - mu[2])


def test_empty_set_cycles_reject_singleton_class(gadget):
    n = gadget.num_vars
    lab = gadget.instance.planted.labelling
    lonely = Planted(lab, frozenset(range(n - 1)))
    gadget = build_gadget(gadget.instance.with_planted(lonely), gadget.epsilon)
    with pytest.raises(ValueError, match="non-core class"):
        build_empty_set_cycles(gadget)


def test_stage_three_is_built_only_on_demand(gadget):
    # the singleton-class gadget above: stages one and two never need sigma
    n = gadget.num_vars
    lonely = Planted(gadget.instance.planted.labelling, frozenset(range(n - 1)))
    gadget = build_gadget(gadget.instance.with_planted(lonely), gadget.epsilon)
    assert yes_matching(gadget)
    assert build_complement_pairing(gadget).n_support_edges
    assert build_layer_cycles(gadget).n_support_edges
    for consumer in (build_empty_set_cycles, build_full):
        with pytest.raises(ValueError, match="non-core class"):
            consumer(gadget)


def _identity_core(edges):
    # four variables, all labelled 0 and all in the core, identity constraints
    inst = new_instance(4, 3, [(e, (0, 1, 2)) for e in edges])
    inst = inst.with_planted(Planted((0, 0, 0, 0), frozenset(range(4))))
    return build_gadget(inst, F(1, 8))


def test_path_core_class_saturates_exactly():
    # a path has no Hamiltonian cycle, but 0-1 and 2-3 pair its empty sets
    gadget = _identity_core([(0, 1), (1, 2), (2, 3)])
    ok, reason = saturates_exactly_outside_planted_set(build_full(gadget))
    assert ok, reason


def test_star_core_class_is_rejected_by_name():
    gadget = _identity_core([(0, 1), (0, 2), (0, 3)])
    with pytest.raises(ValueError, match="core class"):
        build_full(gadget)


@pytest.mark.parametrize("m", [8, 10, 12])
def test_full_saturates_exactly_at_many_colours(m):
    gadget = build_gadget(generate_yes(4, m, xi=F(1, 2), seed=m), F(1, 8))
    ok, reason = saturates_exactly_outside_planted_set(build_full(gadget))
    assert ok, reason


def test_stages_require_extended_flavor():
    inst = generate_yes(4, 2, xi=0, seed=0)
    base = build_gadget(inst, F(1, 4), flavor="base")
    with pytest.raises(ValueError):
        build_complement_pairing(base)
    with pytest.raises(ValueError):
        build_layer_cycles(base)
    with pytest.raises(ValueError):
        build_empty_set_cycles(base)


def test_validate_flags_support_capacity_and_budget(gadget):
    fm = FractionalMatching(gadget)
    # not an edge: subsets overlap within a cloud
    fm.add(GadgetVertex(0, 0b1), GadgetVertex(0, 0b11), F(1, 1000))
    report = validate(fm)
    assert not report.ok
    assert report.support_violation == (GadgetVertex(0, 0b1), GadgetVertex(0, 0b11))

    fm2 = FractionalMatching(gadget)
    u, v = GadgetVertex(0, 0b1), GadgetVertex(0, 0b110)
    fm2.add(u, v, min(gadget.vertex_weight(u), gadget.vertex_weight(v)) + F(1, 10 ** 6))
    report2 = validate(fm2)
    assert report2.support_violation is None
    assert report2.capacity_violation is not None
    # the smaller-weight endpoint also overflows its vertex budget
    assert report2.budget_violation is not None

    fm3 = build_full(gadget)
    report3 = validate(fm3)
    assert report3.ok
    assert report3.budget_violation is None


def test_saturation_check_spots_missing_mass(gadget):
    fm = build_complement_pairing(gadget)  # stages two and three missing
    ok, reason = saturates_exactly_outside_planted_set(fm)
    assert not ok
    assert "saturated set" in reason


# -- integer container against a plain Fraction accumulator ---------------

GADGET = build_gadget(generate_yes(3, 3, xi=F(1, 3), seed=2), F(1, 8))
VERTICES = list(GADGET.vertices())
VALUES = st.one_of(
    # over the gadget's denominator, the stage builders' own scale
    st.builds(lambda k: F(k, GADGET.denominator), st.integers(0, 10**4)),
    # foreign denominators, which force a rescale
    st.builds(F, st.integers(0, 50), st.integers(1, 40)),
)
ADDS = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.integers(0, len(VERTICES) - 1),
        st.integers(0, len(VERTICES) - 1),
        VALUES,
    ),
    max_size=25,
)


def _accumulate(ref, u, v, value):
    values, loads = ref
    if value == 0:
        return
    key = (u, v) if GADGET.index(u) < GADGET.index(v) else (v, u)
    values[key] = values.get(key, F(0)) + value
    for w in key:
        loads[w] = loads.get(w, F(0)) + value


def _assert_same(fm, ref):
    values, loads = ref
    expected = sorted(
        ((u, v, x) for (u, v), x in values.items()),
        key=lambda t: (GADGET.index(t[0]), GADGET.index(t[1])),
    )
    assert fm.support() == expected
    assert all(type(x) is F for _, _, x in fm.support())
    for (u, v), x in values.items():
        assert fm.value(u, v) == fm.value(v, u) == x
    for w in VERTICES:
        assert fm.load(w) == loads.get(w, 0)
    assert fm.total_value() == sum(values.values(), F(0))
    assert fm.n_support_edges == len(values)
    assert fm.denominator % GADGET.denominator == 0


@settings(max_examples=200, deadline=None)
@given(ADDS)
def test_container_matches_a_fraction_accumulator(adds):
    fms = [FractionalMatching(GADGET), FractionalMatching(GADGET)]
    refs = [({}, {}), ({}, {})]
    for which, i, j, value in adds:
        if i == j:
            continue
        fms[which].add(VERTICES[i], VERTICES[j], value)
        _accumulate(refs[which], VERTICES[i], VERTICES[j], value)
    for fm, ref in zip(fms, refs):
        _assert_same(fm, ref)
    # the two containers may sit at different scales by now
    merged = ({}, {})
    for ref in refs:
        for (u, v), x in ref[0].items():
            _accumulate(merged, u, v, x)
    fms[0].absorb(fms[1])
    _assert_same(fms[0], merged)
    _assert_same(combine(fms[1], FractionalMatching(GADGET)), refs[1])


def test_foreign_denominator_rescales_once(gadget):
    fm = FractionalMatching(gadget)
    u, v, w = GadgetVertex(0, 0), GadgetVertex(0, 0b110), GadgetVertex(1, 0)
    fm.add(u, v, F(3, gadget.denominator))
    assert fm.denominator == gadget.denominator
    fm.add(u, w, F(1, 7))
    assert fm.denominator == 7 * gadget.denominator
    fm.add(v, w, F(2, 7))  # 7 already divides the denominator
    assert fm.denominator == 7 * gadget.denominator
    assert fm.value(u, v) == F(3, gadget.denominator)
    assert fm.load(u) == F(3, gadget.denominator) + F(1, 7)


def test_validate_reports_capacity_and_budget_as_fractions(gadget):
    u, v = GadgetVertex(0, 0b1), GadgetVertex(0, 0b110)
    cap = min(gadget.vertex_weight(u), gadget.vertex_weight(v))
    over = cap + F(1, 10**6)  # off the gadget's denominator
    fm = FractionalMatching(gadget)
    fm.add(u, v, over)
    report = validate(fm)
    assert report.support_violation is None
    assert report.capacity_violation == (u, v, over, cap)
    assert report.budget_violation == (v, over, gadget.vertex_weight(v))
    for field in (*report.capacity_violation[2:], *report.budget_violation[1:]):
        assert type(field) is F
    deficits = dict(report.unsaturated)
    assert deficits[u] == gadget.vertex_weight(u) - over
    assert deficits[v] == gadget.vertex_weight(v) - over < 0
    assert all(type(d) is F for d in deficits.values())
    # an unloaded vertex's deficit is the gadget's own weight object
    assert deficits[GadgetVertex(1, 0)] is gadget.vertex_weight(GadgetVertex(1, 0))

    # exactly at capacity: the smaller endpoint is saturated, no violation
    fm = FractionalMatching(gadget)
    fm.add(u, v, cap)
    report = validate(fm)
    assert report.ok
    assert v not in dict(report.unsaturated)
    assert dict(report.unsaturated)[u] == gadget.vertex_weight(u) - cap


# -- validate against a plain Fraction reference --------------------------

VALIDATE_GADGETS = [
    build_gadget(generate_yes(n, m, xi=xi, seed=m), eps)
    for m in range(1, 5)
    for n, xi, eps in ((3, F(0), F(1, 8)), (4, F(1, 2), F(1, 4)))
]


def _reference_report(gadget, values):
    """``validate``'s verdict from Fractions and the edge rule itself: the
    first support and capacity violation over the edges in index order, the
    first over-budget vertex, and every vertex whose load is off its weight."""
    m = gadget.num_colors
    weight = {v: biased_weight(gadget.num_vars, m, gadget.epsilon, v.subset.bit_count()) for v in gadget.vertices()}
    perms = dict(zip(gadget.instance.edges, gadget.instance.constraints))
    perms.update({(x, x): tuple(range(m)) for x in range(gadget.num_vars)})

    def adjacent(u, v):  # u has the lower index
        perm = perms.get((u.variable, v.variable))
        if perm is None or u == v:
            return False
        return sum(1 << perm[c] for c in range(m) if u.subset >> c & 1) & v.subset == 0

    support = capacity = None
    for u, v in sorted(values, key=lambda e: (gadget.index(e[0]), gadget.index(e[1]))):
        if not adjacent(u, v):
            support = (u, v)
            break
        if values[(u, v)] > min(weight[u], weight[v]):
            capacity = (u, v, values[(u, v)], min(weight[u], weight[v]))
            break
    loads = {v: F(0) for v in gadget.vertices()}
    for (u, v), x in values.items():
        loads[u] += x
        loads[v] += x
    unsaturated = tuple((v, weight[v] - loads[v]) for v in gadget.vertices() if loads[v] != weight[v])
    budget = next(((v, loads[v], weight[v]) for v in gadget.vertices() if loads[v] > weight[v]), None)
    return unsaturated, support, capacity, budget


@st.composite
def _matchings(draw):
    gadget = draw(st.sampled_from(VALIDATE_GADGETS))
    verts = list(gadget.vertices())
    edges = list(gadget.edges())
    values = {}
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.booleans()):  # a gadget edge, mostly
            u, v = draw(st.sampled_from(edges))
        else:  # any pair, often not an edge
            u, v = draw(st.lists(st.sampled_from(verts), min_size=2, max_size=2, unique=True))
        u, v = sorted((u, v), key=gadget.index)
        cap = min(gadget.vertex_weight(u), gadget.vertex_weight(v))
        # a share of the capacity, up to twice over it, at times off the
        # gadget's denominator; or a small foreign fraction
        value = draw(st.one_of(
            st.builds(lambda a, b: cap * F(a, b), st.integers(1, 8), st.sampled_from((1, 2, 3, 4, 7))),
            st.builds(F, st.integers(1, 5), st.integers(7, 400)),
        ))
        values[(u, v)] = values.get((u, v), F(0)) + value
    return gadget, values


@settings(max_examples=300, deadline=None)
@given(_matchings())
def test_validate_matches_a_fraction_reference(case):
    gadget, values = case
    fm = FractionalMatching(gadget)
    for (u, v), x in values.items():
        fm.add(v, u, x)
    report = validate(fm)
    assert tuple(report) == _reference_report(gadget, values)
    assert report.ok == (report.first_violation() == "")
    assert all(type(d) is F for _, d in report.unsaturated)


def test_planted_vertices_with_partial_load_are_not_saturated_exactly(gadget):
    # move delta from a matched non-planted edge (a, b) onto (a, p) and
    # (b, q) for planted p != q: the loads of a and b and the unsaturated set
    # stay as they were, but p and q now carry delta each
    fm = build_full(gadget)
    planted = planted_independent_set(gadget).vertices
    for a, b, x in fm.support():
        ps = [p for p in planted if gadget.has_edge(a, p)]
        qs = [q for q in planted if gadget.has_edge(b, q)]
        pairs = [(p, q) for p in ps for q in qs if p != q]
        if pairs:
            p, q = pairs[0]
            break
    else:
        pytest.fail("no non-planted edge with planted neighbours at both ends")
    delta = min(x, gadget.vertex_weight(p), gadget.vertex_weight(q)) / 2
    moved = FractionalMatching(gadget)
    for u, v, value in fm.support():
        moved.add(u, v, value - delta if (u, v) == (a, b) else value)
    moved.add(a, p, delta)
    moved.add(b, q, delta)
    report = validate(moved)
    assert report.ok
    assert {v for v, _ in report.unsaturated} == set(planted)
    assert dict(report.unsaturated)[p] == gadget.vertex_weight(p) - delta
    ok, reason = saturates_exactly_outside_planted_set(moved)
    assert not ok
    assert "nonzero load" in reason
