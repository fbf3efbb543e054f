from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmkit.gadget import (
    FLAVORS,
    MAX_GADGET_VERTICES,
    GadgetVertex,
    biased_weight,
    build_gadget,
    planted_independent_set,
    yes_matching,
)
from mmmkit.graphs import MAX_GRAPH_SIZE, verify_maximal_matching
from mmmkit.serialize import render
from mmmkit.ulc import Planted, UlcInstance, generate_yes, new_instance

ID2 = (0, 1)
SWAP = (1, 0)

F = Fraction


def two_var_instance(perm=ID2):
    return new_instance(2, 2, [((0, 1), perm)])


def test_biased_weight_values():
    # p = 1/4 at epsilon 1/4
    assert biased_weight(4, 2, F(1, 4), 0) == F(9, 64)
    assert biased_weight(4, 2, F(1, 4), 1) == F(3, 64)
    assert biased_weight(4, 2, F(1, 4), 2) == F(1, 64)
    assert biased_weight(1, 3, F(1, 8), 3) == F(3, 8) ** 3


def test_biased_weight_validation():
    with pytest.raises(ValueError):
        biased_weight(2, 2, F(1, 2), 1)
    with pytest.raises(ValueError):
        biased_weight(2, 2, F(0), 1)
    with pytest.raises(ValueError):
        biased_weight(2, 2, F(1, 4), 3)


def test_total_weight_counts_subsets_by_size_at_the_vertex_cap():
    # the largest gadget built: 2 clouds of 2^20 subsets, which no loop visits
    assert build_gadget(new_instance(2, 20, []), F(1, 4)).total_weight() == 1
    with pytest.raises(ValueError, match=f"gadget with {3 * 2**30} vertices exceeds the cap {MAX_GADGET_VERTICES}"):
        build_gadget(new_instance(3, 30, []), F(1, 4))


def test_an_instance_over_the_colour_cap_is_refused_by_the_vertex_cap():
    # built directly, past ``new_instance`` and its colour check
    with pytest.raises(ValueError, match=f"gadget with {2**31} vertices exceeds the cap {MAX_GADGET_VERTICES}"):
        build_gadget(UlcInstance(1, 31, (), ()), F(1, 4))


@pytest.mark.parametrize("num_vars,num_colors,eps", [(2, 1, F(1, 4)), (3, 2, F(1, 8)), (5, 4, F(3, 8))])
def test_total_weight_is_one(num_vars, num_colors, eps):
    inst = new_instance(num_vars, num_colors, [])
    gadget = build_gadget(inst, eps)
    assert gadget.total_weight() == 1
    cloud = sum(gadget.vertex_weight(GadgetVertex(0, s)) for s in range(gadget.cloud_size))
    assert cloud == F(1, num_vars)


def test_index_round_trip_and_containment():
    gadget = build_gadget(two_var_instance(), F(1, 4))
    verts = list(gadget.vertices())
    assert len(verts) == gadget.n_vertices == 8
    for i, v in enumerate(verts):
        assert gadget.index(v) == i
        assert v in gadget
    assert GadgetVertex(2, 0) not in gadget
    assert GadgetVertex(0, 4) not in gadget


def test_vertex_label():
    assert GadgetVertex(3, 0b101).label() == "(3,{0,2})"
    assert GadgetVertex(0, 0).label() == "(0,{})"


def test_cross_cloud_adjacency_identity_constraint():
    gadget = build_gadget(two_var_instance(ID2), F(1, 4))
    # identity constraint: edge iff the two subsets are disjoint
    assert gadget.has_edge(GadgetVertex(0, 0b01), GadgetVertex(1, 0b10))
    assert not gadget.has_edge(GadgetVertex(0, 0b01), GadgetVertex(1, 0b01))
    assert gadget.has_edge(GadgetVertex(0, 0), GadgetVertex(1, 0b11))
    assert not gadget.has_edge(GadgetVertex(0, 0b11), GadgetVertex(1, 0b10))


def test_cross_cloud_adjacency_swap_constraint():
    gadget = build_gadget(two_var_instance(SWAP), F(1, 4))
    # swap constraint: {0} maps to {1}
    assert not gadget.has_edge(GadgetVertex(0, 0b01), GadgetVertex(1, 0b10))
    assert gadget.has_edge(GadgetVertex(0, 0b01), GadgetVertex(1, 0b01))


def test_has_edge_orientation_symmetric():
    perm = (1, 2, 0)
    gadget = build_gadget(new_instance(2, 3, [((0, 1), perm)]), F(1, 4))
    for s1 in range(8):
        for s2 in range(8):
            u, v = GadgetVertex(0, s1), GadgetVertex(1, s2)
            failed = not any(s1 >> c & 1 and s2 >> perm[c] & 1 for c in range(3))
            assert gadget.has_edge(u, v) == gadget.has_edge(v, u) == failed


def test_intra_cloud_edges_require_extended_flavor():
    inst = two_var_instance()
    ext = build_gadget(inst, F(1, 4), flavor="extended")
    base = build_gadget(inst, F(1, 4), flavor="base")
    u, v = GadgetVertex(0, 0b01), GadgetVertex(0, 0b10)
    assert ext.has_edge(u, v)
    assert not base.has_edge(u, v)
    assert not ext.has_edge(u, u)
    # overlapping subsets never get an intra-cloud edge
    assert not ext.has_edge(GadgetVertex(0, 0b01), GadgetVertex(0, 0b11))
    with pytest.raises(ValueError):
        build_gadget(inst, F(1, 4), flavor="bogus")


def test_unrelated_variables_never_adjacent():
    inst = new_instance(3, 2, [((0, 1), ID2)])
    gadget = build_gadget(inst, F(1, 4), flavor="base")
    assert not gadget.has_edge(GadgetVertex(0, 0), GadgetVertex(2, 0))


EDGE_ORDER_INSTANCES = {
    "cycle": generate_yes(3, 2, seed=2),
    "complete": generate_yes(4, 3, xi=F(1, 4), topology="complete", seed=5),
    # stored out of sorted order, so the edge order is the stored one
    "unsorted": new_instance(
        4, 3, [((2, 3), (1, 2, 0)), ((0, 1), (0, 1, 2)), ((1, 3), (2, 0, 1)), ((0, 2), (1, 0, 2))]
    ),
}


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("name", sorted(EDGE_ORDER_INSTANCES))
def test_edges_list_the_all_pairs_has_edge_scan_in_order(name, flavor):
    """``edges()`` is the all-pairs ``has_edge`` scan, lower index first, in
    its documented order: each cloud with itself (extended flavor only), then
    the constraint edges as stored, and within a cloud pair by (s1, s2)."""
    gadget = build_gadget(EDGE_ORDER_INSTANCES[name], F(1, 8), flavor=flavor)
    verts = list(gadget.vertices())
    scan = [(u, v) for i, u in enumerate(verts) for v in verts[i + 1 :] if gadget.has_edge(u, v)]
    assert all(gadget.has_edge(v, u) for u, v in scan)
    assert not any(gadget.has_edge(v, v) for v in verts)
    clouds = list(range(gadget.num_vars)) if flavor == "extended" else []
    joined = [(x, x) for x in clouds] + list(gadget.instance.edges)
    pair_rank = {pair: i for i, pair in enumerate(joined)}
    in_order = sorted(scan, key=lambda e: (pair_rank[(e[0].variable, e[1].variable)], e[0].subset, e[1].subset))
    assert list(gadget.edges()) == in_order
    for u, v in scan:  # inside a cloud the rule is disjointness, the identity map
        if u.variable == v.variable:
            assert u.subset & v.subset == 0
    for x in clouds:
        for s in range(gadget.cloud_size):
            for t in range(s + 1, gadget.cloud_size):
                assert gadget.has_edge(GadgetVertex(x, s), GadgetVertex(x, t)) == (s & t == 0)


def test_to_graph_materializes_same_edges():
    gadget = build_gadget(two_var_instance(), F(1, 4))
    g = gadget.to_graph()
    assert g.n_vertices == 8
    assert g.n_edges == len(set(gadget.edges()))
    big = build_gadget(generate_yes(7, 15, seed=0), F(1, 4))  # 7 * 2^15 vertices
    assert big.n_vertices + big.n_edges > MAX_GRAPH_SIZE
    with pytest.raises(ValueError, match="exceeds the size cap"):
        big.to_graph()
    # no edges, but 2^21 vertices: the rule counts both
    edgeless = build_gadget(new_instance(4, 19, []), F(1, 4), "base")
    assert edgeless.n_edges == 0
    with pytest.raises(ValueError, match=f"graph with {2**21} vertices and 0 edges exceeds the size cap {MAX_GRAPH_SIZE}"):
        edgeless.to_graph()


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("num_vars,num_colors,topology", [(3, 1, "cycle"), (4, 3, "complete"), (5, 4, "cycle")])
def test_n_edges_counts_the_listed_edges(flavor, num_vars, num_colors, topology):
    gadget = build_gadget(generate_yes(num_vars, num_colors, topology=topology, seed=3), F(1, 4), flavor)
    assert gadget.n_edges == sum(1 for _ in gadget.edges())


def test_to_graph_refuses_a_gadget_over_the_size_cap_before_listing_an_edge():
    def triangle(num_colors):
        perm = tuple(range(num_colors))
        return build_gadget(new_instance(3, num_colors, [((0, 1), perm), ((0, 2), perm), ((1, 2), perm)]), F(1, 8))

    assert 3 * 2**11 + triangle(11).n_edges == 3 * 2**11 + 797_160 <= MAX_GRAPH_SIZE
    over = triangle(12)
    assert over.n_vertices == 12_288 and over.n_edges == 2_391_483
    with pytest.raises(ValueError, match=f"graph with 12288 vertices and 2391483 edges exceeds the size cap {MAX_GRAPH_SIZE}"):
        over.to_graph()


def test_dot_output_is_refused_over_the_size_cap():
    # a DOT file lists every edge: 8,192 vertices and 1,062,880 edges
    gadget = build_gadget(generate_yes(4, 11, seed=0), F(1, 4))
    assert (gadget.n_vertices, gadget.n_edges) == (8_192, 1_062_880)
    with pytest.raises(ValueError, match=f"graph with 8192 vertices and 1062880 edges exceeds the size cap {MAX_GRAPH_SIZE}"):
        render(gadget, "dot")


def test_edge_weight_is_the_plus_rule():
    gadget = build_gadget(two_var_instance(), F(1, 4))
    u, v = GadgetVertex(0, 0), GadgetVertex(0, 0b11)
    assert gadget.edge_weight(u, v) == gadget.edge_weight(v, u) == F(9, 32) + F(1, 32)
    assert gadget.matching_weight([(u, v)]) == F(10, 32)
    assert gadget.set_weight([u, v]) == F(10, 32)
    # one weight, no rule to choose
    with pytest.raises(TypeError):
        gadget.edge_weight(u, v, "min")
    with pytest.raises(TypeError):
        gadget.matching_weight([(u, v)], "min")


@settings(max_examples=60, deadline=None)
@given(
    num_colors=st.integers(1, 4),
    epsilon=st.sampled_from((F(1, 8), F(1, 4), F(3, 10))),
    seed=st.integers(0, 2**16),
    rnd=st.randoms(use_true_random=False),
)
def test_integer_weight_sums_equal_fraction_sums(num_colors, epsilon, seed, rnd):
    inst = generate_yes(3, num_colors, xi=F(1, 4), topology="cycle", seed=seed)
    gadget = build_gadget(inst, epsilon)
    edges = list(gadget.edges())
    chosen = rnd.sample(edges, rnd.randint(0, min(24, len(edges))))
    expected = sum((gadget.vertex_weight(u) + gadget.vertex_weight(v) for u, v in chosen), F(0))
    assert gadget.matching_weight(chosen) == sum((gadget.edge_weight(u, v) for u, v in chosen), F(0)) == expected
    verts = list(gadget.vertices())
    subset = rnd.sample(verts, rnd.randint(0, len(verts)))
    assert gadget.set_weight(subset) == sum((gadget.vertex_weight(v) for v in subset), F(0))
    assert gadget.total_weight() == gadget.set_weight(verts) == 1


def test_matching_weights_are_cached_per_gadget():
    # two gadgets with the same units (18, 6, 2) over different D: one unit
    # total, a weight of its own in each
    small = build_gadget(generate_yes(3, 2, xi=F(0), topology="cycle", seed=0), F(1, 4))
    large = build_gadget(generate_yes(4, 2, xi=F(0), topology="cycle", seed=0), F(1, 4))
    assert (small.units_by_size, small.denominator) == ((18, 6, 2), 96)
    assert (large.units_by_size, large.denominator) == ((18, 6, 2), 128)
    edge = (GadgetVertex(0, 0), GadgetVertex(0, 0b01))
    for gadget, weight in ((small, F(1, 4)), (large, F(3, 16)), (small, F(1, 4))):
        assert gadget.matching_weight([edge]) == gadget.edge_weight(*edge) == weight
        assert gadget.matching_weight([]) == 0


def test_planted_independent_set_weight_and_size():
    inst = generate_yes(4, 3, xi=0, seed=7)
    gadget = build_gadget(inst, F(1, 8))
    planted = planted_independent_set(gadget)
    # every core cloud contributes the subsets containing its colour
    assert len(planted.vertices) == 4 * 2 ** (3 - 1)
    assert planted.weight == F(1, 2) - F(1, 8)


def test_planted_independent_set_partial_core():
    inst = generate_yes(8, 2, xi=F(1, 4), seed=3)
    gadget = build_gadget(inst, F(1, 4))
    planted = planted_independent_set(gadget)
    core = inst.planted.core
    assert planted.weight == F(len(core), 8) * F(1, 4)
    assert all(v.variable in core for v in planted.vertices)


def test_with_planted_rejects_inconsistent_plant():
    inst = two_var_instance(SWAP)
    # swap maps 0 to 1, so labelling both endpoints 0 breaks the constraint
    bad = Planted((0, 0), frozenset({0, 1}))
    with pytest.raises(ValueError, match=r"planted core edge \(0, 1\)"):
        inst.with_planted(bad)


def test_with_planted_rejects_core_inconsistent_with_labelling():
    inst = generate_yes(4, 3, xi=0, topology="cycle", seed=5)
    assert inst.planted.labelling[0] == 2
    # colour 0 at variable 0 breaks the core edges (0, 1) and (0, 3)
    bad = Planted(labelling=(0,) + inst.planted.labelling[1:], core=inst.planted.core)
    with pytest.raises(ValueError, match=r"core edge \(0, 1\)"):
        inst.with_planted(bad)


def test_gadget_planted_errors():
    gadget = build_gadget(two_var_instance(), F(1, 4))
    with pytest.raises(ValueError, match="no planted labelling"):
        gadget.planted
    with pytest.raises(ValueError, match="planted labelling"):
        two_var_instance().with_planted(Planted((0,), frozenset({0})))
    one_color = build_gadget(new_instance(2, 1, []).with_planted(Planted((0, 0), frozenset({0}))), F(1, 4))
    with pytest.raises(ValueError, match="at least 2 colours"):
        one_color.planted
    with pytest.raises(ValueError, match="at least 2 colours"):
        planted_independent_set(one_color)


def test_yes_matching_saturates_complement_exactly():
    inst = two_var_instance().with_planted(Planted((0, 0), frozenset({0, 1})))
    gadget = build_gadget(inst, F(1, 4))
    matching = yes_matching(gadget)
    assert matching == (
        (GadgetVertex(0, 0), GadgetVertex(0, 0b10)),
        (GadgetVertex(1, 0), GadgetVertex(1, 0b10)),
    )
    assert gadget.matching_weight(matching) == F(3, 4)
    assert gadget.matching_weight(matching) + planted_independent_set(gadget).weight == 1
    assert verify_maximal_matching(gadget, matching)


def test_yes_matching_mixed_core():
    inst = generate_yes(8, 2, xi=F(1, 4), seed=3)
    gadget = build_gadget(inst, F(1, 4))
    matching = yes_matching(gadget)
    planted = planted_independent_set(gadget)
    assert gadget.matching_weight(matching) + planted.weight == 1
    matched = {v for pair in matching for v in pair}
    assert matched.isdisjoint(planted.vertices)
    assert len(matched) + len(planted.vertices) == gadget.n_vertices


def test_yes_matching_needs_extended_flavor():
    inst = two_var_instance().with_planted(Planted((0, 0), frozenset({0, 1})))
    gadget = build_gadget(inst, F(1, 4), flavor="base")
    with pytest.raises(ValueError, match="extended flavor"):
        yes_matching(gadget)


def _pairwise_edge(gadget, vertices):
    members = sorted(set(vertices), key=gadget.index)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if gadget.has_edge(u, v):
                return (u, v)
    return None


@settings(max_examples=150, deadline=None)
@given(
    num_vars=st.integers(3, 5),
    num_colors=st.integers(1, 5),
    flavor=st.sampled_from(FLAVORS),
    topology=st.sampled_from(("cycle", "random")),
    seed=st.integers(0, 2**16),
    grow_independent=st.booleans(),
    rnd=st.randoms(use_true_random=False),
)
def test_edge_within_agrees_with_the_pairwise_scan(
    num_vars, num_colors, flavor, topology, seed, grow_independent, rnd
):
    inst = generate_yes(num_vars, num_colors, xi=F(1, 4), topology=topology, seed=seed, p_edge=0.5)
    gadget = build_gadget(inst, F(1, 4), flavor)
    verts = list(gadget.vertices())
    if grow_independent:
        # a random independent set, sometimes with one more vertex on top
        chosen = []
        for v in rnd.sample(verts, len(verts)):
            if len(chosen) < 11 and not any(gadget.has_edge(v, w) for w in chosen):
                chosen.append(v)
        if rnd.random() < 0.5:
            chosen.append(rnd.choice(verts))
    else:
        chosen = rnd.sample(verts, rnd.randint(0, min(12, len(verts))))
    witness = gadget.edge_within(chosen)
    assert (witness is None) == (_pairwise_edge(gadget, chosen) is None)
    if witness is not None:
        u, v = witness
        assert u in chosen and v in chosen
        assert gadget.has_edge(u, v)


def test_edge_within_witness_is_deterministic():
    gadget = build_gadget(two_var_instance(SWAP), F(1, 4))
    chosen = [GadgetVertex(1, 0b01), GadgetVertex(0, 0b11), GadgetVertex(0, 0b01), GadgetVertex(0, 0)]
    witness = gadget.edge_within(chosen)
    assert witness[0] == GadgetVertex(0, 0)  # the empty set meets every other member
    assert gadget.has_edge(*witness)
    assert gadget.edge_within(chosen[::-1]) == witness
    assert gadget.edge_within(chosen[:2]) is None
    assert gadget.edge_within([GadgetVertex(0, 0)]) is None
    assert gadget.edge_within([]) is None
    # across the swap constraint {0} at 0 forces {1} at 1, so {0} at 1 conflicts
    assert gadget.edge_within([GadgetVertex(0, 0b01), GadgetVertex(1, 0b01)]) == (
        GadgetVertex(0, 0b01),
        GadgetVertex(1, 0b01),
    )


@pytest.mark.parametrize("num_vars,num_colors,xi,seed", [(4, 2, 0, 0), (6, 3, F(1, 2), 1), (5, 4, F(1, 4), 2)])
def test_unmatched_check_agrees_with_edge_scan_on_yes_matching(num_vars, num_colors, xi, seed):
    gadget = build_gadget(generate_yes(num_vars, num_colors, xi=xi, seed=seed), F(1, 4))
    graph = gadget.to_graph()
    matching = list(yes_matching(gadget))
    assert verify_maximal_matching(gadget, matching)
    assert verify_maximal_matching(graph, matching)
    for drop in (0, len(matching) // 2, len(matching) - 1):
        short = matching[:drop] + matching[drop + 1 :]
        fast = verify_maximal_matching(gadget, short)
        slow = verify_maximal_matching(graph, short)
        assert not fast and not slow
        assert graph.has_edge(*fast.witness)


def test_yes_matching_is_checked_maximal_at_twelve_colours():
    gadget = build_gadget(generate_yes(4, 12, xi=F(1, 2), seed=0), F(1, 4))
    matching = yes_matching(gadget)
    assert len(matching) == (gadget.n_vertices - len(planted_independent_set(gadget).vertices)) // 2
    assert verify_maximal_matching(gadget, matching)


def test_units_by_size_are_weights_over_the_denominator():
    # p = 1/4 at epsilon 1/4, so D = 2 * 4 * 4^3 and units are 2 * 1^k * 3^(3-k)
    gadget = build_gadget(generate_yes(4, 3, seed=0), F(1, 4))
    assert gadget.denominator == 512
    assert gadget.units_by_size == (54, 18, 6, 2)


@pytest.mark.parametrize("eps", [F(1, 4), F(1, 8), F(1, 3), F(3, 7), F(1, 100)])
@pytest.mark.parametrize("n,m", [(3, 1), (4, 2), (5, 6)])
def test_units_by_size_are_even_integers(eps, n, m):
    gadget = build_gadget(generate_yes(n, m, seed=0), eps)
    p = F(1, 2) - eps
    assert gadget.denominator == 2 * n * p.denominator**m
    for w, units in zip(gadget.weight_by_size, gadget.units_by_size):
        assert type(units) is int and units % 2 == 0
        assert w * gadget.denominator == units


def test_planted_set_is_built_once_per_gadget():
    gadget = build_gadget(generate_yes(4, 3, xi=F(1, 4), seed=1), F(1, 8))
    first = planted_independent_set(gadget)
    assert planted_independent_set(gadget) is first
    yes_matching(gadget)
    assert planted_independent_set(gadget) is first
    again = build_gadget(gadget.instance, gadget.epsilon)
    assert planted_independent_set(again) == first
    assert planted_independent_set(again) is not first
