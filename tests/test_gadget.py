from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmkit.gadget import (
    FLAVORS,
    GadgetVertex,
    biased_weight,
    build_gadget,
    planted_independent_set,
    resolve_planted,
    yes_matching,
)
from mmmkit.graphs import verify_maximal_matching, verify_maximal_matching_via_unmatched
from mmmkit.ulc import Planted, generate_yes, new_instance

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
        assert gadget.vertex_at(i) == v
        assert v in gadget
    assert GadgetVertex(2, 0) not in gadget
    assert GadgetVertex(0, 4) not in gadget


def test_vertex_label():
    assert GadgetVertex(3, 0b101).label() == "(3,{0,2})"
    assert GadgetVertex(0, 0).label() == "(0,{})"


def test_cross_cloud_adjacency_identity_constraint():
    gadget = build_gadget(two_var_instance(ID2), F(1, 4))
    # identity constraint: edge iff the two subsets are disjoint
    assert gadget.adjacent(GadgetVertex(0, 0b01), GadgetVertex(1, 0b10))
    assert not gadget.adjacent(GadgetVertex(0, 0b01), GadgetVertex(1, 0b01))
    assert gadget.adjacent(GadgetVertex(0, 0), GadgetVertex(1, 0b11))
    assert not gadget.adjacent(GadgetVertex(0, 0b11), GadgetVertex(1, 0b10))


def test_cross_cloud_adjacency_swap_constraint():
    gadget = build_gadget(two_var_instance(SWAP), F(1, 4))
    # swap constraint: {0} maps to {1}
    assert not gadget.adjacent(GadgetVertex(0, 0b01), GadgetVertex(1, 0b10))
    assert gadget.adjacent(GadgetVertex(0, 0b01), GadgetVertex(1, 0b01))


def test_constraint_failed_orientation_symmetric():
    gadget = build_gadget(two_var_instance(SWAP), F(1, 4))
    for s1 in range(4):
        for s2 in range(4):
            assert gadget.constraint_failed(0, s1, 1, s2) == gadget.constraint_failed(1, s2, 0, s1)


def test_intra_cloud_edges_require_extended_flavor():
    inst = two_var_instance()
    ext = build_gadget(inst, F(1, 4), flavor="extended")
    base = build_gadget(inst, F(1, 4), flavor="base")
    u, v = GadgetVertex(0, 0b01), GadgetVertex(0, 0b10)
    assert ext.adjacent(u, v)
    assert not base.adjacent(u, v)
    assert not ext.adjacent(u, u)
    # overlapping subsets never get an intra-cloud edge
    assert not ext.adjacent(GadgetVertex(0, 0b01), GadgetVertex(0, 0b11))
    with pytest.raises(ValueError):
        build_gadget(inst, F(1, 4), flavor="bogus")


def test_unrelated_variables_never_adjacent():
    inst = new_instance(3, 2, [((0, 1), ID2)])
    gadget = build_gadget(inst, F(1, 4), flavor="base")
    assert not gadget.adjacent(GadgetVertex(0, 0), GadgetVertex(2, 0))


@pytest.mark.parametrize("flavor", ["base", "extended"])
def test_edges_and_neighbors_agree_with_adjacency(flavor):
    inst = generate_yes(3, 2, seed=2)
    gadget = build_gadget(inst, F(1, 8), flavor=flavor)
    verts = list(gadget.vertices())
    by_rule = {
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if gadget.adjacent(u, v)
    }
    listed = list(gadget.edges())
    assert len(listed) == len(set(listed))
    assert {(u, v) if gadget.index(u) < gadget.index(v) else (v, u) for u, v in listed} == by_rule
    for v in verts:
        assert set(gadget.neighbors(v)) == {u for u in verts if gadget.adjacent(v, u)}


def test_to_graph_materializes_same_edges():
    gadget = build_gadget(two_var_instance(), F(1, 4))
    g = gadget.to_graph()
    assert g.n_vertices == 8
    assert g.n_edges == len(set(gadget.edges()))
    with pytest.raises(ValueError):
        gadget.to_graph(cap=4)


def test_edge_weight_rules():
    gadget = build_gadget(two_var_instance(), F(1, 4))
    u, v = GadgetVertex(0, 0), GadgetVertex(0, 0b11)
    assert gadget.edge_weight(u, v, "plus") == F(9, 32) + F(1, 32)
    assert gadget.edge_weight(u, v, "min") == F(1, 32)
    with pytest.raises(ValueError):
        gadget.edge_weight(u, v, "sum")
    assert gadget.matching_weight([(u, v)], "min") == F(1, 32)
    assert gadget.set_weight([u, v]) == F(10, 32)


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


def test_planted_independent_set_rejects_inconsistent_plant():
    inst = two_var_instance(SWAP)
    gadget = build_gadget(inst, F(1, 4))
    # swap maps 0 to 1, so labelling both endpoints 0 breaks the constraint
    bad = Planted((0, 0), frozenset({0, 1}))
    with pytest.raises(ValueError):
        planted_independent_set(gadget, bad)


def test_resolve_planted_rejects_core_inconsistent_with_labelling():
    inst = generate_yes(4, 3, xi=0, topology="cycle", seed=5)
    assert inst.planted.labelling[0] == 2
    gadget = build_gadget(inst, F(1, 4))
    # colour 0 at variable 0 breaks the core edges (0, 1) and (0, 3)
    bad = replace(inst.planted, labelling=(0,) + inst.planted.labelling[1:])
    with pytest.raises(ValueError, match=r"core edge \(0, 1\)"):
        resolve_planted(gadget, bad)


def test_resolve_planted_errors():
    gadget = build_gadget(two_var_instance(), F(1, 4))
    with pytest.raises(ValueError):
        resolve_planted(gadget, None)
    with pytest.raises(ValueError):
        resolve_planted(gadget, Planted((0,), frozenset({0})))
    one_color = build_gadget(new_instance(2, 1, []), F(1, 4))
    with pytest.raises(ValueError):
        resolve_planted(one_color, Planted((0, 0), frozenset({0})))


def test_yes_matching_saturates_complement_exactly():
    inst = two_var_instance()
    gadget = build_gadget(inst, F(1, 4))
    planted = Planted((0, 0), frozenset({0, 1}))
    matching = yes_matching(gadget, planted)
    assert matching == (
        (GadgetVertex(0, 0), GadgetVertex(0, 0b10)),
        (GadgetVertex(1, 0), GadgetVertex(1, 0b10)),
    )
    assert gadget.matching_weight(matching, "plus") == F(3, 4)
    assert gadget.matching_weight(matching, "plus") + planted_independent_set(gadget, planted).weight == 1
    assert verify_maximal_matching_via_unmatched(gadget, matching)


def test_yes_matching_mixed_core():
    inst = generate_yes(8, 2, xi=F(1, 4), seed=3)
    gadget = build_gadget(inst, F(1, 4))
    matching = yes_matching(gadget)
    planted = planted_independent_set(gadget)
    assert gadget.matching_weight(matching, "plus") + planted.weight == 1
    matched = {v for pair in matching for v in pair}
    assert matched.isdisjoint(planted.vertices)
    assert len(matched) + len(planted.vertices) == gadget.n_vertices


def test_yes_matching_needs_extended_flavor():
    gadget = build_gadget(two_var_instance(), F(1, 4), flavor="base")
    with pytest.raises(ValueError):
        yes_matching(gadget, Planted((0, 0), frozenset({0, 1})))


def _pairwise_edge(gadget, vertices):
    members = sorted(set(vertices), key=gadget.index)
    for i, u in enumerate(members):
        for v in members[i + 1 :]:
            if gadget.adjacent(u, v):
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
            if len(chosen) < 11 and not any(gadget.adjacent(v, w) for w in chosen):
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
        assert gadget.adjacent(u, v)


def test_edge_within_witness_is_deterministic():
    gadget = build_gadget(two_var_instance(SWAP), F(1, 4))
    chosen = [GadgetVertex(1, 0b01), GadgetVertex(0, 0b11), GadgetVertex(0, 0b01), GadgetVertex(0, 0)]
    witness = gadget.edge_within(chosen)
    assert witness[0] == GadgetVertex(0, 0)  # the empty set meets every other member
    assert gadget.adjacent(*witness)
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
    assert verify_maximal_matching_via_unmatched(gadget, matching)
    assert verify_maximal_matching(graph, matching)
    for drop in (0, len(matching) // 2, len(matching) - 1):
        short = matching[:drop] + matching[drop + 1 :]
        fast = verify_maximal_matching_via_unmatched(gadget, short)
        slow = verify_maximal_matching(graph, short)
        assert not fast and not slow
        assert graph.has_edge(*fast.witness)


def test_yes_matching_is_checked_maximal_at_twelve_colours():
    gadget = build_gadget(generate_yes(4, 12, xi=F(1, 2), seed=0), F(1, 4))
    matching = yes_matching(gadget)
    assert len(matching) == (gadget.n_vertices - len(planted_independent_set(gadget).vertices)) // 2
    assert verify_maximal_matching_via_unmatched(gadget, matching)
