from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmmkit.gadget import GadgetVertex, build_gadget
from mmmkit.serialize import dumps, loads
from mmmkit.ulc import (
    Planted,
    TLabelling,
    UlcInstance,
    check_labelling,
    check_t_labelling,
    generate_yes,
    new_instance,
)

SWAP = (1, 0)
ID2 = (0, 1)


def test_new_instance_orients_and_inverts():
    inst = new_instance(3, 2, [((2, 0), (1, 0)), ((0, 1), ID2)])
    assert inst.edges == ((0, 2), (0, 1))
    # stored permutation runs low to high, so the given one was inverted
    assert inst.constraints[0] == SWAP
    assert (0, 1) in inst.edges
    assert (1, 2) not in inst.edges


def test_reversed_asymmetric_constraint_is_inverted():
    # (1, 2, 0) given from 1 to 0 maps colour c at 0 to (2, 0, 1)[c] at 1
    inst = new_instance(2, 3, [((1, 0), (1, 2, 0))])
    assert inst.edges == ((0, 1),)
    assert inst.constraints == ((2, 0, 1),)
    gadget = build_gadget(inst.with_planted(Planted((0, 2), frozenset({0, 1}))), Fraction(1, 8))
    for c in range(3):
        for d in range(3):
            u, v = GadgetVertex(0, 1 << c), GadgetVertex(1, 1 << d)
            # singletons are adjacent exactly when c does not map to d
            assert gadget.has_edge(u, v) == gadget.has_edge(v, u) == ((2, 0, 1)[c] != d)


@pytest.mark.parametrize(
    "bad",
    [
        [((0, 0), ID2)],
        [((0, 3), ID2)],
        [((0, 1), (0, 0))],
        [((0, 1), ID2), ((1, 0), SWAP)],
    ],
)
def test_new_instance_rejects(bad):
    with pytest.raises(ValueError):
        new_instance(3, 2, bad)


def test_check_labelling_partitions_edges():
    inst = new_instance(3, 2, [((0, 1), ID2), ((1, 2), SWAP), ((0, 2), ID2)])
    report = check_labelling(inst, [0, 0, 1])
    assert report.satisfied == ((0, 1), (1, 2))
    assert report.violated == ((0, 2),)
    inside = check_labelling(inst, [0, 0, 1], subset={0, 1})
    assert not inside.violated
    assert inside.satisfied == ((0, 1),)


def test_check_labelling_mapping_input_and_missing_variable():
    inst = new_instance(2, 2, [((0, 1), SWAP)])
    assert not check_labelling(inst, {0: 0, 1: 1}).violated
    with pytest.raises(ValueError):
        check_labelling(inst, {0: 0})


def test_t_labelling_size_validation():
    with pytest.raises(ValueError):
        TLabelling({0: frozenset({0}), 1: frozenset({0, 1})}, t=1)
    with pytest.raises(ValueError):
        TLabelling({0: frozenset()}, t=0)


def test_check_t_labelling_subset_semantics():
    inst = new_instance(2, 4, [((0, 1), (1, 0, 3, 2))])
    hit = TLabelling({0: frozenset({0, 2}), 1: frozenset({1, 2})}, t=2)
    assert not check_t_labelling(inst, hit).violated
    miss = TLabelling({0: frozenset({0, 2}), 1: frozenset({0, 2})}, t=2)
    assert check_t_labelling(inst, miss).violated == ((0, 1),)


def test_check_t_labelling_rejects_foreign_colour():
    inst = new_instance(2, 2, [((0, 1), ID2)])
    bad = TLabelling({0: frozenset({5}), 1: frozenset({0})}, t=1)
    with pytest.raises(ValueError):
        check_t_labelling(inst, bad)


def test_t_one_reduces_to_single_colour():
    inst = generate_yes(5, 3, topology="complete", seed=3)
    lab = inst.planted.labelling
    tl = TLabelling({x: frozenset({lab[x]}) for x in range(5)}, t=1)
    assert set(check_t_labelling(inst, tl).satisfied) == set(check_labelling(inst, lab).satisfied)


def test_generate_yes_core_is_consistent():
    inst = generate_yes(8, 4, xi=Fraction(1, 4), seed=11)
    assert len(inst.planted.core) >= 6
    report = check_labelling(inst, inst.planted.labelling, inst.planted.core)
    assert not report.violated


def test_generate_yes_xi_zero_full_core():
    inst = generate_yes(6, 3, xi=0, seed=0)
    assert inst.planted.core == frozenset(range(6))
    assert not check_labelling(inst, inst.planted.labelling).violated


def test_generate_yes_determinism_and_seed_sensitivity():
    a = generate_yes(7, 3, xi=Fraction(1, 4), seed=5)
    b = generate_yes(7, 3, xi=Fraction(1, 4), seed=5)
    c = generate_yes(7, 3, xi=Fraction(1, 4), seed=6)
    assert a == b
    assert a != c


def test_generate_yes_contains_spanning_cycle():
    inst = generate_yes(6, 2, seed=1)
    for i in range(6):
        assert tuple(sorted((i, (i + 1) % 6))) in inst.edges


def test_generate_yes_complete_topology():
    inst = generate_yes(5, 2, topology="complete", seed=0)
    assert len(inst.edges) == 10


def test_generate_yes_validation():
    with pytest.raises(ValueError):
        generate_yes(2, 2)
    with pytest.raises(ValueError):
        generate_yes(4, 0)
    with pytest.raises(ValueError):
        generate_yes(4, 2, xi=1)
    with pytest.raises(ValueError):
        generate_yes(4, 2, topology="tree")
    with pytest.raises(ValueError):
        generate_yes(4, 2, topology="random")


def test_planted_is_optional_and_attachable():
    inst = new_instance(3, 2, [((0, 1), ID2)])
    assert inst.planted is None
    planted = Planted((0, 0, 1), frozenset({0, 1}))
    assert inst.with_planted(planted).planted == planted


@given(
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=50),
)
def test_generate_yes_core_size_bound(num_vars, num_colors, seed):
    xi = Fraction(1, 4)
    inst = generate_yes(num_vars, num_colors, xi=xi, seed=seed)
    assert len(inst.planted.core) >= (1 - xi) * num_vars
    assert not check_labelling(inst, inst.planted.labelling, inst.planted.core).violated


def _int_in(value, bound):
    return type(value) is int and 0 <= value < bound


@given(st.data())
def test_with_planted_accepts_exactly_the_valid_plants(data):
    num_vars = data.draw(st.integers(min_value=3, max_value=6))
    num_colors = data.draw(st.integers(min_value=1, max_value=4))
    inst = generate_yes(num_vars, num_colors, xi=Fraction(1, 3), seed=data.draw(st.integers(0, 50)))
    # start from the generated plant and overwrite a few labels, some of them
    # with a float, a bool or a negative number
    labelling = list(inst.planted.labelling)
    odd_label = st.sampled_from([-1, num_colors, 0.0, 1.0, True, False])
    for x in data.draw(st.lists(st.integers(0, num_vars - 1), max_size=3)):
        labelling[x] = data.draw(st.one_of(st.integers(0, num_colors - 1), odd_label))
    core = data.draw(st.frozensets(st.one_of(st.integers(0, num_vars - 1), st.just(num_vars))))
    planted = Planted(tuple(labelling), core)
    valid = (
        all(_int_in(label, num_colors) for label in labelling)
        and all(_int_in(x, num_vars) for x in core)
        and not check_labelling(inst, labelling, core).violated
    )
    if valid:
        assert inst.with_planted(planted).planted == planted
    else:
        with pytest.raises(ValueError, match="planted"):
            inst.with_planted(planted)


@pytest.mark.parametrize("member", [3, -1, 1.0, True])
def test_with_planted_rejects_core_members_outside_the_variables(member):
    inst = new_instance(3, 2, [((0, 1), ID2)])
    with pytest.raises(ValueError, match="planted core names variable"):
        inst.with_planted(Planted((0, 0, 0), frozenset({member})))


# -- record semantics: value equality, hash, repr and immutability ------------


def test_instance_equals_and_hashes_like_its_round_trip():
    inst = generate_yes(5, 3, xi=Fraction(2, 5), topology="random", seed=4, p_edge=0.5)
    again = loads(dumps(inst))
    assert again is not inst and again == inst and hash(again) == hash(inst)
    assert len({inst, again}) == 1
    bare = UlcInstance(inst.num_vars, inst.num_colors, inst.edges, inst.constraints)
    assert bare != inst and bare == inst.with_planted(None)
    assert inst != (inst.num_vars, inst.num_colors, inst.edges, inst.constraints, inst.planted)
    assert repr(bare) == (
        f"UlcInstance(num_vars=5, num_colors=3, edges={inst.edges!r}, "
        f"constraints={inst.constraints!r}, planted=None)"
    )


def test_instance_fields_cannot_be_assigned_or_deleted():
    inst = generate_yes(3, 2, seed=0)
    with pytest.raises(AttributeError):
        inst.num_vars = 4
    with pytest.raises(AttributeError):
        del inst.planted
    with pytest.raises(AttributeError):
        inst.extra = 1
    assert inst.num_vars == 3 and inst.planted is not None


def test_bad_plant_and_mixed_t_labelling_still_raise():
    inst = new_instance(2, 2, [((0, 1), SWAP)])
    with pytest.raises(ValueError, match="does not map"):
        UlcInstance(2, 2, inst.edges, inst.constraints, Planted((0, 0), frozenset({0, 1})))
    with pytest.raises(ValueError, match="expected 1"):
        TLabelling({0: frozenset({0}), 1: frozenset({0, 1})}, t=1)
    tl = TLabelling({0: frozenset({1})}, t=1)
    assert tl == TLabelling({0: frozenset({1})}, t=1) != TLabelling({0: frozenset({0})}, t=1)
    assert repr(tl) == "TLabelling(assignment={0: frozenset({1})}, t=1)"
    with pytest.raises(AttributeError):
        tl.t = 2


@pytest.mark.parametrize("topology", ["cycle", "complete", "random"])
@pytest.mark.parametrize("p_edge", [7, -1, 1.5, float("nan")])
def test_generate_yes_refuses_p_edge_outside_unit_interval(topology, p_edge):
    with pytest.raises(ValueError, match=r"p_edge must lie in \[0, 1\]"):
        generate_yes(4, 2, topology=topology, p_edge=p_edge)


def test_generate_yes_accepts_p_edge_at_the_ends_and_with_any_topology():
    cycle = generate_yes(5, 2, topology="cycle", seed=3)
    assert generate_yes(5, 2, topology="random", seed=3, p_edge=0).edges == cycle.edges
    assert generate_yes(5, 2, topology="random", seed=3, p_edge=1).edges == generate_yes(
        5, 2, topology="complete", seed=3
    ).edges
    assert generate_yes(5, 2, topology="complete", seed=3, p_edge=0.5) == generate_yes(5, 2, topology="complete", seed=3)
