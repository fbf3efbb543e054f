from fractions import Fraction

import pytest

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
from mmmkit.gadget import GadgetVertex, build_gadget, planted_independent_set
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
    assert len(validate(fm).saturated) == gadget.n_vertices


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
    assert not report.support_ok
    assert report.support_violation == (GadgetVertex(0, 0b1), GadgetVertex(0, 0b11))

    fm2 = FractionalMatching(gadget)
    u, v = GadgetVertex(0, 0b1), GadgetVertex(0, 0b110)
    fm2.add(u, v, gadget.edge_weight(u, v, "min") + F(1, 10 ** 6))
    report2 = validate(fm2)
    assert not report2.capacity_ok
    assert report2.capacity_violation is not None
    # the smaller-weight endpoint also overflows its vertex budget
    assert not report2.budget_ok

    fm3 = build_full(gadget)
    report3 = validate(fm3)
    assert report3.ok
    assert report3.budget_violation is None


def test_saturation_check_spots_missing_mass(gadget):
    fm = build_complement_pairing(gadget)  # stages two and three missing
    ok, reason = saturates_exactly_outside_planted_set(fm)
    assert not ok
    assert "saturated set" in reason
