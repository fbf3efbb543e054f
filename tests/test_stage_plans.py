from fractions import Fraction
from itertools import combinations, permutations

import pytest

import mmmkit.gadget
from mmmkit.blowup import blow_up, discretize_matching
from mmmkit.fracmatch import (
    build_complement_pairing,
    build_empty_set_cycles,
    build_layer_cycles,
    combine,
)
from mmmkit.gadget import (
    bracket_partner,
    build_gadget,
    cycle_cover,
    planted_independent_set,
    stage_plan,
    yes_matching,
)
from mmmkit.ulc import generate_yes

from test_bitsets import k_subset_masks

F = Fraction


@pytest.mark.parametrize("n", range(3, 13))
def test_bracket_partner_is_a_disjoint_bijection(n):
    ground = (1 << n) - 1
    for k in range(1, (n + 1) // 2):
        subsets = list(k_subset_masks(n, k))
        images = [bracket_partner(s, ground) for s in subsets]
        for s, image in zip(subsets, images):
            assert image.bit_count() == k
            assert image & s == 0
        assert sorted(images) == subsets


@pytest.mark.parametrize("n,k", [(3, 1), (5, 1), (5, 2), (6, 2), (7, 3), (8, 2)])
def test_bracket_partner_matches_the_bipartite_kneser_graph(n, k):
    # A -> ground minus partner(A) is a perfect matching of the bipartite
    # Kneser graph H(n, k): k-subsets against the (n-k)-subsets containing them
    ground = (1 << n) - 1
    subsets = list(k_subset_masks(n, k))
    supersets = [ground ^ bracket_partner(s, ground) for s in subsets]
    assert all(big.bit_count() == n - k and s & ~big == 0 for s, big in zip(subsets, supersets))
    assert sorted(supersets) == sorted(k_subset_masks(n, n - k))


def test_bracket_partner_stays_in_a_sparse_ground():
    ground = 0b1011011  # colours 0, 1, 3, 4, 6
    subsets = [s for s in range(ground + 1) if s & ~ground == 0 and s.bit_count() == 2]
    images = [bracket_partner(s, ground) for s in subsets]
    assert all(image & ~ground == 0 and image & s == 0 for s, image in zip(subsets, images))
    assert sorted(images) == subsets


def test_bracket_partner_follows_the_bracket_rule():
    # {0} over colours 0..2 reads ")((": nothing closes, the one extra
    # leftmost "(" is colour 1, and the complement of {0, 1} is {2}
    assert bracket_partner(0b001, 0b111) == 0b100
    # {1} reads "()(": colour 1 closes colour 0, the extra "(" is colour 2,
    # and the complement of {1, 2} is {0}
    assert bracket_partner(0b010, 0b111) == 0b001


def _graphs(n):
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = {p for i, p in enumerate(pairs) if bits >> i & 1}
        yield lambda u, v, edges=edges: (min(u, v), max(u, v)) in edges


@pytest.mark.parametrize("n", range(6))
def test_cycle_cover_matches_permutation_search(n):
    verts = list(range(n))
    for adjacent in _graphs(n):
        exists = any(all(adjacent(x, p[x]) for x in verts) for p in permutations(verts))
        sigma = cycle_cover(verts, adjacent)
        assert (sigma is not None) == exists
        if sigma is not None:
            assert sorted(sigma) == verts and sorted(sigma.values()) == verts
            assert all(adjacent(x, sigma[x]) for x in verts)


def _ground(gadget, x):
    planted = gadget.instance.planted
    if x in planted.core:
        return gadget.full_mask & ~(1 << planted.labelling[x])
    return gadget.full_mask


@pytest.fixture(scope="module")
def gadget():
    return build_gadget(generate_yes(6, 5, xi=F(1, 3), seed=2), F(1, 8))


def test_plans_are_bijections_on_gadget_edges(gadget):
    plan = stage_plan(gadget)
    for arcs in (plan.layer, plan.empty_set):
        tails = [u for u, _ in arcs]
        heads = [v for _, v in arcs]
        assert len(set(tails)) == len(arcs)
        assert sorted(tails) == sorted(heads)
        for u, v in arcs:
            assert gadget.has_edge(u, v)
            assert u.subset.bit_count() == v.subset.bit_count()
            assert v.subset & ~_ground(gadget, v.variable) == 0


def test_complement_pairs_cover_exactly_the_non_planted_vertices(gadget):
    plan = stage_plan(gadget)
    ends = [w for pair in plan.pairs for w in pair]
    assert len(set(ends)) == len(ends)
    planted = set(planted_independent_set(gadget).vertices)
    assert set(ends) == set(gadget.vertices()) - planted
    for u, v in plan.pairs:
        assert gadget.has_edge(u, v)
        assert u.variable == v.variable and u.subset < v.subset
        assert u.subset | v.subset == _ground(gadget, u.variable)
    assert plan.ground_sizes == tuple(_ground(gadget, x).bit_count() for x in range(gadget.num_vars))


def test_amounts_follow_the_one_rule(gadget):
    plan = stage_plan(gadget)
    table = tuple(10 ** (gadget.num_colors - k) for k in range(gadget.num_colors + 1))
    pairs = list(plan.amounts(1, table))
    assert [arc for arc, _ in pairs] == list(plan.pairs)
    # the table falls in the subset size, so the larger subset sets the amount
    assert all(amount == table[max(u.subset.bit_count(), v.subset.bit_count())] for (u, v), amount in pairs)
    for stage, arcs in ((2, plan.layer), (3, plan.empty_set)):
        cycles = list(plan.amounts(stage, table))
        assert [arc for arc, _ in cycles] == list(arcs)
        for (u, _), amount in cycles:
            partner = _ground(gadget, u.variable) ^ u.subset
            assert amount == (table[u.subset.bit_count()] - table[partner.bit_count()]) // 2


def test_plan_is_built_once_per_gadget(monkeypatch):
    calls = {"bracket_partner": 0, "cycle_cover": 0}

    def counted(name):
        inner = getattr(mmmkit.gadget, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(mmmkit.gadget, name, counted(name))
    # one acceptance-grid item: 4 variables, two of them in the core
    gadget = build_gadget(generate_yes(4, 4, xi=F(1, 2), topology="cycle", seed=0), F(1, 8))
    yes_matching(gadget)
    fm = combine(
        build_complement_pairing(gadget),
        build_layer_cycles(gadget),
        build_empty_set_cycles(gadget),
    )
    discretize_matching(fm, blow_up(gadget, F(1, 2)))
    plan = stage_plan(gadget)
    assert stage_plan(gadget) is plan
    core = gadget.instance.planted.core
    assert 0 < len(core) < gadget.num_vars
    assert calls == {"bracket_partner": len(plan.layer), "cycle_cover": 2}


def test_no_gadget_over_the_vertex_cap_is_built_for_a_plan(monkeypatch):
    monkeypatch.setattr(mmmkit.gadget, "MAX_GADGET_VERTICES", 32)
    at_cap = build_gadget(generate_yes(4, 3, seed=0), F(1, 8))  # 4 clouds of 8
    assert len(stage_plan(at_cap).pairs) > 0
    with pytest.raises(ValueError, match="gadget with 40 vertices exceeds the cap 32"):
        build_gadget(generate_yes(5, 3, seed=0), F(1, 8))


def test_gadget_vertex_cap_admits_the_eighteen_colour_probes():
    # the colour-ladder instances have four variables
    assert 4 * 2**18 <= mmmkit.gadget.MAX_GADGET_VERTICES < 3 * 2**30
