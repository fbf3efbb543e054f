from fractions import Fraction
from itertools import combinations, permutations

import pytest

from mmmkit.bipartite import cycle_cover
from mmmkit.bitsets import k_subset_masks
from mmmkit.fracmatch import bracket_partner, empty_set_plan, layer_plan
from mmmkit.gadget import build_gadget, cloud_ground
from mmmkit.ulc import generate_yes

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


def test_plans_are_bijections_on_gadget_edges():
    gadget = build_gadget(generate_yes(6, 5, xi=F(1, 3), seed=2), F(1, 8))
    for plan in (layer_plan(gadget), empty_set_plan(gadget)):
        tails = [u for u, _ in plan]
        heads = [v for _, v in plan]
        assert len(set(tails)) == len(plan)
        assert sorted(tails) == sorted(heads)
        for u, v in plan:
            assert gadget.has_edge(u, v)
            assert u.subset.bit_count() == v.subset.bit_count()
            assert v.subset & ~cloud_ground(gadget, v.variable) == 0
