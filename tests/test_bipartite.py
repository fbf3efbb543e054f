from fractions import Fraction

import pytest

from mmmkit.bipartite import (
    BipVertex,
    anti_biclique_bound,
    bipartise,
    cover_from_decomposition,
    decompose,
    double_matching,
    random_planted_biclique,
    sseh_gadget,
    sseh_yes_matching,
)
from mmmkit import graphs
from mmmkit.graphs import (
    MAX_GRAPH_SIZE,
    Graph,
    random_graph,
    verify_matching,
    verify_maximal_matching,
    verify_vertex_cover,
)
from mmmkit.solvers import exact_mbb, exact_mmm, greedy_maximal_matching

F = Fraction


def path(n):
    g = Graph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle(n):
    g = path(n)
    g.add_edge(n - 1, 0)
    return g


def test_doubling_structure():
    bip = bipartise(path(3))
    verts = list(bip.vertices())
    assert len(verts) == bip.n_vertices == 6
    assert verts == [BipVertex(side, v) for side in "lr" for v in range(3)]
    assert bip.has_edge(BipVertex("l", 0), BipVertex("r", 1))
    assert bip.has_edge(BipVertex("r", 0), BipVertex("l", 1))
    assert not bip.has_edge(BipVertex("l", 0), BipVertex("l", 1))
    assert not bip.has_edge(BipVertex("l", 0), BipVertex("r", 0))


def test_doubling_edge_count_and_views():
    base = random_graph(7, 0.5, seed=1)
    bip = bipartise(base)
    edges = list(bip.edges())
    assert len(edges) == 2 * base.n_edges
    g = bip.to_graph()
    assert g.n_edges == 2 * base.n_edges
    bp = bip.to_bipartite()
    assert bp.n_edges == 2 * base.n_edges
    # in order: both orientations of each base edge; as a set: the all-pairs has_edge scan
    assert edges == [(BipVertex("l", a), BipVertex("r", b)) for u, v in base.edges() for a, b in ((u, v), (v, u))]
    verts = list(bip.vertices())
    scan = {(u, v) for u in verts for v in verts if bip.has_edge(u, v)}
    assert scan == set(edges) | {(v, u) for u, v in edges}


def test_double_matching_doubles_and_preserves_maximality():
    base = cycle(6)
    m = [(0, 1), (3, 4)]
    bip = bipartise(base)
    doubled = double_matching(bip, m)
    assert len(doubled) == 2 * len(m)
    assert verify_matching(bip, doubled)
    assert bool(verify_maximal_matching(base, m)) == bool(verify_maximal_matching(bip, doubled))
    with pytest.raises(ValueError):
        double_matching(bip, [(0, 2)])


def test_double_matching_non_maximal_stays_non_maximal():
    base = path(5)
    bip = bipartise(base)
    doubled = double_matching(bip, [(1, 2)])
    assert not verify_maximal_matching(bip, doubled)


def test_decompose_single_path():
    base = path(4)
    bip = bipartise(base)
    # arcs 0->1 and 1->2 chain into one path
    m = [(BipVertex("l", 0), BipVertex("r", 1)), (BipVertex("l", 1), BipVertex("r", 2))]
    decomp = decompose(bip, m)
    assert decomp.paths == ((0, 1, 2),)
    assert decomp.cycles == ()
    assert decomp.n_edges == 2
    assert decomp.n_vertices == 3


def test_decompose_cycle_rotated_to_smallest():
    base = cycle(3)
    bip = bipartise(base)
    m = [
        (BipVertex("l", 1), BipVertex("r", 2)),
        (BipVertex("l", 2), BipVertex("r", 0)),
        (BipVertex("l", 0), BipVertex("r", 1)),
    ]
    decomp = decompose(bip, m)
    assert decomp.paths == ()
    assert decomp.cycles == ((0, 1, 2),)
    assert decomp.n_edges == 3


def test_decompose_mixed_orientation_input():
    base = path(3)
    bip = bipartise(base)
    # right copy listed first still reads as the arc 1 -> 0
    m = [(BipVertex("r", 0), BipVertex("l", 1))]
    decomp = decompose(bip, m)
    assert decomp.paths == ((1, 0),)


def test_decompose_rejects_non_matching():
    bip = bipartise(path(3))
    with pytest.raises(ValueError):
        decompose(bip, [(BipVertex("l", 0), BipVertex("l", 1))])
    with pytest.raises(ValueError):
        decompose(
            bip,
            [
                (BipVertex("l", 0), BipVertex("r", 1)),
                (BipVertex("l", 0), BipVertex("r", 2)),
            ],
        )


def test_cover_from_decomposition_on_maximal_matching():
    base = cycle(5)
    bip = bipartise(base)
    m = greedy_maximal_matching(bip.to_graph(), seed=2)
    decomp = decompose(bip, m)
    cover = cover_from_decomposition(base, decomp)
    assert verify_vertex_cover(base, cover)
    assert len(cover) == len(m) + len(decomp.paths)


def test_cover_from_decomposition_rejects_non_maximal():
    base = path(5)
    bip = bipartise(base)
    decomp = decompose(bip, double_matching(bip, [(0, 1)]))
    with pytest.raises(ValueError):
        cover_from_decomposition(base, decomp)


def make_gadget(n=4, epsilon=F(1, 4), seed=0):
    original, k_a, k_b = random_planted_biclique(n, epsilon, seed=seed)
    return sseh_gadget(original, epsilon), k_a, k_b


def test_sseh_gadget_shape():
    gadget, _, _ = make_gadget()
    assert gadget.n == 4
    assert len(gadget.a_pad) == len(gadget.b_pad) == 3
    assert gadget.side == 7
    # every pad vertex is joined to the entire opposite side, pads included
    for u in gadget.a:
        for v in gadget.b_pad:
            assert gadget.graph.has_edge(u, v)
    for u in gadget.a_pad:
        for v in gadget.b + gadget.b_pad:
            assert gadget.graph.has_edge(u, v)
    # between the original sides the gadget is the exact complement
    for u in gadget.a:
        for v in gadget.b:
            assert gadget.graph.has_edge(u, v) != gadget.original.has_edge(u, v)


def test_sseh_gadget_validation():
    original, _, _ = random_planted_biclique(4, F(1, 4), seed=0)
    with pytest.raises(ValueError):
        sseh_gadget(original, F(1, 2))
    with pytest.raises(ValueError):
        sseh_gadget(original, F(1, 3))  # pad size 4 * 5/6 not integral
    lopsided = random_planted_biclique(4, F(1, 4), seed=0)[0]
    uneven = type(lopsided)(left=lopsided.left[:3], right=lopsided.right)
    with pytest.raises(ValueError):
        sseh_gadget(uneven, F(1, 4))


def test_sseh_yes_matching_size_and_maximality():
    gadget, k_a, k_b = make_gadget()
    m = sseh_yes_matching(gadget, k_a, k_b)
    assert len(m) == gadget.n + 2 * gadget.n * F(1, 4)  # n (1 + 2 eps)
    g = gadget.graph.to_graph()
    assert verify_maximal_matching(g, m)


def test_sseh_yes_matching_validation():
    gadget, k_a, k_b = make_gadget()
    with pytest.raises(ValueError):
        sseh_yes_matching(gadget, k_a[:-1], k_b)
    with pytest.raises(ValueError):
        sseh_yes_matching(gadget, gadget.a_pad[:1], k_b)
    # a pair outside the planted biclique is not guaranteed complete
    bad_a = [v for v in gadget.a if v not in set(k_a)][:1]
    rest = list(k_a[:-1]) + bad_a
    if not all(gadget.original.has_edge(u, v) for u in rest for v in k_b):
        with pytest.raises(ValueError):
            sseh_yes_matching(gadget, rest, k_b)


def test_anti_biclique_bound_values():
    gadget, _, _ = make_gadget()
    assert anti_biclique_bound(gadget, 0) == 6
    assert anti_biclique_bound(gadget, 1) == 5
    assert anti_biclique_bound(gadget, 100) == 0
    with pytest.raises(ValueError):
        anti_biclique_bound(gadget, -1)


def test_anti_biclique_bound_consistent_with_exact_mbb():
    gadget, k_a, k_b = make_gadget(seed=3)
    mbb = exact_mbb(gadget.original)
    assert mbb.value >= len(k_a)
    yes = sseh_yes_matching(gadget, k_a, k_b)
    assert anti_biclique_bound(gadget, mbb.value) <= len(yes)


def test_unmatched_pads_cannot_beat_the_bound():
    # an unmatched pad vertex sees the whole opposite side, so a maximal
    # matching can only leave original vertices free: the bound is tight
    # against the exact optimum even when the biclique is a single edge
    gadget, _, _ = make_gadget(seed=2)
    mbb = exact_mbb(gadget.original)
    assert mbb.value == 1
    exact = exact_mmm(gadget.graph.to_graph())
    assert exact.optimal
    assert anti_biclique_bound(gadget, mbb.value) == 5
    assert exact.value >= 5


def test_random_planted_biclique_is_complete():
    original, k_a, k_b = random_planted_biclique(8, F(1, 4), seed=9, p_edge=0.3)
    assert len(k_a) == len(k_b) == 2
    for u in k_a:
        for v in k_b:
            assert original.has_edge(u, v)
    with pytest.raises(ValueError):
        random_planted_biclique(5, F(1, 4))
    # refused by the most edges it could draw, before it draws one
    with pytest.raises(ValueError, match=f"graph with 2048 vertices and 1048576 edges exceeds the size cap {MAX_GRAPH_SIZE}"):
        random_planted_biclique(1024, F(1, 4))


def test_sseh_gadget_counts_its_padded_complement_before_adding_an_edge(monkeypatch):
    original, _, _ = random_planted_biclique(8, F(1, 4), seed=3)
    size = sseh_gadget(original, F(1, 4)).graph
    exact = size.n_vertices + size.n_edges
    assert exact == 2 * (8 + 6) + 64 - original.n_edges + 8 * 6 + 6 * 14
    monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", exact)
    sseh_gadget(original, F(1, 4))
    monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", exact - 1)
    with pytest.raises(ValueError, match=f"exceeds the size cap {exact - 1}"):
        sseh_gadget(original, F(1, 4))


def test_doubling_is_counted_before_it_is_listed(monkeypatch):
    bip = bipartise(random_graph(9, 0.5, seed=4))
    exact = bip.n_vertices + bip.n_edges
    monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", exact)
    assert bip.to_graph().n_edges == bip.to_bipartite().n_edges == bip.n_edges
    monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", exact - 1)
    for listing in (bip.to_graph, bip.to_bipartite):
        with pytest.raises(ValueError, match=f"graph with 18 vertices and {bip.n_edges} edges exceeds the size cap"):
            listing()
