from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mmmkit.graphs import (
    Bipartite,
    Graph,
    matched_vertices,
    random_graph,
    verify_matching,
    verify_maximal_matching,
    verify_maximal_matching_via_unmatched,
    verify_vertex_cover,
)
from mmmkit.serialize import dumps, loads
from mmmkit.solvers import exact_mbb, greedy_maximal_matching


def path(n):
    g = Graph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def test_random_graph_is_refused_by_the_size_cap_as_it_is_drawn(monkeypatch):
    from mmmkit import graphs

    # K8 has 28 edges; rows add 7, 6, ..., 1, so the count is checked after each
    monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", 8 + 28)
    assert random_graph(8, 1.0, seed=0).n_edges == 28
    monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", 8 + 27)
    with pytest.raises(ValueError, match="graph with 8 vertices and 28 edges exceeds the size cap 35"):
        random_graph(8, 1.0, seed=0)
    monkeypatch.setattr(graphs, "MAX_GRAPH_SIZE", 8 + 12)
    with pytest.raises(ValueError, match="graph with 8 vertices and 13 edges exceeds"):
        random_graph(8, 1.0, seed=0)
    with pytest.raises(ValueError, match="graph with 21 vertices and 0 edges exceeds"):
        random_graph(21, 0.0, seed=0)


def test_graph_basics():
    g = path(4)
    assert g.n_vertices == 4
    assert g.n_edges == 3
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 2)
    assert g.neighbors(1) == (0, 2)
    assert 3 in g
    assert 9 not in g


def test_graph_rejects_self_loops_and_dedupes():
    g = Graph(vertices=[0, 1])
    with pytest.raises(ValueError):
        g.add_edge(0, 0)
    g.add_edge(0, 1)
    g.add_edge(1, 0)  # same edge, other orientation
    assert g.n_edges == 1


def test_add_edge_registers_new_vertices():
    g = Graph()
    g.add_edge("a", "b")
    assert g.vertices() == ("a", "b")
    assert g.index("b") == 1


def test_vertex_cover_witness_is_first_uncovered_edge():
    g = path(4)
    res = verify_vertex_cover(g, [1])
    assert not res
    assert res.witness == (2, 3)
    assert verify_vertex_cover(g, [1, 2])


def test_verify_matching_rejects_shared_endpoint_and_foreign_edge():
    g = path(4)
    assert verify_matching(g, [(0, 1), (2, 3)])
    assert not verify_matching(g, [(0, 1), (1, 2)])
    assert not verify_matching(g, [(0, 2)])


def test_maximal_matching_detects_addable_edge():
    g = path(5)
    res = verify_maximal_matching(g, [(1, 2)])
    assert not res
    assert res.witness == (3, 4)
    assert verify_maximal_matching(g, [(1, 2), (3, 4)])


def test_maximal_matching_raises_on_invalid_matching():
    g = path(4)
    with pytest.raises(ValueError):
        verify_maximal_matching(g, [(0, 1), (1, 2)])


def test_matched_vertices():
    assert matched_vertices([(0, 1), (4, 2)]) == {0, 1, 2, 4}


@given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=10))
def test_maximality_checks_agree(seed, gseed):
    # against brute force: a matching is maximal exactly when adding any
    # graph edge to it leaves no matching
    g = random_graph(9, 0.35, seed=gseed)
    m = list(greedy_maximal_matching(g, seed=seed))
    for matching in (m, m[:-1], m[1:]):
        brute = not any(verify_matching(g, matching + [e]) for e in g.edges())
        result = verify_maximal_matching(g, matching)
        assert bool(result) == brute
        if not result:
            assert verify_matching(g, matching + [result.witness])
    assert verify_maximal_matching_via_unmatched is verify_maximal_matching


def test_bipartite_validation():
    with pytest.raises(ValueError):
        Bipartite(left=[1, 2], right=[2, 3])
    bp = Bipartite(left=[1, 2], right=[3, 4])
    bp.add_edge(1, 3)
    bp.add_vertex(6)
    # right to left (also when present the other way), within a side, or off both sides
    for a, b in ((3, 1), (4, 2), (1, 2), (3, 4), (1, 5), (1, 6), (6, 3)):
        with pytest.raises(ValueError, match="does not run from left to right"):
            bp.add_edge(a, b)
    assert bp.has_edge(1, 3) and bp.has_edge(3, 1)
    assert not bp.has_edge(1, 4)
    assert list(bp.edges()) == [(1, 3)]


def test_bipartite_to_graph_keeps_edges():
    bp = Bipartite(left=["a"], right=["b", "c"])
    bp.add_edge("a", "b")
    g = bp.to_graph()
    assert g.has_edge("a", "b")
    assert not g.has_edge("a", "c")
    assert g.n_vertices == 3


@st.composite
def bipartite_graphs(draw):
    """Sides of 0-6 vertices and a random subset of their pairs, in random order."""
    left = list(range(draw(st.integers(0, 6))))
    right = [f"r{j}" for j in range(draw(st.integers(0, 6)))]
    pairs = draw(st.permutations([(a, b) for a in left for b in right]))
    return left, right, pairs[: draw(st.integers(0, len(pairs)))]


@given(bipartite_graphs())
def test_bipartite_is_a_graph_on_its_two_sides(case):
    left, right, edges = case
    bp = Bipartite(left, right, edges)
    assert bp.vertices() == tuple(left + right)
    assert list(bp.edges()) == edges
    for a in left:
        for b in right:
            assert bp.has_edge(a, b) == bp.has_edge(b, a) == ((a, b) in edges)
    assert list(bp.to_graph().edges()) == sorted(edges, key=lambda e: (left.index(e[0]), right.index(e[1])))
    text = dumps(bp)
    assert dumps(loads(text)) == text
    # brute force: min(|A|, |common right neighbours of A|) over every left subset A
    best = max(
        min(k, sum(all((a, b) in edges for a in chosen) for b in right))
        for k in range(len(left) + 1)
        for chosen in combinations(left, k)
    )
    result = exact_mbb(bp)
    assert result.value == best
    assert tuple(map(len, result.witness)) == (best, best)
