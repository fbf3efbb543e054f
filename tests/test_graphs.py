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
from mmmkit.solvers import greedy_maximal_matching


def path(n):
    g = Graph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


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
    with pytest.raises(ValueError):
        bp.add_edge(3, 1)  # left argument must come from the left side
    with pytest.raises(ValueError):
        bp.add_edge(1, 2)
    assert bp.has_edge(1, 3)
    assert not bp.has_edge(1, 4)
    assert bp.n_edges == 1


def test_bipartite_to_graph_keeps_edges():
    bp = Bipartite(left=["a"], right=["b", "c"])
    bp.add_edge("a", "b")
    g = bp.to_graph()
    assert g.has_edge("a", "b")
    assert not g.has_edge("a", "c")
    assert g.n_vertices == 3
