import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmkit.bipartite import bipartise, random_planted_biclique, sseh_gadget
from mmmkit.blowup import blow_up, total_vertex_cover_check
from mmmkit.gadget import build_gadget
from mmmkit.graphs import (
    Bipartite,
    Graph,
    random_graph,
    verify_matching,
    verify_maximal_matching,
    verify_vertex_cover,
)
from mmmkit.solvers import (
    SolveResult,
    _indexed,
    enumerate_maximal_matchings,
    exact_mbb,
    exact_min_total_vertex_cover,
    exact_min_vertex_cover,
    exact_mmm,
    greedy_maximal_matching,
)
from mmmkit.ulc import generate_yes

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


def star(leaves):
    g = Graph(vertices=range(leaves + 1))
    for i in range(1, leaves + 1):
        g.add_edge(0, i)
    return g


def complete(n):
    g = Graph(vertices=range(n))
    for i in range(n):
        for j in range(i + 1, n):
            g.add_edge(i, j)
    return g


def brute_maximal_matchings(g):
    """Independent oracle: filter all edge subsets."""
    edges = list(g.edges())
    out = set()
    for r in range(len(edges) + 1):
        for sub in combinations(edges, r):
            if verify_matching(g, sub) and verify_maximal_matching(g, sub):
                out.add(frozenset(sub))
    return out


def test_greedy_is_maximal_and_seeded():
    g = random_graph(10, 0.4, seed=0)
    m1 = greedy_maximal_matching(g, seed=7)
    m2 = greedy_maximal_matching(g, seed=7)
    assert m1 == m2
    assert verify_maximal_matching(g, m1)
    plain = greedy_maximal_matching(g)
    assert verify_maximal_matching(g, plain)


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(3), 1),
        (path(4), 1),
        (cycle(4), 2),
        (star(4), 1),
        (complete(4), 2),
        (Graph(vertices=range(3)), 0),
    ],
)
def test_exact_mmm_named_graphs(g, expected):
    result = exact_mmm(g)
    assert result.optimal
    assert result.value == expected
    assert isinstance(result.value, int)
    assert verify_maximal_matching(g, result.witness)
    assert len(result.witness) == expected


def test_exact_mmm_weighted_prefers_light_edges():
    # triangle with one light edge: the lone light edge is already maximal
    g = complete(3)
    weights = {(0, 1): F(5), (0, 2): F(5), (1, 2): F(1, 3)}
    result = exact_mmm(g, weight=lambda u, v: weights[(u, v)])
    assert result.value == F(1, 3)
    assert result.witness == ((1, 2),)
    assert isinstance(result.value, Fraction)


def test_exact_mmm_weighted_can_beat_smallest_cardinality():
    # a maximal matching of two cheap edges beats the single expensive one
    g = path(4)
    weights = {(0, 1): F(1), (1, 2): F(10), (2, 3): F(1)}
    result = exact_mmm(g, weight=lambda u, v: weights[(u, v)])
    assert result.value == 2
    assert set(result.witness) == {(0, 1), (2, 3)}


def test_exact_mmm_rejects_bad_inputs():
    with pytest.raises(ValueError):
        exact_mmm(path(3), weight=lambda u, v: 0)


def test_exact_mmm_over_sixty_vertices_stops_at_its_budget():
    # the search once refused graphs over 60 vertices; the budget bounds it now
    g = random_graph(61, 0.1, seed=0)
    result = exact_mmm(g, node_limit=1000)
    assert (result.status, result.nodes) == ("limit_reached", 1000)
    assert verify_maximal_matching(g, result.witness)
    assert result.value == len(result.witness)


def test_exact_mmm_weighted_gadget_pinned():
    # the 3-variable plus-weighted gadget behind the weighted-no lemma; the
    # value, witness and node count were recorded from the Fraction-valued
    # search this one replaced, so the search tree is unchanged
    instance = generate_yes(3, 2, xi=F(0), topology="cycle", seed=0)
    gadget = build_gadget(instance, F(1, 4), "extended")
    result = exact_mmm(gadget.to_graph(), weight=gadget.edge_weight)
    assert (result.status, result.value, result.nodes) == ("optimal", F(3, 4), 1916)
    assert isinstance(result.value, Fraction)
    assert [(tuple(u), tuple(v)) for u, v in result.witness] == [
        ((0, 0), (0, 1)),
        ((1, 0), (1, 1)),
        ((2, 0), (2, 2)),
    ]


def test_exact_mmm_doubled_graph_pinned():
    big = bipartise(random_graph(12, 0.5, seed=0)).to_graph()
    result = exact_mmm(big)
    assert (result.status, result.value, result.nodes) == ("optimal", 7, 5300)
    assert isinstance(result.value, int)
    assert [(u.side, u.base, v.side, v.base) for u, v in result.witness] == [
        ("l", 4, "r", 3),
        ("l", 3, "r", 11),
        ("l", 11, "r", 4),
        ("l", 9, "r", 6),
        ("l", 6, "r", 9),
        ("l", 7, "r", 8),
        ("l", 8, "r", 7),
    ]


def test_exact_mmm_padded_gadget_pinned():
    original, _, _ = random_planted_biclique(4, F(1, 4), seed=0)
    padded = sseh_gadget(original, F(1, 4)).graph.to_graph()
    result = exact_mmm(padded)
    assert (result.status, result.value, result.nodes) == ("optimal", 5, 2146)
    assert result.witness == (
        (("a", 1), ("b", 1)),
        (("a'", 0), ("b", 3)),
        (("a", 3), ("b'", 0)),
        (("a'", 1), ("b'", 1)),
        (("a'", 2), ("b'", 2)),
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=7),
    st.integers(min_value=0, max_value=2**31),
    st.lists(
        st.fractions(min_value=F(1, 12), max_value=12, max_denominator=12),
        min_size=21,
        max_size=21,
    ),
)
def test_exact_mmm_fraction_weights_agree_with_enumeration(n, seed, pool):
    g = random_graph(n, 0.5, seed=seed)
    weights = {e: pool[k] for k, e in enumerate(g.edges())}
    result = exact_mmm(g, weight=lambda u, v: weights[(u, v)] if (u, v) in weights else weights[(v, u)])

    def total(matching):
        return sum((weights[(u, v)] if (u, v) in weights else weights[(v, u)] for u, v in matching), F(0))

    assert result.optimal
    assert isinstance(result.value, Fraction)
    assert result.value == min(total(m) for m in enumerate_maximal_matchings(g))
    assert verify_maximal_matching(g, result.witness)
    assert total(result.witness) == result.value


@pytest.mark.parametrize("bad", [0.5, 1.0, True, "1/2"])
def test_exact_solvers_reject_inexact_weights(bad):
    with pytest.raises(ValueError):
        exact_mmm(path(3), weight=lambda u, v: bad)
    with pytest.raises(ValueError):
        exact_min_vertex_cover(path(3), weight=lambda v: bad)


def test_exact_min_vertex_cover_searches_deep_inputs():
    # the search runs over a thousand levels deep on this sparse graph; the
    # value and node count are the recursive search's, recorded with its
    # vertex cap lifted and the interpreter's recursion limit raised
    g = random_graph(1500, 0.0005, seed=0)
    result = exact_min_vertex_cover(g, node_limit=5000)
    assert (result.status, result.value, result.nodes) == ("limit_reached", 481, 5000)
    assert verify_vertex_cover(g, result.witness)
    assert len(result.witness) == 481


def test_exact_min_vertex_cover_node_limit():
    g = random_graph(60, 0.1, seed=0)
    result = exact_min_vertex_cover(g, node_limit=1000)
    assert (result.status, result.nodes) == ("limit_reached", 1000)
    # the best cover so far is a genuine cover, no smaller than the optimum
    assert verify_vertex_cover(g, result.witness)
    assert result.value == len(result.witness) > 37


@pytest.mark.parametrize("n,p,seed,value,nodes", [(30, 0.2, 0, 20, 1363), (40, 0.15, 1, 24, 2143)])
def test_exact_min_vertex_cover_node_counts_without_a_limit(n, p, seed, value, nodes):
    g = random_graph(n, p, seed=seed)
    for limit in (None, nodes):
        result = exact_min_vertex_cover(g, node_limit=limit)
        assert (result.status, result.value, result.nodes) == ("optimal", value, nodes)


def test_exact_mmm_node_limit():
    g = random_graph(12, 0.5, seed=1)
    result = exact_mmm(g, node_limit=1)
    assert result.status == "limit_reached"
    assert not result.optimal
    # the incumbent is still a genuine maximal matching
    assert verify_maximal_matching(g, result.witness)


@pytest.mark.parametrize(
    "g,count",
    [
        (path(3), 2),
        (cycle(4), 2),
        (star(4), 4),
        (complete(4), 3),
        (Graph(vertices=range(2)), 1),
    ],
)
def test_enumerate_counts_on_named_graphs(g, count):
    found = list(enumerate_maximal_matchings(g))
    assert len(found) == count
    as_sets = {frozenset(m) for m in found}
    assert len(as_sets) == count  # no duplicates
    for m in found:
        assert verify_maximal_matching(g, m)


def recursive_maximal_matchings(graph):
    """The recursive enumerator that the explicit-stack one replaced, kept
    here as the reference for the order of its output."""
    verts = tuple(graph.vertices())
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj = [0] * n
    for u, v in graph.edges():
        adj[pos[u]] |= 1 << pos[v]
        adj[pos[v]] |= 1 << pos[u]

    def rec(decided, unmatched, chosen):
        if decided == (1 << n) - 1:
            yield chosen
            return
        i = (~decided & (decided + 1)).bit_length() - 1
        fn = adj[i] & ~decided
        while fn:
            low = fn & -fn
            j = low.bit_length() - 1
            yield from rec(decided | (1 << i) | (1 << j), unmatched, chosen + ((i, j),))
            fn ^= low
        if not (adj[i] & unmatched):
            yield from rec(decided | (1 << i), unmatched | (1 << i), chosen)

    for chosen in rec(0, 0, ()):
        yield tuple((verts[i], verts[j]) for i, j in chosen)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=0, max_value=9),
    st.sampled_from((0.2, 0.4, 0.6, 0.9)),
    st.integers(min_value=0, max_value=2**31),
    st.booleans(),
)
def test_enumeration_order_matches_the_recursive_reference(n, p, seed, doubled):
    # a doubled graph has twice its base's vertices, so its base stays at 5 or fewer
    g = bipartise(random_graph(n // 2 + 1, p, seed=seed)).to_graph() if doubled else random_graph(n, p, seed=seed)
    assert list(enumerate_maximal_matchings(g)) == list(recursive_maximal_matchings(g))


def weighted_no_gadget_graph():
    inst = generate_yes(3, 2, xi=F(0), topology="cycle", seed=0)
    return build_gadget(inst, F(1, 4), "extended").to_graph()


@pytest.mark.parametrize(
    "make,count,digest",
    [
        (weighted_no_gadget_graph, 1722, "6afb93d550ce51c32a00b78fc24c968776a1816e795e0943da11b2cfbe5dddb7"),
        (
            lambda: bipartise(random_graph(8, 0.5, seed=0)).to_graph(),
            344,
            "96474a31258e4a3b73de53f7d64e0d4ddb5edf9752d37f934bc793f34e337177",
        ),
    ],
    ids=["weighted-no-gadget", "doubled-g8"],
)
def test_enumeration_output_is_pinned(make, count, digest):
    found = list(enumerate_maximal_matchings(make()))
    assert len(found) == count
    assert hashlib.sha256(repr(found).encode()).hexdigest() == digest


@pytest.mark.parametrize("seed", range(30))
def test_enumerate_agrees_with_subset_filter(seed):
    g = random_graph(6, 0.45, seed=seed)
    if g.n_edges > 12:
        pytest.skip("edge subset oracle too large")
    assert {frozenset(m) for m in enumerate_maximal_matchings(g)} == brute_maximal_matchings(g)


@pytest.mark.parametrize("seed", range(40))
def test_exact_mmm_agrees_with_enumeration(seed):
    g = random_graph(7, 0.4, seed=seed)
    enum_min = min(
        (len(m) for m in enumerate_maximal_matchings(g)),
        default=0,
    )
    assert exact_mmm(g).value == enum_min


@pytest.mark.parametrize("seed", range(20))
def test_greedy_within_twice_exact(seed):
    g = random_graph(8, 0.35, seed=seed)
    exact = exact_mmm(g).value
    assert len(greedy_maximal_matching(g, seed=seed)) <= 2 * max(exact, 1)


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(3), 1),
        (cycle(4), 2),
        (cycle(5), 3),
        (star(4), 1),
        (complete(4), 3),
        (Graph(vertices=range(3)), 0),
    ],
)
def test_exact_min_vertex_cover_named_graphs(g, expected):
    result = exact_min_vertex_cover(g)
    assert result.optimal
    assert result.value == expected
    assert verify_vertex_cover(g, result.witness)
    assert len(result.witness) == expected


def test_exact_min_vertex_cover_weighted():
    # heavy center: covering with the four unit leaves is cheaper
    g = star(4)
    result = exact_min_vertex_cover(g, weight=lambda v: F(10) if v == 0 else F(1))
    assert result.value == 4
    assert set(result.witness) == {1, 2, 3, 4}
    with pytest.raises(ValueError):
        exact_min_vertex_cover(g, weight=lambda v: 0)


@pytest.mark.parametrize("num_vars,num_colors,value,nodes", [(4, 3, F(5, 8), 159), (6, 2, F(45, 64), 77)])
def test_exact_min_vertex_cover_weighted_gadget_pinned(num_vars, num_colors, value, nodes):
    # gadget weights fall into num_colors + 1 classes, each one in the bound;
    # value and node count were recorded from the recursive search
    gadget = build_gadget(generate_yes(num_vars, num_colors, xi=F(1, 2), topology="cycle", seed=1), F(1, 8))
    g = gadget.to_graph()
    result = exact_min_vertex_cover(g, weight=gadget.vertex_weight)
    assert (result.status, result.value, result.nodes) == ("optimal", value, nodes)
    assert verify_vertex_cover(g, result.witness)
    assert gadget.set_weight(result.witness) == value


@pytest.mark.parametrize("seed", range(20))
def test_exact_min_vertex_cover_agrees_with_subset_filter(seed):
    g = random_graph(8, 0.4, seed=seed)
    verts = g.vertices()
    brute = min(
        (k for k in range(len(verts) + 1)
         for sub in combinations(verts, k)
         if verify_vertex_cover(g, sub)),
    )
    assert exact_min_vertex_cover(g).value == brute
    # with weights in three classes the bound sums one popcount per class
    rng = random.Random(seed)
    weights = {v: rng.randrange(1, 4) for v in verts}
    brute = min(
        sum(weights[v] for v in sub)
        for k in range(len(verts) + 1)
        for sub in combinations(verts, k)
        if verify_vertex_cover(g, sub)
    )
    assert exact_min_vertex_cover(g, weight=weights.__getitem__).value == brute


def test_exact_mbb_known_values():
    full = Bipartite(left=range(3), right=["a", "b", "c"])
    for u in range(3):
        for v in ["a", "b", "c"]:
            full.add_edge(u, v)
    result = exact_mbb(full)
    assert result.value == 3
    empty = Bipartite(left=range(3), right=["a", "b"])
    assert exact_mbb(empty).value == 0


def test_exact_mbb_witness_is_balanced_biclique():
    g = Bipartite(left=range(5), right=range(5, 10))
    edges = [(0, 5), (0, 6), (1, 5), (1, 6), (2, 7), (3, 8), (0, 9), (1, 9)]
    for u, v in edges:
        g.add_edge(u, v)
    result = exact_mbb(g)
    assert result.value == 2
    left_part, right_part = result.witness
    assert len(left_part) == len(right_part) == 2
    for u in left_part:
        for v in right_part:
            assert g.has_edge(u, v)


def random_bipartite(a, b, p, seed):
    rng = random.Random(seed)
    g = Bipartite(left=range(a), right=range(a, a + b))
    for u in range(a):
        for v in range(a, a + b):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


@pytest.mark.parametrize(
    "make,value,witness,nodes",
    [
        (
            lambda: random_planted_biclique(8, F(1, 4), seed=0)[0],
            2,
            ((("a", 0), ("a", 4)), (("b", 0), ("b", 2))),
            51,
        ),
        (lambda: random_bipartite(10, 12, 0.6, 5), 4, ((1, 4, 8, 9), (12, 13, 15, 21)), 117),
        (
            lambda: random_bipartite(14, 14, 0.8, 2),
            7,
            ((0, 1, 5, 8, 9, 10, 12), (17, 19, 20, 21, 22, 24, 27)),
            329,
        ),
    ],
    ids=["planted-8", "random-10x12", "random-14x14"],
)
def test_exact_mbb_pinned(make, value, witness, nodes):
    # recorded from the recursive search this explicit-stack one replaced
    result = exact_mbb(make())
    assert (result.status, result.value, result.witness, result.nodes) == ("optimal", value, witness, nodes)


def test_exact_mbb_searches_deep_inputs():
    # a perfect matching plus one 2x2 biclique at the end: the search walks
    # 1200 levels down the "leave out" branches, past the recursion limit;
    # recorded from the recursive search as in the deep vertex cover test
    n = 1200
    g = Bipartite(left=range(n), right=range(n, 2 * n))
    for i in range(n):
        g.add_edge(i, n + i)
    g.add_edge(n - 2, 2 * n - 1)
    g.add_edge(n - 1, 2 * n - 2)
    result = exact_mbb(g)
    assert (result.status, result.value, result.nodes) == ("optimal", 2, 2401)
    assert result.witness == ((n - 2, n - 1), (2 * n - 2, 2 * n - 1))


def test_exact_mbb_wide_sides_and_limits():
    # sides over 20 vertices were once refused; the budget bounds them now
    wide = Bipartite(left=range(21), right=range(21, 42))
    empty = exact_mbb(wide)
    assert (empty.status, empty.value) == ("optimal", 0)
    for u in range(21):
        for v in range(21, 42):
            wide.add_edge(u, v)
    assert exact_mbb(wide).value == 21
    limited = exact_mbb(wide, node_limit=10)
    assert (limited.status, limited.value, limited.nodes) == ("limit_reached", 9, 10)
    left_part, right_part = limited.witness
    assert len(left_part) == len(right_part) == 9
    g = Bipartite(left=range(6), right=range(6, 12))
    for u in range(6):
        for v in range(6, 12):
            g.add_edge(u, v)
    limited = exact_mbb(g, node_limit=2)
    assert limited.status == "limit_reached"


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(3), 2),
        (path(4), 2),
        (cycle(4), 3),
        (star(4), 2),
        (Graph(vertices=range(2)), 0),
    ],
)
def test_exact_min_total_vertex_cover_named_graphs(g, expected):
    result = exact_min_total_vertex_cover(g)
    assert result.value == expected
    assert result.optimal


def brute_total_vertex_cover(g):
    """The subset search that the cover search replaced, kept as its
    reference: the first vertex subset, smallest first, that is a total cover."""
    verts = g.vertices()
    for k in range(len(verts) + 1):
        for subset in combinations(verts, k):
            if total_vertex_cover_check(g, subset):
                return k


def small_graphs(n):
    """One labelling of every graph on n vertices: the edge sets whose
    degrees do not rise with the vertex index (ordering the vertices by
    degree relabels any graph into one of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [e for k, e in enumerate(pairs) if (mask >> k) & 1]
        deg = [0] * n
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        if all(deg[i] >= deg[i + 1] for i in range(n - 1)):
            yield Graph(vertices=range(n), edges=edges)


def check_total_cover(g):
    result = exact_min_total_vertex_cover(g)
    assert result.optimal
    assert result.value == len(result.witness) == brute_total_vertex_cover(g)
    assert total_vertex_cover_check(g, result.witness)


@pytest.mark.parametrize("n", range(7))
def test_total_cover_matches_the_subset_reference_on_every_small_graph(n):
    for g in small_graphs(n):
        check_total_cover(g)


@pytest.mark.parametrize("seed", range(30))
def test_total_cover_matches_the_subset_reference_on_random_graphs(seed):
    rng = random.Random(seed)
    check_total_cover(random_graph(rng.randrange(7, 11), rng.choice((0.2, 0.35, 0.5, 0.7)), seed=seed))


def test_total_cover_at_least_plain_cover():
    for seed in range(10):
        g = random_graph(9, 0.4, seed=seed)
        assert exact_min_total_vertex_cover(g).value >= exact_min_vertex_cover(g).value


def test_total_cover_budget():
    # graphs over 16 vertices were once refused; the budget bounds them now
    g = random_graph(17, 0.2, seed=0)
    g.add_vertex(17)  # isolated, so no total cover holds it
    settled = exact_min_total_vertex_cover(g)
    assert settled.optimal and total_vertex_cover_check(g, settled.witness)
    for limit in (0, 1, 5):
        limited = exact_min_total_vertex_cover(g, node_limit=limit)
        assert (limited.status, limited.nodes) == ("limit_reached", limit)
        assert total_vertex_cover_check(g, limited.witness)
        assert limited.value == len(limited.witness) >= settled.value
    # the first cover is every vertex with a neighbour
    assert exact_min_total_vertex_cover(g, node_limit=0).witness == tuple(v for v in g.vertices() if g.neighbors(v))


def test_total_cover_settles_thirty_vertex_graphs():
    values = []
    for seed in range(5):
        g = random_graph(30, 0.2, seed=seed)
        result = exact_min_total_vertex_cover(g, node_limit=100_000)
        assert result.optimal and total_vertex_cover_check(g, result.witness)
        assert result.value == len(result.witness) >= exact_min_vertex_cover(g).value
        values.append(result.value)
    assert values == [20, 18, 18, 19, 18]


def _lazy_graphs():
    """Gadgets, blowups and doublings, as the library builds them lazily."""
    for seed in range(3):
        yield build_gadget(generate_yes(3, 2, xi=F(1, 2), seed=seed), F(1, 4))
        yield blow_up(build_gadget(generate_yes(3, 1, seed=seed), F(1, 4)), F(3))
        yield bipartise(random_graph(6, 0.5, seed=seed))


@pytest.mark.parametrize("lazy", list(_lazy_graphs()), ids=lambda g: type(g).__name__)
def test_lazy_graphs_index_like_their_copies(lazy):
    # the solvers see a lazy graph exactly as its `to_graph()` copy
    copy = lazy.to_graph()
    assert _indexed(lazy) == _indexed(copy)
    assert exact_mmm(lazy, node_limit=100_000) == exact_mmm(copy, node_limit=100_000)
    assert exact_min_vertex_cover(lazy) == exact_min_vertex_cover(copy)
    assert list(enumerate_maximal_matchings(lazy)) == list(enumerate_maximal_matchings(copy))


def test_solve_result_is_a_record_with_a_default_node_count():
    result = SolveResult("optimal", 2, ((0, 1),))
    assert result.nodes == 0 and result.optimal
    assert result == SolveResult("optimal", 2, ((0, 1),), 0)
    assert not SolveResult("limit_reached", 3, (), nodes=7).optimal
    with pytest.raises(AttributeError):
        result.nodes = 5
