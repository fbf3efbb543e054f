from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmkit.bipartite import bipartise
from mmmkit.blowup import (
    BlowupVertex,
    CopyMatching,
    blow_up,
    blowup_maximality_check,
    discretize_matching,
    is_product_cover,
    minimalize_cover,
    product_cover,
    round_half_away,
    total_vertex_cover_check,
)
from mmmkit.fracmatch import build_complement_pairing, build_full, build_layer_cycles, combine
from mmmkit.gadget import FLAVORS, GadgetVertex, build_gadget, planted_independent_set, stage_plan
from mmmkit.graphs import Graph, verify_vertex_cover
from mmmkit.solvers import exact_min_vertex_cover
from mmmkit.ulc import Planted, generate_yes, new_instance

F = Fraction


@pytest.mark.parametrize(
    "q,expected",
    [
        (F(0), 0),
        (F(3, 2), 2),
        (F(5, 2), 3),
        (F(-3, 2), -2),
        (F(7, 3), 2),
        (F(8, 3), 3),
        (F(4), 4),
        (F(-1, 4), 0),
    ],
)
def test_round_half_away(q, expected):
    assert round_half_away(q) == expected


@pytest.fixture(scope="module")
def small():
    # 3 variables, 2 colours: 12 base vertices
    inst = generate_yes(3, 2, xi=0, seed=0)
    gadget = build_gadget(inst, F(1, 4))
    return gadget, blow_up(gadget, F(1))


def test_copy_counts_follow_weights(small):
    gadget, blowup = small
    # n = 12/1; weights per size are 9/48, 3/48, 1/48
    assert blowup.n == 12
    assert blowup.n_v_by_size == (2, 1, 0)
    assert blowup.copy_count(GadgetVertex(0, 0)) == 8
    assert blowup.copy_count(GadgetVertex(0, 0b1)) == 4
    # size-2 subsets round to zero copies and disappear
    assert GadgetVertex(0, 0b11) not in blowup.base_vertices()
    assert blowup.n_vertices == 3 * (8 + 4 + 4)


def test_vertices_and_index_round_trip(small):
    _, blowup = small
    verts = list(blowup.vertices())
    assert len(verts) == blowup.n_vertices
    for i, v in enumerate(verts):
        assert blowup.index(v) == i
        assert v in blowup
    assert BlowupVertex(GadgetVertex(0, 0b11), 0) not in blowup
    assert BlowupVertex(GadgetVertex(0, 0), 8) not in blowup


def test_adjacency_inherited_not_within_copies(small):
    gadget, blowup = small
    u0 = BlowupVertex(GadgetVertex(0, 0), 0)
    u1 = BlowupVertex(GadgetVertex(0, 0), 1)
    assert not blowup.has_edge(u0, u1)
    v = BlowupVertex(GadgetVertex(0, 0b1), 3)
    assert blowup.has_edge(u0, v) == gadget.has_edge(u0.base, v.base)
    dropped = BlowupVertex(GadgetVertex(0, 0b11), 0)
    assert not blowup.has_edge(u0, dropped)


def test_edges_skip_dropped_vertices(small):
    _, blowup = small
    for u, v in blowup.edges():
        assert u in blowup and v in blowup
    g = blowup.to_graph()
    assert g.n_vertices == blowup.n_vertices


def test_rho_scales_copy_counts():
    gadget = build_gadget(generate_yes(3, 2, xi=0, seed=0), F(1, 4))
    half = blow_up(gadget, F(1, 2))
    assert half.n == 24
    assert half.n_v_by_size == (round_half_away(F(24 * 9, 48)), round_half_away(F(24 * 3, 48)), round_half_away(F(24, 48)))
    with pytest.raises(ValueError):
        blow_up(gadget, F(0))
    tiny = blow_up(gadget, F(1, 100_000))  # counted, never listed: the lazy blowup takes no cap
    assert tiny.copies_by_size == (900_000, 300_000, 100_000)
    assert (tiny.n_vertices, tiny.n_edges) == (4_800_000, 8_910_000_000_000)
    with pytest.raises(ValueError, match="graph with 4800000 vertices and 8910000000000 edges exceeds the size cap"):
        tiny.to_graph()


@settings(max_examples=30, deadline=None)
@given(
    num_vars=st.integers(3, 5),
    num_colors=st.integers(1, 3),
    topology=st.sampled_from(("cycle", "complete")),
    flavor=st.sampled_from(FLAVORS),
    xi=st.sampled_from((F(0), F(1, 2))),
    rho=st.sampled_from((F(1, 2), F(1), F(2))),
    seed=st.integers(0, 2**16),
)
def test_exact_edge_counts_match_the_listed_edges(num_vars, num_colors, topology, flavor, xi, rho, seed):
    gadget = build_gadget(generate_yes(num_vars, num_colors, xi=xi, topology=topology, seed=seed), F(1, 4), flavor)
    blowup = blow_up(gadget, rho)
    for lazy in (gadget, blowup, bipartise(gadget), bipartise(blowup)):
        assert lazy.n_edges == sum(1 for _ in lazy.edges())
        graph = lazy.to_graph()  # no edge is listed twice
        assert (graph.n_vertices, graph.n_edges) == (lazy.n_vertices, lazy.n_edges)


def test_the_warm_chain_runs_at_fourteen_colours(monkeypatch):
    # the benchmark's grid item, imported as it stands: its lazy blowup of
    # 3 variables at 14 colours (383,688 copies) is discretized and checked
    # without being listed
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from grid import run_point
    from tracing import NullTracer

    text, copies = run_point(NullTracer(), 14, 3, F(1, 8), F(0), 7)
    assert len(copies) == 122_262 and text


def test_product_cover_and_verdict(small):
    gadget, blowup = small
    # complement of the planted independent set, a guaranteed cover
    is_members = set(planted_independent_set(gadget).vertices)
    base_cover = [v for v in gadget.vertices() if v not in is_members]
    assert verify_vertex_cover(gadget, base_cover)
    cover = product_cover(blowup, base_cover)
    verdict = is_product_cover(blowup, cover)
    assert verdict.product
    assert set(verdict.base_set) == {v for v in base_cover if v in blowup.base_vertices()}

    broken = cover[1:]
    verdict2 = is_product_cover(blowup, broken)
    assert not verdict2.product
    assert verdict2.witness.base == cover[0].base


def test_product_cover_rejects_non_cover(small):
    _, blowup = small
    with pytest.raises(ValueError):
        product_cover(blowup, [GadgetVertex(0, 0)])


def test_is_product_cover_rejects_foreign_vertices(small):
    _, blowup = small
    with pytest.raises(ValueError):
        is_product_cover(blowup, [BlowupVertex(GadgetVertex(0, 0b11), 0)])


def test_minimalize_cover_path():
    g = Graph(vertices=range(4), edges=[(0, 1), (1, 2), (2, 3)])
    result = minimalize_cover(g, [0, 1, 2, 3])
    assert verify_vertex_cover(g, result)
    # drops 3, keeps 2 for edge (2,3), drops 1, keeps 0 for edge (0,1)
    assert result == (0, 2)
    with pytest.raises(ValueError):
        minimalize_cover(g, [0, 3])


def test_minimalize_keeps_minimal_cover():
    g = Graph(vertices=range(4), edges=[(0, 1), (2, 3)])
    assert minimalize_cover(g, [0, 2]) == (0, 2)


@pytest.mark.parametrize("rho", [F(1), F(1, 2), F(1, 4)])
def test_discretize_matching_saturates_non_planted(rho):
    gadget = build_gadget(generate_yes(3, 2, xi=0, seed=0), F(1, 4))
    blowup = blow_up(gadget, rho)
    fm = build_full(gadget)
    cm = discretize_matching(fm, blowup)
    assert blowup_maximality_check(blowup, cm)
    is_members = set(planted_independent_set(gadget).vertices)
    matched = cm.matched_vertices()
    for v in blowup.base_vertices():
        copies = {BlowupVertex(v, i) for i in range(blowup.copy_count(v))}
        if v in is_members:
            assert copies.isdisjoint(matched)
        else:
            assert copies <= matched
    # every matched pair projects onto a fractional-support edge
    for u, v in {(a.base, b.base) for a, b in cm.pairs}:
        assert fm.value(u, v) > 0


def test_discretize_matching_rejects_mismatched_gadget():
    g1 = build_gadget(generate_yes(3, 2, xi=0, seed=0), F(1, 4))
    g2 = build_gadget(generate_yes(3, 2, xi=0, seed=0), F(1, 4))
    with pytest.raises(ValueError):
        discretize_matching(build_full(g1), blow_up(g2, F(1)))


def test_discretized_matching_is_deterministic():
    gadget = build_gadget(generate_yes(4, 2, xi=0, seed=5), F(1, 8))
    blowup = blow_up(gadget, F(1, 2))
    fm = build_full(gadget)
    assert discretize_matching(fm, blowup) == discretize_matching(fm, blowup)


def test_blowup_maximality_check_flags_addable_pair(small):
    _, blowup = small
    report = blowup_maximality_check(blowup, [])
    assert not report
    assert report.reason == "base-adjacent vertices both have unmatched copies"
    with pytest.raises(ValueError):
        u = BlowupVertex(GadgetVertex(0, 0), 0)
        blowup_maximality_check(blowup, [(u, BlowupVertex(GadgetVertex(0, 0), 1))])


def test_blowup_maximality_check_rejects_non_edges_and_reused_copies():
    gadget = build_gadget(generate_yes(3, 2, xi=0, seed=0), F(1, 4))
    blowup = blow_up(gadget, F(1, 2))
    pairs = list(discretize_matching(build_full(gadget), blowup).pairs)
    assert blowup_maximality_check(blowup, pairs)
    bases = blowup.base_vertices()
    u, w = next((u, w) for u in bases for w in bases if u != w and not gadget.has_edge(u, w))
    with pytest.raises(ValueError, match="edge not in graph"):
        blowup_maximality_check(blowup, pairs + [(BlowupVertex(u, 0), BlowupVertex(w, 0))])
    # a copy matched twice: on a base pair already tested, and on a new one
    a, b = pairs[0]
    with pytest.raises(ValueError, match="vertex matched twice"):
        blowup_maximality_check(blowup, pairs + [(a, b)])
    with pytest.raises(ValueError, match="vertex matched twice"):
        blowup_maximality_check(blowup, [(a, b), (b, a)])
    # only the second end reused, by another copy of the first end's base
    with pytest.raises(ValueError, match="vertex matched twice"):
        blowup_maximality_check(blowup, [(a, b), (BlowupVertex(a.base, a.copy + 1), b)])


def test_total_vertex_cover_check():
    g = Graph(vertices=range(5), edges=[(0, 1), (1, 2), (2, 3)])
    assert total_vertex_cover_check(g, [1, 2])
    # a cover whose member 3 has no neighbor inside fails the total condition
    report = total_vertex_cover_check(g, [0, 1, 3])
    assert not report
    assert report.witness == 3
    assert not total_vertex_cover_check(g, [0])
    assert total_vertex_cover_check(Graph(vertices=[0, 1]), [])


def test_matched_copies_cover_matches_vc_bound():
    # on a tiny blowup the matched vertices of the discretized matching form
    # a cover whose size dominates twice the minimum
    inst = new_instance(3, 1, [((0, 1), (0,)), ((1, 2), (0,)), ((0, 2), (0,))])
    gadget = build_gadget(inst.with_planted(Planted((0, 0, 0), frozenset())), F(1, 4))
    blowup = blow_up(gadget, F(3, 2))
    fm = build_full(gadget)
    cm = discretize_matching(fm, blowup)
    g = blowup.to_graph()
    cover = sorted(cm.matched_vertices(), key=blowup.index)
    assert verify_vertex_cover(g, cover)
    vc = exact_min_vertex_cover(g)
    assert 2 * len(cm) >= vc.value


def test_blowup_maximality_check_rejects_copies_out_of_range(small):
    gadget = build_gadget(generate_yes(3, 2, xi=F(1, 4), seed=0), F(1, 4))
    blowup = blow_up(gadget, F(1, 2))
    pairs = list(discretize_matching(build_full(gadget), blowup).pairs)
    assert blowup_maximality_check(blowup, pairs)
    bases = blowup.base_vertices()
    u, v = next(
        (u, v)
        for u in bases
        for v in bases
        if gadget.has_edge(u, v) and blowup.copy_count(u) == 20 and blowup.copy_count(v) == 8
    )
    probes = [
        pairs + [(BlowupVertex(u, 999), BlowupVertex(v, 998))],
        [(BlowupVertex(u, -1), BlowupVertex(v, 0))],
        # v matched nine times, one more than it has copies
        [(BlowupVertex(u, i), BlowupVertex(v, i)) for i in range(9)],
    ]
    for probe in probes:
        with pytest.raises(ValueError, match="vertex not in graph"):
            blowup_maximality_check(blowup, probe)
    # a copy of a base vertex whose copy count rounds to zero
    gadget, blowup = small
    dropped = GadgetVertex(0, 0b11)
    w = next(w for w in blowup.base_vertices() if gadget.has_edge(dropped, w))
    with pytest.raises(ValueError, match="vertex not in graph"):
        blowup_maximality_check(blowup, [(BlowupVertex(w, 0), BlowupVertex(dropped, 0))])


def per_copy_discretization(fm, blowup):
    """Reference: the stage plan's arcs handed out one copy pair at a time,
    each pair sorted by the blowup indices of its ends."""
    cursors = {}
    indexed = []
    for stage in (1, 2, 3):
        for (u, v), count in stage_plan(blowup.gadget).amounts(stage, blowup.copies_by_size):
            assert count >= 0
            if count == 0:
                continue
            assert fm.units(u, v) > 0
            cu, cv = cursors.get(u, 0), cursors.get(v, 0)
            assert cu + count <= blowup.copy_count(u) and cv + count <= blowup.copy_count(v)
            for t in range(count):
                a, b = BlowupVertex(u, cu + t), BlowupVertex(v, cv + t)
                indexed.append(tuple(sorted([(blowup.index(a), a), (blowup.index(b), b)])))
            cursors[u] = cu + count
            cursors[v] = cv + count
    return tuple((a, b) for (_, a), (_, b) in sorted(indexed))


@pytest.mark.parametrize("m", range(2, 7))
@pytest.mark.parametrize("eps", [F(1, 4), F(1, 8)])
@pytest.mark.parametrize("xi", [F(0), F(1, 4)])
def test_runs_expand_to_the_per_copy_discretization(m, eps, xi):
    gadget = build_gadget(generate_yes(4, m, xi=xi, topology="cycle", seed=m), eps)
    fm = build_full(gadget)
    for rho in (F(1), F(1, 2), F(1, 4)):
        blowup = blow_up(gadget, rho)
        cm = discretize_matching(fm, blowup)
        pairs = per_copy_discretization(fm, blowup)
        assert cm.pairs == pairs
        assert len(cm) == len(pairs)
        assert cm.matched_vertices() == {w for pair in pairs for w in pair}
        assert blowup_maximality_check(blowup, cm)
        assert blowup_maximality_check(blowup, pairs)


def test_discretize_matching_rejects_an_arc_without_fractional_support():
    gadget = build_gadget(generate_yes(3, 2, xi=0, seed=0), F(1, 4))
    # the empty-set arcs join clouds, and only stage three puts weight there
    partial = combine(build_complement_pairing(gadget), build_layer_cycles(gadget))
    with pytest.raises(AssertionError, match="without fractional support"):
        discretize_matching(partial, blow_up(gadget, F(1)))


@pytest.fixture(scope="module")
def runs_blowup():
    """A blowup with base vertices a ~ b, a ~ c and a non-edge a, d, each
    with at least four copies, and its discretized matching."""
    gadget = build_gadget(generate_yes(3, 2, xi=0, seed=0), F(1, 4))
    blowup = blow_up(gadget, F(1, 2))
    bases = [v for v in blowup.base_vertices() if blowup.copy_count(v) >= 4]
    a, d = next((a, d) for a in bases for d in bases if a != d and not gadget.has_edge(a, d))
    b, c = [w for w in bases if gadget.has_edge(a, w)][:2]
    return blowup, (a, b, c, d), discretize_matching(build_full(gadget), blowup)


def test_check_accepts_disjoint_runs_on_one_base(runs_blowup):
    blowup, (a, b, c, _), _ = runs_blowup
    report = blowup_maximality_check(blowup, CopyMatching(((a, 0, b, 0, 2), (a, 2, c, 1, 2))))
    assert not report  # a valid matching, far from maximal
    assert report.reason == "base-adjacent vertices both have unmatched copies"


@pytest.mark.parametrize(
    "runs, message",
    [
        # a's copy 1 is in both runs
        (lambda a, b, c, d, n: ((a, 0, b, 0, 2), (a, 1, c, 0, 2)), "vertex matched twice"),
        # b's copy 0 is reused by a unit run
        (lambda a, b, c, d, n: ((a, 0, b, 0, 1), (c, 0, b, 0, 1)), "vertex matched twice"),
        (lambda a, b, c, d, n: ((a, 0, b, 0, 0),), "run of 0 copy pairs"),
        (lambda a, b, c, d, n: ((a, 2, b, 2, -1),), "run of -1 copy pairs"),
        (lambda a, b, c, d, n: ((a, n[a] - 1, b, 0, 2),), "vertex not in graph"),
        (lambda a, b, c, d, n: ((a, 0, b, 0, n[b] + 1),), "vertex not in graph"),
        (lambda a, b, c, d, n: ((a, -1, b, 0, 1),), "vertex not in graph"),
        (lambda a, b, c, d, n: ((a, 0, d, 0, 1),), "edge not in graph"),
    ],
    ids=["overlap", "reused-copy", "count-0", "count-negative", "past-first", "past-second", "copy-negative", "non-edge"],
)
def test_check_rejects_bad_runs(runs_blowup, runs, message):
    blowup, bases, _ = runs_blowup
    built = runs(*bases, {v: blowup.copy_count(v) for v in bases})
    with pytest.raises(ValueError, match=message):
        blowup_maximality_check(blowup, CopyMatching(built))


def test_check_rejects_a_discretized_matching_with_a_run_reused(runs_blowup):
    blowup, _, cm = runs_blowup
    assert blowup_maximality_check(blowup, cm)
    first = cm.runs[0]
    shifted = (*first[:4], first[4] - 1)  # the same ends, one pair shorter
    with pytest.raises(ValueError, match="vertex matched twice"):
        blowup_maximality_check(blowup, CopyMatching(cm.runs + (shifted,)))
