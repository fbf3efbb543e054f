"""Exact and greedy solvers used as oracles at desk scale.

Everything here is deliberately independent of the gadget constructions:
solvers see only a graph protocol (vertices and edges) plus an optional
edge or vertex weight callable.  All five exact searches, the biclique one
included, read the graph once as bitmasks (``_indexed``) and walk their
trees from an explicit stack, so no input is too deep to search.  Every
branch and bound search stops at its ``node_limit``; ``exact_mmm`` also
refuses a graph whose edge masks would not fit in memory.  The vertex cover
and the total vertex cover share one independent-set search
(``_cover_search``); the total cover only adds a leaf test.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .graphs import Bipartite

MAX_MMM_EDGES = 1 << 15  # two masks of E bits per edge: about 256 MiB at the bound


class SolveResult(NamedTuple):
    status: str  # "optimal" or "limit_reached"
    value: object
    witness: tuple
    nodes: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def greedy_maximal_matching(graph, seed: int | None = None) -> tuple:
    """Scan the edges once and keep every edge whose endpoints are free.

    With a seed the scan order is shuffled reproducibly; otherwise it is the
    graph's insertion order.
    """
    edges = list(graph.edges())
    if seed is not None:
        random.Random(seed).shuffle(edges)
    matched = set()
    out = []
    for u, v in edges:
        if u not in matched and v not in matched:
            out.append((u, v))
            matched.add(u)
            matched.add(v)
    return tuple(out)


def _indexed(graph) -> tuple[tuple, list[tuple[int, int]], list[int]]:
    """The graph as bitmasks: its vertices in graph order, its edges in graph
    order as ascending index pairs, and one neighbour mask per vertex."""
    verts = tuple(graph.vertices())
    pos = {v: i for i, v in enumerate(verts)}
    edges = []
    adj = [0] * len(verts)
    for u, v in graph.edges():
        i, j = pos[u], pos[v]
        edges.append((i, j) if i < j else (j, i))
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return verts, edges, adj


def _weight_classes(wts: list[int]) -> list[tuple[int, int]]:
    """(weight, mask of the indices that carry it) pairs, lightest first."""
    masks: dict[int, int] = {}
    for i, w in enumerate(wts):
        masks[w] = masks.get(w, 0) | 1 << i
    return sorted(masks.items())


def _integer_weights(weights) -> tuple[list[int], int]:
    """Scale exact positive weights to integers over their common denominator.

    Returns the scaled weights and the denominator D, the ``math.lcm`` of the
    weights' denominators (1 for integer weights).  A float or a bool is not
    an exact weight and is refused rather than rounded.
    """
    for w in weights:
        if isinstance(w, bool) or not isinstance(w, (int, Fraction)):
            raise ValueError(f"weights must be int or Fraction, got {type(w).__name__}")
        if w <= 0:
            raise ValueError("weights must be positive")
    denom = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (denom // w.denominator) for w in weights], denom


def exact_mmm(
    graph,
    weight: Callable | None = None,
    node_limit: int | None = None,
) -> SolveResult:
    """Minimum (weight) maximal matching by branch and bound.

    Branches on the lowest-index edge whose endpoints are both free: any
    maximal matching must put some edge at one of those two endpoints, so
    the candidates are exactly the free edges touching them.  Later
    candidates ban the earlier ones to keep the search tree duplicate-free.
    Edge weights must be positive ints or Fractions; the search runs on
    edge bitmasks with the weights scaled to integers over their common
    denominator, and a weighted call hands back a ``Fraction``.  A graph of
    more than ``MAX_MMM_EDGES`` edges is refused before its masks are built.
    """
    verts, edges, _ = _indexed(graph)
    if len(edges) > MAX_MMM_EDGES:
        raise ValueError(f"exact_mmm keeps two masks per edge and takes at most {MAX_MMM_EDGES} edges, not {len(edges)}")
    if weight is None:
        wts, denom = [1] * len(edges), 1
    else:
        wts, denom = _integer_weights([weight(verts[i], verts[j]) for i, j in edges])
    at = [0] * len(verts)  # edge mask at each vertex
    for eid, (i, j) in enumerate(edges):
        at[i] |= 1 << eid
        at[j] |= 1 << eid
    kill = [at[i] | at[j] for i, j in edges]  # edges sharing an end with each edge
    keep = [~mask for mask in kill]
    classes = _weight_classes(wts)

    full = (1 << len(edges)) - 1
    best_chosen, rest = [], full
    while rest:  # the greedy maximal matching in edge order is the first incumbent
        eid = (rest & -rest).bit_length() - 1
        best_chosen.append(eid)
        rest &= keep[eid]
    best_value = sum(wts[eid] for eid in best_chosen)

    nodes = 0
    status = "optimal"
    # free-edge mask, banned-edge mask, value, chosen edges as (eid, parent) links
    stack = [(full, 0, 0, None)]
    while stack:
        if node_limit is not None and nodes >= node_limit:
            status = "limit_reached"
            break
        nodes += 1
        free, banned, value, chosen = stack.pop()
        if not free:
            if value < best_value:
                best_value = value
                best_chosen = []
                while chosen is not None:
                    eid, chosen = chosen
                    best_chosen.append(eid)
                best_chosen.reverse()
            continue
        allowed = free & ~banned
        if not allowed:
            continue
        # lower bound: a disjoint set of undominated edges, each needing a
        # matched endpoint, two per future matching edge at best
        first = (free & -free).bit_length() - 1
        rest = free & keep[first]
        disjoint = 1
        while rest:
            rest &= keep[(rest & -rest).bit_length() - 1]
            disjoint += 1
        for min_w, mask in classes:
            if mask & allowed:
                break
        if value + (disjoint + 1) // 2 * min_w >= best_value:
            continue
        candidates = allowed & kill[first]
        new_ban = banned
        children = []
        while candidates:
            bit = candidates & -candidates
            eid = bit.bit_length() - 1
            children.append((free & keep[eid], new_ban, value + wts[eid], (eid, chosen)))
            new_ban |= bit
            candidates ^= bit
        stack.extend(reversed(children))

    witness = tuple((verts[edges[eid][0]], verts[edges[eid][1]]) for eid in best_chosen)
    return SolveResult(status, Fraction(best_value, denom) if weight is not None else best_value, witness, nodes)


def enumerate_maximal_matchings(graph) -> Iterator[tuple]:
    """Yield every maximal matching exactly once.

    Decides vertices in index order: the lowest undecided vertex either
    pairs with an undecided neighbor or is declared permanently unmatched,
    which is legal only when no already-unmatched neighbor exists.  Leaves
    of the decision tree are exactly the maximal matchings.  The tree is
    walked depth first from an explicit stack, pairings in ascending
    neighbor order before the unmatched branch, and the pairs on the way to
    the current node are kept in one list that is cut back on each pop.
    """
    verts, _, adj = _indexed(graph)
    full = (1 << len(verts)) - 1
    path: list[tuple] = []  # the pairs chosen on the way to the current node
    # decided mask, unmatched mask, length of the parent's path, pair added or None
    stack = [(0, 0, 0, None)]
    while stack:
        decided, unmatched, depth, pair = stack.pop()
        del path[depth:]
        if pair is not None:
            path.append(pair)
        if decided == full:
            yield tuple(path)
            continue
        depth = len(path)
        i = (~decided & (decided + 1)).bit_length() - 1  # lowest undecided
        if not (adj[i] & unmatched):
            stack.append((decided | 1 << i, unmatched | 1 << i, depth, None))
        fn = adj[i] & ~decided
        while fn:  # highest neighbor first, so the lowest is popped first
            j = fn.bit_length() - 1
            fn ^= 1 << j
            stack.append((decided | 1 << i | 1 << j, unmatched, depth, (verts[i], verts[j])))


def exact_min_vertex_cover(graph, weight: Callable | None = None, node_limit: int | None = None) -> SolveResult:
    """Minimum (weight) vertex cover, the complement of a maximum-weight independent set.

    Vertex weights must be positive ints or Fractions; like ``exact_mmm`` the
    search adds them as integers over their common denominator.  At
    ``node_limit`` it stops with ``limit_reached`` and the best cover found
    so far (at worst every vertex).
    """
    return _cover_search(graph, weight, node_limit, total=False)


def exact_min_total_vertex_cover(graph, node_limit: int | None = None) -> SolveResult:
    """Smallest vertex cover whose members all have a neighbor inside it.

    Its first cover is every non-isolated vertex, which is always total, so
    at ``node_limit`` it still stops with a total cover.
    """
    return _cover_search(graph, None, node_limit, total=True)


def _cover_search(graph, weight: Callable | None, node_limit: int | None, total: bool) -> SolveResult:
    """The complement of the heaviest independent set, by branch and bound.

    Takes the candidate of highest degree (lowest index on ties) into the set
    before leaving it out, and cuts a node whose value plus the weight of all
    its candidates cannot beat the best set.  With ``total`` a leaf counts
    only when every vertex outside the set has a neighbour outside it, and
    the first set is the isolated vertices.
    """
    verts, _, adj = _indexed(graph)
    n = len(verts)
    if weight is None:
        wts, denom = [1] * n, 1
    else:
        wts, denom = _integer_weights([weight(v) for v in verts])
    classes = _weight_classes(wts)
    full = (1 << n) - 1

    # mask and weight of the best independent set (a total cover is unweighted)
    best_chosen = sum(1 << i for i in range(n) if not adj[i]) if total else 0
    best_value = best_chosen.bit_count()
    nodes = 0
    status = "optimal"
    stack = [(full, 0, 0)]  # candidate mask, value, independent set mask
    while stack:
        if node_limit is not None and nodes >= node_limit:
            status = "limit_reached"
            break
        nodes += 1
        candidates, value, chosen = stack.pop()
        if value + sum(w * (candidates & mask).bit_count() for w, mask in classes) <= best_value:
            continue
        if not candidates:
            out = full & ~chosen
            if not total or all(adj[i] & out for i in range(n) if out >> i & 1):
                best_value, best_chosen = value, chosen
            continue
        pick, pick_deg = -1, -1
        rest = candidates
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            deg = (adj[i] & candidates).bit_count()
            if deg > pick_deg:
                pick, pick_deg = i, deg
            rest ^= low
        bit = 1 << pick
        stack.append((candidates & ~bit, value, chosen))
        stack.append((candidates & ~(bit | adj[pick]), value + wts[pick], chosen | bit))  # "take", popped first

    cover = tuple(verts[i] for i in range(n) if not (best_chosen >> i) & 1)
    value = sum(wts) - best_value
    return SolveResult(status, Fraction(value, denom) if weight is not None else value, cover, nodes)


def exact_mbb(bip: Bipartite, node_limit: int | None = None) -> SolveResult:
    """Maximum balanced biclique of a bipartite graph, by left-subset search.

    Includes each left vertex in turn before leaving it out.  A search that
    reaches ``node_limit`` stops with ``limit_reached`` and the best biclique
    found so far.
    """
    left, right = bip.left, bip.right
    adj = _indexed(bip)[2]
    nb = [mask >> len(left) for mask in adj[: len(left)]]  # right neighbour mask of each left vertex

    best_k, best_chosen, best_common = 0, 0, 0
    nodes = 0
    status = "optimal"
    # next left index, included left mask, mask of their common right neighbours
    stack = [(0, 0, (1 << len(right)) - 1)]
    while stack:
        if node_limit is not None and nodes >= node_limit:
            status = "limit_reached"
            break
        nodes += 1
        i, chosen, common = stack.pop()
        size, width = chosen.bit_count(), common.bit_count()
        if min(size, width) > best_k:
            best_k, best_chosen, best_common = min(size, width), chosen, common
        if i == len(left) or min(size + len(left) - i, width) <= best_k:
            continue
        stack.append((i + 1, chosen, common))
        stack.append((i + 1, chosen | 1 << i, common & nb[i]))  # popped first

    left_part = tuple(left[i] for i in range(len(left)) if (best_chosen >> i) & 1)[:best_k]
    right_part = tuple(right[i] for i in range(len(right)) if (best_common >> i) & 1)[:best_k]
    for u in left_part:  # the witness really is a biclique
        for v in right_part:
            if not bip.has_edge(u, v):
                raise AssertionError("biclique witness has a missing edge")
    return SolveResult(status, best_k, (left_part, right_part), nodes)
