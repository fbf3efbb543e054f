"""Exact and greedy solvers used as oracles at desk scale.

Everything here is deliberately independent of the gadget constructions:
solvers see only a graph protocol (vertices, edges, neighbors, index) plus
an optional edge or vertex weight callable, and they refuse inputs beyond
the sizes they can settle exactly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterator

from .graphs import Bipartite

MAX_EXACT_VERTICES = 60
MAX_BICLIQUE_SIDE = 20
MAX_TOTAL_COVER_VERTICES = 16


@dataclass(frozen=True)
class SolveResult:
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


def _indexed_edges(graph):
    verts = tuple(graph.vertices())
    pos = {v: i for i, v in enumerate(verts)}
    edges = []
    for u, v in graph.edges():
        i, j = pos[u], pos[v]
        edges.append((i, j) if i < j else (j, i))
    return verts, edges


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
    denominator, and a weighted call hands back a ``Fraction``.
    """
    verts, edges = _indexed_edges(graph)
    if len(verts) > MAX_EXACT_VERTICES:
        raise ValueError(f"exact search capped at {MAX_EXACT_VERTICES} vertices, got {len(verts)}")
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
    by_weight: dict[int, int] = {}
    for eid, w in enumerate(wts):
        by_weight[w] = by_weight.get(w, 0) | 1 << eid
    classes = sorted(by_weight.items())  # weight classes, lightest first

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
    verts, edges = _indexed_edges(graph)
    n = len(verts)
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    full = (1 << n) - 1
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


def exact_min_vertex_cover(
    graph,
    weight: Callable | None = None,
    node_limit: int | None = None,
) -> SolveResult:
    """Minimum (weight) vertex cover via a maximum-weight independent set search.

    Vertex weights must be positive ints or Fractions; like ``exact_mmm``
    the search adds them as integers over their common denominator.  A
    search that reaches ``node_limit`` stops with ``limit_reached`` and the
    best cover found so far (at worst every vertex).
    """
    verts, edges = _indexed_edges(graph)
    n = len(verts)
    if n > MAX_EXACT_VERTICES:
        raise ValueError(f"exact search capped at {MAX_EXACT_VERTICES} vertices, got {len(verts)}")
    adj = [0] * n
    for i, j in edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    if weight is None:
        wts, denom = [1] * n, 1
    else:
        wts, denom = _integer_weights([weight(v) for v in verts])
    total = sum(wts)
    full = (1 << n) - 1

    best = [0, 0]  # value, vertex mask
    nodes = 0
    status = "optimal"

    def rec(candidates: int, value: int, chosen: int) -> bool:
        nonlocal nodes, status
        if node_limit is not None and nodes >= node_limit:
            status = "limit_reached"
            return False
        nodes += 1
        rest = candidates
        slack = 0
        while rest:
            low = rest & -rest
            slack += wts[low.bit_length() - 1]
            rest ^= low
        if value + slack <= best[0]:
            return True
        if candidates == 0:
            best[0], best[1] = value, chosen
            return True
        pick, pick_deg = -1, -1
        rest = candidates
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            deg = (adj[i] & candidates).bit_count()
            if deg > pick_deg:
                pick, pick_deg = i, deg
            rest ^= low
        return rec(
            candidates & ~((1 << pick) | adj[pick]), value + wts[pick], chosen | (1 << pick)
        ) and rec(candidates & ~(1 << pick), value, chosen)

    rec(full, 0, 0)
    cover_mask = full & ~best[1]
    cover = tuple(verts[i] for i in range(n) if (cover_mask >> i) & 1)
    value = total - best[0]
    return SolveResult(status, Fraction(value, denom) if weight is not None else value, cover, nodes)


def exact_mbb(bip: Bipartite, node_limit: int | None = None) -> SolveResult:
    """Maximum balanced biclique of a bipartite graph, by left-subset search."""
    left, right = bip.left, bip.right
    if len(left) > MAX_BICLIQUE_SIDE or len(right) > MAX_BICLIQUE_SIDE:
        raise ValueError(f"biclique search capped at side size {MAX_BICLIQUE_SIDE}")
    rpos = {v: i for i, v in enumerate(right)}
    nb = []
    for u in left:
        mask = 0
        for v in right:
            if bip.has_edge(u, v):
                mask |= 1 << rpos[v]
        nb.append(mask)
    full_right = (1 << len(right)) - 1

    best = [0, (), 0]  # k, left tuple, right mask
    nodes = 0
    status = "optimal"

    def rec(i: int, chosen: tuple, common: int) -> bool:
        nonlocal nodes, status
        if node_limit is not None and nodes >= node_limit:
            status = "limit_reached"
            return False
        nodes += 1
        k = min(len(chosen), common.bit_count())
        if k > best[0]:
            best[0], best[1], best[2] = k, chosen, common
        if i == len(left):
            return True
        if min(len(chosen) + (len(left) - i), common.bit_count()) <= best[0]:
            return True
        if not rec(i + 1, chosen + (i,), common & nb[i]):
            return False
        return rec(i + 1, chosen, common)

    rec(0, (), full_right)
    k = best[0]
    left_part = tuple(left[i] for i in best[1][:k])
    right_part = tuple(
        right[i] for i in range(len(right)) if (best[2] >> i) & 1
    )[:k]
    for u in left_part:  # the witness really is a biclique
        for v in right_part:
            if not bip.has_edge(u, v):
                raise AssertionError("biclique witness has a missing edge")
    return SolveResult(status, k, (left_part, right_part), nodes)


def exact_min_total_vertex_cover(graph) -> SolveResult:
    """Smallest vertex cover whose members all have a neighbor inside it."""
    from .blowup import total_vertex_cover_check

    verts = tuple(graph.vertices())
    if len(verts) > MAX_TOTAL_COVER_VERTICES:
        raise ValueError(
            f"total cover search capped at {MAX_TOTAL_COVER_VERTICES} vertices, got {len(verts)}"
        )
    nodes = 0
    for k in range(len(verts) + 1):
        for subset in combinations(verts, k):
            nodes += 1
            if total_vertex_cover_check(graph, subset):
                return SolveResult("optimal", k, tuple(subset), nodes)
    raise AssertionError("the full vertex set always dominates itself")
