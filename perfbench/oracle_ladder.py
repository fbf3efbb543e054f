"""oracle-ladder: the exact solvers, in-process, up a vertex-count ladder.

Each item builds one input, solves it exactly under a node limit, and checks
the answer against an independent bound or a full enumeration.  A solver
call that reaches its node limit fails the item.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from itertools import islice

from mmmkit.bipartite import (
    anti_biclique_bound,
    bipartise,
    random_planted_biclique,
    sseh_gadget,
    sseh_yes_matching,
)
from mmmkit.gadget import build_gadget, yes_matching
from mmmkit.graphs import random_graph, verify_maximal_matching, verify_vertex_cover
from mmmkit.solvers import (
    enumerate_maximal_matchings,
    exact_mbb,
    exact_min_vertex_cover,
    exact_mmm,
)
from mmmkit.ulc import generate_yes

from checks import require
from tracing import NullTracer

DOUBLED_SIZES = range(5, 14)
DOUBLED_P = 0.25
DOUBLED_SEEDS = 8
# (variables, gadgets, how many of them are also enumerated); the dozen
# 4-variable gadgets cost alike, so the 11th-slowest item is one of them
WEIGHTED = ((3, 2, 2), (4, 12, 2), (5, 2, 0))
PADDED_N = 4
PADDED_SEEDS = 3
SMALL_BATCHES = 100  # each item is a batch of ten graphs, two of each size 3..7
SMALL_PROBS = (0.2, 0.35, 0.5, 0.65, 0.8)
NODE_LIMIT = 1_000_000
ENUMERATION_LIMIT = 1_000_000


def solve_mmm(tr, name: str, graph, **kwargs):
    result = tr.call(name, exact_mmm, graph, node_limit=NODE_LIMIT, **kwargs)
    tr.count(name + ".nodes", result.nodes)
    tr.count("solvers.limit_reached", not result.optimal)
    require(result.optimal, f"{name} reached its node limit of {NODE_LIMIT}")
    check = verify_maximal_matching(graph, result.witness)
    require(check, f"{name} witness is not a maximal matching")
    return result


def enumerate_all(tr, graph) -> list:
    with tr.span("solvers.enumerate_maximal_matchings"):
        found = list(islice(enumerate_maximal_matchings(graph), ENUMERATION_LIMIT + 1))
    tr.count("solvers.enumerate_maximal_matchings.count", len(found))
    require(len(found) <= ENUMERATION_LIMIT, "enumeration passed its limit")
    return found


def doubled(tr, n: int, seed: int) -> str:
    """Unit weights on a doubled random graph: 3 mmm >= 2 vc of the base."""
    base = random_graph(n, DOUBLED_P, seed)
    big = tr.call("bipartite.bipartise", bipartise, base).to_graph()
    mmm = solve_mmm(tr, "solvers.exact_mmm", big)
    require(len(mmm.witness) == mmm.value, "witness size differs from the value")
    vc = tr.call("solvers.exact_min_vertex_cover", exact_min_vertex_cover, base)
    tr.count("solvers.exact_min_vertex_cover.nodes", vc.nodes)
    require(verify_vertex_cover(base, vc.witness), "vertex cover witness misses an edge")
    require(3 * mmm.value >= 2 * vc.value, f"doubled minimum {mmm.value} under 2/3 of cover {vc.value}")
    return f"doubled n={n} mmm={mmm.value} vc={vc.value}"


def weighted(tr, num_vars: int, enumerate_too: bool, seed: int) -> str:
    """Fraction weights on an extended 2-colour gadget, enumerated where small."""
    instance = tr.call("ulc.generate_yes", generate_yes, num_vars, 2, xi=0, topology="cycle", seed=seed)
    gadget = tr.call("gadget.build_gadget", build_gadget, instance, Fraction(1, 4))
    graph = gadget.to_graph()
    mmm = solve_mmm(tr, "solvers.exact_mmm_weighted", graph, weight=gadget.edge_weight)
    require(gadget.matching_weight(mmm.witness) == mmm.value, "witness weight differs from the value")
    planted = gadget.matching_weight(yes_matching(gadget))
    require(mmm.value <= planted, f"minimum {mmm.value} above the planted matching {planted}")
    if enumerate_too:
        best = min(gadget.matching_weight(m) for m in enumerate_all(tr, graph))
        require(best == mmm.value, f"enumeration minimum {best} vs solver {mmm.value}")
    return f"weighted vars={num_vars} mmm={mmm.value}"


def padded(tr, seed: int) -> str:
    """Padded complement gadget: anti-biclique bound <= exact <= planted matching."""
    eps = Fraction(1, 4)
    original, k_a, k_b = random_planted_biclique(PADDED_N, eps, seed=seed)
    gadget = tr.call("bipartite.sseh_gadget", sseh_gadget, original, eps)
    planted = sseh_yes_matching(gadget, k_a, k_b)
    graph = gadget.graph.to_graph()
    require(verify_maximal_matching(graph, planted), "planted matching is not maximal")
    mbb = tr.call("solvers.exact_mbb", exact_mbb, original, node_limit=NODE_LIMIT)
    tr.count("solvers.exact_mbb.nodes", mbb.nodes)
    tr.count("solvers.limit_reached", not mbb.optimal)
    require(mbb.optimal, "exact_mbb reached its node limit")
    bound = anti_biclique_bound(gadget, mbb.value)
    mmm = solve_mmm(tr, "solvers.exact_mmm", graph)
    require(bound <= mmm.value <= len(planted), f"bound {bound}, exact {mmm.value}, planted {len(planted)}")
    return f"padded mbb={mbb.value} bound={bound} mmm={mmm.value}"


def small(tr, batch: int, seed: int) -> str:
    """Branch and bound against full enumeration on ten small random graphs."""
    rng = random.Random(seed)
    values = []
    for i in range(10):
        n, p = 3 + i % 5, SMALL_PROBS[(batch + i // 5) % 5]
        graph = random_graph(n, p, rng.randrange(2**31))
        best = min(len(m) for m in enumerate_all(tr, graph))
        mmm = solve_mmm(tr, "solvers.exact_mmm", graph)
        require(mmm.value == best, f"n={n}: solver {mmm.value} vs enumeration {best}")
        values.append(mmm.value)
    return f"small {values}"


class Workload:
    rss = "self"

    def __init__(self, seed: int, scratch: str) -> None:
        rng = random.Random(f"oracle-ladder:{seed}")
        draw = partial(rng.randrange, 2**31)
        self.cases = (
            [(doubled, n, draw()) for n in DOUBLED_SIZES for _ in range(DOUBLED_SEEDS)]
            + [(weighted, v, i < e, draw()) for v, count, e in WEIGHTED for i in range(count)]
            + [(padded, draw()) for _ in range(PADDED_SEEDS)]
            + [(small, b, draw()) for b in range(SMALL_BATCHES)]
        )
        rng.shuffle(self.cases)  # spread each kind of item over the whole pass
        warm = NullTracer()
        doubled(warm, 6, draw())
        weighted(warm, 3, True, draw())
        padded(warm, draw())
        small(warm, 0, draw())

    def items(self, tr):
        for fn, *args in self.cases:
            yield f"{fn.__name__} {args}", (lambda f=fn, a=args: f(tr, *a))

    @staticmethod
    def digest_bytes(output) -> bytes:
        return output.encode() + b"\n"

    def finish(self) -> list[str]:
        return []
