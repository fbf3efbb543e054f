"""grid: the acceptance grid's pipeline, warm and in-process.

One item is one grid point taken from instance generation through the
gadget, the planted set and matching, the three saturation stages, the
blowup and its discretized matching, to the serialized fractional matching.
Every step's output is checked before the item counts as done.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mmmkit.blowup import blow_up, blowup_maximality_check, discretize_matching
from mmmkit.fracmatch import (
    build_complement_pairing,
    build_empty_set_cycles,
    build_layer_cycles,
    combine,
    saturates_exactly_outside_planted_set,
    validate,
)
from mmmkit.gadget import build_gadget, planted_independent_set, yes_matching
from mmmkit.graphs import verify_maximal_matching_via_unmatched
from mmmkit.serialize import dumps
from mmmkit.ulc import generate_yes

from checks import require
from tracing import NullTracer

COLOURS = range(2, 7)
VARS = range(3, 13)
EPSILONS = (Fraction(1, 4), Fraction(1, 8))
XIS = (Fraction(0), Fraction(1, 4))
SEEDS_PER_POINT = 2
RHO = Fraction(1, 2)


def run_point(tr, m: int, n: int, eps: Fraction, xi: Fraction, seed: int):
    """One grid item; returns the serialized matching and the copy matching."""
    instance = tr.call("ulc.generate_yes", generate_yes, n, m, xi=xi, topology="cycle", seed=seed)
    gadget = tr.call("gadget.build_gadget", build_gadget, instance, eps)
    planted = tr.call("gadget.planted_independent_set", planted_independent_set, gadget)
    matching = tr.call("gadget.yes_matching", yes_matching, gadget)
    matched = gadget.matching_weight(matching)
    require(matched + planted.weight == 1, f"weight split sums to {matched + planted.weight}")
    if 2 * xi <= eps:
        require(matched <= Fraction(1, 2) + 2 * eps, f"matching weight {matched} above 1/2 + 2 eps")
    check = tr.call(
        "graphs.verify_maximal_matching_via_unmatched",
        verify_maximal_matching_via_unmatched,
        gadget,
        matching,
    )
    require(check, f"yes matching not maximal: {check.witness}")

    stages = (
        tr.call("fracmatch.build_complement_pairing", build_complement_pairing, gadget),
        tr.call("fracmatch.build_layer_cycles", build_layer_cycles, gadget),
        tr.call("fracmatch.build_empty_set_cycles", build_empty_set_cycles, gadget),
    )
    fm = tr.call("fracmatch.combine", combine, *stages)
    tr.count("fracmatch.support_edges", fm.n_support_edges)
    report = tr.call("fracmatch.validate", validate, fm)
    require(report.ok, "fractional matching invalid")
    ok, reason = tr.call(
        "fracmatch.saturates_exactly_outside_planted_set", saturates_exactly_outside_planted_set, fm
    )
    require(ok, reason)

    blowup = tr.call("blowup.blow_up", blow_up, gadget, RHO)
    copies = tr.call("blowup.discretize_matching", discretize_matching, fm, blowup)
    tr.count("blowup.copy_vertices", blowup.n_vertices)
    tr.count("blowup.copy_pairs", len(copies))
    check = tr.call("blowup.blowup_maximality_check", blowup_maximality_check, blowup, copies)
    require(check, f"discretized matching not maximal: {check.reason}")
    bound = blowup.n_vertices * (Fraction(1, 2) + 2 * eps + RHO)
    require(2 * len(copies) < bound, f"2|M| = {2 * len(copies)} misses {bound}")

    text = tr.call("serialize.dumps", dumps, fm)
    tr.count("serialize.bytes", len(text))
    return text, copies


class Workload:
    rss = "self"

    def __init__(self, seed: int, scratch: str) -> None:
        rng = random.Random(f"grid:{seed}")
        self.points = [
            (m, n, eps, xi, rng.randrange(2**31))
            for m in COLOURS
            for n in VARS
            for eps in EPSILONS
            for xi in XIS
            for _ in range(SEEDS_PER_POINT)
        ]
        # shuffled, so that the items near any latency rank are spread over
        # the whole pass instead of sitting in one stretch of it
        rng.shuffle(self.points)
        # warm-up: one point per colour count with both core and non-core
        # clouds, so every Kneser layer the grid needs is searched here
        for m in COLOURS:
            run_point(NullTracer(), m, 8, Fraction(1, 4), Fraction(1, 4), rng.randrange(2**31))

    def items(self, tr):
        for point in self.points:
            m, n, eps, xi, seed = point
            yield f"colors={m} vars={n} eps={eps} xi={xi} seed={seed}", (
                lambda p=point: run_point(tr, *p)
            )

    @staticmethod
    def digest_bytes(output) -> bytes:
        text, copies = output
        flat = [(a[0][0], a[0][1], a[1], b[0][0], b[0][1], b[1]) for a, b in copies.pairs]
        return text.encode() + repr(flat).encode()

    def finish(self) -> list[str]:
        return []
