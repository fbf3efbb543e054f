"""Turn a fractional matching into an integral one by blowing up the graph.

Replaces every gadget vertex by a block of copies proportional to its
weight, routes the fractional matching through the copies, and checks the
integral result: maximal in the blowup, small enough for the intended size
bound, and totally covering (every matched vertex keeps a matched
neighbour).
"""

from fractions import Fraction

from mmmkit import (
    blow_up,
    blowup_maximality_check,
    build_full,
    build_gadget,
    discretize_matching,
    generate_yes,
    total_vertex_cover_check,
)


def main() -> None:
    instance = generate_yes(4, 2, xi=Fraction(1, 4), topology="cycle", seed=1)
    epsilon = Fraction(1, 8)
    gadget = build_gadget(instance, epsilon)
    fm = build_full(gadget)

    rho = Fraction(1, 2)
    blowup = blow_up(gadget, rho)
    print(f"blowup at rho={rho}: {blowup.n_vertices} copies "
          f"of {gadget.n_vertices} gadget vertices")

    matching = discretize_matching(fm, blowup)
    size = len(matching)
    print(f"discretized matching: {size} edges")

    verdict = blowup_maximality_check(blowup, matching)
    print(f"maximal in the blowup: {verdict.ok}")
    assert verdict.ok

    bound = blowup.n_vertices * (Fraction(1, 2) + 2 * epsilon + rho)
    print(f"size check: 2*{size} = {2 * size} < {bound} "
          f"= n*(1/2 + 2*eps + rho)")
    assert 2 * size < bound

    cover = total_vertex_cover_check(blowup, matching.matched_vertices())
    print(f"matched set is a total vertex cover: {cover.ok}")
    assert cover.ok


if __name__ == "__main__":
    main()
