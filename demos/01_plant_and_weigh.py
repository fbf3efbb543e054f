"""Build a weighted gadget and account for every drop of its weight.

Starts from a planted label cover instance, builds the subset-cloud gadget
over it, and shows the exact split: the planted independent set takes one
share of the total weight and the complementary pairing matching takes the
rest, summing to 1 on the nose.
"""

from fractions import Fraction

from mmmkit import build_gadget, generate_yes, planted_independent_set, yes_matching
from mmmkit.graphs import verify_maximal_matching


def main() -> None:
    instance = generate_yes(4, 3, xi=Fraction(1, 4), topology="cycle", seed=7)
    print(f"instance: {instance.num_vars} variables, {instance.num_colors} colours,")
    print(f"          {len(instance.edges)} constraint edges, core {sorted(instance.planted.core)}")

    epsilon = Fraction(1, 8)
    gadget = build_gadget(instance, epsilon)
    print(f"gadget:   {gadget.n_vertices} vertices "
          f"({2 ** instance.num_colors} per cloud), total weight {gadget.total_weight()}")

    ind = planted_independent_set(gadget)
    matching = yes_matching(gadget)
    matched = gadget.matching_weight(matching)
    print(f"planted independent set: {len(ind.vertices)} vertices, weight {ind.weight}")
    print(f"pairing matching:        {len(matching)} edges, weight {matched}")
    print(f"weights sum to {ind.weight + matched}")

    assert ind.weight + matched == 1
    check = verify_maximal_matching(gadget, matching)
    print(f"matching maximal: {check.ok}")
    assert check, check.reason


if __name__ == "__main__":
    main()
