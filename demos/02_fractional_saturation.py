"""Saturate everything outside the planted independent set, fractionally.

Builds the three-stage fractional matching on a gadget (complement pairing,
bracket partners within each layer, a permutation of each class's empty-set
vertices) and validates it exactly: every vertex outside the planted set
ends up with load equal to its weight, and every planted vertex carries
load zero.
"""

from fractions import Fraction

from mmmkit import (
    build_full,
    build_gadget,
    generate_yes,
    planted_independent_set,
    validate,
)


def main() -> None:
    instance = generate_yes(5, 3, xi=Fraction(1, 4), topology="cycle", seed=2)
    gadget = build_gadget(instance, Fraction(1, 8))
    print(f"gadget: {gadget.n_vertices} vertices over {instance.num_vars} clouds")

    fm = build_full(gadget)
    print(f"fractional matching: {fm.n_support_edges} support edges, "
          f"total value {fm.total_value()}")

    report = validate(fm)
    print(f"support/capacity/budget checks: "
          f"{report.support_ok}/{report.capacity_ok}/{report.budget_ok}")
    print(f"saturated vertices:   {len(report.saturated)}")
    print(f"unsaturated vertices: {len(report.unsaturated)}")

    ind = planted_independent_set(gadget)
    unsaturated = {v for v, _ in report.unsaturated}
    assert report.ok
    assert unsaturated == set(ind.vertices)
    # nothing partial: an unsaturated vertex carries no load at all
    assert all(fm.load(v) == 0 for v in unsaturated)
    print("unsaturated set coincides with the planted independent set")

    deficit = sum((d for _, d in report.unsaturated), Fraction(0))
    print(f"total deficit {deficit} equals the planted set weight {ind.weight}")


if __name__ == "__main__":
    main()
