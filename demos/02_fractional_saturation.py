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
from mmmkit.fracmatch import saturates_exactly_outside_planted_set


def main() -> None:
    instance = generate_yes(5, 3, xi=Fraction(1, 4), topology="cycle", seed=2)
    gadget = build_gadget(instance, Fraction(1, 8))
    print(f"gadget: {gadget.n_vertices} vertices over {instance.num_vars} clouds")

    fm = build_full(gadget)
    print(f"fractional matching: {fm.n_support_edges} support edges, "
          f"total value {fm.total_value()}")

    report = validate(fm)
    violations = (report.support_violation, report.capacity_violation, report.budget_violation)
    print(f"support/capacity/budget checks: {'/'.join(str(v is None) for v in violations)}")
    print(f"saturated vertices:   {gadget.n_vertices - len(report.unsaturated)}")
    print(f"unsaturated vertices: {len(report.unsaturated)}")

    # the unsaturated set is the planted set, and each member carries no
    # load at all, so its deficit is its whole weight
    ok, reason = saturates_exactly_outside_planted_set(fm)
    assert ok, reason
    print("unsaturated set coincides with the planted independent set")

    ind = planted_independent_set(gadget)

    deficit = sum((d for _, d in report.unsaturated), Fraction(0))
    print(f"total deficit {deficit} equals the planted set weight {ind.weight}")


if __name__ == "__main__":
    main()
