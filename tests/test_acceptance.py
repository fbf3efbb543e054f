"""Acceptance sweep: ten end-to-end guarantees, one summary line each.

Every numeric claim is checked in exact arithmetic; the only tolerances
anywhere are the stated wall-clock budgets.  Failures are collected per
criterion, so the terminal summary always shows the complete checklist.
"""

import time
from fractions import Fraction
from itertools import islice

from mmmkit import (
    ExperimentConfig,
    anti_biclique_bound,
    bipartise,
    blow_up,
    blowup_maximality_check,
    build_full,
    build_gadget,
    cover_from_decomposition,
    decompose,
    discretize_matching,
    double_matching,
    enumerate_maximal_matchings,
    exact_mbb,
    exact_min_total_vertex_cover,
    exact_min_vertex_cover,
    exact_mmm,
    generate_yes,
    greedy_maximal_matching,
    is_product_cover,
    lemma_ids,
    minimalize_cover,
    new_instance,
    planted_independent_set,
    random_graph,
    random_planted_biclique,
    run_experiment,
    sseh_gadget,
    sseh_yes_matching,
    total_vertex_cover_check,
    verify_lemma,
    verify_maximal_matching,
    yes_matching,
)
from mmmkit.cli import main as run_cli
from mmmkit.fracmatch import saturates_exactly_outside_planted_set
from mmmkit.graphs import Graph
from mmmkit.serialize import canonical_json, dumps

F = Fraction


def _brief(bad, cap=3):
    shown = "; ".join(bad[:cap])
    if len(bad) > cap:
        shown += f"; and {len(bad) - cap} more"
    return shown


def path_graph(n):
    g = Graph(vertices=range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1)
    return g


def cycle_graph(n):
    g = path_graph(n)
    g.add_edge(0, n - 1)
    return g


def star_graph(leaves):
    g = Graph(vertices=range(leaves + 1))
    for i in range(1, leaves + 1):
        g.add_edge(0, i)
    return g


def test_criterion_01_grid_saturation(criterion, grid_gadgets):
    """The staged fractional matching saturates exactly the complement of
    the planted independent set, at every sweep point, inside the budget."""
    bad = []
    t0 = time.perf_counter()
    for key, gadget in grid_gadgets.items():
        ok, reason = saturates_exactly_outside_planted_set(build_full(gadget))
        if not ok:
            bad.append(f"{key}: {reason}")
    elapsed = time.perf_counter() - t0
    passed = criterion(
        1,
        not bad and elapsed < 60.0,
        f"{len(grid_gadgets)} grid points saturate exactly, {elapsed:.1f}s of 60s",
    )
    assert passed, _brief(bad) or f"over budget: {elapsed:.1f}s"


def test_criterion_02_pairing_weight_bound(criterion, grid_gadgets):
    """The pairing matching and the planted set split the weight exactly, and
    the matching stays below 1/2 + 2 eps whenever the core is large enough."""
    bad = []
    for (m, n, eps, xi, seed), gadget in grid_gadgets.items():
        tag = f"colors={m} vars={n} eps={eps} xi={xi} seed={seed}"
        matching = yes_matching(gadget)
        total = gadget.matching_weight(matching)
        ind = planted_independent_set(gadget)
        if total + ind.weight != 1:
            bad.append(f"{tag}: weights sum to {total + ind.weight}")
        if 2 * xi <= eps and total > F(1, 2) + 2 * eps:
            bad.append(f"{tag}: matching weight {total} above 1/2 + 2 eps")
        check = verify_maximal_matching(gadget, matching)
        if not check:
            bad.append(f"{tag}: not maximal, witness {check.witness}")
    passed = criterion(
        2, not bad, f"{len(grid_gadgets)} grid points, exact split and bound, maximality rescanned"
    )
    assert passed, _brief(bad)


def test_criterion_03_planted_set_weight(criterion, grid_gadgets):
    """The planted set weighs exactly (core size / variables) * p, and at
    least 1/2 - 2 eps when every variable is in the core."""
    bad = []
    for (m, n, eps, xi, seed), gadget in grid_gadgets.items():
        tag = f"colors={m} vars={n} eps={eps} xi={xi} seed={seed}"
        ind = planted_independent_set(gadget)
        core = gadget.instance.planted.core
        want = F(len(core), n) * (F(1, 2) - eps)
        if ind.weight != want:
            bad.append(f"{tag}: weight {ind.weight} vs closed form {want}")
        if xi == 0 and ind.weight < F(1, 2) - 2 * eps:
            bad.append(f"{tag}: weight {ind.weight} under 1/2 - 2 eps")
    passed = criterion(3, not bad, f"{len(grid_gadgets)} grid points match the closed form")
    assert passed, _brief(bad)


DISCRETIZE_CASES = (
    (3, 2, F(0), 0, F(1, 4)),
    (4, 2, F(1, 4), 1, F(1, 8)),
    (4, 3, F(0), 2, F(1, 4)),
)
RHOS = (F(1), F(1, 2), F(1, 4))


def _discretized(case, rho):
    num_vars, num_colors, xi, seed, eps = case
    instance = generate_yes(num_vars, num_colors, xi=xi, topology="cycle", seed=seed)
    gadget = build_gadget(instance, eps)
    blowup = blow_up(gadget, rho)
    return gadget, blowup, discretize_matching(build_full(gadget), blowup)


def test_criterion_04_blowup_completeness(criterion):
    """Discretizing the fractional matching yields a maximal matching of the
    copy graph whose size beats the target bound, in integer arithmetic."""
    bad = []
    t0 = time.perf_counter()
    for case in DISCRETIZE_CASES:
        num_vars, num_colors, _, _, eps = case
        for rho in RHOS:
            tag = f"vars={num_vars} colors={num_colors} rho={rho}"
            _, blowup, matching = _discretized(case, rho)
            check = blowup_maximality_check(blowup, matching)
            if not check:
                bad.append(f"{tag}: {check.reason}")
            bound = blowup.n_vertices * (F(1, 2) + 2 * eps + rho)
            if not 2 * len(matching) < bound:
                bad.append(f"{tag}: 2|M| = {2 * len(matching)} misses {bound}")
    elapsed = time.perf_counter() - t0
    passed = criterion(
        4,
        not bad and elapsed < 120.0,
        f"{len(DISCRETIZE_CASES) * len(RHOS)} discretizations maximal and in bound, "
        f"{elapsed:.1f}s of 120s",
    )
    assert passed, _brief(bad) or f"over budget: {elapsed:.1f}s"


def test_criterion_05_blowup_cover_soundness(criterion):
    """On small copy graphs, every enumerated maximal matching minimalizes to
    an all-or-none cover and its size dominates the exact cover minimum."""
    triangle = new_instance(3, 1, [((0, 1), (0,)), ((0, 2), (0,)), ((1, 2), (0,))])
    edge = new_instance(2, 1, [((0, 1), (0,))])
    cases = (
        ("triangle rho=3/2", triangle, F(3, 2)),
        ("edge rho=2", edge, F(2)),
        ("edge rho=2/3", edge, F(2, 3)),
    )
    bad = []
    notes = []
    for name, instance, rho in cases:
        blowup = blow_up(build_gadget(instance, F(1, 4)), rho)
        g = blowup.to_graph()
        assert g.n_vertices <= 40
        count = sum(1 for _ in islice(enumerate_maximal_matchings(g), 100_001))
        exhaustive = count <= 100_000
        vc = exact_min_vertex_cover(g).value
        source = enumerate_maximal_matchings(g)
        if not exhaustive:
            source = islice(source, 10_000)
        audited = 0
        for matching in source:
            matched = sorted({v for pair in matching for v in pair}, key=g.index)
            verdict = is_product_cover(blowup, minimalize_cover(g, matched))
            if not verdict.product:
                bad.append(f"{name}: minimal cover splits copies of {verdict.witness.base}")
                break
            if 2 * len(matching) < vc:
                bad.append(f"{name}: matching of {len(matching)} edges under cover minimum {vc}")
                break
            audited += 1
        notes.append(f"{name}: {audited} of {count if exhaustive else '>100000'}")
    passed = criterion(5, not bad, "; ".join(notes))
    assert passed, _brief(bad)


def test_criterion_06_bipartisation_suite(criterion):
    """Doubling doubles sizes and keeps maximality; decompositions have no
    short paths and small covers; doubled minima dominate 2/3 of the cover."""
    bad = []
    decompositions = 0
    doublings = 0
    for n in (6, 10, 13, 16, 20):
        for p in (0.3, 0.55):
            for base_seed in range(5):
                base = random_graph(n, p, seed=base_seed)
                bip = bipartise(base)
                doubled = bip.to_graph()
                for mseed in range(3):
                    m_base = greedy_maximal_matching(base, seed=mseed)
                    m_two = double_matching(bip, m_base)
                    tag = f"n={n} p={p} seeds={base_seed}/{mseed}"
                    if len(m_two) != 2 * len(m_base):
                        bad.append(f"{tag}: doubled size {len(m_two)}")
                    if not verify_maximal_matching(doubled, m_two):
                        bad.append(f"{tag}: double of a maximal matching is not maximal")
                    if m_base and verify_maximal_matching(
                        doubled, double_matching(bip, m_base[:-1])
                    ):
                        bad.append(f"{tag}: double of a non-maximal matching stayed maximal")
                    doublings += 1
                for mseed in range(20):
                    matching = greedy_maximal_matching(doubled, seed=mseed)
                    decomposition = decompose(bip, matching)
                    tag = f"n={n} p={p} seeds={base_seed}/{mseed}"
                    if any(len(path) < 3 for path in decomposition.paths):
                        bad.append(f"{tag}: single-arc path in the decomposition")
                    cover = cover_from_decomposition(base, decomposition)
                    if len(cover) != len(matching) + len(decomposition.paths):
                        bad.append(f"{tag}: cover size off the path count")
                    if 2 * len(cover) > 3 * len(matching):
                        bad.append(f"{tag}: cover {len(cover)} above (3/2)|M|")
                    decompositions += 1
    solved = 0
    for n in range(5, 13):
        base = random_graph(n, 0.5, seed=n)
        vc = exact_min_vertex_cover(base).value
        mmm = exact_mmm(bipartise(base).to_graph()).value
        if 3 * mmm < 2 * vc:
            bad.append(f"n={n}: doubled minimum {mmm} under two thirds of cover {vc}")
        solved += 1
    passed = criterion(
        6,
        not bad and decompositions >= 1000,
        f"{decompositions} decompositions, {doublings} doublings, {solved} exact comparisons",
    )
    assert passed, _brief(bad) or f"only {decompositions} decompositions"


def test_criterion_07_padded_complement_gadget(criterion):
    """Planted bicliques give maximal matchings of size n (1 + 2 eps), and the
    anti-biclique bound brackets the exact minimum where it is computable."""
    bad = []
    t0 = time.perf_counter()
    for n in (4, 8):
        for seed in range(3):
            original, k_a, k_b = random_planted_biclique(n, F(1, 4), seed=seed)
            gadget = sseh_gadget(original, F(1, 4))
            matching = sseh_yes_matching(gadget, k_a, k_b)
            tag = f"n={n} seed={seed}"
            if len(matching) != n + n // 2:
                bad.append(f"{tag}: size {len(matching)} vs n (1 + 2 eps) = {n + n // 2}")
            padded = gadget.graph.to_graph()
            if not verify_maximal_matching(padded, matching):
                bad.append(f"{tag}: constructed matching is not maximal")
            bound = anti_biclique_bound(gadget, exact_mbb(original).value)
            if n == 4:
                exact = exact_mmm(padded)
                if not (exact.optimal and bound <= exact.value <= len(matching)):
                    bad.append(f"{tag}: bound {bound} vs exact {exact.value}")
            elif bound > len(matching):
                bad.append(f"{tag}: bound {bound} above the constructed {len(matching)}")
    elapsed = time.perf_counter() - t0
    passed = criterion(
        7,
        not bad and elapsed < 600.0,
        f"sizes 4 and 8, three seeds each, exact bracket at 4, {elapsed:.1f}s of 600s",
    )
    assert passed, _brief(bad) or f"over budget: {elapsed:.1f}s"


def test_criterion_08_solver_oracle_equivalence(criterion):
    """Branch and bound agrees with the enumeration minimum on ten thousand
    small graphs and the named cases; greedy never exceeds twice the optimum."""
    bad = []
    for g, want in ((path_graph(3), 1), (cycle_graph(4), 2), (star_graph(4), 1)):
        got = exact_mmm(g).value
        if got != want:
            bad.append(f"named {g.n_vertices}-vertex case: {got} vs {want}")
    probs = (0.2, 0.35, 0.5, 0.65, 0.8)
    checked = 0
    for seed in range(10_000):
        g = random_graph(3 + seed % 5, probs[(seed // 5) % 5], seed=seed)
        best = min(len(m) for m in enumerate_maximal_matchings(g))
        result = exact_mmm(g)
        if not result.optimal or result.value != best:
            bad.append(f"seed {seed}: solver {result.value} vs enumeration {best}")
        if len(greedy_maximal_matching(g, seed=seed)) > 2 * best:
            bad.append(f"seed {seed}: greedy above twice the minimum {best}")
        checked += 1
        if len(bad) > 5:
            break
    passed = criterion(
        8, not bad and checked == 10_000, f"{checked} random graphs to 7 vertices plus named cases"
    )
    assert passed, _brief(bad)


def test_criterion_09_total_cover_direction(criterion):
    """Matched copies of every discretized matching form a total cover, and
    the exact total-cover minimum never undercuts the plain cover minimum."""
    bad = []
    discretized = 0
    for case in DISCRETIZE_CASES:
        num_vars, num_colors, _, _, _ = case
        for rho in RHOS:
            _, blowup, matching = _discretized(case, rho)
            check = total_vertex_cover_check(blowup, matching.matched_vertices())
            if not check:
                bad.append(f"vars={num_vars} colors={num_colors} rho={rho}: {check.reason}")
            discretized += 1
    compared = 0
    for n in range(4, 11):
        g = random_graph(n, 0.5, seed=n)
        total = exact_min_total_vertex_cover(g).value
        plain = exact_min_vertex_cover(g).value
        if total < plain:
            bad.append(f"n={n}: total cover {total} under plain cover {plain}")
        compared += 1
    passed = criterion(
        9, not bad, f"{discretized} matched sets are total covers, {compared} exact comparisons"
    )
    assert passed, _brief(bad)


def test_criterion_10_byte_determinism(criterion, tmp_path):
    """Identical seeds reproduce every report and artifact byte for byte."""
    bad = []

    def report(lemma):
        return canonical_json(verify_lemma(lemma).to_payload())

    for lemma in lemma_ids():
        if report(lemma) != report(lemma):
            bad.append(f"{lemma}: reports differ between runs")

    def artifacts():
        instance = generate_yes(4, 3, xi=F(1, 4), topology="cycle", seed=11)
        gadget = build_gadget(instance, F(1, 8))
        blowup = blow_up(gadget, F(1, 2))
        matching = discretize_matching(build_full(gadget), blowup)
        return (dumps(instance), dumps(gadget), dumps(blowup), matching)

    first, second = artifacts(), artifacts()
    if first[:3] != second[:3]:
        bad.append("serialized pipeline artifacts differ between builds")
    if first[3] != second[3]:
        bad.append("discretized matchings differ between builds")

    config = ExperimentConfig.create(
        "demo", "is-weight", grid={"seed": [0, 1]}, fixed={"num_vars": 3}
    )
    if run_experiment(config).to_csv() != run_experiment(config).to_csv():
        bad.append("experiment table differs between runs")

    outputs = []
    for tag in ("one", "two"):
        instance_path = tmp_path / f"instance-{tag}.json"
        gadget_path = tmp_path / f"gadget-{tag}.json"
        table_path = tmp_path / f"support-{tag}.csv"
        commands = (
            ["gen-ulc", "--num-vars", "4", "--num-colors", "2", "--seed", "5",
             "--out", str(instance_path)],
            ["build-gadget", "--in", str(instance_path), "--epsilon", "1/4",
             "--out", str(gadget_path)],
            ["fracmatch", "--in", str(gadget_path), "--format", "csv",
             "--out", str(table_path)],
        )
        for argv in commands:
            assert run_cli(argv) == 0
        outputs.append(
            (instance_path.read_bytes(), gadget_path.read_bytes(), table_path.read_bytes())
        )
    if outputs[0] != outputs[1]:
        bad.append("command line artifacts differ between runs")

    passed = criterion(
        10,
        not bad,
        f"{len(lemma_ids())} reports, pipeline artifacts and command line outputs byte-identical",
    )
    assert passed, _brief(bad)
