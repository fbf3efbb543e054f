"""Verification harness: every constructive claim gets an executable check.

Each lemma id names a claim about the constructions, verified at desk scale
against the exact solvers.  Reports list the individual checks with a pass
flag and a short numeric detail, so a failing claim points at the exact
quantity that broke.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import islice
from typing import NamedTuple

# Each lemma imports the heavier modules it runs (bipartite, blowup,
# solvers) in its own body, so a cold run of one lemma loads only those.
from .fracmatch import build_full, saturates_exactly_outside_planted_set, validate
from .gadget import build_gadget, planted_independent_set, yes_matching
from .graphs import check_size, matched_vertices, random_graph, verify_maximal_matching
from .ulc import generate_yes


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class LemmaReport(NamedTuple):
    lemma: str
    params: dict
    checks: tuple[Check, ...]
    runtime_s: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_payload(self) -> dict:
        from .serialize import SCHEMA, frac_str

        params = {k: frac_str(v) if isinstance(v, Fraction) else v for k, v in sorted(self.params.items())}
        return {
            "schema": SCHEMA,
            "kind": "lemma_report",
            "lemma": self.lemma,
            "params": params,
            "ok": self.ok,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks],
        }

    def render_text(self) -> str:
        lines = [f"lemma {self.lemma}: {'ok' if self.ok else 'FAILED'}"]
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            suffix = f": {c.detail}" if c.detail else ""
            lines.append(f"  [{status}] {c.name}{suffix}")
        return "\n".join(lines)


def _over_budget(budget: int, unit: str = "nodes", **ran_out: bool) -> str:
    """Name the searches that ran out of a budget of ``budget`` units, or give ''."""
    spent = [name for name, out in ran_out.items() if out]
    return f"{' and '.join(spent)} reached the budget of {budget} {unit}" if spent else ""


def _instance_and_gadget(p):
    instance = generate_yes(p["num_vars"], p["num_colors"], xi=Fraction(p["xi"]), topology="cycle", seed=p["seed"])
    return instance, build_gadget(instance, Fraction(p["epsilon"]), "extended")


def _lemma_is_weight(p) -> list[Check]:
    """The planted set is independent with weight (core share) * (1/2 - eps)."""
    instance, gadget = _instance_and_gadget(p)
    planted = instance.planted
    ind = planted_independent_set(gadget)  # raises if dependent
    checks = [Check("planted-set-independent", True, f"{len(ind.vertices)} vertices")]
    prob = Fraction(1, 2) - gadget.epsilon
    closed = Fraction(len(planted.core), instance.num_vars) * prob
    checks.append(Check("weight-closed-form", ind.weight == closed, f"weight {ind.weight} vs {closed}"))
    xi = Fraction(p["xi"])
    floor_bound = (1 - xi) * prob
    ok = ind.weight >= floor_bound
    if xi == 0:
        ok = ok and ind.weight >= Fraction(1, 2) - 2 * gadget.epsilon
    checks.append(Check("weight-lower-bound", ok, f"weight {ind.weight} >= {floor_bound}"))
    return checks


def _lemma_weighted_yes(p) -> list[Check]:
    """The planted matching is maximal and light: sum weight 1 - w(planted set)."""
    instance, gadget = _instance_and_gadget(p)
    matching = yes_matching(gadget)
    g = gadget.to_graph()
    maximal = verify_maximal_matching(g, matching)
    detail = f"{len(matching)} edges" if maximal else str(maximal.witness)
    checks = [Check("matching-maximal", bool(maximal), detail)]
    total = gadget.matching_weight(matching)
    ind = planted_independent_set(gadget)
    checks.append(Check("weight-complement", total + ind.weight == 1, f"{total} + {ind.weight}"))
    xi = Fraction(p["xi"])
    if xi <= gadget.epsilon / 2:
        bound = Fraction(1, 2) + 2 * gadget.epsilon
        checks.append(Check("weight-upper-bound", total <= bound, f"{total} <= {bound}"))
    return checks


def _lemma_weighted_no(p) -> list[Check]:
    """Every maximal matching weighs 1 minus an independent leftover set."""
    from .solvers import enumerate_maximal_matchings, exact_mmm

    instance, gadget = _instance_and_gadget(p)
    g = gadget.to_graph()
    verts = set(g.vertices())
    identity_ok, independent_ok = True, True
    detail = ""
    count = 0
    lightest = None
    limit = p["budget"]
    for matching in islice(enumerate_maximal_matchings(g), limit + 1):
        count += 1
        if count > limit:
            break
        unmatched = verts - matched_vertices(matching)
        total = gadget.matching_weight(matching)
        if lightest is None or total < lightest:
            lightest = total
        if total + gadget.set_weight(unmatched) != 1:
            identity_ok = False
            detail = f"matching of weight {total} breaks the identity"
        edge = gadget.edge_within(unmatched)
        if edge is not None:
            independent_ok = False
            detail = f"unmatched pair {edge[0]}, {edge[1]} is adjacent"
    enumerated = _over_budget(limit, "maximal matchings", enumeration=count > limit)
    summary = enumerated or f"{count} matchings"
    checks = [
        Check("matched-complement-identity", identity_ok and not enumerated, detail or summary),
        Check("unmatched-set-independent", independent_ok and not enumerated, detail or summary),
    ]
    exact = exact_mmm(g, weight=gadget.edge_weight, node_limit=limit)
    spent = "; ".join(s for s in (enumerated, _over_budget(limit, exact_mmm=not exact.optimal)) if s)
    agreement = spent or f"branch and bound {exact.value}, enumeration {lightest}"
    checks.append(Check("exact-solvers-agree", not spent and exact.value == lightest, agreement))
    return checks


def _lemma_saturation(p) -> list[Check]:
    """The staged fractional matching saturates everything but the planted set."""
    instance, gadget = _instance_and_gadget(p)
    fm = build_full(gadget)
    report = validate(fm)
    checks = [
        Check("support-in-graph", report.support_violation is None, str(report.support_violation or "")),
        Check("capacity-respected", report.capacity_violation is None, str(report.capacity_violation or "")),
        Check("budget-respected", report.budget_violation is None, str(report.budget_violation or "")),
    ]
    exact, reason = saturates_exactly_outside_planted_set(fm)
    dry = f"{gadget.n_vertices - len(report.unsaturated)} saturated, {len(report.unsaturated)} planted left dry"
    checks.append(Check("saturation-outside-planted", exact, dry if exact else reason))
    return checks


def _lemma_blowup_completeness(p) -> list[Check]:
    """Discretizing the fractional matching gives a small maximal matching of the blowup."""
    from .blowup import blow_up, blowup_maximality_check, discretize_matching

    instance, gadget = _instance_and_gadget(p)
    rho = Fraction(p["rho"])
    blowup = blow_up(gadget, rho)
    fm = build_full(gadget)
    matching = discretize_matching(fm, blowup)
    maximal = blowup_maximality_check(blowup, matching)
    detail = f"{len(matching)} edges on {blowup.n_vertices} vertices" if maximal else str(maximal.witness)
    checks = [Check("matching-maximal", bool(maximal), detail)]
    bound = Fraction(blowup.n_vertices) * (Fraction(1, 2) + 2 * gadget.epsilon + rho)
    checks.append(Check("size-bound", 2 * len(matching) < bound, f"2*{len(matching)} < {bound}"))
    return checks


def _lemma_blowup_soundness(p) -> list[Check]:
    """Maximal blowup matchings induce product covers at least as large as the optimum."""
    from .blowup import blow_up, is_product_cover, minimalize_cover
    from .solvers import enumerate_maximal_matchings, exact_min_vertex_cover

    instance, gadget = _instance_and_gadget(p)
    blowup = blow_up(gadget, Fraction(p["rho"]))
    g = blowup.to_graph()
    limit = p["budget"]
    vc = exact_min_vertex_cover(g, node_limit=limit)
    product_ok, bound_ok = True, True
    detail = ""
    count = 0
    for matching in islice(enumerate_maximal_matchings(g), limit + 1):
        count += 1
        if count > limit:
            break
        cover = minimalize_cover(g, matched_vertices(matching))
        verdict = is_product_cover(blowup, cover)
        if not verdict.product:
            product_ok = False
            detail = f"split vertex {verdict.witness}"
        if vc.optimal and 2 * len(matching) < vc.value:
            bound_ok = False
            detail = f"matching {len(matching)} vs cover optimum {vc.value}"
    enumerated = _over_budget(limit, "maximal matchings", enumeration=count > limit)
    covered = _over_budget(limit, exact_min_vertex_cover=not vc.optimal)
    spent = "; ".join(s for s in (enumerated, covered) if s)
    checks = [
        Check("minimalized-covers-product", product_ok and not enumerated, detail or enumerated or f"{count} matchings"),
        Check("matching-vs-cover-bound", bound_ok and not spent, spent or detail or f"optimum {vc.value}"),
    ]
    return checks


def _lemma_path_cover(p) -> list[Check]:
    """Doubling and path/cycle covers tie maximal matchings to vertex covers."""
    from .bipartite import bipartise, cover_from_decomposition, decompose, double_matching
    from .solvers import exact_min_vertex_cover, exact_mmm, greedy_maximal_matching

    base = random_graph(p["n"], p["p"], seed=p["seed"])
    bip = bipartise(base)
    big = bip.to_graph()
    doubling_ok, paths_ok, cover_ok = True, True, True
    detail_d = detail_p = detail_c = ""
    trials = p["trials"]
    for t in range(trials):
        m_base = greedy_maximal_matching(base, seed=p["seed"] * 1000 + t)
        doubled = double_matching(bip, m_base)
        if not verify_maximal_matching(bip, doubled):
            doubling_ok = False
            detail_d = f"trial {t}"
        if len(doubled) != 2 * len(m_base):
            doubling_ok = False
            detail_d = f"trial {t}: size {len(doubled)}"
    for t in range(trials):
        m_big = greedy_maximal_matching(big, seed=p["seed"] * 1000 + t)
        decomp = decompose(bip, m_big)
        if any(len(path) < 3 for path in decomp.paths):
            paths_ok = False
            detail_p = f"trial {t}: short path"
        cover = cover_from_decomposition(base, decomp)
        if 2 * len(cover) > 3 * len(m_big):
            cover_ok = False
            detail_c = f"trial {t}: cover {len(cover)} vs matching {len(m_big)}"
    checks = [
        Check("doubling-preserves-maximality", doubling_ok, detail_d or f"{trials} trials"),
        Check("paths-span-two-edges", paths_ok, detail_p or f"{trials} trials"),
        Check("cover-within-three-halves", cover_ok, detail_c or f"{trials} trials"),
    ]
    if p["exact"]:
        mmm = exact_mmm(big, node_limit=p["budget"])
        vc = exact_min_vertex_cover(base, node_limit=p["budget"])
        spent = _over_budget(p["budget"], exact_mmm=not mmm.optimal, exact_min_vertex_cover=not vc.optimal)
        detail = spent or f"doubled minimum {mmm.value}, base cover {vc.value}"
        checks.append(Check("doubled-minimum-vs-cover", not spent and 3 * mmm.value >= 2 * vc.value, detail))
    return checks


def _sseh_pieces(p):
    from .bipartite import random_planted_biclique, sseh_gadget

    eps = Fraction(p["epsilon"])
    original, k_a, k_b = random_planted_biclique(p["n"], eps, seed=p["seed"])
    return eps, original, k_a, k_b, sseh_gadget(original, eps)


def _lemma_sseh_yes(p) -> list[Check]:
    """A planted biclique yields a maximal matching of size n (1 + 2 eps)."""
    from .bipartite import sseh_yes_matching

    eps, original, k_a, k_b, gadget = _sseh_pieces(p)
    matching = sseh_yes_matching(gadget, k_a, k_b)
    target = Fraction(p["n"]) * (1 + 2 * eps)
    checks = [Check("size-equals-padded-target", len(matching) == target, f"{len(matching)} vs {target}")]
    g = gadget.graph.to_graph()
    maximal = verify_maximal_matching(g, matching)
    checks.append(Check("matching-maximal", bool(maximal), "" if maximal else str(maximal.witness)))
    return checks


def _lemma_sseh_no(p) -> list[Check]:
    """The biclique bound stays below the true matching minimum of the padded graph."""
    from .bipartite import anti_biclique_bound
    from .solvers import exact_mbb, exact_mmm

    eps, original, k_a, k_b, gadget = _sseh_pieces(p)
    mbb = exact_mbb(original, node_limit=p["budget"])
    bound = anti_biclique_bound(gadget, mbb.value)
    exact = exact_mmm(gadget.graph.to_graph(), node_limit=p["budget"])
    spent = _over_budget(p["budget"], exact_mbb=not mbb.optimal, exact_mmm=not exact.optimal)
    detail = spent or f"bound {bound}, exact {exact.value}, biclique {mbb.value}"
    checks = [Check("bound-below-exact", not spent and bound <= exact.value, detail)]
    target = Fraction(p["n"]) * (1 + 2 * eps)
    attained = exact.value <= target
    detail = f"{exact.value} <= {target}" if attained or exact.optimal else _over_budget(p["budget"], exact_mmm=True)
    checks.append(Check("yes-matching-attainable", attained, detail))
    return checks


def _lemma_total_vc(p) -> list[Check]:
    """Matched sets dominate themselves; total covers are never smaller than covers."""
    from .blowup import blow_up, discretize_matching, total_vertex_cover_check
    from .solvers import exact_min_total_vertex_cover, exact_min_vertex_cover

    instance, gadget = _instance_and_gadget(p)
    blowup = blow_up(gadget, Fraction(p["rho"]))
    check_size(blowup.n_vertices, blowup.n_edges)  # the check below walks every copy and every edge
    fm = build_full(gadget)
    matched = discretize_matching(fm, blowup).matched_vertices()
    verdict = total_vertex_cover_check(blowup, matched)
    detail = f"{len(matched)} vertices" if verdict else str(verdict.witness)
    checks = [Check("matched-set-total-cover", bool(verdict), detail)]
    ok, detail = True, ""
    for t in range(p["trials"]):
        g = random_graph(p["n"], p["p"], seed=p["seed"] * 1000 + t)
        tvc = exact_min_total_vertex_cover(g, node_limit=p["budget"])
        vc = exact_min_vertex_cover(g, node_limit=p["budget"])
        spent = _over_budget(
            p["budget"], exact_min_total_vertex_cover=not tvc.optimal, exact_min_vertex_cover=not vc.optimal
        )
        if spent:
            ok, detail = False, f"trial {t}: {spent}"
            break
        if tvc.value < vc.value:
            ok = False
            detail = f"trial {t}: total {tvc.value} below plain {vc.value}"
    checks.append(Check("total-cover-at-least-cover", ok, detail or f"{p['trials']} random graphs"))
    return checks


def _whole(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# The kinds of lemma parameter: each takes a value and gives '' when it is
# valid, or else what the parameter wants.
def _size(value) -> str:
    """Sizes, trial counts and budgets."""
    return "" if _whole(value) and value >= 1 else "an int >= 1"


def _seed(value) -> str:
    return "" if _whole(value) and value >= 0 else "an int >= 0"


def _rational(value) -> str:
    if isinstance(value, (int, float, str, Fraction)) and not isinstance(value, bool):
        try:
            Fraction(value)
            return ""
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    return "a rational such as 1/8"


def _probability(value) -> str:
    number = isinstance(value, (int, float, Fraction)) and not isinstance(value, bool)
    return "" if number and 0 <= value <= 1 else "a number in [0, 1]"


def _flag(value) -> str:
    return "" if isinstance(value, bool) or _whole(value) and value in (0, 1) else "true, false, 0 or 1"


def _gadget_params(num_vars, num_colors, epsilon, xi, seed, **more) -> dict:
    """The spec of a lemma run on a planted gadget, plus ``more``."""
    return {
        "num_vars": (num_vars, _size),
        "num_colors": (num_colors, _size),
        "epsilon": (epsilon, _rational),
        "xi": (xi, _rational),
        "seed": (seed, _seed),
        **more,
    }


# lemma id -> (checks, parameter spec); the spec maps each parameter to its
# default and its kind
LEMMAS = {
    "is-weight": (
        _lemma_is_weight,
        _gadget_params(num_vars=4, num_colors=2, epsilon="1/4", xi=0, seed=0),
    ),
    "weighted-yes": (
        _lemma_weighted_yes,
        _gadget_params(num_vars=4, num_colors=2, epsilon="1/4", xi=0, seed=0),
    ),
    "weighted-no": (
        _lemma_weighted_no,
        _gadget_params(num_vars=3, num_colors=2, epsilon="1/4", xi=0, seed=0, budget=(200_000, _size)),
    ),
    "saturation": (
        _lemma_saturation,
        _gadget_params(num_vars=4, num_colors=3, epsilon="1/8", xi="1/4", seed=1),
    ),
    "blowup-completeness": (
        _lemma_blowup_completeness,
        _gadget_params(num_vars=3, num_colors=2, epsilon="1/4", xi=0, seed=0, rho=("1/2", _rational)),
    ),
    "blowup-soundness": (
        _lemma_blowup_soundness,
        _gadget_params(
            num_vars=3, num_colors=1, epsilon="1/4", xi=0, seed=0, rho=(3, _rational), budget=(200_000, _size)
        ),
    ),
    "path-cover": (
        _lemma_path_cover,
        {
            "n": (10, _size),
            "p": (0.4, _probability),
            "seed": (0, _seed),
            "trials": (100, _size),
            "budget": (2_000_000, _size),
            "exact": (True, _flag),
        },
    ),
    "sseh-yes": (
        _lemma_sseh_yes,
        {"n": (4, _size), "epsilon": ("1/4", _rational), "seed": (0, _seed)},
    ),
    "sseh-no": (
        _lemma_sseh_no,
        {"n": (4, _size), "epsilon": ("1/4", _rational), "seed": (0, _seed), "budget": (5_000_000, _size)},
    ),
    "total-vc": (
        _lemma_total_vc,
        _gadget_params(
            num_vars=3, num_colors=2, epsilon="1/4", xi=0, seed=0, rho=("1", _rational),
            n=(8, _size), p=(0.5, _probability), trials=(20, _size), budget=(200_000, _size),
        ),
    ),
}


def lemma_ids() -> tuple[str, ...]:
    return tuple(LEMMAS)


def verify_lemma(lemma_id: str, params: dict | None = None) -> LemmaReport:
    """Run one lemma's checks with defaults overridden by the given params.

    Every parameter is checked against its kind in the lemma's spec first,
    so a bad value raises ValueError naming the lemma and the parameter.
    """
    if lemma_id not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma_id!r}, expected one of {', '.join(LEMMAS)}")
    func, spec = LEMMAS[lemma_id]
    merged = {key: default for key, (default, _) in spec.items()}
    for key, value in (params or {}).items():
        if key not in spec:
            raise ValueError(f"lemma {lemma_id!r} takes no parameter {key!r}")
        merged[key] = value
    for key, value in merged.items():
        wanted = spec[key][1](value)
        if wanted:
            raise ValueError(f"lemma {lemma_id} parameter {key} wants {wanted}, got {value!r}")
    start = time.perf_counter()
    checks = func(merged)
    runtime = time.perf_counter() - start
    return LemmaReport(lemma_id, merged, tuple(checks), runtime)
