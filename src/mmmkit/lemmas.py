"""Verification harness: every constructive claim gets an executable check.

Each lemma id names a claim about the constructions, verified at desk scale
against the exact solvers.  Reports list the individual checks with a pass
flag and a short numeric detail, so a failing claim points at the exact
quantity that broke.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .bipartite import (
    anti_biclique_bound,
    bipartise,
    cover_from_decomposition,
    decompose,
    double_matching,
    random_planted_biclique,
    sseh_gadget,
    sseh_yes_matching,
)
from .blowup import (
    blow_up,
    blowup_maximality_check,
    discretize_matching,
    is_product_cover,
    minimalize_cover,
    total_vertex_cover_check,
)
from .fracmatch import build_full, validate
from .gadget import build_gadget, planted_independent_set, yes_matching
from .graphs import (
    matched_vertices,
    random_graph,
    verify_maximal_matching,
    verify_maximal_matching_via_unmatched,
)
from .solvers import (
    enumerate_maximal_matchings,
    exact_mbb,
    exact_min_total_vertex_cover,
    exact_min_vertex_cover,
    exact_mmm,
    greedy_maximal_matching,
)
from .ulc import generate_yes


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class LemmaReport:
    lemma: str
    params: dict
    checks: tuple[Check, ...]
    runtime_s: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_payload(self) -> dict:
        from .serialize import SCHEMA, frac_str

        params = {
            k: frac_str(v) if isinstance(v, Fraction) else v
            for k, v in sorted(self.params.items())
        }
        return {
            "schema": SCHEMA,
            "kind": "lemma_report",
            "lemma": self.lemma,
            "params": params,
            "ok": self.ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.checks
            ],
        }

    def render_text(self) -> str:
        lines = [f"lemma {self.lemma}: {'ok' if self.ok else 'FAILED'}"]
        for c in self.checks:
            status = "PASS" if c.ok else "FAIL"
            suffix = f": {c.detail}" if c.detail else ""
            lines.append(f"  [{status}] {c.name}{suffix}")
        return "\n".join(lines)


def _frac(value) -> Fraction:
    return Fraction(value)


def _instance_and_gadget(p):
    instance = generate_yes(
        p["num_vars"],
        p["num_colors"],
        xi=_frac(p["xi"]),
        topology=p.get("topology", "cycle"),
        seed=p["seed"],
    )
    return instance, build_gadget(instance, _frac(p["epsilon"]), p.get("flavor", "extended"))


def _lemma_is_weight(p) -> list[Check]:
    """The planted set is independent with weight (core share) * (1/2 - eps)."""
    instance, gadget = _instance_and_gadget(p)
    planted = instance.planted
    ind = planted_independent_set(gadget)  # raises if dependent
    checks = [Check("planted-set-independent", True, f"{len(ind.vertices)} vertices")]
    prob = Fraction(1, 2) - gadget.epsilon
    closed = Fraction(len(planted.core), instance.num_vars) * prob
    checks.append(
        Check(
            "weight-closed-form",
            ind.weight == closed,
            f"weight {ind.weight} vs {closed}",
        )
    )
    xi = _frac(p["xi"])
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
    checks = [
        Check(
            "matching-maximal",
            bool(maximal),
            f"{len(matching)} edges" if maximal else str(maximal.witness),
        )
    ]
    total = gadget.matching_weight(matching, "plus")
    ind = planted_independent_set(gadget)
    checks.append(
        Check("weight-complement", total + ind.weight == 1, f"{total} + {ind.weight}")
    )
    xi = _frac(p["xi"])
    if xi <= gadget.epsilon / 2:
        bound = Fraction(1, 2) + 2 * gadget.epsilon
        checks.append(Check("weight-upper-bound", total <= bound, f"{total} <= {bound}"))
    return checks


def _lemma_weighted_no(p) -> list[Check]:
    """Every maximal matching weighs 1 minus an independent leftover set."""
    instance, gadget = _instance_and_gadget(p)
    g = gadget.to_graph()
    verts = set(g.vertices())
    identity_ok, independent_ok = True, True
    detail = ""
    count = 0
    values = []
    limit = p["budget"]
    for matching in islice(enumerate_maximal_matchings(g), limit + 1):
        count += 1
        if count > limit:
            raise RuntimeError(f"more than {limit} maximal matchings; raise the budget")
        unmatched = verts - matched_vertices(matching)
        total = gadget.matching_weight(matching, "plus")
        values.append(total)
        if total + gadget.set_weight(unmatched) != 1:
            identity_ok = False
            detail = f"matching of weight {total} breaks the identity"
        edge = gadget.edge_within(unmatched)
        if edge is not None:
            independent_ok = False
            detail = f"unmatched pair {edge[0]}, {edge[1]} is adjacent"
    checks = [
        Check("matched-complement-identity", identity_ok, detail or f"{count} matchings"),
        Check("unmatched-set-independent", independent_ok, detail or f"{count} matchings"),
    ]
    exact = exact_mmm(g, weight=lambda u, v: gadget.edge_weight(u, v, "plus"))
    checks.append(
        Check(
            "exact-solvers-agree",
            exact.optimal and exact.value == min(values),
            f"branch and bound {exact.value}, enumeration {min(values)}",
        )
    )
    return checks


def _lemma_saturation(p) -> list[Check]:
    """The staged fractional matching saturates everything but the planted set."""
    instance, gadget = _instance_and_gadget(p)
    fm = build_full(gadget)
    report = validate(fm)
    checks = [
        Check("support-in-graph", report.support_ok, str(report.support_violation or "")),
        Check("capacity-respected", report.capacity_ok, str(report.capacity_violation or "")),
        Check("budget-respected", report.budget_ok, str(report.budget_violation or "")),
    ]
    planted = set(planted_independent_set(gadget).vertices)
    missing = {v for v, _ in report.unsaturated}
    exact = missing == planted and all(
        deficit == gadget.vertex_weight(v) for v, deficit in report.unsaturated
    )
    checks.append(
        Check(
            "saturation-outside-planted",
            exact,
            f"{len(report.saturated)} saturated, {len(report.unsaturated)} planted left dry",
        )
    )
    return checks


def _lemma_blowup_completeness(p) -> list[Check]:
    """Discretizing the fractional matching gives a small maximal matching of the blowup."""
    instance, gadget = _instance_and_gadget(p)
    rho = _frac(p["rho"])
    blowup = blow_up(gadget, rho)
    fm = build_full(gadget)
    matching = discretize_matching(fm, blowup)
    maximal = blowup_maximality_check(blowup, matching)
    checks = [
        Check(
            "matching-maximal",
            bool(maximal),
            f"{len(matching)} edges on {blowup.n_vertices} vertices"
            if maximal
            else str(maximal.witness),
        )
    ]
    bound = Fraction(blowup.n_vertices) * (Fraction(1, 2) + 2 * gadget.epsilon + rho)
    checks.append(
        Check("size-bound", 2 * len(matching) < bound, f"2*{len(matching)} < {bound}")
    )
    return checks


def _lemma_blowup_soundness(p) -> list[Check]:
    """Maximal blowup matchings induce product covers at least as large as the optimum."""
    instance, gadget = _instance_and_gadget(p)
    blowup = blow_up(gadget, _frac(p["rho"]))
    g = blowup.to_graph()
    vc = exact_min_vertex_cover(g)
    product_ok, bound_ok = True, True
    detail = ""
    count = 0
    limit = p["budget"]
    for matching in islice(enumerate_maximal_matchings(g), limit + 1):
        count += 1
        if count > limit:
            raise RuntimeError(f"more than {limit} maximal matchings; raise the budget")
        cover = minimalize_cover(g, matched_vertices(matching))
        verdict = is_product_cover(blowup, cover)
        if not verdict.product:
            product_ok = False
            detail = f"split vertex {verdict.witness}"
        if 2 * len(matching) < vc.value:
            bound_ok = False
            detail = f"matching {len(matching)} vs cover optimum {vc.value}"
    checks = [
        Check("minimalized-covers-product", product_ok, detail or f"{count} matchings"),
        Check("matching-vs-cover-bound", bound_ok, detail or f"optimum {vc.value}"),
    ]
    return checks


def _lemma_path_cover(p) -> list[Check]:
    """Doubling and path/cycle covers tie maximal matchings to vertex covers."""
    base = random_graph(p["n"], p["p"], seed=p["seed"])
    bip = bipartise(base)
    big = bip.to_graph()
    doubling_ok, paths_ok, cover_ok = True, True, True
    detail_d = detail_p = detail_c = ""
    trials = p["trials"]
    for t in range(trials):
        m_base = greedy_maximal_matching(base, seed=p["seed"] * 1000 + t)
        doubled = double_matching(bip, m_base)
        if not verify_maximal_matching_via_unmatched(bip, doubled):
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
        vc = exact_min_vertex_cover(base)
        checks.append(
            Check(
                "doubled-minimum-vs-cover",
                mmm.optimal and 3 * mmm.value >= 2 * vc.value,
                f"doubled minimum {mmm.value}, base cover {vc.value}",
            )
        )
    return checks


def _sseh_pieces(p):
    eps = _frac(p["epsilon"])
    original, k_a, k_b = random_planted_biclique(p["n"], eps, seed=p["seed"])
    return eps, original, k_a, k_b, sseh_gadget(original, eps)


def _lemma_sseh_yes(p) -> list[Check]:
    """A planted biclique yields a maximal matching of size n (1 + 2 eps)."""
    eps, original, k_a, k_b, gadget = _sseh_pieces(p)
    matching = sseh_yes_matching(gadget, k_a, k_b)
    target = Fraction(p["n"]) * (1 + 2 * eps)
    checks = [
        Check("size-equals-padded-target", len(matching) == target, f"{len(matching)} vs {target}")
    ]
    g = gadget.graph.to_graph()
    maximal = verify_maximal_matching(g, matching)
    checks.append(
        Check("matching-maximal", bool(maximal), "" if maximal else str(maximal.witness))
    )
    return checks


def _lemma_sseh_no(p) -> list[Check]:
    """The biclique bound stays below the true matching minimum of the padded graph."""
    eps, original, k_a, k_b, gadget = _sseh_pieces(p)
    mbb = exact_mbb(original)
    bound = anti_biclique_bound(gadget, mbb.value)
    exact = exact_mmm(gadget.graph.to_graph(), node_limit=p["budget"])
    checks = [
        Check(
            "bound-below-exact",
            exact.optimal and bound <= exact.value,
            f"bound {bound}, exact {exact.value}, biclique {mbb.value}",
        )
    ]
    target = Fraction(p["n"]) * (1 + 2 * eps)
    checks.append(
        Check("yes-matching-attainable", exact.value <= target, f"{exact.value} <= {target}")
    )
    return checks


def _lemma_total_vc(p) -> list[Check]:
    """Matched sets dominate themselves; total covers are never smaller than covers."""
    instance, gadget = _instance_and_gadget(p)
    blowup = blow_up(gadget, _frac(p["rho"]))
    fm = build_full(gadget)
    matching = discretize_matching(fm, blowup)
    matched = set()
    for u, v in matching.pairs:
        matched.add(u)
        matched.add(v)
    verdict = total_vertex_cover_check(blowup, matched)
    checks = [
        Check(
            "matched-set-total-cover",
            bool(verdict),
            f"{len(matched)} vertices" if verdict else str(verdict.witness),
        )
    ]
    ok = True
    detail = ""
    for t in range(p["trials"]):
        g = random_graph(p["n"], p["p"], seed=p["seed"] * 1000 + t)
        tvc = exact_min_total_vertex_cover(g)
        vc = exact_min_vertex_cover(g)
        if tvc.value < vc.value:
            ok = False
            detail = f"trial {t}: total {tvc.value} below plain {vc.value}"
    checks.append(
        Check("total-cover-at-least-cover", ok, detail or f"{p['trials']} random graphs")
    )
    return checks


LEMMAS = {
    "is-weight": (
        _lemma_is_weight,
        {"num_vars": 4, "num_colors": 2, "epsilon": "1/4", "xi": 0, "seed": 0},
        "planted set independence and weight",
    ),
    "weighted-yes": (
        _lemma_weighted_yes,
        {"num_vars": 4, "num_colors": 2, "epsilon": "1/4", "xi": 0, "seed": 0},
        "planted maximal matching weight",
    ),
    "weighted-no": (
        _lemma_weighted_no,
        {"num_vars": 3, "num_colors": 2, "epsilon": "1/4", "xi": 0, "seed": 0, "budget": 200_000},
        "all maximal matchings complement an independent set",
    ),
    "saturation": (
        _lemma_saturation,
        {"num_vars": 4, "num_colors": 3, "epsilon": "1/8", "xi": "1/4", "seed": 1},
        "fractional matching saturates all but the planted set",
    ),
    "blowup-completeness": (
        _lemma_blowup_completeness,
        {"num_vars": 3, "num_colors": 2, "epsilon": "1/4", "xi": 0, "seed": 0, "rho": "1/2"},
        "discretized matching is maximal and small",
    ),
    "blowup-soundness": (
        _lemma_blowup_soundness,
        {"num_vars": 3, "num_colors": 1, "epsilon": "1/4", "xi": 0, "seed": 0, "rho": 3, "budget": 200_000},
        "maximal blowup matchings give product covers",
    ),
    "path-cover": (
        _lemma_path_cover,
        {"n": 10, "p": 0.4, "seed": 0, "trials": 100, "budget": 2_000_000, "exact": True},
        "doubling, decomposition, and the three-halves cover",
    ),
    "sseh-yes": (
        _lemma_sseh_yes,
        {"n": 4, "epsilon": "1/4", "seed": 0},
        "planted biclique gives a small maximal matching",
    ),
    "sseh-no": (
        _lemma_sseh_no,
        {"n": 4, "epsilon": "1/4", "seed": 0, "budget": 5_000_000},
        "biclique bound versus exact matching minimum",
    ),
    "total-vc": (
        _lemma_total_vc,
        {
            "num_vars": 3,
            "num_colors": 2,
            "epsilon": "1/4",
            "xi": 0,
            "seed": 0,
            "rho": "1",
            "n": 8,
            "p": 0.5,
            "trials": 20,
        },
        "matched sets as total vertex covers",
    ),
}


def lemma_ids() -> tuple[str, ...]:
    return tuple(LEMMAS)


def verify_lemma(lemma_id: str, params: dict | None = None) -> LemmaReport:
    """Run one lemma's checks with defaults overridden by the given params."""
    if lemma_id not in LEMMAS:
        raise ValueError(f"unknown lemma {lemma_id!r}, expected one of {', '.join(LEMMAS)}")
    func, defaults, _ = LEMMAS[lemma_id]
    merged = dict(defaults)
    for key, value in (params or {}).items():
        if key not in defaults:
            raise ValueError(f"lemma {lemma_id!r} takes no parameter {key!r}")
        merged[key] = value
    start = time.perf_counter()
    checks = func(merged)
    runtime = time.perf_counter() - start
    return LemmaReport(lemma_id, merged, tuple(checks), runtime)
