"""Gadget constructions for minimum maximal matching reductions, exactly verified.

The package builds the chain from satisfiable unique label cover instances
through weighted gadget graphs, fractional matchings, unweighted blowups,
and bipartite doublings, down to the padded complement gadget driven by
balanced bicliques.  Every constructive step carries an executable check
against exact brute-force solvers; all arithmetic is rational and every
build is deterministic under a seed.
"""

import importlib

# every public name with the submodule it lives in; each submodule is
# imported on first access (PEP 562), so `import mmmkit` loads none of them
_HOMES = {
    name: module
    for module, names in {
        "bipartite": (
            "BipVertex", "Bipartisation", "PathCycleDecomposition", "SsehGadget",
            "anti_biclique_bound", "bipartise", "cover_from_decomposition", "decompose",
            "double_matching", "random_planted_biclique", "sseh_gadget", "sseh_yes_matching",
        ),
        "blowup": (
            "BlowupGraph", "BlowupVertex", "CopyMatching", "blow_up", "blowup_maximality_check",
            "discretize_matching", "is_product_cover", "minimalize_cover", "product_cover",
            "round_half_away", "total_vertex_cover_check",
        ),
        "experiment": ("ExperimentConfig", "ExperimentResult", "run_experiment"),
        "fracmatch": (
            "FractionalMatching", "SaturationReport", "build_complement_pairing",
            "build_empty_set_cycles", "build_full", "build_layer_cycles", "combine", "validate",
        ),
        "gadget": (
            "GadgetGraph", "GadgetVertex", "PlantedIndependentSet", "biased_weight",
            "bracket_partner", "build_gadget", "cycle_cover", "planted_independent_set",
            "stage_plan", "yes_matching",
        ),
        "graphs": (
            "Bipartite", "CheckResult", "Graph", "matched_vertices", "random_graph",
            "verify_matching", "verify_maximal_matching", "verify_vertex_cover",
        ),
        "lemmas": ("LEMMAS", "Check", "LemmaReport", "lemma_ids", "verify_lemma"),
        "solvers": (
            "SolveResult", "enumerate_maximal_matchings", "exact_mbb",
            "exact_min_total_vertex_cover", "exact_min_vertex_cover", "exact_mmm",
            "greedy_maximal_matching",
        ),
        "ulc": (
            "Planted", "TLabelling", "UlcInstance", "check_labelling", "check_t_labelling",
            "generate_yes", "new_instance",
        ),
    }.items()
    for name in names
}


def __getattr__(name: str):
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})


__version__ = "0.1.0"

__all__ = ["__version__", *_HOMES]
