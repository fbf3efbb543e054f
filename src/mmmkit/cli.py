"""Command line front end.

Every subcommand reads and writes the canonical JSON payloads, so commands
compose through files or pipes.  Exit status: 0 on success, 1 when a
verification ran and failed, 2 on usage errors or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .gadget import FLAVORS, build_gadget
from .serialize import (
    SCHEMA,
    SchemaError,
    bipartite_to_payload,
    canonical_json,
    dumps,
    fracmatch_csv_rows,
    from_payload,
    gadget_from_payload,
    gadget_to_payload,
    graph_to_dot,
    instance_from_payload,
    instance_to_payload,
    rows_to_csv,
)
from .ulc import TOPOLOGIES, generate_yes

# Only the parser and the light subcommands (gen-ulc, build-gadget, export)
# import at module level; every other subcommand imports what it runs in its
# handler, so a cold start loads no module its subcommand does not use.
DOT_CAP = 10_000
SOLVE_BUDGET = 1_000_000  # `solve` search nodes unless --budget says otherwise
SOLVE_KINDS = ("graph", "gadget_graph", "blowup_graph", "bipartite", "sseh_gadget")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(path: str | None, content: str) -> None:
    if not content.endswith("\n"):
        content += "\n"
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def _load_payload(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None


def _parse_param_value(raw: str):
    if raw.lstrip("-").isdigit():
        return int(raw)
    try:
        return float(raw)
    except ValueError:
        return raw


def _rational(flag: str, raw: str) -> Fraction:
    """The value of a rational option; a malformed one is a usage error."""
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} wants a rational such as 1/8, got {raw!r}") from None


def _dot_guard(obj) -> None:
    n = getattr(obj, "n_vertices", None)
    if n is not None and n > DOT_CAP:
        raise ValueError(f"graph has {n} vertices; DOT output capped at {DOT_CAP}")


def _cmd_gen_ulc(args) -> int:
    instance = generate_yes(
        args.num_vars,
        args.num_colors,
        xi=_rational("--xi", args.xi),
        topology=args.topology,
        seed=args.seed,
        p_edge=args.p_edge,
    )
    _write_text(args.out, canonical_json(instance_to_payload(instance)))
    return 0


def _cmd_build_gadget(args) -> int:
    instance = instance_from_payload(_load_payload(args.input))
    gadget = build_gadget(instance, _rational("--epsilon", args.epsilon), args.flavor)
    if args.format == "dot":
        _dot_guard(gadget)
        _write_text(args.out, graph_to_dot(gadget, name="gadget", weighted=True))
    elif args.format == "json":
        _write_text(args.out, canonical_json(gadget_to_payload(gadget)))
    else:
        raise ValueError(f"build-gadget cannot emit {args.format}")
    return 0


def _cmd_fracmatch(args) -> int:
    from .fracmatch import build_full, validate

    payload = _load_payload(args.input)
    gadget = gadget_from_payload(payload)
    fm = build_full(gadget)
    report = validate(fm)
    if not report.ok:
        print(f"error: fractional matching is invalid, nothing written: {report.first_violation()}",
              file=sys.stderr)
        return 1
    if args.format == "json":
        _write_text(args.out, dumps(fm))
    elif args.format == "csv":
        _write_text(args.out, rows_to_csv(("u", "v", "value"), fracmatch_csv_rows(fm)))
    else:
        raise ValueError(f"fracmatch cannot emit {args.format}")
    return 0


def _cmd_blowup(args) -> int:
    from .blowup import blow_up

    gadget = gadget_from_payload(_load_payload(args.input))
    blowup = blow_up(gadget, _rational("--rho", args.rho))
    if args.format == "dot":
        _dot_guard(blowup)
        _write_text(args.out, graph_to_dot(blowup, name="blowup"))
    elif args.format == "json":
        _write_text(args.out, dumps(blowup))
    else:
        raise ValueError(f"blowup cannot emit {args.format}")
    return 0


def _cmd_bipartise(args) -> int:
    from .bipartite import bipartise
    from .graphs import Graph

    payload = _load_payload(args.input)
    base = from_payload(payload)
    if not isinstance(base, Graph):
        base = base.to_graph()
    doubled = bipartise(base)
    if args.format == "dot":
        _dot_guard(doubled)
        _write_text(args.out, graph_to_dot(doubled, name="doubled"))
    elif args.format == "json":
        _write_text(args.out, canonical_json(bipartite_to_payload(doubled.to_bipartite())))
    else:
        raise ValueError(f"bipartise cannot emit {args.format}")
    return 0


def _cmd_sseh(args) -> int:
    from .bipartite import random_planted_biclique, sseh_gadget

    epsilon = _rational("--epsilon", args.epsilon)
    original, k_a, k_b = random_planted_biclique(args.n, epsilon, seed=args.seed)
    gadget = sseh_gadget(original, epsilon)
    if args.format == "dot":
        _write_text(args.out, graph_to_dot(gadget.graph, name="padded"))
    elif args.format == "json":
        payload = {
            "schema": SCHEMA,
            "kind": "sseh_gadget",
            "gadget": bipartite_to_payload(gadget.graph),
            "original": bipartite_to_payload(original),
            "planted_a": [list(v) for v in k_a],
            "planted_b": [list(v) for v in k_b],
        }
        _write_text(args.out, canonical_json(payload))
    else:
        raise ValueError(f"sseh cannot emit {args.format}")
    return 0


def _cmd_solve(args) -> int:
    from .graphs import Bipartite, Graph
    from .solvers import exact_mbb, exact_min_vertex_cover, exact_mmm

    payload = _load_payload(args.input)
    obj = from_payload(payload)
    if payload["kind"] not in SOLVE_KINDS:
        raise ValueError(f"solve {args.problem} needs a graph payload, got {payload['kind']}")
    if args.problem == "mbb":
        if not isinstance(obj, Bipartite):
            raise ValueError("mbb needs a bipartite payload")
        result = exact_mbb(obj, node_limit=args.budget)
        witness = [[list(map(str, v)) if isinstance(v, tuple) else str(v) for v in side] for side in result.witness]
    else:
        graph = obj if isinstance(obj, Graph) else obj.to_graph()
        if args.problem == "mmm":
            result = exact_mmm(graph, node_limit=args.budget)
            witness = [[str(u), str(v)] for u, v in result.witness]
        else:
            result = exact_min_vertex_cover(graph, node_limit=args.budget)
            witness = [str(v) for v in result.witness]
    out = {
        "problem": args.problem,
        "status": result.status,
        "value": str(result.value),
        "nodes": result.nodes,
        "witness": witness,
    }
    _write_text(args.out, canonical_json(out))
    return 0 if result.optimal else 2


def _cmd_verify_lemma(args) -> int:
    from .lemmas import LEMMAS, lemma_ids, verify_lemma

    params = {}
    for item in args.param or ():
        if "=" not in item:
            raise ValueError(f"--param wants key=value, got {item!r}")
        key, _, raw = item.partition("=")
        params[key] = _parse_param_value(raw)
    if args.seed is not None:
        params["seed"] = args.seed
    if args.budget is not None:
        params["budget"] = args.budget
    ids = lemma_ids() if args.lemma == "all" else (args.lemma,)
    reports = []
    for lemma_id in ids:
        usable = dict(params)
        if args.lemma == "all":
            spec = LEMMAS[lemma_id][1]
            usable = {k: v for k, v in params.items() if k in spec}
        reports.append(verify_lemma(lemma_id, usable))
    if args.format == "json":
        payload = [r.to_payload() for r in reports]
        _write_text(args.out, canonical_json(payload if len(payload) > 1 else payload[0]))
    else:
        _write_text(args.out, "\n".join(r.render_text() for r in reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_experiment(args) -> int:
    from .experiment import ExperimentConfig, run_experiment

    config = ExperimentConfig.from_payload(_load_payload(args.config))
    result = run_experiment(config)
    if args.format == "csv":
        _write_text(args.out, result.to_csv())
    elif args.format == "json":
        _write_text(args.out, result.to_json())
    else:
        raise ValueError(f"experiment cannot emit {args.format}")
    return 0 if result.ok else 1


def _cmd_export(args) -> int:
    payload = _load_payload(args.input)
    obj = from_payload(payload)
    if args.format == "json":
        _write_text(args.out, dumps(obj))
        return 0
    if args.format == "dot":
        _dot_guard(obj)
        _write_text(args.out, graph_to_dot(obj))
        return 0
    if args.format == "csv":
        from .fracmatch import FractionalMatching

        if not isinstance(obj, FractionalMatching):
            raise ValueError("CSV export is defined for fractional matchings only")
        _write_text(args.out, rows_to_csv(("u", "v", "value"), fracmatch_csv_rows(obj)))
        return 0
    raise ValueError(f"unknown format {args.format!r}")


def _add_io(sub, default_format: str, formats: tuple[str, ...]) -> None:
    sub.add_argument("--format", choices=formats, default=default_format)
    sub.add_argument("--out", default=None, help="output path, stdout by default")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmmkit",
        description="Matching hardness gadget toolkit: build, reduce, and verify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-ulc", help="generate a satisfiable label cover instance")
    p.add_argument("--num-vars", type=int, required=True)
    p.add_argument("--num-colors", type=int, required=True)
    p.add_argument("--xi", default="0", help="fraction of variables outside the core")
    p.add_argument("--topology", choices=TOPOLOGIES, default="cycle")
    p.add_argument("--p-edge", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    _add_io(p, "json", ("json",))
    p.set_defaults(func=_cmd_gen_ulc)

    p = sub.add_parser("build-gadget", help="weighted gadget graph from an instance")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--flavor", choices=FLAVORS, default="extended")
    _add_io(p, "json", ("json", "dot"))
    p.set_defaults(func=_cmd_build_gadget)

    p = sub.add_parser("fracmatch", help="staged fractional matching of a gadget")
    p.add_argument("--in", dest="input", required=True)
    # accepted and ignored: every build uses the one explicit stage plan
    p.add_argument("--strategy", choices=("hamiltonian", "uniform"), help=argparse.SUPPRESS)
    _add_io(p, "json", ("json", "csv"))
    p.set_defaults(func=_cmd_fracmatch)

    p = sub.add_parser("blowup", help="unweighted copy blowup of a gadget")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--rho", required=True)
    _add_io(p, "json", ("json", "dot"))
    p.set_defaults(func=_cmd_blowup)

    p = sub.add_parser("bipartise", help="double a graph into its bipartite version")
    p.add_argument("--in", dest="input", required=True)
    _add_io(p, "json", ("json", "dot"))
    p.set_defaults(func=_cmd_bipartise)

    p = sub.add_parser("sseh", help="padded complement gadget over a planted biclique")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--epsilon", required=True)
    p.add_argument("--seed", type=int, default=0)
    _add_io(p, "json", ("json", "dot"))
    p.set_defaults(func=_cmd_sseh)

    p = sub.add_parser("solve", help="exact solvers on explicit graphs")
    p.add_argument("problem", choices=("mmm", "vc", "mbb"))
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--budget", type=int, default=SOLVE_BUDGET, help="search node limit")
    _add_io(p, "json", ("json",))
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify-lemma", help="run one lemma's checks, or all of them")
    p.add_argument("lemma", help="lemma id, or 'all'")
    p.add_argument("--param", action="append", help="override as key=value, repeatable")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget", type=int, default=None)
    _add_io(p, "text", ("text", "json"))
    p.set_defaults(func=_cmd_verify_lemma)

    p = sub.add_parser("experiment", help="sweep a lemma over a parameter grid")
    p.add_argument("config", help="experiment config JSON path")
    _add_io(p, "csv", ("csv", "json"))
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("export", help="re-emit a payload as canonical JSON, DOT, or CSV")
    p.add_argument("--in", dest="input", required=True)
    _add_io(p, "json", ("json", "dot", "csv"))
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
