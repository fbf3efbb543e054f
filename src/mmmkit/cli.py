"""Command line front end.

Every subcommand reads and writes the canonical JSON payloads, so commands
compose through files or pipes.  Exit status: 0 on success, 1 when a
verification ran and failed, 2 on usage errors or malformed input.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import __version__
from .gadget import FLAVORS, build_gadget
from .serialize import canonical_json, loads, render, sseh_to_payload
from .ulc import TOPOLOGIES, generate_yes

# Only the parser and the light subcommands (gen-ulc, build-gadget, export)
# import at module level; every other subcommand imports what it runs in its
# handler, so a cold start loads no module its subcommand does not use.
SOLVE_BUDGET = 1_000_000  # `solve` search nodes unless --budget says otherwise
GRAPH_KINDS = ("graph", "gadget_graph", "blowup_graph", "bipartite", "sseh_gadget")


def _read(path: str, *kinds: str, needs: str = ""):
    """The object the payload at ``path`` (``-`` for stdin) holds; see ``serialize.loads``."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    return loads(text, *kinds, needs=needs)


def _write_text(path: str | None, content: str) -> None:
    if not content.endswith("\n"):
        content += "\n"
    if path is None or path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def _emit(args, obj, name: str = "G", weighted: bool = False) -> int:
    _write_text(args.out, render(obj, args.format, name, weighted))
    return 0


def _parse_param_value(raw: str):
    """A ``--param`` value: an int or a float where Python reads one, a flag
    for true or false, else the text; the lemma's parameter spec judges it."""
    text = raw.strip()
    for number in (int, float):
        try:
            return number(text)
        except ValueError:
            pass
    return {"true": True, "false": False}.get(text.lower(), text)


def _rational(flag: str, raw: str) -> Fraction:
    """The value of a rational option; a malformed one is a usage error."""
    try:
        return Fraction(raw)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} wants a rational such as 1/8, got {raw!r}") from None


def _cmd_gen_ulc(args) -> int:
    instance = generate_yes(
        args.num_vars,
        args.num_colors,
        xi=_rational("--xi", args.xi),
        topology=args.topology,
        seed=args.seed,
        p_edge=args.p_edge,
    )
    return _emit(args, instance)


def _cmd_build_gadget(args) -> int:
    instance = _read(args.input, "ulc_instance")
    gadget = build_gadget(instance, _rational("--epsilon", args.epsilon), args.flavor)
    return _emit(args, gadget, "gadget", weighted=True)


def _cmd_fracmatch(args) -> int:
    from .fracmatch import build_full, validate

    fm = build_full(_read(args.input, "gadget_graph"))
    report = validate(fm)
    if not report.ok:
        print(f"error: fractional matching is invalid, nothing written: {report.first_violation()}",
              file=sys.stderr)
        return 1
    return _emit(args, fm)


def _cmd_blowup(args) -> int:
    from .blowup import blow_up

    gadget = _read(args.input, "gadget_graph")
    return _emit(args, blow_up(gadget, _rational("--rho", args.rho)), "blowup")


def _cmd_bipartise(args) -> int:
    from .bipartite import bipartise
    from .graphs import check_size

    base = _read(args.input, *GRAPH_KINDS, needs="bipartise needs a graph payload")
    check_size(2 * base.n_vertices, 2 * base.n_edges)  # the double, before the base is listed
    return _emit(args, bipartise(base.to_graph()).to_bipartite(), "doubled")


def _cmd_sseh(args) -> int:
    from .bipartite import random_planted_biclique, sseh_gadget

    epsilon = _rational("--epsilon", args.epsilon)
    original, k_a, k_b = random_planted_biclique(args.n, epsilon, seed=args.seed)
    gadget = sseh_gadget(original, epsilon)
    if args.format == "dot":
        return _emit(args, gadget.graph, "padded")
    _write_text(args.out, canonical_json(sseh_to_payload(gadget, k_a, k_b)))
    return 0


def _cmd_solve(args) -> int:
    from .graphs import Bipartite
    from .solvers import exact_mbb, exact_min_vertex_cover, exact_mmm

    obj = _read(args.input, *GRAPH_KINDS, needs=f"solve {args.problem} needs a graph payload")
    if args.problem == "mbb":
        if not isinstance(obj, Bipartite):
            raise ValueError("mbb needs a bipartite payload")
        result = exact_mbb(obj, node_limit=args.budget)
        witness = [[list(map(str, v)) if isinstance(v, tuple) else str(v) for v in side] for side in result.witness]
    elif args.problem == "mmm":
        result = exact_mmm(obj.to_graph(), node_limit=args.budget)
        witness = [[str(u), str(v)] for u, v in result.witness]
    else:
        result = exact_min_vertex_cover(obj.to_graph(), node_limit=args.budget)
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
    if args.lemma == "all":  # each lemma takes the keys in its spec, and a key that none takes is refused
        unknown = [key for key in params if all(key not in LEMMAS[i][1] for i in ids)]
        if unknown:
            raise ValueError(f"no lemma takes parameter {unknown[0]!r}")
    reports = []
    for lemma_id in ids:
        usable = {k: v for k, v in params.items() if args.lemma != "all" or k in LEMMAS[lemma_id][1]}
        reports.append(verify_lemma(lemma_id, usable))
    if args.format == "json":
        payload = [r.to_payload() for r in reports]
        _write_text(args.out, canonical_json(payload if len(payload) > 1 else payload[0]))
    else:
        _write_text(args.out, "\n".join(r.render_text() for r in reports))
    return 0 if all(r.ok for r in reports) else 1


def _cmd_experiment(args) -> int:
    from .experiment import run_experiment

    result = run_experiment(_read(args.config, "experiment_config"))
    _write_text(args.out, result.to_csv() if args.format == "csv" else result.to_json())
    return 0 if result.ok else 1


def _cmd_export(args) -> int:
    return _emit(args, _read(args.input))


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
    except (ValueError, OSError, RuntimeError) as exc:  # a SchemaError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
