"""Canonical JSON, DOT, and CSV codecs for the toolkit's objects.

JSON payloads are canonical: sorted keys, no whitespace, rationals as
"p/q" strings, vertex encodings fixed per type.  Two runs with the same
seeds therefore export byte-identical artifacts.  Derived structures
(gadgets, blowups) serialize as their parameters and are rebuilt
deterministically on load.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable

from .bitsets import elements_of, mask_of
from .gadget import GadgetGraph, GadgetVertex, build_gadget
from .graphs import Bipartite, Graph, check_size
from .ulc import MAX_COLORS, Planted, UlcInstance, new_instance

# blowups, fractional matchings and bipartite vertices are imported where
# they are built, and told apart from other objects by class name, so
# reading or writing an instance or a gadget loads none of them
if TYPE_CHECKING:
    from .bipartite import SsehGadget
    from .blowup import BlowupGraph
    from .fracmatch import FractionalMatching

SCHEMA = "mmmkit/1"


class SchemaError(ValueError):
    """Malformed payload, with a JSON-path pointer to the offending field."""

    def __init__(self, message: str, path: str = "$") -> None:
        super().__init__(f"{message} (at {path})")
        self.path = path


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def frac_str(value: Fraction) -> str:
    return str(Fraction(value))


def parse_fraction(value, path: str = "$") -> Fraction:
    if isinstance(value, bool):
        raise SchemaError("expected a rational, got a boolean", path)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational {value!r}: {exc}", path) from None
    raise SchemaError(f"expected a rational string, got {type(value).__name__}", path)


def _expect(payload, key, path):
    if not isinstance(payload, dict):
        raise SchemaError(f"expected an object, got {type(payload).__name__}", path)
    if key not in payload:
        raise SchemaError(f"missing key {key!r}", path)
    return payload[key]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_int(payload, key, path) -> int:
    value = _expect(payload, key, path)
    if not _is_int(value):
        raise SchemaError(f"{key} must be an integer, got {type(value).__name__}", f"{path}.{key}")
    return value


def _expect_list(payload, key, path) -> list:
    value = _expect(payload, key, path)
    if not isinstance(value, list):
        raise SchemaError(f"{key} must be a list, got {type(value).__name__}", f"{path}.{key}")
    return value


def expect_kind(payload, kind: str, path: str = "$") -> None:
    """Refuse a payload whose ``kind`` is not ``kind`` or whose ``schema`` is not ours."""
    got = _expect(payload, "kind", path)
    if got != kind:
        raise SchemaError(f"expected kind {kind!r}, got {got!r}", f"{path}.kind")
    schema = _expect(payload, "schema", path)
    if schema != SCHEMA:
        raise SchemaError(f"unsupported schema {schema!r}", f"{path}.schema")


# -- vertices --------------------------------------------------------------


def encode_vertex(v):
    if isinstance(v, GadgetVertex):
        return {"variable": v.variable, "colors": list(elements_of(v.subset))}
    # blowup and bipartite vertices are named tuples, told apart by their
    # fields as decode_vertex tells their encodings apart by keys
    fields = getattr(v, "_fields", None)
    if fields == ("base", "copy"):
        return {"base": encode_vertex(v.base), "copy": v.copy}
    if fields == ("side", "base"):
        return {"side": v.side, "base": encode_vertex(v.base)}
    if isinstance(v, tuple):
        return {"tuple": [encode_vertex(x) for x in v]}
    if isinstance(v, (int, str)):
        return v
    raise SchemaError(f"cannot encode vertex of type {type(v).__name__}")


def decode_vertex(payload, path: str = "$"):
    if isinstance(payload, (int, str)) and not isinstance(payload, bool):
        return payload
    if not isinstance(payload, dict):
        raise SchemaError(f"bad vertex encoding {payload!r}", path)
    if "variable" in payload and "colors" in payload:
        colors = payload["colors"]
        if not isinstance(colors, list) or not all(_is_int(c) and c >= 0 for c in colors):
            raise SchemaError("colors must be a list of nonnegative integers", f"{path}.colors")
        if colors and max(colors) >= MAX_COLORS:
            raise SchemaError(f"colour {max(colors)} is out of range 0..{MAX_COLORS - 1}", f"{path}.colors")
        return GadgetVertex(payload["variable"], mask_of(colors))
    if "copy" in payload and "base" in payload:
        from .blowup import BlowupVertex

        base = decode_vertex(payload["base"], f"{path}.base")
        if not isinstance(base, GadgetVertex):
            raise SchemaError("a blowup vertex's base must be a gadget vertex", f"{path}.base")
        return BlowupVertex(base, payload["copy"])
    if "side" in payload and "base" in payload:
        from .bipartite import BipVertex

        return BipVertex(payload["side"], decode_vertex(payload["base"], f"{path}.base"))
    if "tuple" in payload:
        items = payload["tuple"]
        if not isinstance(items, list):
            raise SchemaError("tuple must be a list", f"{path}.tuple")
        return tuple(decode_vertex(x, f"{path}.tuple[{i}]") for i, x in enumerate(items))
    raise SchemaError(f"unrecognized vertex shape with keys {sorted(payload)}", path)


# -- label cover instances -------------------------------------------------


def instance_to_payload(instance: UlcInstance) -> dict:
    planted = None
    if instance.planted is not None:
        planted = {
            "labelling": list(instance.planted.labelling),
            "core": sorted(instance.planted.core),
        }
    return {
        "schema": SCHEMA,
        "kind": "ulc_instance",
        "num_vars": instance.num_vars,
        "num_colors": instance.num_colors,
        "edges": [list(e) for e in instance.edges],
        "constraints": [list(p) for p in instance.constraints],
        "planted": planted,
    }


def instance_from_payload(payload, path: str = "$") -> UlcInstance:
    expect_kind(payload, "ulc_instance", path)
    num_vars = _expect_int(payload, "num_vars", path)
    num_colors = _expect_int(payload, "num_colors", path)
    edges = _expect_list(payload, "edges", path)
    perms = _expect_list(payload, "constraints", path)
    if len(edges) != len(perms):
        raise SchemaError("edges and constraints must align", f"{path}.constraints")
    pairs = []
    for i, (edge, perm) in enumerate(zip(edges, perms)):
        if not (isinstance(edge, list) and len(edge) == 2 and all(map(_is_int, edge))):
            raise SchemaError("edge must be a pair of integers", f"{path}.edges[{i}]")
        if not (isinstance(perm, list) and all(map(_is_int, perm))):
            raise SchemaError("constraint must be a list of integers", f"{path}.constraints[{i}]")
        pairs.append(((edge[0], edge[1]), perm))
    instance = new_instance(num_vars, num_colors, pairs)
    planted = payload.get("planted")
    if planted is not None:
        labelling = _expect_list(planted, "labelling", f"{path}.planted")
        core = _expect_list(planted, "core", f"{path}.planted")
        try:
            core = frozenset(core)
        except TypeError:
            raise SchemaError("core members must be integers", f"{path}.planted.core") from None
        instance = instance.with_planted(Planted(tuple(labelling), core))
    return instance


# -- derived graphs --------------------------------------------------------


def gadget_to_payload(gadget: GadgetGraph) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "gadget_graph",
        "instance": instance_to_payload(gadget.instance),
        "epsilon": frac_str(gadget.epsilon),
        "flavor": gadget.flavor,
    }


def gadget_from_payload(payload, path: str = "$") -> GadgetGraph:
    expect_kind(payload, "gadget_graph", path)
    instance = instance_from_payload(_expect(payload, "instance", path), f"{path}.instance")
    epsilon = parse_fraction(_expect(payload, "epsilon", path), f"{path}.epsilon")
    return build_gadget(instance, epsilon, _expect(payload, "flavor", path))


def blowup_to_payload(blowup: BlowupGraph) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "blowup_graph",
        "gadget": gadget_to_payload(blowup.gadget),
        "rho": frac_str(blowup.rho),
    }


def blowup_from_payload(payload, path: str = "$") -> BlowupGraph:
    from .blowup import blow_up

    expect_kind(payload, "blowup_graph", path)
    gadget = gadget_from_payload(_expect(payload, "gadget", path), f"{path}.gadget")
    return blow_up(gadget, parse_fraction(_expect(payload, "rho", path), f"{path}.rho"))


# -- explicit graphs and matchings ----------------------------------------


def graph_to_payload(graph: Graph) -> dict:
    verts = graph.vertices()
    return {
        "schema": SCHEMA,
        "kind": "graph",
        "vertices": [encode_vertex(v) for v in verts],
        "edges": [[graph.index(u), graph.index(v)] for u, v in graph.edges()],
    }


def _vertex_list(payload, key: str, path: str, seen: set) -> list:
    """Decode the vertex list at ``key``, adding each vertex to ``seen``; a
    vertex already there is a duplicate and raises a SchemaError naming it."""
    out = []
    for i, raw in enumerate(_expect_list(payload, key, path)):
        where = f"{path}.{key}[{i}]"
        v = decode_vertex(raw, where)
        try:
            duplicate = v in seen
        except TypeError:
            raise SchemaError(f"vertex {raw!r} is not hashable", where) from None
        if duplicate:
            raise SchemaError(f"duplicate vertex {raw!r}", where)
        seen.add(v)
        out.append(v)
    return out


def _edge_ends(edge, sizes: tuple[int, int], path: str) -> tuple[int, int]:
    """The two indices of an edge row, each an int in range of its side."""
    if not (isinstance(edge, list) and len(edge) == 2):
        raise SchemaError("edge must be an index pair", path)
    for end, size in zip(edge, sizes):
        if not _is_int(end):
            raise SchemaError(f"edge index must be an integer, got {type(end).__name__}", path)
        if not 0 <= end < size:
            raise SchemaError(f"edge index {end} out of range 0..{size - 1}", path)
    return edge[0], edge[1]


def graph_from_payload(payload, path: str = "$") -> Graph:
    expect_kind(payload, "graph", path)
    verts = _vertex_list(payload, "vertices", path, set())
    g = Graph(vertices=verts)
    for i, edge in enumerate(_expect_list(payload, "edges", path)):
        a, b = _edge_ends(edge, (len(verts), len(verts)), f"{path}.edges[{i}]")
        g.add_edge(verts[a], verts[b])
    return g


def bipartite_to_payload(bip: Bipartite) -> dict:
    n_left = len(bip.left)
    return {
        "schema": SCHEMA,
        "kind": "bipartite",
        "left": [encode_vertex(v) for v in bip.left],
        "right": [encode_vertex(v) for v in bip.right],
        "edges": [[bip.index(u), bip.index(v) - n_left] for u, v in bip.edges()],
    }


def bipartite_from_payload(payload, path: str = "$") -> Bipartite:
    expect_kind(payload, "bipartite", path)
    seen: set = set()  # shared, so a vertex on both sides is a duplicate too
    left = _vertex_list(payload, "left", path, seen)
    right = _vertex_list(payload, "right", path, seen)
    bp = Bipartite(left=left, right=right)
    for i, edge in enumerate(_expect_list(payload, "edges", path)):
        a, b = _edge_ends(edge, (len(left), len(right)), f"{path}.edges[{i}]")
        bp.add_edge(left[a], right[b])
    return bp


def sseh_to_payload(gadget: SsehGadget, planted_a, planted_b) -> dict:
    """The bundle of a padded gadget, its original graph and the biclique planted there."""
    return {
        "schema": SCHEMA,
        "kind": "sseh_gadget",
        "gadget": bipartite_to_payload(gadget.graph),
        "original": bipartite_to_payload(gadget.original),
        "planted_a": [list(v) for v in planted_a],
        "planted_b": [list(v) for v in planted_b],
    }


def sseh_from_payload(payload, path: str = "$") -> Bipartite:
    """The padded gadget graph of a bundle, checked whole: the original has
    two sides of n >= 1 vertices, the planted sides list distinct vertices
    of its two sides, as many on each, whose pairs are all its edges, and
    the gadget is ``sseh_gadget`` of the original with eps = pad / n - 1/2."""
    from .bipartite import sseh_gadget

    expect_kind(payload, "sseh_gadget", path)
    gadget = bipartite_from_payload(_expect(payload, "gadget", path), f"{path}.gadget")
    original = bipartite_from_payload(_expect(payload, "original", path), f"{path}.original")
    n = len(original.left)
    if n < 1 or len(original.right) != n:
        raise SchemaError(f"original sides must have one size n >= 1, got {n} and {len(original.right)}",
                          f"{path}.original")
    planted = []
    for key, side in (("planted_a", original.left), ("planted_b", original.right)):
        forms = [list(v) for v in side if isinstance(v, tuple)]  # as sseh_to_payload writes them
        listed = _expect_list(payload, key, path)
        for i, raw in enumerate(listed):
            if raw not in forms or raw in listed[:i]:
                raise SchemaError(f"{raw!r} is not a distinct vertex of the original's side", f"{path}.{key}[{i}]")
        planted.append([tuple(raw) for raw in listed])
    a, b = planted
    if len(a) != len(b) or not all(original.has_edge(u, v) for u in a for v in b):
        raise SchemaError("planted sides differ in size or span a non-edge of the original", f"{path}.planted_b")
    try:
        rebuilt = sseh_gadget(original, Fraction(len(gadget.left) - n, n) - Fraction(1, 2)).graph
    except ValueError as exc:
        raise SchemaError(f"gadget does not pad the original: {exc}", f"{path}.gadget") from None
    if (rebuilt.left, rebuilt.right) != (gadget.left, gadget.right) or set(rebuilt.edges()) != set(gadget.edges()):
        raise SchemaError("gadget is not the padded complement of the original", f"{path}.gadget")
    return gadget


def _support_text(fm: FractionalMatching) -> list[tuple[int, str, int, str, str]]:
    """The support as (x, colours, y, colours, value) rows of text pieces,
    from one table of comma-joined colours per subset mask and one string
    per distinct value."""
    colours = [""]
    for s in range(1, fm.gadget.cloud_size):
        high = s.bit_length() - 1
        colours.append(f"{colours[s ^ 1 << high]},{high}" if s & s - 1 else str(high))
    values: dict[int, str] = {}
    rows = []
    for ((x, s), (y, t)), units in fm.unit_support():
        if units not in values:
            values[units] = frac_str(Fraction(units, fm.denominator))
        rows.append((x, colours[s], y, colours[t], values[units]))
    return rows


def fracmatch_to_json(fm: FractionalMatching) -> str:
    """The canonical JSON of a fractional matching, written straight from its
    values: the bytes ``canonical_json`` gives for ``edges`` rows [u, v,
    value] in support order, ends encoded as by ``encode_vertex``."""
    edges = ",".join(
        f'[{{"colors":[{c}],"variable":{x}}},{{"colors":[{d}],"variable":{y}}},"{value}"]'
        for x, c, y, d, value in _support_text(fm)
    )
    gadget = canonical_json(gadget_to_payload(fm.gadget))
    return f'{{"edges":[{edges}],"gadget":{gadget},"kind":"fractional_matching","schema":"{SCHEMA}"}}'


def fracmatch_from_payload(payload, path: str = "$") -> FractionalMatching:
    from .fracmatch import FractionalMatching, validate

    expect_kind(payload, "fractional_matching", path)
    gadget = gadget_from_payload(_expect(payload, "gadget", path), f"{path}.gadget")
    fm = FractionalMatching(gadget)
    seen: dict[tuple[GadgetVertex, GadgetVertex], int] = {}  # edge -> its row
    for i, row in enumerate(_expect_list(payload, "edges", path)):
        where = f"{path}.edges[{i}]"
        if not (isinstance(row, list) and len(row) == 3):
            raise SchemaError("edge row must be [u, v, value]", where)
        ends = [decode_vertex(row[k], f"{where}[{k}]") for k in (0, 1)]
        for k, v in enumerate(ends):
            if not (isinstance(v, GadgetVertex) and _is_int(v.variable) and v in gadget):
                raise SchemaError(f"{row[k]!r} is not a vertex of the gadget", f"{where}[{k}]")
        if ends[0] == ends[1]:
            raise SchemaError(f"self-loop at {row[0]!r}", where)
        key = (min(ends), max(ends))
        if key in seen:
            raise SchemaError(f"duplicate edge {row[0]!r} ~ {row[1]!r}", where)
        seen[key] = i
        value = parse_fraction(row[2], f"{where}[2]")
        if value < 0:
            raise SchemaError(f"negative value {row[2]!r}", f"{where}[2]")
        fm.add(ends[0], ends[1], value)
    report = validate(fm)
    if not report.ok:
        # a bad row is named by its index; a vertex overload has no one row
        edge = report.support_violation or report.capacity_violation
        where = f"{path}.edges[{seen[edge[:2]]}]" if edge else f"{path}.edges"
        raise SchemaError(report.first_violation(), where)
    return fm


def experiment_config_from_payload(payload, path: str = "$"):
    from .experiment import ExperimentConfig

    return ExperimentConfig.from_payload(payload, path)


# -- dispatch --------------------------------------------------------------

_DECODERS = {
    "ulc_instance": instance_from_payload,
    "gadget_graph": gadget_from_payload,
    "blowup_graph": blowup_from_payload,
    "fractional_matching": fracmatch_from_payload,
    "graph": graph_from_payload,
    "bipartite": bipartite_from_payload,
    "sseh_gadget": sseh_from_payload,
    "experiment_config": experiment_config_from_payload,
}
_ENCODERS = {
    "UlcInstance": instance_to_payload,
    "GadgetGraph": gadget_to_payload,
    "BlowupGraph": blowup_to_payload,
    "Graph": graph_to_payload,
    "Bipartite": bipartite_to_payload,
}


def to_payload(obj) -> dict:
    """The payload of any object but a fractional matching (``dumps`` writes those)."""
    encoder = _ENCODERS.get(type(obj).__name__)
    if encoder is None:
        raise SchemaError(f"no JSON encoding for {type(obj).__name__}")
    return encoder(obj)


def from_payload(payload, path: str = "$"):
    """The object a payload holds; its decoder checks ``kind`` and ``schema``
    at this level and at every nested one."""
    kind = _expect(payload, "kind", path)
    if not (isinstance(kind, str) and kind in _DECODERS):
        raise SchemaError(f"unknown kind {kind!r}", f"{path}.kind")
    return _DECODERS[kind](payload, path)


def loads(text: str, *kinds: str, needs: str = ""):
    """The object one JSON payload holds.

    With ``kinds``, a payload of any other kind is refused before anything
    of it is decoded; ``needs`` words that refusal as "<needs>, got <kind>".
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from None
    kind = _expect(payload, "kind", "$")
    if kinds and kind not in kinds:
        expected = needs or "expected kind " + " or ".join(map(repr, kinds))
        got = kind if needs and str(kind).isidentifier() else repr(kind)  # quoted unless a plain name
        raise SchemaError(f"{expected}, got {got}", "$.kind")
    return from_payload(payload)


def dumps(obj) -> str:
    if type(obj).__name__ == "FractionalMatching":
        return fracmatch_to_json(obj)
    return canonical_json(to_payload(obj))


def render(obj, fmt: str, name: str = "G", weighted: bool = False) -> str:
    """``obj`` as text in ``fmt``: canonical JSON, DOT for a graph that
    passes ``check_size`` (a DOT file lists every vertex and every edge), or
    CSV for a fractional matching."""
    if fmt == "json":
        return dumps(obj)
    if fmt == "csv":
        if type(obj).__name__ != "FractionalMatching":
            raise ValueError("CSV export is defined for fractional matchings only")
        rows = ({"u": f"({x},{{{c}}})", "v": f"({y},{{{d}}})", "value": value} for x, c, y, d, value in _support_text(obj))
        return rows_to_csv(("u", "v", "value"), rows)
    if not hasattr(obj, "n_edges"):
        raise ValueError(f"DOT output is defined for graphs only, not {type(obj).__name__}")
    check_size(obj.n_vertices, obj.n_edges)
    return graph_to_dot(obj, name, weighted)


# -- DOT and CSV -----------------------------------------------------------


def _vertex_label(v) -> str:
    label = getattr(v, "label", None)
    return label() if callable(label) else str(v)


def graph_to_dot(graph, name: str = "G", weighted: bool = False) -> str:
    """Render any object with ``vertices`` and ``edges`` as undirected DOT."""
    verts = list(graph.vertices())
    ids = {v: f"v{i}" for i, v in enumerate(verts)}
    weight_of = getattr(graph, "vertex_weight", None)
    lines = [f"graph {name} {{"]
    for v in verts:
        attrs = [f'label="{_vertex_label(v)}"']
        if weighted and weight_of is not None:
            attrs.append(f'weight="{frac_str(weight_of(v))}"')
        lines.append(f"  {ids[v]} [{', '.join(attrs)}];")
    for u, v in graph.edges():
        lines.append(f"  {ids[u]} -- {ids[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def rows_to_csv(fieldnames: Iterable[str], rows: Iterable[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(fieldnames), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
