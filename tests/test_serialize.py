import hashlib
import json
from fractions import Fraction

import pytest

from mmmkit.bipartite import BipVertex, bipartise, random_planted_biclique
from mmmkit.blowup import BlowupVertex, blow_up
from mmmkit.cli import main
from mmmkit.fracmatch import FractionalMatching, build_full
from mmmkit.gadget import GadgetVertex, build_gadget
from mmmkit.graphs import Graph, random_graph
from mmmkit.serialize import (
    SCHEMA,
    SchemaError,
    canonical_json,
    decode_vertex,
    dumps,
    encode_vertex,
    frac_str,
    fracmatch_to_json,
    from_payload,
    gadget_to_payload,
    graph_to_dot,
    loads,
    parse_fraction,
    render,
    rows_to_csv,
    to_payload,
)
from mmmkit.ulc import generate_yes

F = Fraction


def test_canonical_json_is_sorted_and_compact():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_fraction_codec():
    assert frac_str(F(2, 4)) == "1/2"
    assert frac_str(F(3)) == "3"
    assert parse_fraction("1/2") == F(1, 2)
    assert parse_fraction(7) == F(7)
    with pytest.raises(SchemaError):
        parse_fraction(True)
    with pytest.raises(SchemaError):
        parse_fraction("one half")
    with pytest.raises(SchemaError):
        parse_fraction("1/0")
    with pytest.raises(SchemaError):
        parse_fraction(1.5)


@pytest.mark.parametrize(
    "vertex",
    [
        7,
        "name",
        GadgetVertex(2, 0b101),
        BlowupVertex(GadgetVertex(0, 0b1), 3),
        BipVertex("l", GadgetVertex(1, 0)),
        BipVertex("r", 4),
        ("a'", 2),
        (("x", 1), 5),
    ],
)
def test_vertex_codec_round_trip(vertex):
    assert decode_vertex(encode_vertex(vertex)) == vertex


def test_decode_vertex_rejects_junk():
    with pytest.raises(SchemaError):
        decode_vertex({"weird": 1})
    with pytest.raises(SchemaError):
        decode_vertex(None)
    with pytest.raises(SchemaError):
        decode_vertex({"variable": 0, "colors": "abc"})


def test_loads_refuses_a_colour_beyond_the_colour_cap():
    payload = json.loads(dumps(build_full(build_gadget(generate_yes(3, 2, seed=0), F(1, 4)))))
    payload["edges"][0][0]["colors"] = [10**18]  # as a mask, 1 << 10**18 exhausts memory
    with pytest.raises(SchemaError, match=f"colour {10**18} is out of range 0..29") as err:
        loads(canonical_json(payload))
    assert err.value.path == "$.edges[0][0].colors"


def test_instance_round_trip():
    inst = generate_yes(5, 3, xi=F(1, 4), seed=4)
    again = loads(dumps(inst))
    assert again == inst
    assert dumps(again) == dumps(inst)


def test_instance_without_planted_round_trips():
    inst = generate_yes(4, 2, seed=1)
    bare = type(inst)(inst.num_vars, inst.num_colors, inst.edges, inst.constraints)
    assert loads(dumps(bare)) == bare


def test_gadget_round_trip_rebuilds_equal_structure():
    gadget = build_gadget(generate_yes(3, 2, seed=0), F(1, 8), flavor="base")
    again = loads(dumps(gadget))
    assert again.instance == gadget.instance
    assert again.epsilon == gadget.epsilon
    assert again.flavor == "base"
    assert list(again.edges()) == list(gadget.edges())
    assert dumps(again) == dumps(gadget)


def test_blowup_round_trip():
    blowup = blow_up(build_gadget(generate_yes(3, 2, seed=0), F(1, 4)), F(1, 2))
    again = loads(dumps(blowup))
    assert again.rho == blowup.rho
    assert again.n_v_by_size == blowup.n_v_by_size
    assert list(again.vertices()) == list(blowup.vertices())
    assert dumps(again) == dumps(blowup)


def test_fracmatch_round_trip_is_byte_identical():
    gadget = build_gadget(generate_yes(3, 2, seed=0), F(1, 4))
    fm = build_full(gadget)
    text = dumps(fm)
    again = loads(text)
    assert dumps(again) == text
    assert again.support() == fm.support()


def test_graph_round_trip_preserves_order():
    g = random_graph(6, 0.5, seed=3)
    again = loads(dumps(g))
    assert again.vertices() == g.vertices()
    assert list(again.edges()) == list(g.edges())


def test_bipartite_round_trip():
    bip, _, _ = random_planted_biclique(4, F(1, 4), seed=2)
    again = loads(dumps(bip))
    assert again.left == bip.left
    assert again.right == bip.right
    assert list(again.edges()) == list(bip.edges())


def test_from_payload_schema_checks():
    with pytest.raises(SchemaError):
        from_payload({"kind": "graph", "schema": "mmmkit/99"})
    with pytest.raises(SchemaError):
        from_payload({"kind": "wat", "schema": SCHEMA})
    with pytest.raises(SchemaError):
        from_payload({"schema": SCHEMA})
    with pytest.raises(SchemaError, match=r"unknown kind \['graph'\]"):
        from_payload({"kind": ["graph"], "schema": SCHEMA})
    with pytest.raises(SchemaError):
        loads("{not json")
    with pytest.raises(SchemaError):
        dumps(object())


def test_schema_error_carries_path():
    payload = {
        "schema": SCHEMA,
        "kind": "ulc_instance",
        "num_vars": 3,
        "num_colors": 2,
        "edges": [[0, 1]],
        "constraints": [],
        "planted": None,
    }
    with pytest.raises(SchemaError) as err:
        from_payload(payload)
    assert "constraints" in str(err.value)


def test_graph_to_dot_shapes():
    g = Graph(vertices=["a", "b"], edges=[("a", "b")])
    dot = graph_to_dot(g, name="D")
    assert dot.startswith("graph D {")
    assert 'v0 [label="a"];' in dot
    assert "v0 -- v1;" in dot
    assert dot.endswith("}\n")


def test_graph_to_dot_weighted_gadget():
    gadget = build_gadget(generate_yes(3, 2, seed=0), F(1, 4))
    dot = graph_to_dot(gadget, weighted=True)
    assert 'weight="1/16"' in dot  # singleton subsets at epsilon 1/4
    assert 'label="(0,{})"' in dot


def test_graph_to_dot_on_bipartite():
    bip, _, _ = random_planted_biclique(4, F(1, 4), seed=0)
    dot = graph_to_dot(bip)
    assert dot.count("label=") == 8


def test_graph_to_dot_on_doubling():
    bip = bipartise(random_graph(3, 1.0, seed=0))
    dot = graph_to_dot(bip)
    assert 'label="0^l"' in dot
    assert 'label="0^r"' in dot


def test_rows_to_csv():
    text = rows_to_csv(["a", "b"], [{"a": 1, "b": "x"}, {"a": 2, "b": "y,z"}])
    assert text == 'a,b\n1,x\n2,"y,z"\n'


def reference_fracmatch_json(fm):
    """Reference: the fractional matching as a payload dict of encoded rows."""
    return canonical_json(
        {
            "schema": SCHEMA,
            "kind": "fractional_matching",
            "gadget": gadget_to_payload(fm.gadget),
            "edges": [[encode_vertex(u), encode_vertex(v), frac_str(value)] for u, v, value in fm.support()],
        }
    )


def reference_fracmatch_csv(fm):
    rows = [{"u": u.label(), "v": v.label(), "value": str(value)} for u, v, value in fm.support()]
    return rows_to_csv(("u", "v", "value"), rows)


def _assert_writers_match_references(fm):
    text = fracmatch_to_json(fm)
    assert text == reference_fracmatch_json(fm)
    assert dumps(fm) == text
    assert render(fm, "csv") == reference_fracmatch_csv(fm)
    return text


def _assert_round_trip(fm):
    text = _assert_writers_match_references(fm)
    again = loads(text)
    assert again.support() == fm.support()
    assert dumps(again) == text


def test_fracmatch_writer_on_an_empty_matching():
    fm = FractionalMatching(build_gadget(generate_yes(3, 2, seed=0), F(1, 4)))
    _assert_round_trip(fm)
    assert fracmatch_to_json(fm).startswith('{"edges":[],"gadget":')


@pytest.mark.parametrize("m", range(2, 13))
def test_fracmatch_writer_matches_the_reference_encoder(m):
    gadget = build_gadget(generate_yes(4, m, xi=F(1, 2), seed=m), F(1, 8))
    _assert_round_trip(build_full(gadget))


def test_fracmatch_writer_after_a_rescale():
    gadget = build_gadget(generate_yes(4, 3, xi=F(1, 4), seed=2), F(1, 8))
    fm = build_full(gadget)
    denominator = fm.denominator
    fm.add(GadgetVertex(0, 0b001), GadgetVertex(0, 0b110), F(1, 3))  # past the edge's capacity
    assert fm.denominator == 3 * denominator
    text = _assert_writers_match_references(fm)
    with pytest.raises(SchemaError, match="over its capacity") as err:
        loads(text)
    assert err.value.path.startswith("$.edges[")
    # two thirds of the full matching is valid and carries the same foreign denominator
    scaled = FractionalMatching(gadget)
    for u, v, value in build_full(gadget).support():
        scaled.add(u, v, value * F(2, 3))
    assert scaled.denominator == 3 * denominator
    _assert_round_trip(scaled)


def _export_refuses(tmp_path, capsys, payload):
    """Run `export` on an edited fractional-matching payload; return its stderr."""
    edited = tmp_path / "edited.json"
    edited.write_text(canonical_json(payload))
    capsys.readouterr()
    assert main(["export", "--in", str(edited)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def test_cli_export_refuses_an_appended_row_off_the_gadget(tmp_path, capsys):
    fm = tmp_path / "fm.json"
    assert main(["fracmatch", "--in", str(_cli_gadget(tmp_path, 2)), "--out", str(fm)]) == 0
    payload = json.loads(fm.read_text())
    payload["edges"].append([encode_vertex(GadgetVertex(0, 0b01)), encode_vertex(GadgetVertex(1, 0b01)), "1/4"])
    err = _export_refuses(tmp_path, capsys, payload)
    assert f"(at $.edges[{len(payload['edges']) - 1}])" in err


def test_cli_export_refuses_a_row_over_its_capacity(tmp_path, capsys):
    fm = tmp_path / "fm.json"
    assert main(["fracmatch", "--in", str(_cli_gadget(tmp_path, 2)), "--out", str(fm)]) == 0
    payload = json.loads(fm.read_text())
    payload["edges"][1][2] = "1"
    err = _export_refuses(tmp_path, capsys, payload)
    assert "over its capacity" in err and "(at $.edges[1])" in err


def test_cli_export_refuses_a_negative_row(tmp_path, capsys):
    fm = tmp_path / "fm.json"
    assert main(["fracmatch", "--in", str(_cli_gadget(tmp_path, 2)), "--out", str(fm)]) == 0
    payload = json.loads(fm.read_text())
    payload["edges"][1][2] = "-1/4"
    err = _export_refuses(tmp_path, capsys, payload)
    assert "negative value '-1/4'" in err and "(at $.edges[1][2])" in err


def test_cli_export_refuses_a_vertex_over_its_weight(tmp_path, capsys):
    fm = tmp_path / "fm.json"
    assert main(["fracmatch", "--in", str(_cli_gadget(tmp_path, 2)), "--out", str(fm)]) == 0
    matching = loads(fm.read_text())
    support = {(u, v) for u, v, _ in matching.support()}
    u, v = next(e for e in matching.gadget.edges() if tuple(sorted(e)) not in support)
    payload = json.loads(fm.read_text())
    payload["edges"].append([encode_vertex(u), encode_vertex(v), "1/1000000"])  # within the edge's capacity
    err = _export_refuses(tmp_path, capsys, payload)
    saturated = [w for w in (u, v) if matching.load(w) == matching.gadget.vertex_weight(w)]
    overloaded = min(saturated, key=matching.gadget.index)
    assert f"vertex {overloaded.label()} has load" in err and err.rstrip().endswith("(at $.edges)")


# sha256 of CLI output for `gen-ulc --num-vars 4 --num-colors M --xi 1/2
# --seed 3` and `build-gadget --epsilon 1/8`, recorded before the direct
# writer replaced the payload dicts
CLI_FRACMATCH_SHA256 = {
    (4, "json"): "e38fc8b630f0e62fb0c56e121390a7d313d05336edab6a14e411cd392cd8696f",
    (8, "json"): "beb207bcf7e44a99d769ce3fb754284359385945f6012828115b5f8f9dfedffc",
    (10, "csv"): "67b8aa237b5f33167c1d2295cc81863c55f177fd1a144baaa18c9812a35f18ed",
}


def _cli_gadget(tmp_path, m):
    inst, gadget = tmp_path / "inst.json", tmp_path / "gadget.json"
    argv = ["gen-ulc", "--num-vars", "4", "--num-colors", str(m), "--xi", "1/2", "--seed", "3"]
    assert main([*argv, "--out", str(inst)]) == 0
    assert main(["build-gadget", "--in", str(inst), "--epsilon", "1/8", "--out", str(gadget)]) == 0
    return gadget


@pytest.mark.parametrize("m, fmt", sorted(CLI_FRACMATCH_SHA256))
def test_cli_fracmatch_bytes_are_pinned(tmp_path, m, fmt):
    out, exported = tmp_path / f"fm.{fmt}", tmp_path / f"exported.{fmt}"
    assert main(["fracmatch", "--in", str(_cli_gadget(tmp_path, m)), "--format", fmt, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CLI_FRACMATCH_SHA256[m, fmt]
    source = out
    if fmt == "csv":
        source = tmp_path / "fm.json"
        assert main(["fracmatch", "--in", str(tmp_path / "gadget.json"), "--out", str(source)]) == 0
    assert main(["export", "--in", str(source), "--format", fmt, "--out", str(exported)]) == 0
    assert exported.read_bytes() == out.read_bytes()


def _with_repeated_row(text, reverse):
    payload = json.loads(text)
    u, v, value = payload["edges"][0]
    payload["edges"].append([v, u, value] if reverse else [u, v, value])
    return payload


@pytest.mark.parametrize("reverse", [False, True])
def test_loads_rejects_a_repeated_fracmatch_row(reverse):
    fm = build_full(build_gadget(generate_yes(3, 2, xi=F(1, 4), seed=0), F(1, 4)))
    payload = _with_repeated_row(dumps(fm), reverse)
    where = f"$.edges[{len(payload['edges']) - 1}]"
    with pytest.raises(SchemaError, match="duplicate edge") as err:
        loads(canonical_json(payload))
    assert err.value.path == where


@pytest.mark.parametrize("reverse", [False, True])
def test_cli_export_rejects_a_repeated_fracmatch_row(tmp_path, capsys, reverse):
    fm = tmp_path / "fm.json"
    assert main(["fracmatch", "--in", str(_cli_gadget(tmp_path, 2)), "--out", str(fm)]) == 0
    payload = _with_repeated_row(fm.read_text(), reverse)
    edited = tmp_path / "edited.json"
    edited.write_text(canonical_json(payload))
    capsys.readouterr()
    assert main(["export", "--in", str(edited)]) == 2
    assert main(["export", "--in", str(edited), "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "duplicate edge" in captured.err and f"(at $.edges[{len(payload['edges']) - 1}])" in captured.err
    assert "Traceback" not in captured.err


def _with_a_self_loop(text):
    payload = json.loads(text)
    u, _, value = payload["edges"][0]
    payload["edges"].append([u, u, value])
    return payload


def test_loads_rejects_a_self_loop_fracmatch_row():
    fm = build_full(build_gadget(generate_yes(3, 2, xi=F(1, 4), seed=0), F(1, 4)))
    payload = _with_a_self_loop(dumps(fm))
    with pytest.raises(SchemaError, match="self-loop") as err:
        loads(canonical_json(payload))
    assert err.value.path == f"$.edges[{len(payload['edges']) - 1}]"


def test_cli_export_rejects_a_self_loop_fracmatch_row(tmp_path, capsys):
    fm = tmp_path / "fm.json"
    assert main(["fracmatch", "--in", str(_cli_gadget(tmp_path, 2)), "--out", str(fm)]) == 0
    payload = _with_a_self_loop(fm.read_text())
    edited = tmp_path / "edited.json"
    edited.write_text(canonical_json(payload))
    capsys.readouterr()
    assert main(["export", "--in", str(edited)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "self-loop" in captured.err and f"(at $.edges[{len(payload['edges']) - 1}])" in captured.err
    assert "Traceback" not in captured.err
