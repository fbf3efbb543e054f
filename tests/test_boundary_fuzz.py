"""The command line's boundary: a malformed input exits 2, never a traceback.

One tiny valid payload of each kind is mutated once: a key is deleted, or
the value at one key path, nested paths included, is replaced by a small
JSON value.  Every subcommand that reads a payload then runs on it in
process; each must return 0 or 2, and on 2 write exactly one ``error:`` line.
Every lemma parameter is fuzzed the same way with short ``--param`` texts.
"""

import contextlib
import io
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmmkit import cli
from mmmkit.bipartite import bipartise, random_planted_biclique, sseh_gadget
from mmmkit.blowup import BlowupVertex, blow_up
from mmmkit.fracmatch import build_full
from mmmkit.gadget import GadgetVertex, build_gadget
from mmmkit.graphs import Graph
from mmmkit.lemmas import LEMMAS
from mmmkit.serialize import dumps, sseh_to_payload, to_payload
from mmmkit.ulc import generate_yes

F = Fraction


def _seeds() -> dict:
    """One small valid payload of every kind the command line reads."""
    instance = generate_yes(3, 2, seed=0)
    gadget = build_gadget(instance, F(1, 4))
    graph = Graph(
        vertices=[0, "a", (1, "b"), GadgetVertex(0, 0b10), BlowupVertex(GadgetVertex(1, 0b01), 0)],
        edges=[(0, "a"), ("a", (1, "b")), ((1, "b"), GadgetVertex(0, 0b10))],
    )
    original, planted_a, planted_b = random_planted_biclique(4, F(1, 4), seed=0)
    return {
        "ulc_instance": to_payload(instance),
        "gadget_graph": to_payload(gadget),
        "blowup_graph": to_payload(blow_up(gadget, F(2))),
        "fractional_matching": json.loads(dumps(build_full(gadget))),
        "graph": to_payload(graph),
        "bipartite": to_payload(bipartise(Graph(vertices=[0, 1, 2], edges=[(0, 1), (1, 2)])).to_bipartite()),
        "sseh_gadget": sseh_to_payload(sseh_gadget(original, F(1, 4)), planted_a, planted_b),
    }


SEEDS = _seeds()
COMMANDS = (
    ("build-gadget", "--epsilon", "1/4"),
    ("fracmatch",),
    ("blowup", "--rho", "1"),
    ("bipartise",),
    *(("solve", problem, "--budget", "1000") for problem in ("mmm", "vc", "mbb")),
    *(("export", "--format", fmt) for fmt in ("json", "dot", "csv")),
)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([0, 1, 2, -1, 10**18, -(10**18)]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=4),
    st.sampled_from(["1/0", "-1/2", "1/3", "a\nb", "mmmkit/1", "mmmkit/2", "graph", "bipartite", "l", "r"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    # objects shaped like the vertex encodings, any subset of their keys
    st.fixed_dictionaries(
        {}, optional=dict.fromkeys(("kind", "variable", "colors", "base", "copy", "side", "tuple"), SCALARS)
    ),
)


@st.composite
def mutated(draw):
    """A copy of one seed payload with one key deleted or one value replaced.

    The key is found by descending from the top one level at a time, so
    the few top-level keys are not drowned out by the rows of a long list.
    """
    payload = json.loads(json.dumps(SEEDS[draw(st.sampled_from(sorted(SEEDS)))]))
    holder = payload
    while True:
        key = draw(st.sampled_from(sorted(holder) if isinstance(holder, dict) else range(len(holder))))
        if not (isinstance(holder[key], (dict, list)) and holder[key] and draw(st.booleans())):
            break
        holder = holder[key]
    if isinstance(holder, dict) and draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = draw(VALUES)
    return payload


PARSER = cli.build_parser()  # built once: building it is most of the cost of a call


def assert_every_command_exits_0_or_2(path) -> list[int]:
    """Run every command on the payload at ``path``; a refusal is one ``error:`` line.

    ``solve`` out of budget exits 2 with its report on stdout, as documented.
    Gives the exit statuses in command order.
    """
    codes = []
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "build_parser", return_value=PARSER):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command[0], "--in", str(path), *command[1:]])
        assert code in (0, 2), (command, err.getvalue())
        if code == 2 and not (command[0] == "solve" and '"status":"limit_reached"' in out.getvalue()):
            assert out.getvalue() == "", command
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (command, err.getvalue())
        codes.append(code)
    return codes


@pytest.mark.parametrize("kind", sorted(SEEDS))
def test_every_valid_payload_exits_0_or_2_with_one_error_line(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(SEEDS[kind]), encoding="utf-8")
    assert_every_command_exits_0_or_2(path)


def _broken_sseh_bundles() -> dict:
    """The seed bundle (n = 4, eps = 1/4, one planted pair) with one part broken."""
    bundle = SEEDS["sseh_gadget"]
    original, gadget = bundle["original"], bundle["gadget"]
    left, right = original["left"], original["right"]
    plant = [bundle["planted_a"][0][1], bundle["planted_b"][0][1]]  # the planted pair's side indices
    spare = next(i for i in range(4) if i != plant[0])
    non_edge = next([i, j] for i in range(4) for j in range(4) if [i, j] not in original["edges"])
    other_edge = next(e for e in original["edges"] if e != plant)
    pads = len(gadget["left"]) - 1  # the last pad vertex of each side
    cases = {
        "original-not-an-object": {"original": 5, "planted_a": "x"},
        "original-empty": {"original": {**original, "left": [], "right": [], "edges": []}},
        "original-sides-unequal": {
            "original": {**original, "right": right[:3], "edges": [e for e in original["edges"] if e[1] < 3]}
        },
        "planted-a-not-a-list": {"planted_a": "x"},
        "planted-a-on-the-right": {"planted_a": bundle["planted_b"]},
        "planted-a-repeated": {"planted_a": bundle["planted_a"] * 2, "planted_b": bundle["planted_b"] * 2},
        "planted-sides-unequal": {"planted_a": [*bundle["planted_a"], ["a", spare]]},
        "planted-pair-not-an-edge": {"planted_a": [left[non_edge[0]]["tuple"]], "planted_b": [right[non_edge[1]]["tuple"]]},
        "original-edge-dropped": {"original": {**original, "edges": [e for e in original["edges"] if e != other_edge]}},
        "gadget-edge-dropped": {"gadget": {**gadget, "edges": gadget["edges"][:-1]}},
        "gadget-pad-too-small": {
            "gadget": {
                **gadget,
                "left": gadget["left"][:pads],
                "right": gadget["right"][:pads],
                "edges": [e for e in gadget["edges"] if e[0] < pads and e[1] < pads],
            }
        },
    }
    return {name: {**bundle, **change} for name, change in cases.items()}


BROKEN_SSEH = _broken_sseh_bundles()


@pytest.mark.parametrize("case", sorted(BROKEN_SSEH))
def test_every_command_refuses_a_broken_sseh_bundle(tmp_path, case):
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(BROKEN_SSEH[case]), encoding="utf-8")
    assert assert_every_command_exits_0_or_2(path) == [2] * len(COMMANDS)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(mutated())
def test_every_malformed_payload_exits_0_or_2_with_one_error_line(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert_every_command_exits_0_or_2(path)


LEMMA_PARAMS = [(lemma_id, key) for lemma_id, (_, spec) in LEMMAS.items() for key in spec]
# a stub for every lemma, so only the parsing and the spec check run: a valid
# value may be far too large for the lemma itself
STUBBED = {lemma_id: (lambda p: [], spec) for lemma_id, (_, spec) in LEMMAS.items()}


@pytest.mark.parametrize("lemma_id, key", LEMMA_PARAMS)
@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(text=st.text(alphabet="0123456789+-/._eE ainfrtux²٣", max_size=6))
def test_every_lemma_parameter_text_exits_0_or_2_naming_the_parameter(lemma_id, key, text):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(LEMMAS, STUBBED), mock.patch.object(cli, "build_parser", return_value=PARSER):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify-lemma", lemma_id, "--param", f"{key}={text}"])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith(f"error: lemma {lemma_id} parameter {key} wants "), err.getvalue()
        assert err.getvalue().count("\n") == 1
