"""The command line's payload boundary: a malformed payload exits 2, never a traceback.

One tiny valid payload of each kind is mutated once: a key is deleted, or
the value at one key path, nested paths included, is replaced by a small
JSON value.  Every subcommand that reads a payload then runs on it in
process; each must return 0 or 2, and on 2 write exactly one ``error:`` line.
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


def assert_every_command_exits_0_or_2(path) -> None:
    """Run every command on the payload at ``path``; a refusal is one ``error:`` line.

    ``solve`` out of budget exits 2 with its report on stdout, as documented.
    """
    for command in COMMANDS:
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "build_parser", return_value=PARSER):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([command[0], "--in", str(path), *command[1:]])
        assert code in (0, 2), (command, err.getvalue())
        if code == 2 and not (command[0] == "solve" and '"status":"limit_reached"' in out.getvalue()):
            assert out.getvalue() == "", command
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (command, err.getvalue())


@pytest.mark.parametrize("kind", sorted(SEEDS))
def test_every_valid_payload_exits_0_or_2_with_one_error_line(tmp_path, kind):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(SEEDS[kind]), encoding="utf-8")
    assert_every_command_exits_0_or_2(path)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(mutated())
def test_every_malformed_payload_exits_0_or_2_with_one_error_line(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert_every_command_exits_0_or_2(path)
