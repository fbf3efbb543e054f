import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from mmmkit.cli import main
from mmmkit.experiment import ExperimentConfig, run_experiment
from mmmkit.gadget import MAX_GADGET_VERTICES
from mmmkit.graphs import MAX_GRAPH_SIZE, Graph, random_graph, verify_maximal_matching
from mmmkit.lemmas import Check, LemmaReport, lemma_ids, verify_lemma
from mmmkit.solvers import MAX_MMM_EDGES
from mmmkit.serialize import SCHEMA, SchemaError, canonical_json, graph_to_payload

F = Fraction


# -- lemma harness ---------------------------------------------------------


def test_lemma_registry_is_complete():
    assert lemma_ids() == (
        "is-weight",
        "weighted-yes",
        "weighted-no",
        "saturation",
        "blowup-completeness",
        "blowup-soundness",
        "path-cover",
        "sseh-yes",
        "sseh-no",
        "total-vc",
    )


@pytest.mark.parametrize("lemma_id", lemma_ids())
def test_every_lemma_passes_with_defaults(lemma_id):
    report = verify_lemma(lemma_id)
    assert report.ok, report.render_text()
    assert report.lemma == lemma_id
    assert report.checks
    assert report.runtime_s >= 0


def test_saturation_lemma_reaches_nine_colours():
    report = verify_lemma("saturation", {"num_colors": 9})
    assert report.ok, report.render_text()


def test_blowup_completeness_reaches_eight_colours():
    report = verify_lemma("blowup-completeness", {"num_colors": 8, "num_vars": 4, "xi": "1/2"})
    assert report.ok, report.render_text()


def test_verify_lemma_param_override():
    report = verify_lemma("is-weight", {"seed": 3, "epsilon": "1/8"})
    assert report.ok
    assert report.params["seed"] == 3
    assert report.params["epsilon"] == "1/8"
    # untouched defaults survive the merge
    assert report.params["num_vars"] == 4


def test_verify_lemma_rejects_unknown():
    with pytest.raises(ValueError):
        verify_lemma("flux-capacitor")
    with pytest.raises(ValueError):
        verify_lemma("is-weight", {"warp": 9})


@pytest.mark.parametrize(
    "lemma_id, params",
    [
        ("is-weight", {"xi": "1/2", "epsilon": 0.125, "num_colors": 3}),
        ("saturation", {"xi": F(1, 2), "seed": 2**31 - 1}),
        ("path-cover", {"p": 1, "exact": 0, "trials": 1}),
        ("path-cover", {"p": F(1, 3), "exact": False}),
    ],
)
def test_lemma_parameters_of_every_kind_pass(lemma_id, params):
    assert verify_lemma(lemma_id, params).ok


@pytest.mark.parametrize(
    "lemma_id, key, value, wants",
    [
        ("is-weight", "num_vars", True, "an int >= 1"),
        ("is-weight", "num_colors", 2.0, "an int >= 1"),
        ("is-weight", "seed", -1, "an int >= 0"),
        ("is-weight", "epsilon", "1/0", "a rational such as 1/8"),
        ("is-weight", "xi", float("nan"), "a rational such as 1/8"),
        ("blowup-soundness", "rho", None, "a rational such as 1/8"),
        ("path-cover", "p", 1.5, "a number in [0, 1]"),
        ("path-cover", "p", float("nan"), "a number in [0, 1]"),
        ("path-cover", "exact", "false", "true, false, 0 or 1"),
        ("total-vc", "trials", 0, "an int >= 1"),
    ],
)
def test_verify_lemma_refuses_a_parameter_outside_its_kind(lemma_id, key, value, wants):
    with pytest.raises(ValueError) as raised:
        verify_lemma(lemma_id, {key: value})
    assert str(raised.value) == f"lemma {lemma_id} parameter {key} wants {wants}, got {value!r}"


def test_report_rendering_and_payload():
    report = LemmaReport(
        lemma="demo",
        params={"epsilon": F(1, 4), "seed": 0},
        checks=(Check("first", True, "fine"), Check("second", False, "broke")),
        runtime_s=0.5,
    )
    assert not report.ok
    text = report.render_text()
    assert text.splitlines()[0] == "lemma demo: FAILED"
    assert "  [PASS] first: fine" in text
    assert "  [FAIL] second: broke" in text
    payload = report.to_payload()
    assert payload["schema"] == SCHEMA
    assert payload["ok"] is False
    assert payload["params"] == {"epsilon": "1/4", "seed": 0}
    assert "runtime" not in canonical_json(payload)


# -- experiments -----------------------------------------------------------


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.create("x", "no-such-lemma", {"seed": [0]})
    with pytest.raises(ValueError):
        ExperimentConfig.create("x", "is-weight", {})
    with pytest.raises(ValueError):
        ExperimentConfig.create("x", "is-weight", {"seed": []})


def test_experiment_points_cartesian_order():
    config = ExperimentConfig.create(
        "sweep", "is-weight", {"seed": [0, 1], "epsilon": ["1/4", "1/8"]}, fixed={"num_vars": 3}
    )
    points = list(config.points())
    assert len(points) == 4
    # grid keys are sorted, so epsilon varies slowest
    assert points[0] == {"num_vars": 3, "epsilon": "1/4", "seed": 0}
    assert points[1] == {"num_vars": 3, "epsilon": "1/4", "seed": 1}
    assert points[2]["epsilon"] == "1/8"


def test_run_experiment_rows_and_csv():
    config = ExperimentConfig.create("sweep", "is-weight", {"seed": [0, 1]})
    result = run_experiment(config)
    assert result.ok
    assert len(result.rows) == 2
    assert result.rows[0]["ok"] == "yes"
    assert result.rows[0]["failed_checks"] == ""
    csv_text = result.to_csv()
    assert csv_text.splitlines()[0] == "seed,ok,failed_checks"
    assert result.to_csv() == run_experiment(config).to_csv()
    assert result.to_json() == run_experiment(config).to_json()


def test_experiment_config_payload_round_trip():
    config = ExperimentConfig.create("sweep", "is-weight", {"seed": [0, 1]}, fixed={"xi": "1/4"})
    again = ExperimentConfig.from_payload(config.to_payload())
    assert again == config
    with pytest.raises(SchemaError, match="missing key 'name'"):
        ExperimentConfig.from_payload({"schema": SCHEMA, "kind": "experiment_config"})
    with pytest.raises(SchemaError, match="expected kind 'experiment_config', got 'other'"):
        ExperimentConfig.from_payload({"kind": "other"})
    with pytest.raises(SchemaError, match="grid must be an object of value lists"):
        ExperimentConfig.from_payload(
            {"schema": SCHEMA, "kind": "experiment_config", "name": "x", "lemma": "is-weight", "grid": []}
        )
    with pytest.raises(SchemaError, match="unsupported schema 'mmmkit/0'"):
        ExperimentConfig.from_payload(dict(config.to_payload(), schema="mmmkit/0"))


# -- command line ----------------------------------------------------------


def run_cli(*argv):
    return main(list(argv))


def test_cli_pipeline(tmp_path):
    inst = tmp_path / "inst.json"
    gadget = tmp_path / "gadget.json"
    fm_csv = tmp_path / "fm.csv"
    blowup = tmp_path / "blowup.json"

    assert run_cli(
        "gen-ulc", "--num-vars", "3", "--num-colors", "2", "--seed", "0", "--out", str(inst)
    ) == 0
    payload = json.loads(inst.read_text())
    assert payload["kind"] == "ulc_instance"
    assert payload["num_vars"] == 3

    assert run_cli(
        "build-gadget", "--in", str(inst), "--epsilon", "1/4", "--out", str(gadget)
    ) == 0
    assert json.loads(gadget.read_text())["kind"] == "gadget_graph"

    assert run_cli(
        "fracmatch", "--in", str(gadget), "--format", "csv", "--out", str(fm_csv)
    ) == 0
    lines = fm_csv.read_text().splitlines()
    assert lines[0] == "u,v,value"
    assert len(lines) > 1

    assert run_cli(
        "blowup", "--in", str(gadget), "--rho", "1/2", "--out", str(blowup)
    ) == 0
    assert json.loads(blowup.read_text())["kind"] == "blowup_graph"


def _instance_file(tmp_path):
    inst = tmp_path / "inst.json"
    assert run_cli("gen-ulc", "--num-vars", "4", "--num-colors", "3", "--seed", "0", "--out", str(inst)) == 0
    return inst


def _gadget_file(tmp_path):
    gadget = tmp_path / "gadget.json"
    inst = _instance_file(tmp_path)
    assert run_cli("build-gadget", "--in", str(inst), "--epsilon", "1/4", "--out", str(gadget)) == 0
    return gadget


def test_cli_blows_up_the_largest_gadget_lazily_and_refuses_to_list_it(tmp_path, capsys):
    inst, gadget = tmp_path / "inst.json", tmp_path / "gadget.json"
    # 4 clouds of 2^19 vertices: a gadget at the vertex cap
    assert run_cli("gen-ulc", "--num-vars", "4", "--num-colors", "19", "--out", str(inst)) == 0
    assert run_cli("build-gadget", "--in", str(inst), "--epsilon", "1/4", "--out", str(gadget)) == 0
    blowup = tmp_path / "blowup.json"
    payload = {"schema": SCHEMA, "kind": "blowup_graph", "gadget": json.loads(gadget.read_text()), "rho": "1"}
    capsys.readouterr()
    start = time.perf_counter()
    assert run_cli("blowup", "--in", str(gadget), "--rho", "1", "--out", str(blowup)) == 0
    assert blowup.read_text() == canonical_json(payload) + "\n"
    assert run_cli("export", "--in", str(blowup)) == 0
    assert run_cli("solve", "vc", "--in", str(blowup)) == 2
    assert time.perf_counter() - start < 5
    captured = capsys.readouterr()
    assert captured.out == canonical_json(payload) + "\n"
    assert captured.err == (
        f"error: graph with 7661920 vertices and 7267691204928 edges exceeds the size cap {MAX_GRAPH_SIZE}\n"
    )


def _run_capped(*argv):
    """``mmmkit`` run with ``argv`` in a fresh interpreter held to 1 GiB of
    address space; the finished process and its wall time in seconds."""
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from mmmkit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    return done, time.perf_counter() - start


@pytest.fixture(scope="module")
def oversized(tmp_path_factory):
    """Input files for the oversized-graph refusals: 3-variable gadgets at
    11 colours (6,144 vertices, 797,160 edges, under the size cap while its
    double is over it) and at 13 colours (24,576 vertices, 7,174,452 edges); over a 3-variable 30-colour
    instance a gadget and two fractional matchings, with one row and with
    none; an edgeless 4-variable 19-colour base-flavour gadget (2^21
    vertices, no edge); and two blowups of a 5-variable complete 2-colour
    gadget, of 2,000 copies and 1,631,760 edges at rho 1/25, and of 8,840
    copies and 31,841,040 edges at rho 1/110."""
    tmp = tmp_path_factory.mktemp("oversized")
    names = ("ulc11", "gadget11", "ulc13", "gadget13", "ulc30", "gadget30", "fm30-empty", "fm30-row",
             "edgeless19", "ulc5", "gadget5", "blowup25", "blowup110")
    paths = {name: tmp / f"{name}.json" for name in names}
    for colors in ("11", "13"):
        assert run_cli("gen-ulc", "--num-vars", "3", "--num-colors", colors, "--xi", "1/3", "--seed", "7",
                       "--out", str(paths[f"ulc{colors}"])) == 0
        assert run_cli("build-gadget", "--in", str(paths[f"ulc{colors}"]), "--epsilon", "1/8",
                       "--out", str(paths[f"gadget{colors}"])) == 0
    assert run_cli("gen-ulc", "--num-vars", "3", "--num-colors", "30", "--out", str(paths["ulc30"])) == 0
    gadget = {"schema": SCHEMA, "kind": "gadget_graph", "instance": json.loads(paths["ulc30"].read_text()),
              "epsilon": "1/4", "flavor": "extended"}
    paths["gadget30"].write_text(canonical_json(gadget))
    row = [{"colors": [0], "variable": 0}, {"colors": [1], "variable": 0}, "1/1000"]
    for name, rows in (("fm30-empty", []), ("fm30-row", [row])):
        fm = {"schema": SCHEMA, "kind": "fractional_matching", "gadget": gadget, "edges": rows}
        paths[name].write_text(canonical_json(fm))
    edgeless = {"schema": SCHEMA, "kind": "gadget_graph", "epsilon": "1/4", "flavor": "base",
                "instance": {"schema": SCHEMA, "kind": "ulc_instance", "num_vars": 4, "num_colors": 19,
                             "edges": [], "constraints": []}}
    paths["edgeless19"].write_text(canonical_json(edgeless))
    assert run_cli("gen-ulc", "--num-vars", "5", "--num-colors", "2", "--topology", "complete", "--seed", "0",
                   "--out", str(paths["ulc5"])) == 0
    assert run_cli("build-gadget", "--in", str(paths["ulc5"]), "--epsilon", "1/4", "--out", str(paths["gadget5"])) == 0
    for rho in ("25", "110"):
        assert run_cli("blowup", "--in", str(paths["gadget5"]), "--rho", f"1/{rho}",
                       "--out", str(paths[f"blowup{rho}"])) == 0
    return paths


def _assert_refused_with_one_line(oversized, argv, message):
    # a graph that did get listed or walked would fail in the capped
    # interpreter instead of filling this machine
    done, seconds = _run_capped(*(str(oversized[a[1:]]) if a.startswith("@") else a for a in argv))
    assert seconds < 5
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


def _too_big(n_vertices, n_edges):
    return f"graph with {n_vertices} vertices and {n_edges} edges exceeds the size cap {MAX_GRAPH_SIZE}"


EDGES_13 = _too_big(24_576, 7_174_452)
BLOWUP_25 = _too_big(2_000, 1_631_760)
BLOWUP_110 = _too_big(8_840, 31_841_040)
VERTICES_30 = f"gadget with {3 * 2**30} vertices exceeds the cap {MAX_GADGET_VERTICES}"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "vc", "--in", "@gadget13", "--budget", "10"), EDGES_13),
        (("solve", "mmm", "--in", "@gadget13", "--budget", "10"), EDGES_13),
        (("bipartise", "--in", "@gadget13"), _too_big(49_152, 14_348_904)),
        (("verify-lemma", "weighted-yes", "--param", "num_colors=14"), _too_big(65_536, 28_697_812)),
        (("verify-lemma", "is-weight", "--param", "num_colors=24"),
         f"gadget with {4 * 2**24} vertices exceeds the cap {MAX_GADGET_VERTICES}"),
        (("export", "--in", "@fm30-row"), VERTICES_30),
        (("export", "--in", "@fm30-empty"), VERTICES_30),
        (("build-gadget", "--in", "@ulc30", "--epsilon", "1/4"), VERTICES_30),
        (("fracmatch", "--in", "@gadget30"), VERTICES_30),
    ],
    ids=["solve-vc-13", "solve-mmm-13", "bipartise-13", "weighted-yes-14", "is-weight-24", "export-fm-row-30",
         "export-fm-empty-30", "build-gadget-30", "fracmatch-30"],
)
def test_cli_refuses_an_oversized_gadget_with_one_line(oversized, argv, message):
    _assert_refused_with_one_line(oversized, argv, message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("solve", "vc", "--in", "@edgeless19"), _too_big(2**21, 0)),
        (("bipartise", "--in", "@blowup25"), _too_big(4_000, 3_263_520)),
        (("bipartise", "--in", "@gadget11"), _too_big(12_288, 1_594_320)),
        (("solve", "vc", "--in", "@blowup25", "--budget", "10"), BLOWUP_25),
        (("export", "--in", "@blowup110", "--format", "dot"), BLOWUP_110),
        (("blowup", "--in", "@gadget5", "--rho", "1/110", "--format", "dot"), BLOWUP_110),
        (("sseh", "--n", "1200", "--epsilon", "1/4"), _too_big(2_400, 1_440_000)),
        (("sseh", "--n", "2000", "--epsilon", "1/4"), _too_big(4_000, 4_000_000)),
        (("verify-lemma", "path-cover", "--param", "n=2000", "--param", "p=0.5"), _too_big(4_000, 1_999_688)),
        (("verify-lemma", "path-cover", "--param", "n=10000", "--param", "p=0.5"), _too_big(10_000, 1_039_728)),
        (("verify-lemma", "total-vc", "--param", "rho=1/100000"), _too_big(4_800_000, 8_910_000_000_000)),
    ],
    ids=["solve-vc-edgeless-19", "bipartise-blowup-25", "bipartise-gadget-11", "solve-vc-blowup-25",
         "export-dot-blowup-110", "blowup-dot-110", "sseh-1200", "sseh-2000", "path-cover-2000",
         "path-cover-10000", "total-vc-rho-1e-5"],
)
def test_cli_refuses_an_oversized_graph_with_one_line(oversized, argv, message):
    # every graph is counted before it is listed, by vertices plus edges
    _assert_refused_with_one_line(oversized, argv, message)


def test_cli_solve_mmm_refuses_a_ten_colour_gadget_before_its_edge_masks(tmp_path):
    inst, gadget = tmp_path / "inst.json", tmp_path / "gadget.json"
    assert run_cli("gen-ulc", "--num-vars", "3", "--num-colors", "10", "--xi", "1/3", "--seed", "7",
                   "--out", str(inst)) == 0
    assert run_cli("build-gadget", "--in", str(inst), "--epsilon", "1/8", "--out", str(gadget)) == 0
    # 265,719 edges: the two edge-mask tables alone would take about 17 GB
    done, seconds = _run_capped("solve", "mmm", "--in", str(gadget), "--budget", "1")
    assert seconds < 10
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr == (
        f"error: exact_mmm keeps two masks per edge and takes at most {MAX_MMM_EDGES} edges, not 265719\n"
    )


def test_exact_mmm_refuses_a_graph_over_its_edge_bound(monkeypatch):
    from mmmkit import solvers

    graph = random_graph(8, 0.5, seed=1)
    n_edges = len(list(graph.edges()))
    monkeypatch.setattr(solvers, "MAX_MMM_EDGES", n_edges)
    assert solvers.exact_mmm(graph).optimal
    monkeypatch.setattr(solvers, "MAX_MMM_EDGES", n_edges - 1)
    with pytest.raises(ValueError, match=f"at most {n_edges - 1} edges, not {n_edges}"):
        solvers.exact_mmm(graph)


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sseh", "--n", "0", "--epsilon", "1/4"), "n = 0"),
        (("sseh", "--n", "-4", "--epsilon", "1/4"), "n = -4"),
        (("gen-ulc", "--num-vars", "4", "--num-colors", "2", "--p-edge", "7"), "got 7.0"),
        (("gen-ulc", "--num-vars", "4", "--num-colors", "2", "--p-edge", "-1"), "got -1.0"),
        (("gen-ulc", "--num-vars", "4", "--num-colors", "2", "--p-edge", "nan"), "got nan"),
        (("gen-ulc", "--num-vars", "4", "--num-colors", "2", "--topology", "random", "--p-edge", "nan"), "got nan"),
    ],
)
def test_cli_generators_refuse_out_of_range_inputs(tmp_path, capsys, argv, message):
    out = tmp_path / "out.json"
    assert run_cli(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and message in err
    assert not out.exists()


def test_cli_sseh_bundles_read_back(tmp_path, capsys):
    from mmmkit.serialize import loads

    written = 0
    for n in range(1, 13):
        for eps in ("1/8", "1/4", "3/8"):
            out = tmp_path / f"sseh-{n}-{eps.replace('/', '_')}.json"
            if run_cli("sseh", "--n", str(n), "--epsilon", eps, "--out", str(out)) != 0:
                assert not out.exists()
                continue
            written += 1
            padded = loads(out.read_text())  # the bundle reads back as its padded graph
            assert len(padded.left) == len(padded.right) == n + (F(1, 2) + F(eps)) * n
    capsys.readouterr()
    assert written == 5  # (1/2 - eps) n is whole at n = 8 for every eps, and at 4 and 12 for 1/4


def _edited_copy(path, edit, *keys):
    """A copy of a JSON file with ``edit`` applied to the object at ``keys``."""
    payload = json.loads(path.read_text())
    node = payload
    for key in keys:
        node = node[key]
    edit(node)
    out = path.with_name("edited-" + path.name)
    out.write_text(canonical_json(payload))
    return out


def _assert_planted_rejected(tmp_path, capsys, edit_planted, message):
    """A bad plant stops build-gadget at the instance, and fracmatch at the
    instance inside a gadget file, each with exit 2 and the same message."""
    gadget = _gadget_file(tmp_path)
    inst = _edited_copy(tmp_path / "inst.json", edit_planted, "planted")
    capsys.readouterr()
    assert run_cli("build-gadget", "--in", str(inst), "--epsilon", "1/4") == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert run_cli("fracmatch", "--in", str(_edited_copy(gadget, edit_planted, "instance", "planted"))) == 2
    assert message in capsys.readouterr().err


def test_cli_fracmatch_ignores_strategy(tmp_path):
    gadget = _gadget_file(tmp_path)
    plain, uniform = tmp_path / "plain.json", tmp_path / "uniform.json"
    assert run_cli("fracmatch", "--in", str(gadget), "--out", str(plain)) == 0
    assert run_cli(
        "fracmatch", "--in", str(gadget), "--strategy", "uniform", "--out", str(uniform)
    ) == 0
    assert plain.read_bytes() == uniform.read_bytes()


def test_cli_fracmatch_rejects_planted_label_out_of_range(tmp_path, capsys):
    def relabel(planted):
        planted["labelling"][planted["core"][0]] = 7

    _assert_planted_rejected(tmp_path, capsys, relabel, "planted labelling")


@pytest.mark.parametrize("label", [-1, 1.0, True])
def test_cli_build_gadget_rejects_planted_label_of_wrong_value_or_type(tmp_path, capsys, label):
    def relabel(planted):
        planted["labelling"][0] = label

    _assert_planted_rejected(tmp_path, capsys, relabel, "planted labelling")


def test_cli_fracmatch_rejects_unknown_core_variable(tmp_path, capsys):
    _assert_planted_rejected(tmp_path, capsys, lambda planted: planted["core"].append(9), "planted core")


def test_cli_fracmatch_rejects_core_inconsistent_with_labelling(tmp_path, capsys):
    def relabel(planted):
        x = planted["core"][0]
        planted["labelling"][x] = (planted["labelling"][x] + 1) % 3

    _assert_planted_rejected(tmp_path, capsys, relabel, "planted core edge")


@pytest.mark.parametrize(
    "keys, field, value, message",
    [
        ((), "num_vars", "4", "num_vars must be an integer"),
        ((), "num_colors", True, "num_colors must be an integer"),
        ((), "edges", 5, "edges must be a list"),
        ((), "constraints", {}, "constraints must be a list"),
        (("edges",), 0, ["0", 1], "edge must be a pair of integers"),
        (("constraints",), 0, 5, "constraint must be a list of integers"),
        (("constraints",), 0, ["x", 1, 2], "constraint must be a list of integers"),
        (("planted",), "labelling", "0120", "labelling must be a list"),
        (("planted",), "core", 5, "core must be a list"),
        (("planted",), "core", [[0]], "core members must be integers"),
    ],
)
def test_cli_build_gadget_rejects_mistyped_instance_fields(tmp_path, capsys, keys, field, value, message):
    inst = _edited_copy(_instance_file(tmp_path), lambda node: node.__setitem__(field, value), *keys)
    capsys.readouterr()
    assert run_cli("build-gadget", "--in", str(inst), "--epsilon", "1/4") == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_cli_fracmatch_validates_before_writing(tmp_path, capsys, monkeypatch):
    import mmmkit.fracmatch
    from mmmkit.fracmatch import build_full

    def overloaded(gadget):
        fm = build_full(gadget)
        u, v = fm.support()[0][:2]
        fm.add(u, v, F(1, 3))  # past the edge's capacity
        return fm

    monkeypatch.setattr(mmmkit.fracmatch, "build_full", overloaded)
    gadget = _gadget_file(tmp_path)
    capsys.readouterr()
    for fmt in ("json", "csv"):
        out = tmp_path / f"fm.{fmt}"
        assert run_cli("fracmatch", "--in", str(gadget), "--format", fmt, "--out", str(out)) == 1
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "nothing written" in captured.err and "over its capacity" in captured.err


def _graph_file(tmp_path, vertices, edges, kind="graph"):
    payload = {"schema": SCHEMA, "kind": kind, "edges": edges}
    payload.update(vertices)
    path = tmp_path / f"{kind}.json"
    path.write_text(canonical_json(payload))
    return path


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        ({"vertices": [0, 1, 2]}, [[0, -1]], "edge index -1 out of range"),
        ({"vertices": [0, 1, 2]}, [[0, 3]], "edge index 3 out of range"),
        ({"vertices": [0, 1, 2]}, [[0, True]], "edge index must be an integer, got bool"),
        ({"vertices": [0, 1, 2]}, [[0, 1.0]], "edge index must be an integer, got float"),
        ({"vertices": [0, 1, 2]}, [[0, "1"]], "edge index must be an integer, got str"),
        ({"vertices": ["a", "a", "b"]}, [[0, 2]], "duplicate vertex 'a'"),
        ({"vertices": [{"variable": [0], "colors": []}]}, [], "is not hashable"),
        ({"vertices": 5}, [], "vertices must be a list"),
        ({"vertices": [0, 1]}, 5, "edges must be a list"),
        ({"vertices": [{"base": 0, "copy": 1}]}, [], "a blowup vertex's base must be a gadget vertex (at $.vertices[0].base)"),
    ],
)
def test_cli_solve_rejects_malformed_graph_payloads(tmp_path, capsys, vertices, edges, message):
    path = _graph_file(tmp_path, vertices, edges)
    assert run_cli("solve", "mmm", "--in", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "sides, edges, message",
    [
        ({"left": [0, 1], "right": [2, 3]}, [[0, -1]], "edge index -1 out of range"),
        ({"left": [0, 1], "right": [2]}, [[1, 1]], "edge index 1 out of range"),
        ({"left": [0, 1], "right": [2, 3]}, [[False, 0]], "edge index must be an integer, got bool"),
        ({"left": [0, 0], "right": [2, 3]}, [[0, 0]], "duplicate vertex 0"),
        ({"left": [0, 1], "right": [1, 3]}, [[0, 0]], "duplicate vertex 1"),
        ({"left": 5, "right": [2, 3]}, [], "left must be a list"),
        ({"left": [0, 1], "right": "23"}, [], "right must be a list"),
    ],
)
def test_cli_solve_rejects_malformed_bipartite_payloads(tmp_path, capsys, sides, edges, message):
    path = _graph_file(tmp_path, sides, edges, kind="bipartite")
    assert run_cli("solve", "mbb", "--in", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


def test_cli_gen_ulc_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ("gen-ulc", "--num-vars", "4", "--num-colors", "3", "--xi", "1/4", "--seed", "7")
    assert run_cli(*args, "--out", str(a)) == 0
    assert run_cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_build_gadget_dot(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli("gen-ulc", "--num-vars", "3", "--num-colors", "2", "--out", str(inst))
    assert run_cli("build-gadget", "--in", str(inst), "--epsilon", "1/4", "--format", "dot") == 0
    out = capsys.readouterr().out
    assert out.startswith("graph gadget {")
    assert 'weight="1/16"' in out


def test_cli_solve_mmm(tmp_path, capsys):
    g = Graph(vertices=range(3), edges=[(0, 1), (1, 2)])
    path = tmp_path / "g.json"
    path.write_text(canonical_json(graph_to_payload(g)))
    assert run_cli("solve", "mmm", "--in", str(path)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "1"
    assert out["status"] == "optimal"
    assert len(out["witness"]) == 1


def test_cli_solve_budget_exhausted(tmp_path, capsys):
    g = Graph(vertices=range(4), edges=[(0, 1), (1, 2), (2, 3)])
    path = tmp_path / "g.json"
    path.write_text(canonical_json(graph_to_payload(g)))
    assert run_cli("solve", "mmm", "--in", str(path), "--budget", "0") == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "limit_reached"


def test_cli_solve_has_a_default_budget(tmp_path, capsys):
    # this search needs more than a million nodes; the default budget stops it
    g = random_graph(40, 0.5, seed=0)
    path = tmp_path / "g.json"
    path.write_text(canonical_json(graph_to_payload(g)))
    assert run_cli("solve", "mmm", "--in", str(path)) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "limit_reached"
    assert out["nodes"] == 1_000_000


@pytest.mark.parametrize("problem", ["mmm", "vc", "mbb"])
def test_cli_solve_rejects_payloads_that_are_not_graphs(tmp_path, capsys, problem):
    inst = _instance_file(tmp_path)
    fm = tmp_path / "fm.json"
    assert run_cli("fracmatch", "--in", str(_gadget_file(tmp_path)), "--out", str(fm)) == 0
    capsys.readouterr()
    for path, kind in ((inst, "ulc_instance"), (fm, "fractional_matching")):
        assert run_cli("solve", problem, "--in", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: solve {problem} needs a graph payload, got {kind}" in captured.err
        assert "Traceback" not in captured.err


@pytest.fixture(scope="module")
def payload_files(tmp_path_factory):
    """One file of each payload kind the pipeline writes, by kind."""
    tmp_path = tmp_path_factory.mktemp("payloads")
    gadget = _gadget_file(tmp_path)
    files = {"ulc_instance": tmp_path / "inst.json", "gadget_graph": gadget}
    for kind, argv in (
        ("blowup_graph", ("blowup", "--in", str(gadget), "--rho", "1")),
        ("fractional_matching", ("fracmatch", "--in", str(gadget))),
        ("sseh_gadget", ("sseh", "--n", "4", "--epsilon", "1/4")),
    ):
        files[kind] = tmp_path / f"{kind}.json"
        assert run_cli(*argv, "--out", str(files[kind])) == 0
    return files


@pytest.mark.parametrize("kind", ["ulc_instance", "fractional_matching"])
def test_cli_bipartise_refuses_payloads_that_are_not_graphs(payload_files, capsys, kind):
    assert run_cli("bipartise", "--in", str(payload_files[kind])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bipartise needs a graph payload, got {kind} (at $.kind)\n"


@pytest.mark.parametrize("command", [("bipartise",), ("solve", "mmm")])
def test_cli_quotes_a_refused_kind_that_is_not_a_plain_name(tmp_path, capsys, command):
    path = tmp_path / "odd.json"
    path.write_text(canonical_json({"schema": SCHEMA, "kind": "a\nb"}))
    assert run_cli(command[0], *command[1:], "--in", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {' '.join(command)} needs a graph payload, got 'a\\nb' (at $.kind)\n"


@pytest.mark.parametrize("kind, name", [("ulc_instance", "UlcInstance"), ("fractional_matching", "FractionalMatching")])
def test_cli_export_refuses_dot_for_payloads_that_are_not_graphs(payload_files, capsys, kind, name):
    assert run_cli("export", "--in", str(payload_files[kind]), "--format", "dot") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: DOT output is defined for graphs only, not {name}\n"


SCHEMA_EDITS = {"wrong": lambda node: node.__setitem__("schema", "mmmkit/0"), "missing": lambda node: node.pop("schema")}


@pytest.mark.parametrize("edit", sorted(SCHEMA_EDITS))
@pytest.mark.parametrize(
    "command, kind, keys",
    [
        (("build-gadget", "--epsilon", "1/4"), "ulc_instance", ()),
        (("fracmatch",), "gadget_graph", ()),
        (("fracmatch",), "gadget_graph", ("instance",)),
        (("blowup", "--rho", "1"), "gadget_graph", ()),
        (("blowup", "--rho", "1"), "gadget_graph", ("instance",)),
        (("bipartise",), "blowup_graph", ()),
        (("bipartise",), "blowup_graph", ("gadget", "instance")),
        (("solve", "mmm"), "sseh_gadget", ()),
        (("solve", "mbb"), "sseh_gadget", ("gadget",)),
        (("solve", "vc"), "blowup_graph", ("gadget",)),
        (("export",), "fractional_matching", ()),
        (("export",), "fractional_matching", ("gadget",)),
        (("export", "--format", "dot"), "gadget_graph", ("instance",)),
        (("export",), "sseh_gadget", ("gadget",)),
    ],
)
def test_cli_refuses_a_wrong_or_missing_schema_at_every_level(payload_files, capsys, command, kind, keys, edit):
    path = _edited_copy(payload_files[kind], SCHEMA_EDITS[edit], *keys)
    assert run_cli(command[0], "--in", str(path), *command[1:]) == 2
    captured = capsys.readouterr()
    where = "$" + "".join(f".{key}" for key in keys)
    assert captured.out == ""
    if edit == "wrong":
        assert captured.err == f"error: unsupported schema 'mmmkit/0' (at {where}.schema)\n"
    else:
        assert captured.err == f"error: missing key 'schema' (at {where})\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        ("wrong", "unsupported schema 'mmmkit/0' (at $.schema)"),
        ("missing", "missing key 'schema' (at $)"),
    ],
)
def test_cli_experiment_refuses_a_wrong_or_missing_schema(tmp_path, capsys, edit, message):
    config = tmp_path / "config.json"
    payload = ExperimentConfig.create("sweep", "is-weight", {"seed": [0]}).to_payload()
    SCHEMA_EDITS[edit](payload)
    config.write_text(canonical_json(payload))
    assert run_cli("experiment", str(config)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"grid": {"seed": 5}}, "grid must be an object of value lists (at $.grid)"),
        ({"lemma": ["is-weight"]}, "unknown lemma ['is-weight'] (at $)"),
        ({"fixed": [1]}, "fixed must be an object (at $.fixed)"),
    ],
)
def test_cli_experiment_refuses_a_mistyped_config_field(tmp_path, capsys, edit, message):
    config = tmp_path / "config.json"
    payload = ExperimentConfig.create("sweep", "is-weight", {"seed": [0]}).to_payload()
    config.write_text(canonical_json(dict(payload, **edit)))
    assert run_cli("experiment", str(config)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_solve_mmm_over_sixty_vertices_stops_at_its_budget(tmp_path, capsys):
    # the solver once refused graphs over 60 vertices; the budget bounds it now
    g = random_graph(70, 0.1, seed=0)
    path = tmp_path / "g.json"
    path.write_text(canonical_json(graph_to_payload(g)))
    assert run_cli("solve", "mmm", "--in", str(path), "--budget", "1000") == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["nodes"]) == ("limit_reached", 1000)
    witness = [(int(u), int(v)) for u, v in out["witness"]]
    assert verify_maximal_matching(g, witness)
    assert out["value"] == str(len(witness))


def test_cli_solve_vc_obeys_the_budget(tmp_path, capsys):
    # the unlimited search takes 75,061 nodes
    path = tmp_path / "g.json"
    path.write_text(canonical_json(graph_to_payload(random_graph(60, 0.1, seed=0))))
    assert run_cli("solve", "vc", "--in", str(path), "--budget", "1000") == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["status"], out["nodes"]) == ("limit_reached", 1000)


def test_weighted_no_fails_when_the_solver_runs_out_of_budget(capsys):
    # 1722 maximal matchings fit the budget, the 1916-node search does not
    report = verify_lemma("weighted-no", {"budget": 1800})
    agree = {c.name: c for c in report.checks}["exact-solvers-agree"]
    assert not agree.ok
    assert agree.detail == "exact_mmm reached the budget of 1800 nodes"
    assert run_cli("verify-lemma", "weighted-no", "--budget", "1800") == 1
    assert "exact_mmm reached the budget of 1800 nodes" in capsys.readouterr().out


def test_weighted_no_fails_when_enumeration_runs_out_of_budget(capsys):
    assert run_cli("verify-lemma", "weighted-no", "--budget", "100") == 1
    out = capsys.readouterr().out
    assert "[FAIL] matched-complement-identity: enumeration reached the budget of 100 maximal matchings" in out
    assert "[FAIL] unmatched-set-independent: enumeration reached the budget of 100 maximal matchings" in out
    report = verify_lemma("weighted-no", {"budget": 100})
    agree = {c.name: c for c in report.checks}["exact-solvers-agree"]
    assert (agree.ok, agree.detail) == (
        False,
        "enumeration reached the budget of 100 maximal matchings; exact_mmm reached the budget of 100 nodes",
    )


def test_blowup_soundness_fails_when_enumeration_runs_out_of_budget():
    report = verify_lemma("blowup-soundness", {"budget": 100})
    assert [(c.ok, c.detail) for c in report.checks] == [
        (False, "enumeration reached the budget of 100 maximal matchings")
    ] * 2


def test_blowup_soundness_cover_search_obeys_the_budget(capsys):
    assert run_cli("verify-lemma", "blowup-soundness", "--budget", "1") == 1
    out = capsys.readouterr().out
    assert "[FAIL] matching-vs-cover-bound: " in out
    assert "exact_min_vertex_cover reached the budget of 1 nodes" in out


def test_total_vc_cover_searches_obey_the_budget(capsys):
    assert run_cli("verify-lemma", "total-vc", "--budget", "1") == 1
    out = capsys.readouterr().out
    assert "[PASS] matched-set-total-cover: " in out
    assert (
        "[FAIL] total-cover-at-least-cover: trial 0: exact_min_total_vertex_cover and"
        " exact_min_vertex_cover reached the budget of 1 nodes"
    ) in out
    report = verify_lemma("total-vc")
    assert report.ok and report.params["budget"] == 200_000


def test_path_cover_cover_search_obeys_the_budget():
    report = verify_lemma("path-cover", {"budget": 1})
    check = {c.name: c for c in report.checks}["doubled-minimum-vs-cover"]
    assert (check.ok, check.detail) == (
        False,
        "exact_mmm and exact_min_vertex_cover reached the budget of 1 nodes",
    )


def test_verify_lemma_all_reports_every_lemma_under_a_small_budget(capsys):
    assert run_cli("verify-lemma", "all", "--budget", "100") == 1
    out = capsys.readouterr().out
    headers = [line.split(":")[0] for line in out.splitlines() if line.startswith("lemma ")]
    assert headers == [f"lemma {lemma}" for lemma in lemma_ids()]


def test_sseh_no_budget_reaches_both_searches(capsys):
    assert run_cli("verify-lemma", "sseh-no", "--budget", "3") == 1
    out = capsys.readouterr().out
    assert "[FAIL] bound-below-exact: exact_mbb and exact_mmm reached the budget of 3 nodes" in out
    # an unfinished incumbent above the target names the budget, not a comparison
    assert "[FAIL] yes-matching-attainable: exact_mmm reached the budget of 3 nodes" in out
    assert run_cli("verify-lemma", "sseh-no", "--budget", "1") == 1
    assert "[FAIL] yes-matching-attainable: exact_mmm reached the budget of 1 nodes" in capsys.readouterr().out
    report = verify_lemma("sseh-no", {"budget": 40})
    bound = {c.name: c for c in report.checks}["bound-below-exact"]
    assert (bound.ok, bound.detail) == (False, "exact_mmm reached the budget of 40 nodes")


def test_cli_sseh_chains_into_solve_and_export(tmp_path, capsys):
    bundle = tmp_path / "sseh.json"
    assert run_cli("sseh", "--n", "4", "--epsilon", "1/4", "--seed", "0", "--out", str(bundle)) == 0
    payload = json.loads(bundle.read_text())
    assert payload["kind"] == "sseh_gadget"
    assert payload["gadget"]["kind"] == "bipartite"

    # the bundle decodes to its padded graph, so the solvers take it directly
    assert run_cli("solve", "mmm", "--in", str(bundle)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "optimal"
    assert run_cli("solve", "mbb", "--in", str(bundle)) == 0
    capsys.readouterr()
    assert run_cli("export", "--in", str(bundle), "--format", "dot") == 0
    assert capsys.readouterr().out.startswith("graph ")


def test_cli_verify_lemma_text(capsys):
    assert run_cli("verify-lemma", "is-weight") == 0
    out = capsys.readouterr().out
    assert out.startswith("lemma is-weight: ok")
    assert "[PASS]" in out


def test_cli_verify_lemma_json_param(capsys):
    assert run_cli(
        "verify-lemma", "is-weight", "--format", "json", "--param", "epsilon=1/8"
    ) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "lemma_report"
    assert payload["params"]["epsilon"] == "1/8"
    assert payload["ok"] is True


def test_cli_verify_lemma_errors(capsys):
    assert run_cli("verify-lemma", "no-such") == 2
    assert "error:" in capsys.readouterr().err
    assert run_cli("verify-lemma", "is-weight", "--param", "nope") == 2
    assert "key=value" in capsys.readouterr().err
    # under `all`, a key that no lemma takes is a typo, not a key to skip
    assert run_cli("verify-lemma", "all", "--param", "num_var=3") == 2
    assert capsys.readouterr() == ("", "error: no lemma takes parameter 'num_var'\n")


@pytest.mark.parametrize(
    "lemma_id, param, wants",
    [
        ("is-weight", "num_vars=abc", "num_vars wants an int >= 1, got 'abc'"),
        ("path-cover", "p=abc", "p wants a number in [0, 1], got 'abc'"),
        ("total-vc", "trials=x", "trials wants an int >= 1, got 'x'"),
        ("sseh-yes", "n=0", "n wants an int >= 1, got 0"),
        ("sseh-no", "n=0", "n wants an int >= 1, got 0"),
        ("weighted-no", "budget=-5", "budget wants an int >= 1, got -5"),
        ("is-weight", "num_vars=²", "num_vars wants an int >= 1, got '²'"),
        ("is-weight", "num_vars=3.0", "num_vars wants an int >= 1, got 3.0"),
        ("path-cover", "exact=maybe", "exact wants true, false, 0 or 1, got 'maybe'"),
    ],
)
def test_cli_verify_lemma_refuses_a_bad_parameter(capsys, lemma_id, param, wants):
    assert run_cli("verify-lemma", lemma_id, "--param", param) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: lemma {lemma_id} parameter {wants}\n"


@pytest.mark.parametrize(
    "lemma_id, param, value",
    [
        ("is-weight", "num_vars= 3", 3),
        ("is-weight", "epsilon=1/8", "1/8"),
        ("path-cover", "exact=false", False),
        ("path-cover", "exact=True", True),
        ("path-cover", "p=.5", 0.5),
    ],
)
def test_cli_verify_lemma_parses_a_parameter(capsys, lemma_id, param, value):
    assert run_cli("verify-lemma", lemma_id, "--format", "json", "--param", param) == 0
    key = param.split("=")[0]
    assert json.loads(capsys.readouterr().out)["params"][key] == value


def test_cli_experiment_refuses_a_bad_parameter(tmp_path, capsys):
    config = tmp_path / "config.json"
    payload = {"schema": SCHEMA, "kind": "experiment_config", "name": "n0", "lemma": "sseh-yes", "grid": {"n": [4, 0]}}
    config.write_text(canonical_json(payload))
    assert run_cli("experiment", str(config)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lemma sseh-yes parameter n wants an int >= 1, got 0\n"


def test_cli_experiment(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        canonical_json(
            {
                "schema": SCHEMA,
                "kind": "experiment_config",
                "name": "demo",
                "lemma": "is-weight",
                "grid": {"seed": [0, 1]},
            }
        )
    )
    assert run_cli("experiment", str(config)) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "seed,ok,failed_checks"
    assert out.count("yes") == 2


def test_cli_export_round_trip(tmp_path):
    inst = tmp_path / "inst.json"
    again = tmp_path / "again.json"
    run_cli("gen-ulc", "--num-vars", "3", "--num-colors", "2", "--out", str(inst))
    assert run_cli("export", "--in", str(inst), "--out", str(again)) == 0
    assert inst.read_bytes() == again.read_bytes()


def test_cli_export_rejects_csv_for_instances(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run_cli("gen-ulc", "--num-vars", "3", "--num-colors", "2", "--out", str(inst))
    assert run_cli("export", "--in", str(inst), "--format", "csv") == 2
    assert "fractional matchings" in capsys.readouterr().err


def test_cli_rejects_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert run_cli("build-gadget", "--in", str(bad), "--epsilon", "1/4") == 2
    assert "error:" in capsys.readouterr().err


def test_cli_version_exits(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("--version")
    assert exit_info.value.code == 0
    assert "mmmkit" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("gen-ulc", "--num-vars", "3", "--num-colors", "2", "--xi", "1/0"), "--xi"),
        (("build-gadget", "--in", "{inst}", "--epsilon", "1/0"), "--epsilon"),
        (("sseh", "--n", "4", "--epsilon", "1/0"), "--epsilon"),
        (("blowup", "--in", "{gadget}", "--rho", "1/0"), "--rho"),
        (("gen-ulc", "--num-vars", "3", "--num-colors", "2", "--xi", "nan"), "--xi"),
    ],
)
def test_cli_rejects_a_bad_rational_with_exit_2(tmp_path, capsys, argv, flag):
    gadget = _gadget_file(tmp_path)
    files = {"inst": tmp_path / "inst.json", "gadget": gadget}
    capsys.readouterr()
    assert run_cli(*(arg.format(**files) for arg in argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} wants a rational") and "Traceback" not in captured.err


def _fracmatch_file(tmp_path):
    fm = tmp_path / "fm.json"
    assert run_cli("fracmatch", "--in", str(_gadget_file(tmp_path)), "--out", str(fm)) == 0
    return fm


OUTSIDE = "is not a vertex of the gadget (at $.edges[0][0])"
BAD_COLOURS = "colors must be a list of nonnegative integers (at $.edges[0][0].colors)"


@pytest.mark.parametrize(
    "end, message",
    [
        ({"variable": "a", "colors": [0]}, OUTSIDE),
        ({"variable": 9, "colors": [0]}, OUTSIDE),  # a 4-variable gadget
        ({"variable": 0, "colors": [5]}, OUTSIDE),  # a 3-colour gadget
        (7, OUTSIDE),
        ({"variable": 0, "colors": [True]}, BAD_COLOURS),
        ({"variable": 0, "colors": [-1]}, BAD_COLOURS),
        ({"variable": 0, "colors": [10**18]}, f"colour {10**18} is out of range 0..29 (at $.edges[0][0].colors)"),
    ],
)
def test_cli_export_rejects_a_fracmatch_row_outside_its_gadget(tmp_path, capsys, end, message):
    fm = _edited_copy(_fracmatch_file(tmp_path), lambda row: row.__setitem__(0, end), "edges", 0)
    capsys.readouterr()
    assert run_cli("export", "--in", str(fm)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.endswith(f"{message}\n")
    assert captured.err.count("\n") == 1


def test_cli_export_rejects_the_matching_kind(tmp_path, capsys):
    path = tmp_path / "matching.json"
    path.write_text(canonical_json({"schema": SCHEMA, "kind": "matching", "pairs": [[0, 1]]}))
    assert run_cli("export", "--in", str(path)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown kind 'matching'" in captured.err and "Traceback" not in captured.err
