import json
from fractions import Fraction

import pytest

from mmmkit.cli import main
from mmmkit.experiment import ExperimentConfig, run_experiment
from mmmkit.graphs import Graph
from mmmkit.lemmas import Check, LemmaReport, lemma_ids, verify_lemma
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
    with pytest.raises(SchemaError):
        ExperimentConfig.from_payload({"kind": "experiment_config"})
    with pytest.raises(SchemaError):
        ExperimentConfig.from_payload({"kind": "other"})
    with pytest.raises(SchemaError):
        ExperimentConfig.from_payload(
            {"kind": "experiment_config", "name": "x", "lemma": "is-weight", "grid": []}
        )


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


def _gadget_file(tmp_path, edit_planted=None):
    inst = tmp_path / "inst.json"
    gadget = tmp_path / "gadget.json"
    run_cli("gen-ulc", "--num-vars", "4", "--num-colors", "3", "--seed", "0", "--out", str(inst))
    if edit_planted is not None:
        payload = json.loads(inst.read_text())
        edit_planted(payload["planted"])
        inst.write_text(canonical_json(payload))
    assert run_cli("build-gadget", "--in", str(inst), "--epsilon", "1/4", "--out", str(gadget)) == 0
    return gadget


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

    gadget = _gadget_file(tmp_path, relabel)
    assert run_cli("fracmatch", "--in", str(gadget)) == 2
    assert "planted labelling" in capsys.readouterr().err


def test_cli_fracmatch_rejects_unknown_core_variable(tmp_path, capsys):
    gadget = _gadget_file(tmp_path, lambda planted: planted["core"].append(9))
    assert run_cli("fracmatch", "--in", str(gadget)) == 2
    assert "planted core" in capsys.readouterr().err


def test_cli_fracmatch_rejects_core_inconsistent_with_labelling(tmp_path, capsys):
    def relabel(planted):
        x = planted["core"][0]
        planted["labelling"][x] = (planted["labelling"][x] + 1) % 3

    gadget = _gadget_file(tmp_path, relabel)
    assert run_cli("fracmatch", "--in", str(gadget)) == 2
    assert "planted core edge" in capsys.readouterr().err


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
