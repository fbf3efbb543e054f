"""A cold start loads only the modules its work runs.

Each probe runs in a fresh interpreter, since the test session itself has
long since imported every module.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {f"mmmkit.{name}" for name in ("lemmas", "solvers", "experiment", "blowup", "bipartite")}
REPORT = "print(' '.join(sorted(m for m in sys.modules if m.startswith('mmmkit.'))))"


def run_probe(code: str, *argv: str, cwd=None) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done


def loaded_by_cli(tmp_path, *argv: str) -> set[str]:
    """The modules newly loaded once ``mmmkit.cli.main(argv)`` has run.

    Modules the interpreter loaded at start-up (site packages included) are
    left out, so none of them can hide a module the command itself loads.
    """
    code = (
        "import sys\nbefore = set(sys.modules)\nfrom mmmkit.cli import main\nassert main(sys.argv[1:]) == 0\n"
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    return set(run_probe(code, *argv, cwd=tmp_path).stdout.split())


def test_import_mmmkit_loads_no_submodule():
    assert run_probe(f"import sys\nimport mmmkit\n{REPORT}").stdout.split() == []


def test_each_subcommand_loads_only_what_it_runs(tmp_path):
    gen = loaded_by_cli(tmp_path, "gen-ulc", "--num-vars", "3", "--num-colors", "2", "--out", "inst.json")
    build = loaded_by_cli(tmp_path, "build-gadget", "--in", "inst.json", "--epsilon", "1/4", "--out", "g.json")
    frac = loaded_by_cli(tmp_path, "fracmatch", "--in", "g.json", "--out", "fm.json")
    assert not gen & (HEAVY | {"mmmkit.fracmatch"})
    assert not build & (HEAVY | {"mmmkit.fracmatch"})
    assert not frac & HEAVY
    assert "mmmkit.fracmatch" in frac
    assert "dataclasses" not in gen | build | frac


def test_each_lemma_run_loads_only_its_lemma_modules(tmp_path):
    lemma_modules = {f"mmmkit.{name}" for name in ("ulc", "graphs", "bitsets", "gadget", "fracmatch", "serialize")}
    for lemma in ("saturation", "is-weight"):
        loaded = loaded_by_cli(tmp_path, "verify-lemma", lemma, "--out", "report.txt")
        assert not loaded & (HEAVY - {"mmmkit.lemmas"}), lemma
        assert {m for m in loaded if m.startswith("mmmkit.")} == {"mmmkit.cli", "mmmkit.lemmas"} | lemma_modules
        assert "dataclasses" not in loaded, lemma


def test_star_import_binds_each_name_to_its_home_object():
    code = """
import importlib
import mmmkit
names = {}
exec("from mmmkit import *", names)
missing = [n for n in mmmkit.__all__ if n not in names]
assert not missing, missing
for name in mmmkit.__all__:
    if name != "__version__":
        home = importlib.import_module("mmmkit." + mmmkit._HOMES[name])
        assert names[name] is getattr(home, name), name
assert set(mmmkit.__all__) <= set(dir(mmmkit))
assert mmmkit.cycle_cover is importlib.import_module("mmmkit.gadget").cycle_cover
try:
    mmmkit.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("mmmkit.no_such_name resolved")
"""
    run_probe(code)
