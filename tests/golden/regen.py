"""Rewrite the golden manifest: the sha256 of every output of a fixed command matrix.

Each matrix entry names one command line run in process through
``mmmkit.cli.main``, with its exit status and the sha256 of its stdout.  An
argument ``@name`` is the path of the output of the earlier entry ``name``,
or of the ``graph`` or ``sweep`` payload written first, so commands chain as
they do through files.  The six demos' stdout digests
are recorded too.  ``tests/test_golden.py`` and ``tests/test_demos.py``
recompute them.

Run from the repository root, after a change that alters an artifact on
purpose, and commit the manifest diff with the change::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
MANIFEST = HERE / "manifest.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# a hand-written `graph` payload with mixed vertex kinds, for `bipartise`
GRAPH = {
    "schema": "mmmkit/1",
    "kind": "graph",
    "vertices": [0, "a", {"tuple": [1, "b"]}, {"variable": 0, "colors": [1]}, 7],
    "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [1, 4]],
}
# an `experiment` config: the is-weight lemma over two colour counts and two xi
SWEEP = {
    "schema": "mmmkit/1",
    "kind": "experiment_config",
    "name": "is-weight-golden",
    "lemma": "is-weight",
    "grid": {"num_colors": [2, 3], "xi": [0, "1/4"]},
}

BUDGET = ("--budget", "20000")
MATRIX: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("ulc-c2", ("gen-ulc", "--num-vars", "3", "--num-colors", "2", "--seed", "5")),
    ("ulc-c3", ("gen-ulc", "--num-vars", "4", "--num-colors", "3", "--seed", "1")),
    ("ulc-c6", ("gen-ulc", "--num-vars", "3", "--num-colors", "6", "--xi", "1/3", "--seed", "2")),
    ("ulc-c8", ("gen-ulc", "--num-vars", "3", "--num-colors", "8", "--xi", "1/3", "--seed", "3")),
    ("ulc-c10", ("gen-ulc", "--num-vars", "3", "--num-colors", "10", "--xi", "1/3", "--seed", "7")),
    ("ulc-c12", ("gen-ulc", "--num-vars", "3", "--num-colors", "12", "--xi", "1/3", "--seed", "7")),
    ("ulc-k2", ("gen-ulc", "--num-vars", "4", "--num-colors", "2", "--topology", "complete", "--xi", "1/4",
                "--seed", "4")),
    ("ulc-k3", ("gen-ulc", "--num-vars", "5", "--num-colors", "3", "--topology", "complete", "--p-edge", "0.5",
                "--seed", "6")),
    ("gadget-c2", ("build-gadget", "--in", "@ulc-c2", "--epsilon", "1/4")),
    ("gadget-c2-base", ("build-gadget", "--in", "@ulc-c2", "--epsilon", "1/4", "--flavor", "base")),
    ("gadget-c3", ("build-gadget", "--in", "@ulc-c3", "--epsilon", "1/8")),
    ("gadget-c3-dot", ("build-gadget", "--in", "@ulc-c3", "--epsilon", "1/8", "--format", "dot")),
    ("gadget-c3-base-dot", ("build-gadget", "--in", "@ulc-c3", "--epsilon", "1/8", "--flavor", "base",
                            "--format", "dot")),
    ("gadget-c6", ("build-gadget", "--in", "@ulc-c6", "--epsilon", "1/8")),
    ("gadget-c8", ("build-gadget", "--in", "@ulc-c8", "--epsilon", "1/4")),
    ("gadget-c10", ("build-gadget", "--in", "@ulc-c10", "--epsilon", "1/8")),
    ("gadget-c12", ("build-gadget", "--in", "@ulc-c12", "--epsilon", "1/8")),
    ("gadget-k2", ("build-gadget", "--in", "@ulc-k2", "--epsilon", "1/4")),
    ("gadget-k2-base", ("build-gadget", "--in", "@ulc-k2", "--epsilon", "1/4", "--flavor", "base")),
    ("gadget-k2-dot", ("build-gadget", "--in", "@ulc-k2", "--epsilon", "1/4", "--format", "dot")),
    ("gadget-k3-dot", ("build-gadget", "--in", "@ulc-k3", "--epsilon", "1/4", "--format", "dot")),
    ("gadget-k3-base-dot", ("build-gadget", "--in", "@ulc-k3", "--epsilon", "1/4", "--flavor", "base",
                            "--format", "dot")),
    ("fracmatch-c3", ("fracmatch", "--in", "@gadget-c3")),
    ("fracmatch-c3-csv", ("fracmatch", "--in", "@gadget-c3", "--format", "csv")),
    ("fracmatch-c6", ("fracmatch", "--in", "@gadget-c6")),
    ("fracmatch-c6-csv", ("fracmatch", "--in", "@gadget-c6", "--format", "csv")),
    ("fracmatch-c8", ("fracmatch", "--in", "@gadget-c8")),
    ("fracmatch-c8-csv", ("fracmatch", "--in", "@gadget-c8", "--format", "csv")),
    ("fracmatch-c10", ("fracmatch", "--in", "@gadget-c10")),
    ("fracmatch-c10-csv", ("fracmatch", "--in", "@gadget-c10", "--format", "csv")),
    ("fracmatch-c12", ("fracmatch", "--in", "@gadget-c12")),
    ("fracmatch-c12-csv", ("fracmatch", "--in", "@gadget-c12", "--format", "csv")),
    ("fracmatch-k2", ("fracmatch", "--in", "@gadget-k2")),
    ("blowup-k2", ("blowup", "--in", "@gadget-k2", "--rho", "1/2")),
    ("blowup-k2-dot", ("blowup", "--in", "@gadget-k2", "--rho", "1/2", "--format", "dot")),
    ("blowup-c2", ("blowup", "--in", "@gadget-c2", "--rho", "1")),
    ("blowup-c2-dot", ("blowup", "--in", "@gadget-c2", "--rho", "1", "--format", "dot")),
    ("bipartise-gadget-c3", ("bipartise", "--in", "@gadget-c3")),
    ("bipartise-gadget-c3-dot", ("bipartise", "--in", "@gadget-c3", "--format", "dot")),
    ("bipartise-gadget-k2-base-dot", ("bipartise", "--in", "@gadget-k2-base", "--format", "dot")),
    ("bipartise-graph", ("bipartise", "--in", "@graph")),
    ("bipartise-graph-dot", ("bipartise", "--in", "@graph", "--format", "dot")),
    ("bipartise-blowup-c2", ("bipartise", "--in", "@blowup-c2")),
    ("sseh-n4", ("sseh", "--n", "4", "--epsilon", "1/4")),
    ("sseh-n4-dot", ("sseh", "--n", "4", "--epsilon", "1/4", "--format", "dot")),
    ("sseh-n8", ("sseh", "--n", "8", "--epsilon", "1/4", "--seed", "1")),
    ("sseh-n8-dot", ("sseh", "--n", "8", "--epsilon", "1/4", "--seed", "1", "--format", "dot")),
    ("bipartise-sseh-n4", ("bipartise", "--in", "@sseh-n4")),
    ("export-blowup-k2-dot", ("export", "--in", "@blowup-k2", "--format", "dot")),
    ("export-blowup-c2", ("export", "--in", "@blowup-c2")),
    ("export-fracmatch-c3-csv", ("export", "--in", "@fracmatch-c3", "--format", "csv")),
    ("export-gadget-c2-dot", ("export", "--in", "@gadget-c2", "--format", "dot")),
    ("export-sseh-n4", ("export", "--in", "@sseh-n4")),
    ("export-bipartise-graph", ("export", "--in", "@bipartise-graph")),
    ("export-bipartise-graph-dot", ("export", "--in", "@bipartise-graph", "--format", "dot")),
    ("solve-mmm-gadget-c2", ("solve", "mmm", "--in", "@gadget-c2", *BUDGET)),
    ("solve-mmm-gadget-c2-unbudgeted", ("solve", "mmm", "--in", "@gadget-c2")),
    ("solve-vc-gadget-c2", ("solve", "vc", "--in", "@gadget-c2", *BUDGET)),
    ("solve-mmm-gadget-c2-base", ("solve", "mmm", "--in", "@gadget-c2-base", *BUDGET)),
    ("solve-vc-gadget-c2-base", ("solve", "vc", "--in", "@gadget-c2-base", *BUDGET)),
    ("solve-mmm-gadget-k2", ("solve", "mmm", "--in", "@gadget-k2", *BUDGET)),
    ("solve-vc-gadget-k2", ("solve", "vc", "--in", "@gadget-k2", *BUDGET)),
    ("solve-mmm-gadget-k2-base", ("solve", "mmm", "--in", "@gadget-k2-base", *BUDGET)),
    ("solve-vc-gadget-k2-base", ("solve", "vc", "--in", "@gadget-k2-base", *BUDGET)),
    ("solve-mbb-sseh-n4", ("solve", "mbb", "--in", "@sseh-n4", *BUDGET)),
    ("solve-mbb-sseh-n8", ("solve", "mbb", "--in", "@sseh-n8", *BUDGET)),
    ("solve-mmm-sseh-n4", ("solve", "mmm", "--in", "@sseh-n4", *BUDGET)),
    ("solve-vc-sseh-n4", ("solve", "vc", "--in", "@sseh-n4", *BUDGET)),
    ("solve-mbb-bipartise-graph", ("solve", "mbb", "--in", "@bipartise-graph", *BUDGET)),
    ("solve-mmm-bipartise-graph", ("solve", "mmm", "--in", "@bipartise-graph", *BUDGET)),
    ("solve-vc-bipartise-graph", ("solve", "vc", "--in", "@bipartise-graph", *BUDGET)),
    ("solve-mmm-graph", ("solve", "mmm", "--in", "@graph", *BUDGET)),
    ("solve-vc-graph", ("solve", "vc", "--in", "@graph", *BUDGET)),
    ("solve-mmm-blowup-c2", ("solve", "mmm", "--in", "@blowup-c2", *BUDGET)),
    ("solve-vc-blowup-c2", ("solve", "vc", "--in", "@blowup-c2", *BUDGET)),
    ("verify-lemma-all", ("verify-lemma", "all")),
    ("verify-lemma-all-json", ("verify-lemma", "all", "--format", "json")),
    ("experiment-sweep", ("experiment", "@sweep", "--format", "csv")),
    ("experiment-sweep-json", ("experiment", "@sweep", "--format", "json")),
)


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def run_matrix(workdir: Path) -> dict[str, dict]:
    """Run every matrix entry in order; name -> its argv, exit status and stdout digest.

    The argument parser is built once and reused by every call, since
    building it is most of the cost of a small command.
    """
    from unittest import mock

    from mmmkit import cli

    paths = {"graph": workdir / "graph.json", "sweep": workdir / "sweep.json"}
    paths["graph"].write_text(json.dumps(GRAPH), encoding="utf-8")
    paths["sweep"].write_text(json.dumps(SWEEP), encoding="utf-8")
    out: dict[str, dict] = {}
    with mock.patch.object(cli, "build_parser", return_value=cli.build_parser()):
        for name, argv in MATRIX:
            args = [str(paths[a[1:]]) if a.startswith("@") else a for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(args)
            paths[name] = workdir / f"{name}.out"
            paths[name].write_text(stdout.getvalue(), encoding="utf-8")
            out[name] = {"argv": list(argv), "exit": code, "sha256": sha256(stdout.getvalue())}
    return out


def demo_stdout(script: Path) -> str:
    """A demo's stdout, from a fresh interpreter with ``src`` on the path; it must exit 0."""
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"{script.name} exited {done.returncode}: {done.stderr}")
    return done.stdout


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        commands = run_matrix(Path(tmp))
    demos = {script.name: sha256(demo_stdout(script)) for script in DEMOS}
    manifest = {"commands": commands, "demos": demos}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(commands)} command and {len(demos)} demo digests to {MANIFEST.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
