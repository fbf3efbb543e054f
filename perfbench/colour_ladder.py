"""colour-ladder: the CLI run cold, one fresh interpreter per item, up the colours.

Rungs 4-7 run gen-ulc, build-gadget and fracmatch with the default strategy,
plus `verify-lemma saturation` at 4-6.  Rungs 8, 10 and 12 run fracmatch
with the uniform strategy and CSV output, plus `verify-lemma is-weight` at 8
and 10.  Every instance has four variables, two of them outside the core, so
both the m- and the (m-1)-element clouds are saturated.  Artifacts go to the
run's scratch directory; each pass rewrites the same files, and the last
pass's files are checked once the timed window is over.
"""

from __future__ import annotations

import csv
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial

from mmmkit.fracmatch import FractionalMatching, saturates_exactly_outside_planted_set
from mmmkit.serialize import loads
from mmmkit.ulc import check_labelling

from checks import CheckFailed, require

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NUM_VARS = "4"
XI = "1/2"
EPSILON = "1/8"
HAMILTONIAN_RUNGS = (4, 5, 6, 7)
SATURATION_LEMMA_RUNGS = (4, 5, 6)
UNIFORM_RUNGS = (8, 10, 12)
IS_WEIGHT_LEMMA_RUNGS = (8, 10)
ITEM_TIMEOUT_S = 60


def child_env() -> dict:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_cli(argv: list[str], cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "mmmkit.cli", *argv],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=ITEM_TIMEOUT_S,
    )


def ladder(rng: random.Random) -> list[tuple[list[str], str]]:
    """The CLI invocations of one pass, each with the file it writes."""
    steps = []

    def pipeline(m: int, fracmatch_args: list[str], fm_out: str) -> None:
        seed = str(rng.randrange(2**31))
        steps.append(
            (["gen-ulc", "--num-vars", NUM_VARS, "--num-colors", str(m), "--xi", XI,
              "--seed", seed, "--out", f"inst{m}.json"], f"inst{m}.json")
        )
        steps.append(
            (["build-gadget", "--in", f"inst{m}.json", "--epsilon", EPSILON,
              "--out", f"gadget{m}.json"], f"gadget{m}.json")
        )
        steps.append((["fracmatch", "--in", f"gadget{m}.json", *fracmatch_args, "--out", fm_out], fm_out))

    def lemma(lemma_id: str, m: int, extra: list[str]) -> None:
        out = f"{lemma_id}{m}.txt"
        steps.append(
            (["verify-lemma", lemma_id, "--param", f"num_colors={m}", *extra,
              "--seed", str(rng.randrange(2**31)), "--out", out], out)
        )

    for m in HAMILTONIAN_RUNGS:
        pipeline(m, [], f"fm{m}.json")
        if m in SATURATION_LEMMA_RUNGS:
            lemma("saturation", m, ["--param", f"xi={XI}"])
    for m in UNIFORM_RUNGS:
        pipeline(m, ["--strategy", "uniform", "--format", "csv"], f"fm{m}.csv")
        if m in IS_WEIGHT_LEMMA_RUNGS:
            lemma("is-weight", m, [])
    return steps


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def check_instance(path: str) -> None:
    instance = loads(read(path))
    planted = instance.planted
    require(not check_labelling(instance, planted.labelling, planted.core).violated,
            f"{path}: planted labelling violates a core constraint")


def check_gadget(path: str):
    gadget = loads(read(path))
    require(gadget.total_weight() == 1, f"{path}: total weight {gadget.total_weight()}")
    return gadget


def csv_matching(path: str, gadget) -> FractionalMatching:
    """The fractional matching a `fracmatch --format csv` file holds."""
    by_label = {v.label(): v for v in gadget.vertices()}
    fm = FractionalMatching(gadget)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        require(next(rows) == ["u", "v", "value"], f"{path}: unexpected header")
        for u, v, value in rows:
            require(u in by_label and v in by_label, f"{path}: no gadget vertex {u} or {v}")
            fm.add(by_label[u], by_label[v], Fraction(value))
    require(fm.n_support_edges, f"{path}: no support edges")
    return fm


class Workload:
    rss = "children"

    def __init__(self, seed: int, scratch: str) -> None:
        self.scratch = scratch
        self.steps = ladder(random.Random(f"colour-ladder:{seed}"))
        # warm-up: one interpreter start and CLI import, which also writes
        # the bytecode cache on the first run in a fresh checkout
        done = run_cli(["--version"], scratch)
        require(done.returncode == 0, f"mmmkit --version exited {done.returncode}: {done.stderr}")

    def items(self, tr):
        for argv, out in self.steps:
            yield " ".join(argv), (lambda a=argv, o=out: self.run_step(tr, a, o))

    def run_step(self, tr, argv: list[str], out: str) -> str:
        path = os.path.join(self.scratch, out)
        if tr.enabled:
            spans_path = path + ".spans.json"
            with tr.span(f"cli.{argv[0]}") as index:
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *argv],
                    cwd=self.scratch,
                    env=child_env(),
                    capture_output=True,
                    text=True,
                    timeout=ITEM_TIMEOUT_S,
                )
            if done.returncode == 0:
                with open(spans_path, encoding="utf-8") as fh:
                    record = json.load(fh)
                tr.adopt(record["spans"], record["counts"], index)
                tr.count("cli.output_bytes", os.path.getsize(path))
        else:
            done = run_cli(argv, self.scratch)
        require(done.returncode == 0, f"exit {done.returncode}: {done.stderr.strip()[-300:]}")
        return path

    @staticmethod
    def digest_bytes(path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    def finish(self) -> list[str]:
        """Check the artifacts the last pass left behind."""
        at = partial(os.path.join, self.scratch)
        failures = []
        for m in HAMILTONIAN_RUNGS + UNIFORM_RUNGS:
            try:
                check_instance(at(f"inst{m}.json"))
                gadget = check_gadget(at(f"gadget{m}.json"))
                if m in HAMILTONIAN_RUNGS:
                    fm = loads(read(at(f"fm{m}.json")))
                else:
                    fm = csv_matching(at(f"fm{m}.csv"), gadget)
                ok, reason = saturates_exactly_outside_planted_set(fm)
                require(ok, f"colours={m} fractional matching: {reason}")
            except (CheckFailed, ValueError, OSError) as exc:
                failures.append(f"colours={m}: {exc}")
        for lemma_id, rungs in (("saturation", SATURATION_LEMMA_RUNGS), ("is-weight", IS_WEIGHT_LEMMA_RUNGS)):
            for m in rungs:
                try:
                    first = read(at(f"{lemma_id}{m}.txt")).partition("\n")[0]
                except OSError as exc:
                    first = str(exc)
                if first != f"lemma {lemma_id}: ok":
                    failures.append(f"verify-lemma {lemma_id} colours={m}: {first}")
        return failures
