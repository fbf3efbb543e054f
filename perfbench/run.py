#!/usr/bin/env python3
"""mmmkit benchmark: three workloads, end-to-end metrics, optional layer traces.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py                   # every workload, untraced and traced

A run sets the workload up (imports, inputs, warm-up), then repeats whole
passes over the same items until `--seconds` have gone by, and checks every
output.  The last line of standard output is one JSON object with the
metrics BENCHMARK.json names: its end-to-end metrics with `--trace 0`, its
per-layer metrics with `--trace 1`.  The exit status is 1 when any item
fails or any output does not verify.  See perfbench/README.md for the
workloads and what each metric is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

from tracing import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = {"grid": "grid", "colour-ladder": "colour_ladder", "oracle-ladder": "oracle_ladder"}
SETUP_SAMPLES = 9
# An item's latency is its fastest of the first LATENCY_PASSES passes, so the
# sample count behind the latency metrics does not depend on how fast the
# code is; a run makes at least this many passes.
LATENCY_PASSES = 2
TAIL_BEYOND = 10  # item_tail_ms is the slowest item with this many slower ones
CHILD_TIMEOUT_S = 170
INF = float("inf")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def set_up(name: str, seed: int, scratch: str):
    """Import the library and the workload, build inputs and warm up."""
    start = perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "mmmkit", "__init__.py")):
        raise SystemExit(f"perfbench: no mmmkit sources under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    workload = importlib.import_module(WORKLOADS[name]).Workload(seed, scratch)
    return workload, perf_counter() - start


def setup_samples(name: str, seed: int, first: float) -> list[float]:
    """Set-up time of this process plus that of fresh interpreters."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up sample failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples


def measure(workload, tr, seconds: float) -> dict:
    """Whole passes over the workload's items until `seconds` have gone by
    and at least LATENCY_PASSES passes are done.

    Every pass runs the same items on the same inputs, so each pass's output
    digest must match the first.  An item's latency is its fastest of the
    first LATENCY_PASSES passes, which keeps the latency metrics steadier on
    a machine whose speed comes and goes with other tenants' load; an item
    that failed in any of them ranks as slower than every other."""
    passes: list[list[float]] = []
    failures: list[str] = []
    digests: list[str] = []
    start = perf_counter()
    while True:
        digest = hashlib.sha256()
        latencies = []
        for label, fn in workload.items(tr):
            tr.item = (len(passes), label)
            t0 = perf_counter()
            try:
                with tr.span("item"):
                    output = fn()
            except Exception as exc:  # an item failure is a result, not a crash
                latencies.append(INF)
                failures.append(f"{label}: {type(exc).__name__}: {exc}")
                continue
            latencies.append(perf_counter() - t0)
            digest.update(workload.digest_bytes(output))
        passes.append(latencies)
        digests.append(digest.hexdigest())
        if len(passes) >= LATENCY_PASSES and perf_counter() - start >= seconds:
            break
    return {
        "wall_s": perf_counter() - start,
        "passes": len(passes),
        "runs": sum(len(p) for p in passes),
        "latencies": [max(item) if INF in item else min(item) for item in zip(*passes[:LATENCY_PASSES])],
        "failures": failures,
        "digests": digests,
    }


def peak_rss_mb(which: str) -> float:
    who = resource.RUSAGE_SELF if which == "self" else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def end_to_end(run: dict, failed: int, setup: list[float], rss: float) -> dict:
    """Latencies are per distinct item, as `measure` reduces them."""
    ranked = sorted(run["latencies"])
    n = len(ranked)
    done = [x for x in ranked if x != INF]
    tail_index = max(n - 1 - TAIL_BEYOND, 0)
    tail = ranked[tail_index]
    if tail == INF:  # more than ten failed items: bound the tail by the window
        tail = run["wall_s"]
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": (run["runs"] - failed) / run["wall_s"],
        "item_p50_ms": 1000 * statistics.median(done) if done else 1000 * run["wall_s"],
        "item_tail_ms": 1000 * tail,
        "fail_rate": failed / run["runs"],
        "peak_rss_mb": rss,
        "_notes": {
            "items": n,
            "runs": run["runs"],
            "failed": failed,
            "passes": run["passes"],
            "latency_passes": LATENCY_PASSES,
            "wall_s": run["wall_s"],
            "setup_samples": setup,
            "tail_rank": f"{min(TAIL_BEYOND + 1, n)}th slowest of N={n}",
            "tail_percentile": 100 * (tail_index + 1) / n,
        },
    }


def per_layer(tr: Tracer, passes: int, names: list[str]) -> tuple[dict, dict]:
    """Layer metrics per pass: span time for `.s`, counts, and nodes/s."""
    layers = tr.layer_report()

    def total(span: str) -> float:
        return layers.get(span, {}).get("total_s", 0.0)

    values = {}
    for name in names:
        if name.endswith(".nodes_per_s"):
            solver = name[: -len(".nodes_per_s")]
            busy = total(solver)
            values[name] = tr.counts[solver + ".nodes"] / busy if busy else 0.0
        elif name in tr.counts or not name.endswith(".s"):
            values[name] = tr.counts[name] / passes
        else:
            values[name] = total(name[:-2]) / passes
    return values, layers


def metadata(load_start) -> dict:
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        revision = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "git_revision": revision,
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }


def run_workload(args) -> int:
    load_start = os.getloadavg()
    bench = spec()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload, first_setup = set_up(args.workload, args.seed, scratch)
        if args.setup_only:
            print(first_setup)
            return 0
        tr = Tracer() if args.trace else NullTracer()
        run = measure(workload, tr, args.seconds)
        rss = peak_rss_mb(workload.rss)
        failures = run["failures"] + workload.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if len(set(run["digests"])) > 1:
        failures.append(f"outputs differ between passes: {run['digests']}")
    setup = setup_samples(args.workload, args.seed, first_setup)
    failed = min(len(failures), run["runs"])
    e2e = end_to_end(run, failed, setup, rss)
    notes = e2e.pop("_notes")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={notes['passes']} wall={notes['wall_s']:.2f}s items={notes['items']}")
    print(f"  items_per_s   {e2e['items_per_s']:.4f} 1/s  ({notes['runs'] - failed} verified item runs)")
    print(f"  item_p50_ms   {e2e['item_p50_ms']:.4f} ms  (median of N={notes['items']} items, "
          f"each its fastest of {LATENCY_PASSES} passes)")
    print(f"  item_tail_ms  {e2e['item_tail_ms']:.4f} ms  ({notes['tail_rank']}, "
          f"p{notes['tail_percentile']:.2f})")
    print(f"  fail_rate     {e2e['fail_rate']:.4f}  ({failed}/{notes['runs']})")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.2f} MiB  ({workload.rss})")
    print(f"  setup_s       {e2e['setup_s']:.4f} s  (median of {len(setup)} set-ups)")
    print(f"  digest        sha256:{run['digests'][0]}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "end_to_end": e2e, "notes": notes, "digest": run["digests"][0],
              "meta": metadata(load_start)}
    if args.trace:
        values, layers = per_layer(tr, notes["passes"], [m["name"] for m in bench["per_layer"]])
        print("  layer self time per pass (s), calls per pass:")
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {name:52s} {row['self_s'] / notes['passes']:10.4f} {row['calls'] / notes['passes']:10.1f}")
        report["per_layer"] = values
        report["spans"] = len(tr.spans)
        metrics = values
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
    print("report " + json.dumps(report))
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": notes["runs"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced, then traced, with the tracing overhead."""
    ok = True
    summary = {}
    for name in WORKLOADS:
        reports = {}
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S + 60,
            )
            lines = done.stdout.splitlines()
            print("\n".join(line for line in lines if not line.startswith(("report ", "{"))))
            found = [json.loads(line[7:]) for line in lines if line.startswith("report ")]
            if done.returncode != 0 or not found:
                print(f"perfbench: {name} trace={trace} exited {done.returncode}\n{done.stderr[-2000:]}")
                ok = False
                break
            reports[trace] = found[0]
        if len(reports) < 2:
            continue
        plain, traced = reports[0], reports[1]
        same = plain["digest"] == traced["digest"]
        ok = ok and same
        print(f"tracing overhead on {name} ({traced['spans']} spans), traced minus untraced:")
        for metric, base in plain["end_to_end"].items():
            delta = traced["end_to_end"][metric] - base
            share = f"{100 * delta / base:+.1f}%" if base else "n/a"
            print(f"  {metric:14s} {base:12.4f} -> {traced['end_to_end'][metric]:12.4f}  ({share})")
            summary[f"{name}.{metric}"] = base
        print(f"  digest {'matches' if same else 'DIFFERS'} between the two runs\n")
    print(json.dumps({"correct": ok, "metrics": summary}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
