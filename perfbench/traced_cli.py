"""Run one `mmmkit` CLI invocation with spans, in a fresh interpreter.

Usage: traced_cli.py SPANS_JSON SUBCOMMAND [ARGS...]

Wraps the public library functions that the CLI's subcommands reach in
tracer spans, by name in the modules that call them, then hands the
arguments to `mmmkit.cli.main`: the subcommand code that runs is the CLI's
own.  When it returns, the spans and counts go to SPANS_JSON and the exit
status is the CLI's.
"""

from __future__ import annotations

import functools
import json
import sys

from tracing import Tracer

tr = Tracer()
with tr.span("cli.import"):
    import mmmkit.cli

import mmmkit.fracmatch  # noqa: E402
import mmmkit.lemmas  # noqa: E402

# the modules whose global names the subcommands look these functions up in
CALLERS = (mmmkit.cli, mmmkit.fracmatch, mmmkit.lemmas)
TRACED = (
    "generate_yes",
    "build_gadget",
    "planted_independent_set",
    "yes_matching",
    "verify_maximal_matching_via_unmatched",
    "build_full",
    "build_complement_pairing",
    "build_layer_cycles",
    "build_empty_set_cycles",
    "combine",
    "validate",
    "verify_lemma",
    "instance_to_payload",
    "gadget_to_payload",
    "fracmatch_to_payload",
    "canonical_json",
    "instance_from_payload",
    "gadget_from_payload",
    "rows_to_csv",
)
# The CLI writes `canonical_json(*_to_payload(obj))`, which is what
# `serialize.dumps` does, and reads through `*_from_payload`, the part of
# `serialize.loads` after `json.loads`.
SPAN_NAMES = {
    **dict.fromkeys(("instance_to_payload", "gadget_to_payload", "fracmatch_to_payload",
                     "canonical_json"), "serialize.dumps"),
    **dict.fromkeys(("instance_from_payload", "gadget_from_payload"), "serialize.loads"),
}
COUNTS = {
    "combine": ("fracmatch.support_edges", lambda fm: fm.n_support_edges),
    "canonical_json": ("serialize.bytes", len),
    "rows_to_csv": ("serialize.bytes", len),
}


def traced(name: str, fn):
    span = SPAN_NAMES.get(name, f"{fn.__module__.rpartition('.')[2]}.{name}")
    counter, measure = COUNTS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tr.span(span):
            out = fn(*args, **kwargs)
        if counter:
            tr.count(counter, measure(out))
        return out

    return wrapper


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    for module in CALLERS:
        for name in TRACED:
            if hasattr(module, name):
                setattr(module, name, traced(name, getattr(module, name)))
    code = mmmkit.cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [s[:4] for s in tr.spans], "counts": tr.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
