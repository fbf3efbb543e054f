"""Every demo script runs to completion in a fresh interpreter, and its
stdout keeps the digest the golden manifest records."""

import importlib.util
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location("golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(regen)
DEMOS = regen.DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(script):
    stdout = regen.demo_stdout(script)  # raises when the demo exits nonzero
    assert regen.sha256(stdout) == regen.load_manifest()["demos"][script.name], stdout
