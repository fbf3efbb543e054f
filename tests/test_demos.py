"""Every demo script runs to completion in a fresh interpreter, and its
stdout keeps the digest the golden manifest records; so does the README's
Quick start block."""

import importlib.util
import os
import re
import subprocess
import sys
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


def test_readme_quick_start_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", (regen.ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(regen.ROOT / "src") + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", blocks[0]], cwd=regen.ROOT, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
