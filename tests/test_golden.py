"""Every output of the golden command matrix keeps the digest its manifest records.

The manifest (``tests/golden/manifest.json``) holds the sha256 of the
stdout and the exit status of each command, run in process through
``cli.main``.  A change that alters an artifact on purpose regenerates it
with ``tests/golden/regen.py`` and commits the diff.  One manifest serves
every supported Python version.
"""

import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location("golden_regen", Path(__file__).parent / "golden" / "regen.py")
regen = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(regen)


def test_manifest_lists_the_matrix():
    manifest = regen.load_manifest()
    recorded = manifest["commands"]
    assert [(name, entry["argv"]) for name, entry in recorded.items()] == sorted(
        (name, list(argv)) for name, argv in regen.MATRIX
    )
    assert len(recorded) >= 40
    assert {script.name for script in regen.DEMOS} == set(manifest["demos"])


def test_every_command_output_matches_the_manifest(tmp_path):
    recorded = regen.load_manifest()["commands"]
    ran = regen.run_matrix(tmp_path)
    changed = [name for name in recorded if ran[name] != recorded[name]]
    assert not changed, f"outputs differ from the golden manifest: {changed}"
