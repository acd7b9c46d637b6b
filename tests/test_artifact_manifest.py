"""Byte-identity of the CLI artifacts against a checked-in manifest.

Every ``theorem`` and ``lemma`` target, ``extinction --n 10000`` as CSV
and as JSON with ``--plotdata``, ``conditional``, ``validate``,
``constants`` and ``mc`` run on each stock model, in this process,
through ``cli.main``.  Each artifact's SHA-256, those of stdout (with
the output directory in its ``wrote <path>`` lines replaced by
``<out>``) and stderr, and the exit code must match
``artifact_manifest.json``.  ``mc`` draws from numpy's Philox streams,
so its entries are compared only under the numpy version the manifest
was captured with.

A change that means to move artifacts re-captures the manifest with
``PYTHONPATH=src python tests/test_artifact_manifest.py`` and names the
entries that moved.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from branchlab import cli
from branchlab.zoo import STOCK_MODELS

MANIFEST = Path(__file__).with_name("artifact_manifest.json")

COMMANDS = {
    **{f"theorem-{t}": ["theorem", t] for t in sorted(cli._THEOREMS)},
    **{f"lemma-{t}": ["lemma", t] for t in sorted(cli._LEMMAS)},
    "extinction-csv": ["extinction", "--n", "10000"],
    "extinction-json": ["extinction", "--n", "10000", "--format", "json",
                        "--plotdata"],
    "conditional": ["conditional", "--n", "200", "--m", "150", "--s", "0.6"],
    "validate": ["validate"],
    "constants": ["constants"],
    "mc": ["mc"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(name: str, model: str, root: Path) -> dict[str, object]:
    """Entry name -> SHA-256 or exit code for one command on one model,
    its artifacts written under a fresh directory in ``root``."""
    argv = COMMANDS[name]
    out = root / f"{name}-{model}"
    out.mkdir()
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([*argv, "--model", model,
                         "--output", str(out / f"artifact.{fmt}")])
    key = f"{name} {model}"
    entries = {
        f"{key} exit": code,
        f"{key} stdout": _sha(stdout.getvalue().replace(str(out), "<out>")
                              .encode()),
        f"{key} stderr": _sha(stderr.getvalue().encode()),
    }
    for path in sorted(out.iterdir()):
        entries[f"{key} {path.name}"] = _sha(path.read_bytes())
    return entries


def run_all(name: str, root: Path) -> dict[str, object]:
    entries = {}
    for model in STOCK_MODELS:
        entries.update(run_command(name, model, root))
    return entries


def differing(want: dict, got: dict) -> list[str]:
    """Names of the entries that are missing, new or changed."""
    return sorted(key for key in want.keys() | got.keys()
                  if want.get(key) != got.get(key))


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text())


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_artifacts_match_the_manifest(name, manifest, tmp_path):
    if name == "mc" and manifest["numpy"] != np.__version__:
        pytest.skip(f"mc entries were captured under numpy "
                    f"{manifest['numpy']}, this is {np.__version__}")
    want = {key: value for key, value in manifest["entries"].items()
            if key.split(" ", 1)[0] == name}
    moved = differing(want, run_all(name, tmp_path))
    for key in moved:
        print(f"differs: {key}")
    assert moved == []


def test_the_manifest_check_names_what_moved(tmp_path):
    want = {"a m exit": 0, "a m stdout": "x", "a m artifact.csv": "y",
            "a m gone.dat": "z"}
    got = {"a m exit": 1, "a m stdout": "x", "a m artifact.csv": "w",
           "a m new.dat": "z"}
    assert differing(want, got) == [
        "a m artifact.csv", "a m exit", "a m gone.dat", "a m new.dat"]
    assert differing(want, dict(want)) == []


def capture() -> None:
    """Write the manifest from the current code."""
    entries = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            entries.update(run_all(name, Path(tmp)))
    MANIFEST.write_text(json.dumps({"numpy": np.__version__,
                                    "entries": entries}, indent=1,
                                   sort_keys=True) + "\n")
    print(f"wrote {len(entries)} entries to {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    capture()
