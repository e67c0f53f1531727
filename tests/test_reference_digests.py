"""The reference CLI runs against their committed output digests.

tests/reference_digests.txt holds the `sha256  name` lines that
tests/reference_runs.py prints, under the Python, numpy and scipy
versions they were recorded with. Any change to an output byte fails
here, naming each output that changed; so does a run under other
versions, whose floating-point bits need not match.
"""

import platform
from pathlib import Path

import numpy as np
import scipy

import reference_runs

DIGESTS = Path(__file__).with_name("reference_digests.txt")
VERSIONS_PREFIX = "# versions: "


def digests(lines) -> dict:
    """{name: sha256} of `sha256  name` lines; comment lines are skipped."""
    pairs = (line.split("  ", 1) for line in lines if not line.startswith("#"))
    return {name: digest for digest, name in pairs}


def test_reference_outputs_match_the_committed_digests(tmp_path, monkeypatch, capsys):
    lines = DIGESTS.read_text().splitlines()
    recorded = next(l[len(VERSIONS_PREFIX):] for l in lines if l.startswith(VERSIONS_PREFIX))
    versions = (
        f"python {platform.python_version()}, numpy {np.__version__}, scipy {scipy.__version__}"
    )
    assert versions == recorded, (
        f"the digests were recorded under {recorded}, this run has {versions}"
    )
    monkeypatch.chdir(tmp_path)  # run_all changes the working directory
    assert reference_runs.run_all(tmp_path / "out") == 0
    want, got = digests(lines), digests(capsys.readouterr().out.splitlines())
    changed = sorted(name for name in want.keys() | got.keys() if want.get(name) != got.get(name))
    assert not changed, f"outputs that differ from {DIGESTS.name}: {changed}"
