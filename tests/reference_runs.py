"""Reference command-line runs and the sha256 digest of each output.

    python tests/reference_runs.py OUTDIR

runs the reference invocations below through mincdpnp.cli.main with the
package from this checkout's src/, writes their files under OUTDIR (new
or empty), and prints one `sha256  name` line per output file and per
captured stdout. Run it on two checkouts and diff the printed lines:
equal lines mean a change left every output byte-identical. It exits 1
if any run exits nonzero.
tests/reference_digests.txt holds the lines of the current code, and
tests/test_reference_digests.py checks a fresh run against them; a
change that alters an output on purpose records the new lines there.
pytest does not collect this script (no test_ prefix).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mincdpnp.cli import main  # noqa: E402


# name -> argv, in run order, with paths relative to the output directory
# (the runs' stdout then names no absolute path); match and the two solve
# verbs read a scene synth writes
REFERENCE_RUNS = {
    "eval-n100": [
        "eval", "--gen", "20", "--solver", "both", "--n-points", "100",
        "--pixel-noise", "0.5", "--outlier-rate", "0.2", "--seed", "7",
        "--out", "eval-n100.jsonl",
        "--summary", "eval-n100.summary.json",
    ],
    "eval-n300": [
        "eval", "--gen", "6", "--solver", "both", "--n-points", "300",
        "--feature-noise", "0.3", "--outlier-rate", "0.4", "--dropout-rate", "0.1",
        "--delta", "1.0", "--seed", "11",
        "--out", "eval-n300.jsonl",
        "--summary", "eval-n300.summary.json",
    ],
    "grad-check": ["grad-check", "--seed", "3"],
    "bound-check": ["bound-check", "--seed", "4"],
    "synth": ["synth", "--out", "scenes"],
    "match": ["match", "--scene", "scenes/scene_0000", "--out", "match.csv"],
    "solve-chamfer": [
        "solve-chamfer", "--scene", "scenes/scene_0000",
        "--trace", "trace.csv", "--out", "chamfer_pose.json",
    ],
    "solve-pnp": ["solve-pnp", "--scene", "scenes/scene_0000", "--out", "pnp_pose.json"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_all(out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)
    failed = 0
    for name, argv in REFERENCE_RUNS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            print(f"{name} exited {code}", file=sys.stderr)
            failed = 1
        print(f"{sha256(buf.getvalue().encode())}  stdout/{name}")
    for path in sorted(p for p in Path().rglob("*") if p.is_file()):
        print(f"{sha256(path.read_bytes())}  {path.as_posix()}")
    return failed


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run_all(Path(sys.argv[1]).resolve()))
