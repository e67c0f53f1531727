"""Minimal binary PLY point-cloud io.

Only the subset this package emits: an xyz vertex element of doubles in
PLY's binary_little_endian 1.0 format. The body is N rows of three '<f8'
values, so a save/load round trip is bit-exact with no text step. Any
other format, such as the ascii 1.0 of older scene directories, is
rejected: synth remakes such a scene from its seed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

FORMAT = "binary_little_endian 1.0"
PROPERTIES = ["property double x", "property double y", "property double z"]
END = b"\nend_header\n"


def save_ply(path: str | Path, points) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype="<f8"))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    header = "\n".join(["ply", f"format {FORMAT}", f"element vertex {len(pts)}", *PROPERTIES])
    Path(path).write_bytes(header.encode("ascii") + END + pts.tobytes())


def load_ply(path: str | Path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data.split(b"\n", 1)[0].strip() != b"ply":
        raise ValueError(f"{path} is not a PLY file")
    end = data.find(END)
    lines = [line.decode("latin-1").split() for line in data[: max(end, 0)].split(b"\n")]
    fmt = " ".join(next((f[1:] for f in lines if f[:1] == ["format"]), []))
    if end >= 0 and fmt and fmt != FORMAT:
        raise ValueError(f"{path} is PLY format {fmt!r}, not {FORMAT!r}: remake it with synth")
    counts = [f[2] for f in lines if f[:2] == ["element", "vertex"] and len(f) == 3]
    n_vertices = int(counts[0]) if counts else -1
    props = [" ".join(f) for f in lines if f[:1] == ["property"]]
    if end < 0 or not fmt or n_vertices < 0 or props != PROPERTIES:
        raise ValueError(f"{path} has a malformed PLY header")
    body_at = end + len(END)
    held = (len(data) - body_at) // 24  # whole rows of three doubles
    if held < n_vertices:
        raise ValueError(f"{path} declares {n_vertices} vertices but holds {held}")
    return np.frombuffer(data, "<f8", 3 * n_vertices, body_at).reshape(n_vertices, 3).copy()
