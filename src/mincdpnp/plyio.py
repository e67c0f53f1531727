"""Minimal ASCII PLY point-cloud io.

Only the subset this package emits: an xyz vertex element in double
precision. Values are written with repr so a save/load round trip is
bit-exact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def save_ply(path: str | Path, points) -> None:
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must be (N, 3), got {pts.shape}")
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(pts)}",
        "property double x",
        "property double y",
        "property double z",
        "end_header",
    ]
    lines.extend(" ".join(map(repr, row)) for row in pts.tolist())
    Path(path).write_text("\n".join(lines) + "\n")


def load_ply(path: str | Path) -> np.ndarray:
    text = Path(path).read_text().splitlines()
    if not text or text[0].strip() != "ply":
        raise ValueError(f"{path} is not a PLY file")
    n_vertices = None
    body_at = None
    for idx, line in enumerate(text[1:], start=1):
        parts = line.split()
        if parts[:2] == ["element", "vertex"] and len(parts) == 3:
            n_vertices = int(parts[2])
        elif parts[:1] == ["end_header"]:
            body_at = idx + 1
            break
    if n_vertices is None or body_at is None or n_vertices < 0:
        raise ValueError(f"{path} has a malformed PLY header")
    if len(text) - body_at < n_vertices:
        raise ValueError(
            f"{path} declares {n_vertices} vertices but holds {len(text) - body_at}"
        )
    rows = [
        [float(v) for v in text[body_at + i].split()[:3]] for i in range(n_vertices)
    ]
    return np.asarray(rows, dtype=np.float64).reshape(n_vertices, 3)
