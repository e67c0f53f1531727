"""Keypoint sets, feature matching, nearest-neighbour search.

The nearest-feature search is a float32 screen, a float64 rescore: it
screens row blocks with one float32 matrix product, a.b - bb/2, takes
each row's argmax, and rescores in the distance matrix's own float64
arithmetic only the rows whose runner-up comes within the screen's
error bound, so it gives the dense argmin's indices and score bits
without forming the N x M matrix; a KeypointSet2D keeps its last
search. nearest_points does so for image points with a k-d tree,
O(log M) per query. `_load_matrix_csv` is the one matrix CSV reader.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DimensionMismatch, EmptySet, MissingFeatures, NotOneToOne

DEFAULT_FEATURE_DIM = 128


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _check_features(features, count: int):
    if features is None:
        return None
    feats = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if feats.shape[0] != count:
        raise ValueError(f"{feats.shape[0]} feature rows for {count} keypoints")
    if not np.all(np.isfinite(feats)):
        raise ValueError("features must be finite")
    return _readonly(feats)


class KeypointSet2D:
    """Image keypoints: (N, 2) pixel array with optional (N, D) features.

    Duplicate pixels at bitwise-identical coordinates are rejected; they
    would make nearest-neighbor assignments ambiguous downstream. The
    set is immutable, so it keeps what it derives: its pixel k-d tree
    (tree) and its last nearest-feature search (nearest_in), whose cloud
    set it holds by strong reference, so a freed set's id never aliases.
    """

    __slots__ = ("pixels", "features", "_tree", "_nearest")

    def __init__(self, pixels, features=None):
        px = np.atleast_2d(np.asarray(pixels, dtype=np.float64))
        if px.size == 0:
            px = px.reshape(0, 2)
        if px.ndim != 2 or px.shape[1] != 2:
            raise ValueError(f"pixels must be (N, 2), got {px.shape}")
        if not np.all(np.isfinite(px)):
            raise ValueError("pixels must be finite")
        if len(np.unique(px, axis=0)) != len(px):
            raise ValueError("duplicate pixel coordinates")
        object.__setattr__(self, "pixels", _readonly(px))
        object.__setattr__(self, "features", _check_features(features, len(px)))
        object.__setattr__(self, "_tree", None)
        object.__setattr__(self, "_nearest", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.pixels)

    def tree(self) -> cKDTree:
        """k-d tree over the pixels, built once: the set is immutable."""
        if self._tree is None:
            object.__setattr__(self, "_tree", cKDTree(self.pixels))
        return self._tree

    def nearest_in(self, cloud_set: "KeypointSet3D") -> tuple[np.ndarray, np.ndarray]:
        """nearest_features of this set's features in cloud_set's, as
        read-only arrays; run once while cloud_set is the last set asked.
        An empty cloud_set raises EmptySet."""
        if self._nearest is None or self._nearest[0] is not cloud_set:
            if len(cloud_set) == 0:
                raise EmptySet("3D keypoint set is empty")
            found = nearest_features(self.require_features(), cloud_set.require_features())
            for arr in found:
                arr.setflags(write=False)
            object.__setattr__(self, "_nearest", (cloud_set, *found))
        return self._nearest[1:]

    def require_features(self) -> np.ndarray:
        if self.features is None:
            raise MissingFeatures("2D keypoint set carries no features")
        return self.features


class KeypointSet3D:
    """Point-cloud keypoints: (N, 3) point array with optional (N, D) features."""

    __slots__ = ("points", "features")

    def __init__(self, points, features=None):
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if pts.size == 0:
            pts = pts.reshape(0, 3)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        object.__setattr__(self, "points", _readonly(pts))
        object.__setattr__(self, "features", _check_features(features, len(pts)))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self) -> int:
        return len(self.points)

    def require_features(self) -> np.ndarray:
        if self.features is None:
            raise MissingFeatures("3D keypoint set carries no features")
        return self.features


# Relative gap under which a query's two nearest candidates count as
# tied; the tree ranks them by its own rounded distances.
TIE_RTOL = 1e-9


def nearest_points(tree: cKDTree, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest tree point of each 2D query: (index array, squared distances).

    np.argmin's indices and bits over the rows of cdist(queries,
    tree.data, "sqeuclidean"), ties to the lowest index. The tree gives
    two indices per row, whose squares are recomputed as cdist does,
    d0*d0 + d1*d1; a row whose two lie within TIE_RTOL rescores the ball
    of the smaller, keeping the lowest index among its smallest values.
    """
    data = tree.data
    _, cand = tree.query(queries, k=2)
    cand = np.minimum(cand, len(data) - 1)  # a one-point tree pads with len(data)
    d = queries[:, None, :] - data[cand]
    sq = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    best, best_sq = cand[:, 0].copy(), sq[:, 0].copy()
    tied = np.flatnonzero(~(sq[:, 1] > sq[:, 0] * (1.0 + TIE_RTOL)))
    if len(tied):
        radius = np.sqrt(sq[tied].min(axis=1)) * (1.0 + TIE_RTOL)
        balls = tree.query_ball_point(queries[tied], radius)
        rows = np.concatenate([np.repeat(tied, [len(b) for b in balls]), np.repeat(tied, 2)])
        cols = np.concatenate([*map(np.asarray, balls), cand[tied].ravel()]).astype(np.intp)
        d = queries[rows] - data[cols]
        s = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        order = np.lexsort((cols, s, rows))  # by row, then value, then index
        rows, cols, s = rows[order], cols[order], s[order]
        first = np.r_[True, rows[1:] != rows[:-1]]
        best[rows[first]], best_sq[rows[first]] = cols[first], s[first]
    return best, best_sq


def _load_matrix_csv(path):
    """The (rows, cols) float64 matrix of a CSV file of repr floats, bit for
    bit; None for an empty file."""
    if not Path(path).read_text().strip():
        return None
    return np.loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)


@dataclass(frozen=True)
class MatchConfig:
    """Feature-matching threshold on the distance between unit-L2 features."""

    delta: float = 0.5

    def __post_init__(self) -> None:
        if not (self.delta > 0):
            raise ValueError("delta must be positive")


class CorrespondenceSet:
    """Sparse 2D-3D correspondence list: (i, j, score) triples.

    i indexes the 2D set, j the 3D set, score is the feature distance
    that produced the pair (or 0.0 when none applies).
    """

    __slots__ = ("idx2d", "idx3d", "scores")

    def __init__(self, idx2d, idx3d, scores=None, *, n2d=None, n3d=None):
        i = np.asarray(idx2d, dtype=np.int64).reshape(-1)
        j = np.asarray(idx3d, dtype=np.int64).reshape(-1)
        s = (
            np.zeros(len(i))
            if scores is None
            else np.asarray(scores, dtype=np.float64).reshape(-1)
        )
        if not (len(i) == len(j) == len(s)):
            raise ValueError("index and score lists must have equal length")
        if len(i) and (i.min() < 0 or j.min() < 0):
            raise ValueError("negative correspondence index")
        if n2d is not None and len(i) and i.max() >= n2d:
            raise ValueError(f"2D index {i.max()} out of range for set of {n2d}")
        if n3d is not None and len(j) and j.max() >= n3d:
            raise ValueError(f"3D index {j.max()} out of range for set of {n3d}")
        for arr in (i, j, s):
            arr.setflags(write=False)
        object.__setattr__(self, "idx2d", i)
        object.__setattr__(self, "idx3d", j)
        object.__setattr__(self, "scores", s)

    def __setattr__(self, name, value):
        raise AttributeError("CorrespondenceSet is immutable")

    def __len__(self) -> int:
        return len(self.idx2d)

    def __iter__(self):
        return zip(self.idx2d.tolist(), self.idx3d.tolist(), self.scores.tolist())

    def pairs(self) -> set:
        return set(zip(self.idx2d.tolist(), self.idx3d.tolist()))

    def is_one_to_one(self) -> bool:
        return len(set(self.idx2d.tolist())) == len(self.idx2d) and len(
            set(self.idx3d.tolist())
        ) == len(self.idx3d)

    def require_one_to_one(self) -> "CorrespondenceSet":
        if not self.is_one_to_one():
            raise NotOneToOne("a 2D or 3D index appears in more than one pair")
        return self

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for i, j, s in self:
                fh.write(f"{i},{j},{repr(s)}\n")

    @classmethod
    def load_csv(cls, path: str | Path) -> "CorrespondenceSet":
        raw = _load_matrix_csv(path)
        if raw is None:
            return cls([], [], [])
        if raw.shape[1] != 3:
            raise ValueError(f"expected 3 columns (i, j, score), got {raw.shape[1]}")
        return cls(raw[:, 0].astype(np.int64), raw[:, 1].astype(np.int64), raw[:, 2])


def normalize_features(feats: np.ndarray) -> np.ndarray:
    """Unit-L2 rows; zero rows stay zero and a row holding a NaN stays NaN."""
    feats = np.atleast_2d(np.asarray(feats, dtype=np.float64))
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    return np.divide(feats, norms, out=np.zeros_like(feats), where=norms != 0)


def _prepared_features(feats2d, feats3d):
    """Both feature sets through normalize_features."""
    a = np.atleast_2d(np.asarray(feats2d, dtype=np.float64))
    b = np.atleast_2d(np.asarray(feats3d, dtype=np.float64))
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"feature dimensions {a.shape[1]} vs {b.shape[1]}")
    return normalize_features(a), normalize_features(b)


# No pipeline caller; kept while perfbench/tracing.py TARGETS names it.
def feature_distance_matrix(feats2d: np.ndarray, feats3d: np.ndarray) -> np.ndarray:
    """All-pairs distance matrix D with D[i, j] = d(f2d_i, f3d_j)."""
    return cdist(*_prepared_features(feats2d, feats3d), metric="euclidean")


# Query rows screened per matrix product: the block's float32 screen is a
# (NEAREST_BLOCK_ROWS, M) array, about 8 MB at M = 4000.
NEAREST_BLOCK_ROWS = 512

# Screen slack, in units of (D + 2) * (aa_i + max bb), D the feature
# dimension. The screen is a.b_j - bb_j/2 in float32; exactly, it is e_j,
# and cdist's squared distance is aa_i - 2 e_j. With u the float32 unit
# roundoff (eps32 / 2), and |a| |b| at most (aa + bb) / 2:
# - rounding a and b to float32 moves each product by at most 2u |a_k b_k|,
#   and a computed n-term dot product lies within n u |a| |b| of the exact
#   one in any summation order (Higham, "Accuracy and Stability of
#   Numerical Algorithms", sec. 3.1): together (D + 2) u |a| |b_j|;
# - rounding bb_j / 2 to float32 adds u bb_j / 2, and the subtraction
#   u (|a| |b_j| + bb_j / 2).
# So a screen value lies within (D + 5) u (aa_i + max bb) / 2 of e_j, and
# the gap between two of them moves by at most 2 (D + 2) eps32
# (aa_i + max bb) in squared-distance units (D >= 1). cdist's float64
# sums move it by about 2 (D + 2) eps64 (aa_i + max bb) more, so the
# column that cdist's argmin picks lies at most 4 (D + 2) eps32
# (aa_i + max bb) below the screen's row maximum, in squared-distance
# units. The slack is 2^4 times that bound: about 1e-3 (aa_i + max bb)
# at D = 128, and half of it in screen units.
NEAREST_SLACK = 2.0**4 * 4 * np.finfo(np.float32).eps


def _pair_distances(a, b, rows, cols):
    """cdist's Euclidean values at (rows, cols), in cdist's own arithmetic:
    the squares summed in feature order, then the square root. Pairs go
    in chunks of NEAREST_BLOCK_ROWS, so the gathered differences stay
    one block's size however many pairs there are."""
    out = np.empty(len(rows))
    for k in range(0, len(rows), NEAREST_BLOCK_ROWS):
        chunk = slice(k, k + NEAREST_BLOCK_ROWS)
        d = a[rows[chunk]] - b[cols[chunk]]
        out[chunk] = np.sqrt(np.cumsum(d * d, axis=1)[:, -1])
    return out


def _first_copies(b, cols):
    """The columns of cols whose 3D row no earlier column of cols repeats
    bit for bit, in order: one per set of equal candidates."""
    rows = np.ascontiguousarray(b[cols])
    as_bytes = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first = np.unique(as_bytes, return_index=True)
    return cols[np.sort(first)]


def nearest_features(feats2d: np.ndarray, feats3d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest 3D feature of each 2D feature: (index array, distance array).

    The same indices and distance bits as np.argmin over the rows of
    feature_distance_matrix, ties going to the lowest index, without the
    N x M matrix: a float32 screen, a float64 rescore. Each block of
    query rows is screened with one float32 matrix product,
    a.b_j - bb_j/2 (its argmax is the argmin of the distance; the row's
    own aa drops out). A row whose runner-up lies within half of
    NEAREST_SLACK of its maximum keeps every column that close and
    rescores them in float64 with cdist's arithmetic, one column per set
    of bitwise-equal candidate 3D rows (the lowest index); any other row
    takes its argmax. Scores are always the float64 rescore. An empty 3D
    set raises ValueError, as an argmin over nothing does.
    """
    a, b = _prepared_features(feats2d, feats3d)
    if len(b) == 0:
        raise ValueError("nearest_features needs at least one 3D feature")
    if a.shape[1] == 0:  # zero-length features: every distance is 0.0
        return np.zeros(len(a), dtype=np.intp), np.zeros(len(a))
    aa = np.einsum("ij,ij->i", a, a)
    bb = np.einsum("ij,ij->i", b, b)
    half_slack = 0.5 * NEAREST_SLACK * (a.shape[1] + 2) * (aa + bb.max())
    a32 = a.astype(np.float32)
    bT32 = b.T.astype(np.float32)
    half_bb = (0.5 * bb).astype(np.float32)
    best = np.empty(len(a), dtype=np.intp)
    buf = np.empty((min(len(a), NEAREST_BLOCK_ROWS), len(b)), dtype=np.float32)
    for start in range(0, len(a), NEAREST_BLOCK_ROWS):
        block = slice(start, start + NEAREST_BLOCK_ROWS)
        screen = np.matmul(a32[block], bT32, out=buf[: len(a32[block])])
        screen -= half_bb
        r = np.arange(len(screen))
        best[block] = pick = screen.argmax(axis=1)
        top = screen[r, pick].astype(np.float64)
        screen[r, pick] = -np.inf
        limit = top - half_slack[block]
        # "not below": a NaN row is rescored with every column, and the
        # argmin there returns its first NaN, as the dense argmin does
        close = np.flatnonzero(~(screen.max(axis=1) < limit))
        if len(close) == 0:
            continue
        screen[r, pick] = top
        mask = ~(screen[close] < limit[close, None])
        cand = _first_copies(b, np.flatnonzero(mask.any(axis=0)))
        rows, cols = np.nonzero(mask[:, cand])
        cols = cand[cols]
        counts = np.bincount(rows, minlength=len(close))
        first = np.cumsum(counts) - counts
        # candidates of a row, in column order, padded with +inf: argmin
        # takes the lowest column among the smallest values
        table = np.full((len(close), counts.max()), np.inf)
        table[rows, np.arange(len(rows)) - first[rows]] = _pair_distances(
            a, b, close[rows] + start, cols
        )
        best[close + start] = cols[first + np.argmin(table, axis=1)]
    return best, _pair_distances(a, b, np.arange(len(a)), best)
