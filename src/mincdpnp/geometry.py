"""Pinhole projection and SE(3)/se(3) machinery.

Conventions used throughout the package:

- A pose T maps point-cloud coordinates to camera coordinates,
  x_cam = R @ p + t.  The camera looks down +z; a point is visible when
  its camera-frame depth exceeds ``Z_MIN`` (1e-6 m).
- Pixels are (u, v) with u along the image width, stored as length-2
  float arrays.  3D points are (x, y, z) length-3 float arrays, meters.
- A twist is a (6,) float array, rotation part first: xi = (omega, v).
  se3_exp uses the closed-form Rodrigues / V-matrix expressions with a
  second-order Taylor branch below ``SMALL_ANGLE``.
- No lens distortion and no image-bounds clipping: projections falling
  outside the image are kept as-is.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NearPiRotation

Z_MIN = 1e-6
SMALL_ANGLE = 1e-8

# The closed-form Rodrigues coefficients lose up to half their digits to
# cancellation in (1 - cos t)/t^2 once t drops below ~1e-5, so the Taylor
# series takes over well above SMALL_ANGLE.  At the switch point the
# truncated series is accurate to ~1e-28 relative.
_TAYLOR_SWITCH = 1e-4

_ORTHONORMALITY_TOL = 1e-9


def _as_float_array(values, shape, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole parameters: focal lengths and principal point, in pixels."""

    fu: float
    fv: float
    cu: float
    cv: float

    def __post_init__(self) -> None:
        for name in ("fu", "fv", "cu", "cv"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.fu <= 0 or self.fv <= 0:
            raise ValueError("focal lengths must be positive")

    def to_json_dict(self) -> dict:
        return {"fu": self.fu, "fv": self.fv, "cu": self.cu, "cv": self.cv}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CameraIntrinsics":
        return cls(
            fu=float(data["fu"]),
            fv=float(data["fv"]),
            cu=float(data["cu"]),
            cv=float(data["cv"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(dumps_json(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "CameraIntrinsics":
        return cls.from_json_dict(json.loads(Path(path).read_text()))


class Pose:
    """Rigid transform: 3x3 rotation (det +1, orthonormal) plus translation."""

    __slots__ = ("R", "t")

    def __init__(self, rotation, translation, *, check: bool = True):
        R = _as_float_array(rotation, (3, 3), "rotation")
        t = _as_float_array(translation, (3,), "translation")
        if check:
            if not np.allclose(R @ R.T, np.eye(3), atol=_ORTHONORMALITY_TOL):
                raise ValueError("rotation is not orthonormal within 1e-9")
            if abs(np.linalg.det(R) - 1.0) > _ORTHONORMALITY_TOL:
                raise ValueError("rotation determinant differs from +1")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "t", t)

    def __setattr__(self, name, value):
        raise AttributeError("Pose is immutable")

    @classmethod
    def identity(cls) -> "Pose":
        return cls(np.eye(3), np.zeros(3), check=False)

    def compose(self, other: "Pose") -> "Pose":
        """self applied after other: (self @ other)(p) = self(other(p))."""
        return Pose(self.R @ other.R, self.R @ other.t + self.t, check=False)

    def __matmul__(self, other: "Pose") -> "Pose":
        return self.compose(other)

    def inverse(self) -> "Pose":
        return Pose(self.R.T, -(self.R.T @ self.t), check=False)

    def apply(self, points) -> np.ndarray:
        """Transform one (3,) point or an (N, 3) batch."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.R.T + self.t

    def almost_equal(self, other: "Pose", atol: float = 1e-9) -> bool:
        return bool(
            np.allclose(self.R, other.R, atol=atol)
            and np.allclose(self.t, other.t, atol=atol)
        )

    def to_json_dict(self) -> dict:
        return {"R": [float(x) for x in self.R.ravel()], "t": [float(x) for x in self.t]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Pose":
        R = np.asarray(data["R"], dtype=np.float64).reshape(3, 3)
        t = np.asarray(data["t"], dtype=np.float64)
        return cls(R, t)

    def save(self, path: str | Path) -> None:
        Path(path).write_text(dumps_json(self.to_json_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "Pose":
        return cls.from_json_dict(json.loads(Path(path).read_text()))

    def __repr__(self) -> str:
        return f"Pose(R={self.R.tolist()}, t={self.t.tolist()})"


def _poses_pass_checks(R, t) -> np.ndarray:
    """Pose's checks over a stack: True where Pose(R[b], t[b]) does not raise.

    R is (B, 3, 3) and t (B, 3); the tests and tolerances are the
    constructor's (finite entries, R R^T allclose to I, det R near +1).
    """
    with np.errstate(invalid="ignore", over="ignore"):
        finite = np.isfinite(R).all(axis=(1, 2)) & np.isfinite(t).all(axis=1)
        RRt = R @ R.transpose(0, 2, 1)
        ortho = np.isclose(RRt, np.eye(3), atol=_ORTHONORMALITY_TOL).all(axis=(1, 2))
        det_off = np.abs(np.linalg.det(R) - 1.0) > _ORTHONORMALITY_TOL
    return finite & ortho & ~det_off


def dumps_json(data) -> str:
    """Canonical JSON used for every file this package writes.

    Sorted keys and fixed separators so identical inputs always produce
    byte-identical files.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def skew(w) -> np.ndarray:
    x, y, z = np.asarray(w, dtype=np.float64)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def pinhole(cam, K: CameraIntrinsics, z=None) -> np.ndarray:
    """Pixels (..., 2) of camera-frame points (..., 3): (fu x/z + cu, fv y/z + cv).

    z defaults to the points' own depth; callers that must not divide by
    a depth at or behind the camera pass a safe one instead. Every
    projection in the package goes through this expression, so the same
    point and pose give the same bits wherever they are projected.
    """
    if z is None:
        z = cam[..., 2]
    return np.stack([K.fu * cam[..., 0] / z + K.cu, K.fv * cam[..., 1] / z + K.cv], axis=-1)


def project_points(points, T: Pose, K: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of an (N, 3) batch.

    Returns (pixels, in_front): pixels is (N, 2) with NaN rows where the
    point is behind the camera, in_front the boolean visibility mask.
    """
    cam = np.atleast_2d(np.asarray(points, dtype=np.float64)) @ T.R.T + T.t
    z = cam[:, 2]
    in_front = z > Z_MIN
    pixels = np.where(in_front[:, None], pinhole(cam, K, np.where(in_front, z, 1.0)), np.nan)
    return pixels, in_front


def _rotation_coefficients(theta: float) -> tuple[float, float, float]:
    """Series coefficients a1, a2, a3 of the Rodrigues and V matrices.

    R = I + a1*W + a2*W^2,  V = I + a2*W + a3*W^2 with W = skew(omega).
    """
    t2 = theta * theta
    if theta < _TAYLOR_SWITCH:
        a1 = 1.0 - t2 / 6.0 + t2 * t2 / 120.0
        a2 = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        a3 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    else:
        a1 = np.sin(theta) / theta
        a2 = (1.0 - np.cos(theta)) / t2
        a3 = (theta - np.sin(theta)) / (t2 * theta)
    return a1, a2, a3


def se3_exp(xi) -> Pose:
    """Closed-form exponential map se(3) -> SE(3) of a twist (omega, v)."""
    xi = _as_float_array(xi, (6,), "twist")
    omega = xi[:3]
    theta = float(np.linalg.norm(omega))
    W = skew(omega)
    W2 = W @ W
    a1, a2, a3 = _rotation_coefficients(theta)
    R = np.eye(3) + a1 * W + a2 * W2
    V = np.eye(3) + a2 * W + a3 * W2
    return Pose(R, V @ xi[3:], check=False)


def so3_exp(omega) -> np.ndarray:
    """Rodrigues rotation from an axis-angle vector."""
    w = np.asarray(omega, dtype=np.float64)
    theta = float(np.linalg.norm(w))
    W = skew(w)
    a1, a2, _ = _rotation_coefficients(theta)
    return np.eye(3) + a1 * W + a2 * (W @ W)


def se3_log(T: Pose) -> np.ndarray:
    """Principal-branch inverse of se3_exp, as a (6,) twist (omega, v).

    Raises NearPiRotation within 1e-6 of a half-turn, where the axis is
    numerically unrecoverable; callers should re-seed rather than trust
    a garbage twist.
    """
    cos_angle = float(np.clip((np.trace(T.R) - 1.0) / 2.0, -1.0, 1.0))
    theta = float(np.arccos(cos_angle))
    if theta >= np.pi - 1e-6:
        raise NearPiRotation(f"rotation angle {theta:.9f} too close to pi")
    vee = 0.5 * np.array(
        [T.R[2, 1] - T.R[1, 2], T.R[0, 2] - T.R[2, 0], T.R[1, 0] - T.R[0, 1]]
    )
    omega = vee if theta < SMALL_ANGLE else theta / np.sin(theta) * vee
    W = skew(omega)
    t2 = theta * theta
    if theta < _TAYLOR_SWITCH:
        coeff = 1.0 / 12.0 + t2 / 720.0
    else:
        coeff = (1.0 - (theta * np.sin(theta)) / (2.0 * (1.0 - np.cos(theta)))) / t2
    V_inv = np.eye(3) - 0.5 * W + coeff * (W @ W)
    return np.concatenate([omega, V_inv @ T.t])


def rotation_angle_deg(R) -> float:
    """Angle of a rotation matrix, degrees."""
    cos_angle = float(np.clip((np.trace(np.asarray(R)) - 1.0) / 2.0, -1.0, 1.0))
    return float(np.degrees(np.arccos(cos_angle)))


def pose_difference(a: Pose, b: Pose) -> tuple[float, float]:
    """(rotation error deg, translation error m) between two poses."""
    rot = rotation_angle_deg(a.R @ b.R.T)
    trans = float(np.linalg.norm(a.t - b.t))
    return rot, trans


_BASIS_SKEWS = [skew(e) for e in np.eye(3)]


# No pipeline caller; kept while perfbench/tracing.py TARGETS names it.
def exp_action_jacobian(xi_vec, x0) -> tuple[np.ndarray, np.ndarray]:
    """Point action of exp(xi) and its derivative in the twist coordinates.

    For y(xi) = R(omega) @ x0 + V(omega) @ v, returns (y, J) where
    y is (N, 3) and J is (N, 3, 6) with columns ordered (omega, v).
    The omega columns differentiate the Rodrigues and V coefficient
    series directly, so the result is the exact derivative at the given
    xi, not a local approximation at zero.
    """
    xi = np.asarray(xi_vec, dtype=np.float64)
    omega, v = xi[:3], xi[3:]
    pts = np.atleast_2d(np.asarray(x0, dtype=np.float64))
    n = pts.shape[0]

    theta = float(np.linalg.norm(omega))
    W = skew(omega)
    W2 = W @ W
    a1, a2, a3 = _rotation_coefficients(theta)
    if theta < _TAYLOR_SWITCH:
        # Taylor derivatives; the theta**3 terms keep the error ~1e-16.
        da1 = -theta / 3.0 + theta**3 / 30.0
        da2 = -theta / 12.0 + theta**3 / 180.0
        da3 = -theta / 60.0 + theta**3 / 1260.0
    else:
        t2 = theta * theta
        sin_t, cos_t = np.sin(theta), np.cos(theta)
        da1 = (theta * cos_t - sin_t) / t2
        da2 = (theta * sin_t - 2.0 * (1.0 - cos_t)) / (t2 * theta)
        da3 = ((1.0 - cos_t) * theta - 3.0 * (theta - sin_t)) / (t2 * t2)

    R = np.eye(3) + a1 * W + a2 * W2
    V = np.eye(3) + a2 * W + a3 * W2
    y = pts @ R.T + V @ v

    J = np.empty((n, 3, 6))
    dtheta = omega / theta if theta >= SMALL_ANGLE else np.zeros(3)
    for i in range(3):
        E = _BASIS_SKEWS[i]
        EW = E @ W + W @ E
        dR = da1 * dtheta[i] * W + a1 * E + da2 * dtheta[i] * W2 + a2 * EW
        dV = da2 * dtheta[i] * W + a2 * E + da3 * dtheta[i] * W2 + a3 * EW
        J[:, :, i] = pts @ dR.T + dV @ v
    J[:, :, 3:] = np.broadcast_to(V, (n, 3, 3))
    return y, J


def zero_twist_jacobian(points) -> np.ndarray:
    """exp_action_jacobian's J at xi = 0 in closed form, [-[x]x | I] for
    each point x of (N, 3): the same bytes, without the series."""
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    J = np.zeros((len(points), 3, 6))
    J[:, 0, 1], J[:, 0, 2], J[:, 0, 3] = z, -y, 1.0
    J[:, 1, 0], J[:, 1, 2], J[:, 1, 4] = -z, x, 1.0
    J[:, 2, 0], J[:, 2, 1], J[:, 2, 5] = y, -x, 1.0
    return J


def projection_jacobian(cam_points, K: CameraIntrinsics) -> np.ndarray:
    """Derivative of the pinhole projection at camera-frame points (N, 3)."""
    pts = np.atleast_2d(np.asarray(cam_points, dtype=np.float64))
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    J = np.zeros((pts.shape[0], 2, 3))
    J[:, 0, 0] = K.fu / z
    J[:, 0, 2] = -K.fu * x / (z * z)
    J[:, 1, 1] = K.fv / z
    J[:, 1, 2] = -K.fv * y / (z * z)
    return J
