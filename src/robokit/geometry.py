"""Planar and spatial rigid-body geometry: angle wrapping, SE(2) poses, SE(3) transforms.

Conventions:
    * angles in radians, wrapped to (-pi, pi], counterclockwise positive
    * rotations are 3x3 matrices; Euler angles are intrinsic Z-Y-X (yaw, pitch,
      roll), i.e. R = Rz(yaw) @ Ry(pitch) @ Rx(roll)
    * SE3 maps a point p to R @ p + translation
    * poses are immutable; all operations return new objects
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# stores a field of a frozen dataclass from a hand-written __init__; it keeps the
# instance's key table shared, where a __dict__.update would cost 144 B per instance
set_field = object.__setattr__


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi].  wrap_angle(theta + 2*pi*k) == wrap_angle(theta)."""
    return -((math.pi - theta) % TWO_PI - math.pi) + 0.0


def angle_diff(a: float, b: float) -> float:
    """Smallest signed difference a - b, wrapped to (-pi, pi]."""
    return wrap_angle(a - b)


@dataclass(frozen=True, init=False)
class Pose2D:
    """Planar pose [x, y, theta] in meters/radians; theta normalized to (-pi, pi].
    A NaN or infinite field raises ValueError."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    # written by hand, since the base's control loop builds several poses per step:
    # a generated __init__ would store each field, then __post_init__ again
    def __init__(self, x: float = 0.0, y: float = 0.0, theta: float = 0.0):
        x, y, theta = float(x), float(y), float(theta)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
            raise ValueError(f"Pose2D fields must be finite, got ({x}, {y}, {theta})")
        set_field(self, "x", x)
        set_field(self, "y", y)
        set_field(self, "theta", wrap_angle(theta))

    def compose(self, rel: "Pose2D") -> "Pose2D":
        """SE(2) composition: `rel` expressed in this pose's frame, returned in the world frame."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2D(
            self.x + c * rel.x - s * rel.y,
            self.y + s * rel.x + c * rel.y,
            self.theta + rel.theta,
        )

    def inverse(self) -> "Pose2D":
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Pose2D(-(c * self.x + s * self.y), -(-s * self.x + c * self.y), -self.theta)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])

    @staticmethod
    def from_array(a) -> "Pose2D":
        return Pose2D(float(a[0]), float(a[1]), float(a[2]))


def planar_distance(a: Pose2D, b: Pose2D) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


# --- rotations -------------------------------------------------------------

_I3 = np.eye(3)
_I3.flags.writeable = False


def skew(a) -> np.ndarray:
    """Cross-product matrix K of a 3-vector: K @ v == cross(a, v)."""
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def axis_rotation(axis, angle: float) -> np.ndarray:
    """Rotation by `angle` about the unit vector `axis` (Rodrigues): I + sin·K + (1 - cos)·K²."""
    K = skew(axis)
    return _I3 + math.sin(angle) * K + (1.0 - math.cos(angle)) * (K @ K)


def zyx_matrix(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Rz(yaw) @ Ry(pitch) @ Rx(roll), in closed form: with c*, s* the cosine and
    sine of each angle, the rows are (cy·cp, (cy·sp)·sr - sy·cr, (cy·sp)·cr + sy·sr),
    (sy·cp, (sy·sp)·sr + cy·cr, (sy·sp)·cr - cy·sr) and (-sp, cp·sr, cp·cr)."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    cr, sr = math.cos(roll), math.sin(roll)
    cs, ss = cy * sp, sy * sp
    return np.array([[cy * cp, cs * sr - sy * cr, cs * cr + sy * sr],
                     [sy * cp, ss * sr + cy * cr, ss * cr - cy * sr],
                     [-sp, cp * sr, cp * cr]])


def zyx_from_matrix(m) -> tuple[float, float, float]:
    """Recover (yaw, pitch, roll) with pitch in [-pi/2, pi/2] where possible."""
    pitch = math.asin(min(1.0, max(-1.0, -m[2, 0])))
    if abs(m[2, 0]) < 1.0 - 1e-10:
        yaw = math.atan2(m[1, 0], m[0, 0])
        roll = math.atan2(m[2, 1], m[2, 2])
    else:  # gimbal lock: fold roll into yaw
        yaw = math.atan2(-m[0, 1], m[1, 1])
        roll = 0.0
    return yaw, pitch, roll


def rotation_vector(R: np.ndarray) -> np.ndarray:
    """Axis*angle of a rotation matrix (the log map); angle in [0, pi]."""
    tr = min(3.0, max(-1.0, R[0, 0] + R[1, 1] + R[2, 2]))
    angle = math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))
    if angle < 1e-9:
        return 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle > math.pi - 1e-6:
        # near pi: extract axis from the symmetric part
        d = np.diagonal(R)
        k = int(np.argmax(d))
        axis = np.sqrt(np.maximum(0.0, (d - (tr - 1.0) / 2.0) / (2.0 - (tr - 1.0))))
        axis = np.array([math.copysign(axis[0], R[2, 1] - R[1, 2]),
                         math.copysign(axis[1], R[0, 2] - R[2, 0]),
                         math.copysign(axis[2], R[1, 0] - R[0, 1])])
        if axis[k] == 0.0:
            axis[k] = 1.0
        n = np.linalg.norm(axis)
        return angle * axis / n
    s = 2.0 * math.sin(angle)
    return (angle / s) * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])


def quat_from_matrix(m) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix. Only SE3.rotation calls it;
    robokit itself works in matrices."""
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = np.array([0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
                      (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] > m[1, 1] and m[0, 0] > m[2, 2]:
        s = math.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array([(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
                      (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] > m[2, 2]:
        s = math.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array([(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
                      (m[1, 2] + m[2, 1]) / s])
    else:
        s = math.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array([(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
                      (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    return q / np.linalg.norm(q)


class SE3:
    """Rigid transform: translation (m) and 3x3 rotation matrix R; maps p to R @ p + translation."""

    __slots__ = ("translation", "R")

    def __init__(self, translation=(0.0, 0.0, 0.0), R=None):
        t = np.asarray(translation, dtype=float)
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        R = _I3 if R is None else np.asarray(R, dtype=float)
        if R.shape != (3, 3):
            raise ValueError("R must be a 3x3 matrix")
        self.translation = t
        self.R = R

    @staticmethod
    def identity() -> "SE3":
        return SE3()

    @staticmethod
    def from_xyz_rpy(xyz, rpy) -> "SE3":
        return SE3(xyz, zyx_matrix(rpy[2], rpy[1], rpy[0]))

    @property
    def rotation(self) -> np.ndarray:
        """Unit quaternion (w, x, y, z) of R. robokit itself never reads it; it exists
        for external readers that take a pose's orientation as a quaternion."""
        return quat_from_matrix(self.R)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.R
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "SE3") -> "SE3":
        return SE3(self.translation + self.R @ other.translation, self.R @ other.R)

    def __matmul__(self, other: "SE3") -> "SE3":
        return self.compose(other)

    def inverse(self) -> "SE3":
        Rt = self.R.T
        return SE3(-(Rt @ self.translation), Rt)

    def transform_point(self, p) -> np.ndarray:
        """p may be one point (3,) or N points (N, 3)."""
        return np.asarray(p, dtype=float) @ self.R.T + self.translation

    def rotate_vector(self, v) -> np.ndarray:
        """v may be one vector (3,) or N vectors (N, 3)."""
        return np.asarray(v, dtype=float) @ self.R.T

    def __repr__(self):
        t, r = self.translation, rotation_vector(self.R)
        return (f"SE3(t=[{t[0]:.6g}, {t[1]:.6g}, {t[2]:.6g}], "
                f"rotvec=[{r[0]:.6g}, {r[1]:.6g}, {r[2]:.6g}])")


def pose_error(target: SE3, actual: SE3) -> tuple[np.ndarray, np.ndarray]:
    """(position error, orientation error as world-frame rotation vector) taking actual to target."""
    return target.translation - actual.translation, rotation_vector(target.R @ actual.R.T)
