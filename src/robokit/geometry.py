"""Planar and spatial rigid-body geometry: angle wrapping, SE(2) poses, quaternions, SE(3) transforms.

Conventions:
    * angles in radians, wrapped to (-pi, pi], counterclockwise positive
    * quaternions ordered (w, x, y, z), unit norm
    * poses are immutable; all operations return new objects
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to (-pi, pi].  wrap_angle(theta + 2*pi*k) == wrap_angle(theta)."""
    return -((math.pi - theta) % TWO_PI - math.pi) + 0.0


def angle_diff(a: float, b: float) -> float:
    """Smallest signed difference a - b, wrapped to (-pi, pi]."""
    return wrap_angle(a - b)


@dataclass(frozen=True)
class Pose2D:
    """Planar pose [x, y, theta] in meters/radians; theta normalized to (-pi, pi]."""

    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "theta", wrap_angle(float(self.theta)))

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

    def position(self) -> np.ndarray:
        return np.array([self.x, self.y])

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.theta])

    @staticmethod
    def from_array(a) -> "Pose2D":
        return Pose2D(float(a[0]), float(a[1]), float(a[2]))


def planar_distance(a: Pose2D, b: Pose2D) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


# --- quaternions -----------------------------------------------------------

def quat_normalize(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    return q / n


def quat_from_axis_angle(axis, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("zero rotation axis")
    half = 0.5 * angle
    return np.concatenate(([math.cos(half)], math.sin(half) * axis / n))


def quat_multiply(a, b) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ])


def quat_conjugate(q) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q, v) -> np.ndarray:
    """Rotate vector(s) v by quaternion q.  v may be shape (3,) or (N, 3)."""
    v = np.asarray(v, dtype=float)
    w, x, y, z = q
    u = np.array([x, y, z])
    single = v.ndim == 1
    vv = np.atleast_2d(v)
    t = 2.0 * np.cross(u, vv)
    out = vv + w * t + np.cross(u, t)
    return out[0] if single else out


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_from_matrix(m) -> np.ndarray:
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
    return quat_normalize(q)


def quat_rotation_vector(q) -> np.ndarray:
    """Axis*angle (log map) of a unit quaternion; angle in [0, pi]."""
    w = min(1.0, max(-1.0, float(q[0])))
    v = np.asarray(q[1:], dtype=float)
    if w < 0:  # canonical hemisphere
        w, v = -w, -v
    s = np.linalg.norm(v)
    if s < 1e-12:
        return 2.0 * v  # small-angle: sin(a/2) ~ a/2
    angle = 2.0 * math.atan2(s, w)
    return angle * v / s


def quat_from_zyx(yaw: float, pitch: float, roll: float) -> np.ndarray:
    """Intrinsic Z-Y-X (yaw, pitch, roll) Euler angles to quaternion: Rz(yaw)·Ry(pitch)·Rx(roll)."""
    qz = quat_from_axis_angle([0, 0, 1], yaw)
    qy = quat_from_axis_angle([0, 1, 0], pitch)
    qx = quat_from_axis_angle([1, 0, 0], roll)
    return quat_multiply(quat_multiply(qz, qy), qx)


def zyx_from_quat(q) -> tuple[float, float, float]:
    """Recover (yaw, pitch, roll) with pitch in [-pi/2, pi/2] where possible."""
    m = quat_to_matrix(q)
    pitch = math.asin(min(1.0, max(-1.0, -m[2, 0])))
    if abs(m[2, 0]) < 1.0 - 1e-10:
        yaw = math.atan2(m[1, 0], m[0, 0])
        roll = math.atan2(m[2, 1], m[2, 2])
    else:  # gimbal lock: fold roll into yaw
        yaw = math.atan2(-m[0, 1], m[1, 1])
        roll = 0.0
    return yaw, pitch, roll


class SE3:
    """Rigid transform: translation (m) + unit quaternion (w, x, y, z).

    Composition renormalizes the quaternion so drift stays below 1e-9 through
    arbitrarily long chains.
    """

    __slots__ = ("translation", "rotation")

    def __init__(self, translation=(0.0, 0.0, 0.0), rotation=(1.0, 0.0, 0.0, 0.0)):
        t = np.asarray(translation, dtype=float)
        if t.shape != (3,):
            raise ValueError("translation must be a 3-vector")
        q = quat_normalize(rotation)
        self.translation = t
        self.rotation = q

    @staticmethod
    def identity() -> "SE3":
        return SE3()

    @staticmethod
    def from_xyz_rpy(xyz, rpy) -> "SE3":
        return SE3(xyz, quat_from_zyx(rpy[2], rpy[1], rpy[0]))

    @staticmethod
    def from_matrix(m) -> "SE3":
        m = np.asarray(m, dtype=float)
        return SE3(m[:3, 3], quat_from_matrix(m[:3, :3]))

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = quat_to_matrix(self.rotation)
        m[:3, 3] = self.translation
        return m

    def compose(self, other: "SE3") -> "SE3":
        return SE3(
            self.translation + quat_rotate(self.rotation, other.translation),
            quat_multiply(self.rotation, other.rotation),
        )

    def __matmul__(self, other: "SE3") -> "SE3":
        return self.compose(other)

    def inverse(self) -> "SE3":
        qi = quat_conjugate(self.rotation)
        return SE3(-quat_rotate(qi, self.translation), qi)

    def transform_point(self, p) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        return quat_rotate(self.rotation, p) + self.translation

    def rotate_vector(self, v) -> np.ndarray:
        return quat_rotate(self.rotation, v)

    def __repr__(self):
        t = self.translation
        q = self.rotation
        return (f"SE3(t=[{t[0]:.6g}, {t[1]:.6g}, {t[2]:.6g}], "
                f"q=[{q[0]:.6g}, {q[1]:.6g}, {q[2]:.6g}, {q[3]:.6g}])")


def pose_error(target: SE3, actual: SE3) -> tuple[np.ndarray, np.ndarray]:
    """(position error, orientation error as world-frame rotation vector) taking actual to target."""
    dp = target.translation - actual.translation
    dq = quat_multiply(target.rotation, quat_conjugate(actual.rotation))
    return dp, quat_rotation_vector(dq)
