"""Deterministic seeded kinematic simulators: differential-drive base with
separate ground-truth and odometric state, a noisy serial arm, and a synthetic
point-cloud camera.

Every random draw comes from a named per-subsystem stream (base actuation,
base odometry, arm, camera) spawned from one master seed, so enabling one
noise source never shifts another's draws and the whole trace is a pure
function of (initial state, command sequence, seed).

The base integrates constant-twist arcs in closed form — controller-vs-
simulator discrepancies reflect the controller, not integration error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import SE3, Pose2D
from .kinematics import KinematicChain, forward_kinematics, jacobian
from .trajectory import ControlCommand, VelocityLimits, integrate_unicycle

_STREAMS = ("base_actuation", "base_odometry", "arm", "camera")


def subsystem_rngs(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(child) for name, child in zip(_STREAMS, children)}


@dataclass(frozen=True)
class BaseNoiseModel:
    """Multiplicative per-step noise fractions for the base.

    actuation_* scale the realized velocity relative to the command; odometry_*
    scale the measured (integrated) velocity relative to the realized one.
    """

    actuation_v: float = 0.0
    actuation_omega: float = 0.0
    odometry_v: float = 0.0
    odometry_omega: float = 0.0

    def __post_init__(self):
        for name in ("actuation_v", "actuation_omega", "odometry_v", "odometry_omega"):
            if getattr(self, name) < 0:
                raise ValueError(f"BaseNoiseModel.{name} must be >= 0")


ZERO_BASE_NOISE = BaseNoiseModel()


@dataclass(frozen=True)
class ArmNoiseModel:
    """Per-axis Cartesian settling noise (m), realized through the Jacobian pseudoinverse."""

    sigma: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if any(s < 0 for s in self.sigma):
            raise ValueError("ArmNoiseModel.sigma components must be >= 0")


ZERO_ARM_NOISE = ArmNoiseModel()


class DiffDriveSim:
    """Differential-drive base: ground-truth pose (the mocap stand-in) plus drifting odometry."""

    def __init__(self, limits: VelocityLimits, noise: BaseNoiseModel = ZERO_BASE_NOISE,
                 rng_actuation: np.random.Generator | None = None,
                 rng_odometry: np.random.Generator | None = None,
                 start: Pose2D = Pose2D()):
        self.limits = limits
        self.noise = noise
        self._rng_act = rng_actuation or np.random.default_rng(0)
        self._rng_odo = rng_odometry or np.random.default_rng(1)
        self.true_pose = start
        self.odom_pose = start
        self.velocity = ControlCommand(0.0, 0.0)
        self.time = 0.0

    def step(self, cmd: ControlCommand, dt: float) -> None:
        """Advance one control period: clamp, rate-limit, integrate truth and odometry."""
        if dt <= 0:
            raise ValueError("dt must be positive")
        lim = self.limits
        self.velocity = lim.rate_limited(self.velocity, cmd.clamped(lim.v_max, lim.omega_max), dt)
        v, w = self.velocity.v, self.velocity.omega

        ev, ew = self._rng_act.standard_normal(2)
        v_true = v * (1.0 + self.noise.actuation_v * ev)
        w_true = w * (1.0 + self.noise.actuation_omega * ew)
        self.true_pose = integrate_unicycle(self.true_pose, ControlCommand(v_true, w_true), dt)

        mv, mw = self._rng_odo.standard_normal(2)
        v_meas = v_true * (1.0 + self.noise.odometry_v * mv)
        w_meas = w_true * (1.0 + self.noise.odometry_omega * mw)
        self.odom_pose = integrate_unicycle(self.odom_pose, ControlCommand(v_meas, w_meas), dt)

        self.time += dt


class ArmSim:
    """Serial arm: joints slew toward the target under velocity limits, then settle with noise."""

    def __init__(self, chain: KinematicChain, noise: ArmNoiseModel = ZERO_ARM_NOISE,
                 rng: np.random.Generator | None = None, q0=None):
        self.chain = chain
        self.noise = noise
        self._rng = rng or np.random.default_rng(2)
        self.q = np.zeros(chain.dof) if q0 is None else chain.check_dimension(q0).copy()
        self.time = 0.0

    def settle(self, target, dt: float = 0.05, max_time: float = 30.0) -> np.ndarray:
        """Slew until the target is reached, then realize the Cartesian settling noise.

        Every control period `dt` moves each joint by at most its velocity
        limit times `dt`. The per-axis perturbation is mapped to joint space through the position
        Jacobian pseudoinverse, so the attained end-effector position equals the
        commanded one plus (to first order) the drawn Cartesian offset.
        """
        target = self.chain.check_dimension(target)
        for j, x in zip(self.chain.joints, target):
            if not j.lower - 1e-12 <= x <= j.upper + 1e-12:
                raise ValueError(f"joint {j.name}: target {x:.4f} outside limits "
                                 f"[{j.lower:.4f}, {j.upper:.4f}]")
        max_step = self.chain.velocity_limits * dt
        for _ in range(int(math.ceil(max_time / dt)) + 1):
            self.q = self.q + np.clip(target - self.q, -max_step, max_step)
            self.time += dt
            if np.all(self.q == target):
                break
        else:
            raise RuntimeError("arm failed to settle within max_time")
        sigma = np.asarray(self.noise.sigma)
        delta = sigma * self._rng.standard_normal(3)
        if np.any(sigma > 0):
            dq = np.linalg.pinv(jacobian(self.chain, self.q)[:3]) @ delta
            self.q = self.chain.clamp(self.q + dq)
        return self.q.copy()

    def ee_pose(self) -> SE3:
        return forward_kinematics(self.chain, self.q)


# --- synthetic camera ---------------------------------------------------------

TAG_FLOOR, TAG_OBJECT = 0, 1


@dataclass(frozen=True)
class SceneObject:
    """Box or cylinder resting in the scene; pose at the solid's center.

    Box dimensions: (lx, ly, lz) full edge lengths.
    Cylinder dimensions: (radius, height).
    """

    shape: str
    pose: SE3
    dimensions: tuple

    def __post_init__(self):
        if self.shape not in ("box", "cylinder"):
            raise ValueError(f"unknown shape {self.shape!r}")
        if any(d <= 0 for d in self.dimensions):
            raise ValueError("dimensions must be positive")
        n = 3 if self.shape == "box" else 2
        if len(self.dimensions) != n:
            raise ValueError(f"{self.shape} needs {n} dimensions")


@dataclass
class Scene:
    """Objects plus a circular floor patch around the origin."""

    objects: list = field(default_factory=list)
    floor_radius: float = 1.5


def _box_surface_samples(obj: SceneObject, density: float,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    lx, ly, lz = obj.dimensions
    hx, hy, hz = lx / 2.0, ly / 2.0, lz / 2.0
    # (normal axis, sign, area); bottom face omitted — it faces the floor
    faces = [
        (2, +1, lx * ly),
        (0, +1, ly * lz), (0, -1, ly * lz),
        (1, +1, lx * lz), (1, -1, lx * lz),
    ]
    pts, normals = [], []
    half = np.array([hx, hy, hz])
    for axis, sign, area in faces:
        n = int(round(area * density))
        if n == 0:
            continue
        local = rng.uniform(-1.0, 1.0, size=(n, 3)) * half
        local[:, axis] = sign * half[axis]
        normal = np.zeros(3)
        normal[axis] = sign
        pts.append(local)
        normals.append(np.tile(normal, (n, 1)))
    if not pts:
        return np.zeros((0, 3)), np.zeros((0, 3))
    local = np.vstack(pts)
    normals = np.vstack(normals)
    world = obj.pose.transform_point(local)
    return world, obj.pose.rotate_vector(normals)


def _cylinder_surface_samples(obj: SceneObject, density: float,
                              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    r, h = obj.dimensions
    n_side = int(round(2 * math.pi * r * h * density))
    n_top = int(round(math.pi * r * r * density))
    pts, normals = [], []
    if n_side:
        ang = rng.uniform(0.0, 2 * math.pi, n_side)
        z = rng.uniform(-h / 2.0, h / 2.0, n_side)
        pts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang), z]))
        normals.append(np.column_stack([np.cos(ang), np.sin(ang), np.zeros(n_side)]))
    if n_top:
        rad = r * np.sqrt(rng.uniform(0.0, 1.0, n_top))
        ang = rng.uniform(0.0, 2 * math.pi, n_top)
        pts.append(np.column_stack([rad * np.cos(ang), rad * np.sin(ang),
                                    np.full(n_top, h / 2.0)]))
        normals.append(np.tile([0.0, 0.0, 1.0], (n_top, 1)))
    if not pts:
        return np.zeros((0, 3)), np.zeros((0, 3))
    local = np.vstack(pts)
    normals = np.vstack(normals)
    return obj.pose.transform_point(local), obj.pose.rotate_vector(normals)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole model: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int = 640
    height: int = 480

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point must lie inside the image")


def render_point_cloud(scene: Scene, camera_pose: SE3, intrinsics: CameraIntrinsics,
                       density: float = 20000.0, depth_sigma: float = 0.0,
                       rng: np.random.Generator | None = None,
                       max_range: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """Sample visible surfaces into a base-frame cloud with per-point {floor, object} tags.

    Upper/front object faces and the floor disk within camera range are sampled
    uniformly by area; Gaussian depth noise perturbs each point along its view
    ray; only points inside the camera frustum (and range) are returned.
    Object-vs-object occlusion is not modeled.
    """
    if density <= 0:
        raise ValueError("density must be positive")
    rng = rng or np.random.default_rng(3)
    cam_pos = camera_pose.translation

    all_pts, all_normals, all_tags = [], [], []
    for obj in scene.objects:
        if obj.shape == "box":
            pts, normals = _box_surface_samples(obj, density, rng)
        else:
            pts, normals = _cylinder_surface_samples(obj, density, rng)
        all_pts.append(pts)
        all_normals.append(normals)
        all_tags.append(np.full(len(pts), TAG_OBJECT, dtype=np.int8))

    n_floor = int(round(math.pi * max_range ** 2 * density))
    if n_floor:
        rad = max_range * np.sqrt(rng.uniform(0.0, 1.0, n_floor))
        ang = rng.uniform(0.0, 2 * math.pi, n_floor)
        fx_ = cam_pos[0] + rad * np.cos(ang)
        fy_ = cam_pos[1] + rad * np.sin(ang)
        keep = fx_ ** 2 + fy_ ** 2 <= scene.floor_radius ** 2
        floor_pts = np.column_stack([fx_[keep], fy_[keep], np.zeros(int(keep.sum()))])
        all_pts.append(floor_pts)
        all_normals.append(np.tile([0.0, 0.0, 1.0], (len(floor_pts), 1)))
        all_tags.append(np.full(len(floor_pts), TAG_FLOOR, dtype=np.int8))

    pts = np.vstack([p for p in all_pts if len(p)]) if all_pts else np.zeros((0, 3))
    normals = np.vstack([n for n in all_normals if len(n)]) if all_normals else np.zeros((0, 3))
    tags = np.concatenate([t for t in all_tags if len(t)]) if all_tags else np.zeros(0, dtype=np.int8)
    if len(pts) == 0:
        return pts, tags

    to_cam = (cam_pos - pts)
    visible = np.einsum("ij,ij->i", normals, to_cam) > 0.0
    pts, tags = pts[visible], tags[visible]

    inv = camera_pose.inverse()
    pc = inv.transform_point(pts)
    z = pc[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intrinsics.fx * pc[:, 0] / z + intrinsics.cx
        v = intrinsics.fy * pc[:, 1] / z + intrinsics.cy
    rng_dist = np.linalg.norm(pc, axis=1)
    keep = ((z > 0.01) & (u >= 0) & (u < intrinsics.width)
            & (v >= 0) & (v < intrinsics.height) & (rng_dist <= max_range))
    pts, tags = pts[keep], tags[keep]

    if depth_sigma > 0 and len(pts):
        rays = pts - cam_pos
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        pts = pts + rays * (depth_sigma * rng.standard_normal(len(pts)))[:, None]
    return pts, tags
