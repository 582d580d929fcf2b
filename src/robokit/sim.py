"""Deterministic seeded kinematic simulators: differential-drive base with
separate ground-truth and odometric state, a noisy serial arm, and a synthetic
point-cloud camera.

Every random draw comes from a named per-subsystem stream (base actuation,
base odometry, arm, camera) spawned from one master seed, so enabling one
noise source never shifts another's draws and the whole trace is a pure
function of (initial state, command sequence, seed).

The base integrates constant-twist arcs in closed form — controller-vs-
simulator discrepancies reflect the controller, not integration error.

The base draws its actuation and odometry normals in blocks of `_NOISE_BLOCK`
steps, one block per stream at a time: k calls of `standard_normal(2)` give the
same values as one `standard_normal(2k)`, so every step sees the draws it saw
one pair at a time. A block leaves its stream ahead of the draws used so far.
No output moves, because only `DiffDriveSim` reads the two base streams.

The camera draws every floor sample over the range disk, so its stream does
not depend on the view. It culls the draws by range and azimuth before taking
the square root and the trig, then by the exact test; the first cull is wider
than the second, so no point the exact test keeps is lost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Bounded, bounded, one_of, positive
from .geometry import SE3, Pose2D
from .kinematics import KinematicChain, forward_kinematics, jacobian
from .trajectory import ControlCommand, VelocityLimits, unicycle_arc

_STREAMS = ("base_actuation", "base_odometry", "arm", "camera")
# base steps of noise drawn at a time: enough to amortise the draw, and few enough
# that the floats a simulator holds stay near 2 KB
_NOISE_BLOCK = 16


def subsystem_rngs(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(_STREAMS))
    return {name: np.random.default_rng(child) for name, child in zip(_STREAMS, children)}


@dataclass(frozen=True)
class BaseNoiseModel(Bounded):
    """Multiplicative per-step noise fractions for the base.

    actuation_* scale the realized velocity relative to the command; odometry_*
    scale the measured (integrated) velocity relative to the realized one.
    """

    actuation_v: float = bounded(0.0)
    actuation_omega: float = bounded(0.0)
    odometry_v: float = bounded(0.0)
    odometry_omega: float = bounded(0.0)


ZERO_BASE_NOISE = BaseNoiseModel()


@dataclass(frozen=True)
class ArmNoiseModel(Bounded):
    """Per-axis Cartesian settling noise (m), realized through the Jacobian pseudoinverse."""

    sigma: tuple[float, float, float] = bounded((0.0, 0.0, 0.0))


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
        self._normals = iter(())   # per step: actuation (v, ω) and odometry (v, ω) normals

    def _draw_normals(self) -> None:
        """The next `_NOISE_BLOCK` steps' normals from each base stream."""
        act = self._rng_act.standard_normal(2 * _NOISE_BLOCK).tolist()
        odo = self._rng_odo.standard_normal(2 * _NOISE_BLOCK).tolist()
        self._normals = zip(act[0::2], act[1::2], odo[0::2], odo[1::2])

    def step(self, cmd: ControlCommand, dt: float) -> None:
        """Advance one control period: clamp, rate-limit, integrate truth and odometry.

        A NaN or infinite command or `dt` raises ValueError, as does `dt <= 0`.
        """
        if not (math.isfinite(cmd.v) and math.isfinite(cmd.omega)):
            raise ValueError(f"cmd must be finite, got {cmd!r}")
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        lim = self.limits
        self.velocity = lim.rate_limited(self.velocity, cmd.clamped(lim.v_max, lim.omega_max), dt)
        v, w = self.velocity.v, self.velocity.omega

        normals = next(self._normals, None)
        if normals is None:
            self._draw_normals()
            normals = next(self._normals)
        ev, ew, mv, mw = normals
        noise = self.noise
        v_true = v * (1.0 + noise.actuation_v * ev)
        w_true = w * (1.0 + noise.actuation_omega * ew)
        self.true_pose = unicycle_arc(self.true_pose, v_true, w_true, dt)

        v_meas = v_true * (1.0 + noise.odometry_v * mv)
        w_meas = w_true * (1.0 + noise.odometry_omega * mw)
        self.odom_pose = unicycle_arc(self.odom_pose, v_meas, w_meas, dt)

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
        commanded one plus (to first order) the drawn Cartesian offset. A NaN,
        infinite or non-positive `dt`, or a NaN, infinite or negative `max_time`,
        raises ValueError.
        """
        if not 0.0 < dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        if not 0.0 <= max_time < math.inf:
            raise ValueError(f"max_time must be >= 0 and finite, got {max_time!r}")
        target = self.chain.check_dimension(target)
        for j, x in zip(self.chain.joints, target):
            if not j.lower - 1e-12 <= x <= j.upper + 1e-12:
                raise ValueError(f"joint {j.name}: target {x:.4f} outside limits "
                                 f"[{j.lower:.4f}, {j.upper:.4f}]")
        # the slew on Python floats: min(max(.)) is np.clip for finite values
        q, goal = self.q.tolist(), target.tolist()
        max_step = (self.chain.velocity_limits * dt).tolist()
        for _ in range(int(math.ceil(max_time / dt)) + 1):
            q = [a + min(max(b - a, -m), m) for a, b, m in zip(q, goal, max_step)]
            self.time += dt
            if q == goal:
                break
        else:
            self.q = np.array(q)
            raise RuntimeError("arm failed to settle within max_time")
        self.q = np.array(q)
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
class SceneObject(Bounded):
    """Box or cylinder resting in the scene; pose at the solid's center.

    Box dimensions: (lx, ly, lz) full edge lengths.
    Cylinder dimensions: (radius, height).
    """

    shape: str = one_of("box", "cylinder")
    pose: SE3
    dimensions: tuple = positive()

    def __post_init__(self):
        super().__post_init__()
        n = 3 if self.shape == "box" else 2
        if len(self.dimensions) != n:
            raise ValueError(f"{self.shape} needs {n} dimensions")


@dataclass
class Scene(Bounded):
    """Objects plus a circular floor patch around the origin."""

    objects: list = field(default_factory=list)
    floor_radius: float = positive(1.5)


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
class CameraIntrinsics(Bounded):
    """Pinhole model: focal lengths and principal point in pixels."""

    fx: float = positive()
    fy: float = positive()
    cx: float
    cy: float
    width: int = positive(640)
    height: int = positive(480)

    def __post_init__(self):
        super().__post_init__()
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point must lie inside the image")


def _in_image(xc, yc, zc, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Mask of camera-frame points whose pixel lies in the image."""
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intrinsics.fx * xc / zc + intrinsics.cx
        v = intrinsics.fy * yc / zc + intrinsics.cy
    return (u >= 0) & (u < intrinsics.width) & (v >= 0) & (v < intrinsics.height)


def _azimuth_sector(camera_pose: SE3, intrinsics: CameraIntrinsics,
                    pad: float) -> tuple[float, float] | None:
    """(lo, hi), lo in [0, 2π), bounding the azimuths of every ray through the image
    widened by `pad` px, or None when those rays span every azimuth.

    The rays form the cone spanned by the four corner rays, so their horizontal
    directions form the 2D cone spanned by the corners' horizontal directions:
    the circle minus its largest gap when that gap exceeds π.
    """
    u = (np.array([-pad, intrinsics.width + pad]) - intrinsics.cx) / intrinsics.fx
    v = (np.array([-pad, intrinsics.height + pad]) - intrinsics.cy) / intrinsics.fy
    rays = np.array([(a, b, 1.0) for a in u for b in v]) @ camera_pose.R.T
    if np.any(np.hypot(rays[:, 0], rays[:, 1]) < 1e-9):
        return None
    az = np.sort(np.arctan2(rays[:, 1], rays[:, 0]))
    gaps = np.diff(az, append=az[0] + 2 * math.pi)
    i = int(np.argmax(gaps))
    if gaps[i] <= math.pi:
        return None
    lo = az[(i + 1) % len(az)] % (2 * math.pi)
    return lo, lo + 2 * math.pi - gaps[i]


def _norm(x, y, z) -> np.ndarray:
    """Row norms from columns: np.linalg.norm(axis=1) sums x*x, y*y, z*z in this order."""
    return np.sqrt(x * x + y * y + z * z)


def _floor_points(camera_pose: SE3, intrinsics: CameraIntrinsics, floor_radius: float,
                  density: float, max_range: float, rng: np.random.Generator) -> np.ndarray:
    """The floor samples over the range disk below the camera that may pass the exact
    test in `render_point_cloud`: every sample that test keeps, and a few more."""
    n = int(round(math.pi * max_range ** 2 * density))
    if n == 0:
        return np.zeros((0, 3))
    # uniform(0, b, n) is 0 + b * random(n), so these are its floats; scaled in
    # place, so no third array of n floats is live at once
    u = rng.random(n)
    ang = rng.random(n)
    ang *= 2 * math.pi
    cam_pos = camera_pose.translation
    h = cam_pos[2]
    if not h > 0.0:   # the floor faces +z
        return np.zeros((0, 3))
    # the exact test keeps a sample within max_range of the camera, at radius
    # max_range * sqrt(u) from the point below it; cull 1e-6 m beyond that range
    m = u <= ((max_range + 1e-6) ** 2 - h * h) / max_range ** 2
    # a floor sample seen from the camera lies at the azimuth of its view ray
    sector = _azimuth_sector(camera_pose, intrinsics, pad=1.0)
    if sector is not None:
        lo, hi = sector
        m &= (ang >= lo) & (ang <= hi) | (ang <= hi - 2 * math.pi)
    i = np.flatnonzero(m)
    rad, ang = max_range * np.sqrt(u[i]), ang[i]
    fx_ = cam_pos[0] + rad * np.cos(ang)
    fy_ = cam_pos[1] + rad * np.sin(ang)
    i = np.flatnonzero(fx_ ** 2 + fy_ ** 2 <= floor_radius ** 2)
    return np.column_stack([fx_[i], fy_[i], np.zeros(len(i))])


def render_point_cloud(scene: Scene, camera_pose: SE3, intrinsics: CameraIntrinsics,
                       density: float = 20000.0, depth_sigma: float = 0.0,
                       rng: np.random.Generator | None = None,
                       max_range: float = 1.5) -> tuple[np.ndarray, np.ndarray]:
    """Sample visible surfaces into a base-frame cloud with per-point {floor, object} tags.

    Upper/front object faces and the floor disk within camera range are sampled
    uniformly by area; Gaussian depth noise perturbs each point along its view
    ray; only points inside the camera frustum (and range) are returned, object
    points first. Object-vs-object occlusion is not modeled.

    The floor is drawn over the whole range disk, whatever the camera sees, so
    the random stream stays fixed. Its samples are culled in two stages: by
    range and azimuth on the raw draws, before the square root and the trig;
    then by the exact test every point passes. The first cull is wider than the
    second, so the cloud and the stream are those of testing every sample
    exactly. A render with no point in view returns a (0, 3) cloud and no tags.

    `density` and `max_range` must be positive and finite, `depth_sigma` >= 0
    and finite; any other value raises ValueError naming the argument.
    """
    for name, value in (("density", density), ("max_range", max_range)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if not 0.0 <= depth_sigma < math.inf:
        raise ValueError(f"depth_sigma must be >= 0 and finite, got {depth_sigma!r}")
    rng = rng or np.random.default_rng(3)
    cam_pos = camera_pose.translation

    samples = [(_box_surface_samples if obj.shape == "box" else _cylinder_surface_samples)(
        obj, density, rng) for obj in scene.objects]
    obj_pts = np.vstack([np.zeros((0, 3))] + [p for p, _ in samples])
    normals = np.vstack([np.zeros((0, 3))] + [n for _, n in samples])
    obj_pts = obj_pts[np.einsum("ij,ij->i", normals, cam_pos - obj_pts) > 0.0]

    floor_pts = _floor_points(camera_pose, intrinsics, scene.floor_radius, density, max_range, rng)

    pts = np.vstack([obj_pts, floor_pts])
    tags = np.repeat(np.array([TAG_OBJECT, TAG_FLOOR], dtype=np.int8),
                     [len(obj_pts), len(floor_pts)])
    x, y, z = camera_pose.inverse().transform_point(pts).T
    i = np.flatnonzero((z > 0.01) & _in_image(x, y, z, intrinsics)
                       & (_norm(x, y, z) <= max_range))
    pts, tags = pts[i], tags[i]

    if depth_sigma > 0 and len(pts):
        rays = pts - cam_pos
        rays /= _norm(*rays.T)[:, None]
        pts = pts + rays * (depth_sigma * rng.standard_normal(len(pts)))[:, None]
    return pts, tags
