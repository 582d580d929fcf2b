import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robokit.config import load_config, load_scene
from robokit.geometry import SE3, Pose2D, axis_rotation, wrap_angle
from robokit.control import DwaParams
from robokit.kinematics import IkParams, Joint, KinematicChain, forward_kinematics, jacobian
from robokit.planning import OccupancyGrid
from robokit.report import read_xyz, write_xyz
from robokit.skills import DbscanParams
from robokit.sim import (ArmNoiseModel, ArmSim, BaseNoiseModel, CameraIntrinsics,
                         DiffDriveSim, Scene, SceneObject, TAG_FLOOR, TAG_OBJECT,
                         _box_surface_samples, _cylinder_surface_samples,
                         render_point_cloud, subsystem_rngs)
from robokit.trajectory import ControlCommand, TimedTrajectory, VelocityLimits

LIMITS = VelocityLimits(v_max=5.0, omega_max=5.0, a_max=1e6, alpha_max=1e6)
# optical frame (x right, y down, z forward) in a camera body frame (x forward, z up)
OPTICAL = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def test_step_base_straight_line():
    sim = DiffDriveSim(LIMITS)
    for _ in range(20):
        sim.step(ControlCommand(0.2, 0.0), 0.05)
    assert sim.true_pose.x == pytest.approx(0.2, abs=1e-12)
    assert sim.true_pose.y == 0.0
    assert sim.odom_pose.x == sim.true_pose.x


def test_step_base_pure_rotation():
    sim = DiffDriveSim(LIMITS)
    for _ in range(20):
        sim.step(ControlCommand(0.0, math.pi / 2), 0.05)
    assert sim.true_pose.theta == pytest.approx(math.pi / 2, abs=1e-12)
    assert sim.true_pose.x == 0.0 and sim.true_pose.y == 0.0


def test_step_base_closed_arc():
    sim = DiffDriveSim(LIMITS)
    v, w = 0.2, 0.5
    period = 2 * math.pi / w
    n = 1000
    for _ in range(n):
        sim.step(ControlCommand(v, w), period / n)
    assert abs(sim.true_pose.x) < 1e-9
    assert abs(sim.true_pose.y) < 1e-9


def test_zero_noise_odometry_equals_truth():
    lim = VelocityLimits()
    sim = DiffDriveSim(lim)
    rng = np.random.default_rng(0)
    for _ in range(500):
        sim.step(ControlCommand(rng.uniform(-0.3, 0.3), rng.uniform(-1, 1)), 0.05)
    assert sim.odom_pose == sim.true_pose


def test_rest_stays_at_rest():
    sim = DiffDriveSim(VelocityLimits(), BaseNoiseModel(0.1, 0.1, 0.1, 0.1),
                       np.random.default_rng(1), np.random.default_rng(2))
    for _ in range(100):
        sim.step(ControlCommand(0.0, 0.0), 0.05)
    assert sim.true_pose == Pose2D() and sim.odom_pose == Pose2D()


def test_base_determinism_same_seed():
    def run(seed):
        rngs = subsystem_rngs(seed)
        sim = DiffDriveSim(VelocityLimits(), BaseNoiseModel(0.05, 0.05, 0.1, 0.05),
                           rngs["base_actuation"], rngs["base_odometry"])
        for _ in range(200):
            sim.step(ControlCommand(0.25, 0.3), 0.05)
        return sim.true_pose, sim.odom_pose

    a_true, a_odom = run(7)
    b_true, b_odom = run(7)
    assert a_true == b_true and a_odom == b_odom
    c_true, _ = run(8)
    assert c_true != a_true


def test_velocity_and_rate_limits_enforced():
    lim = VelocityLimits(v_max=0.3, omega_max=1.0, a_max=0.5, alpha_max=2.0)
    sim = DiffDriveSim(lim)
    sim.step(ControlCommand(5.0, 9.0), 0.05)
    assert sim.velocity.v == pytest.approx(0.5 * 0.05)
    assert sim.velocity.omega == pytest.approx(2.0 * 0.05)
    for _ in range(100):
        sim.step(ControlCommand(5.0, 9.0), 0.05)
    assert sim.velocity.v == pytest.approx(lim.v_max)
    assert sim.velocity.omega == pytest.approx(lim.omega_max)


def test_step_rejects_non_finite_command_and_dt():
    # a NaN command went through the clamp's max as a full reverse-and-turn step
    sim = DiffDriveSim(VelocityLimits())
    for cmd in (ControlCommand(math.nan, math.nan), ControlCommand(0.1, math.inf)):
        with pytest.raises(ValueError, match="^cmd must be finite"):
            sim.step(cmd, 0.05)
    for dt in (math.nan, math.inf, 0.0, -0.05):
        with pytest.raises(ValueError, match="^dt must be positive and finite"):
            sim.step(ControlCommand(0.1, 0.1), dt)
    assert sim.velocity == ControlCommand(0.0, 0.0)
    assert sim.true_pose == sim.odom_pose == Pose2D() and sim.time == 0.0


# --- byte-identity referee: the base step as it was, one RNG call per stream and step


@dataclass(frozen=True)
class ReferencePose:
    x: float = 0.0
    y: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        x, y, theta = float(self.x), float(self.y), float(self.theta)
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(theta)):
            raise ValueError(f"Pose2D fields must be finite, got ({x}, {y}, {theta})")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "theta", wrap_angle(theta))


@dataclass(frozen=True)
class ReferenceCommand:
    v: float = 0.0
    omega: float = 0.0

    def clamped(self, v_max: float, omega_max: float) -> "ReferenceCommand":
        return ReferenceCommand(
            min(v_max, max(-v_max, self.v)),
            min(omega_max, max(-omega_max, self.omega)),
        )


def reference_rate_limited(lim, prev, cmd, dt):
    dv, dw = lim.a_max * dt, lim.alpha_max * dt
    return ReferenceCommand(min(prev.v + dv, max(prev.v - dv, cmd.v)),
                            min(prev.omega + dw, max(prev.omega - dw, cmd.omega)))


def reference_integrate_unicycle(pose, cmd, dt):
    v, w = cmd.v, cmd.omega
    if abs(w) < 1e-12:
        return ReferencePose(pose.x + v * dt * math.cos(pose.theta),
                             pose.y + v * dt * math.sin(pose.theta),
                             pose.theta)
    th1 = pose.theta + w * dt
    r = v / w
    return ReferencePose(pose.x + r * (math.sin(th1) - math.sin(pose.theta)),
                         pose.y - r * (math.cos(th1) - math.cos(pose.theta)),
                         th1)


class ReferenceDiffDrive:
    def __init__(self, limits, noise, rng_act, rng_odo):
        self.limits, self.noise = limits, noise
        self._rng_act, self._rng_odo = rng_act, rng_odo
        self.true_pose = self.odom_pose = ReferencePose()
        self.velocity = ReferenceCommand(0.0, 0.0)

    def step(self, cmd, dt):
        lim = self.limits
        self.velocity = reference_rate_limited(lim, self.velocity,
                                               cmd.clamped(lim.v_max, lim.omega_max), dt)
        v, w = self.velocity.v, self.velocity.omega

        ev, ew = self._rng_act.standard_normal(2)
        v_true = v * (1.0 + self.noise.actuation_v * ev)
        w_true = w * (1.0 + self.noise.actuation_omega * ew)
        self.true_pose = reference_integrate_unicycle(self.true_pose,
                                                      ReferenceCommand(v_true, w_true), dt)

        mv, mw = self._rng_odo.standard_normal(2)
        v_meas = v_true * (1.0 + self.noise.odometry_v * mv)
        w_meas = w_true * (1.0 + self.noise.odometry_omega * mw)
        self.odom_pose = reference_integrate_unicycle(self.odom_pose,
                                                      ReferenceCommand(v_meas, w_meas), dt)


def _state_bytes(sim) -> bytes:
    p, q, u = sim.true_pose, sim.odom_pose, sim.velocity
    return np.array([p.x, p.y, p.theta, q.x, q.y, q.theta, u.v, u.omega]).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       noise=st.tuples(*[st.sampled_from([0.0, 0.01, 0.05, 0.3])] * 4),
       limits=st.sampled_from([VelocityLimits(), VelocityLimits(0.5, 2.0, 1.0, 4.0), LIMITS]),
       dt=st.sampled_from([0.05, 0.02, 0.1]),
       steps=st.integers(1, 200))
def test_base_step_matches_reference_trace(seed, noise, limits, dt, steps):
    """Block noise draws give the per-step draws' trace to the last bit, across refills."""
    cmd_rng = np.random.default_rng([seed, 1])
    rngs = subsystem_rngs(seed)
    sim = DiffDriveSim(limits, BaseNoiseModel(*noise), rngs["base_actuation"],
                       rngs["base_odometry"])
    rngs = subsystem_rngs(seed)
    ref = ReferenceDiffDrive(limits, BaseNoiseModel(*noise), rngs["base_actuation"],
                             rngs["base_odometry"])
    for _ in range(steps):
        v, w = cmd_rng.uniform(-1.5, 1.5, 2) * (limits.v_max, limits.omega_max)
        if cmd_rng.uniform() < 0.2:
            w = 0.0   # straight segments take the other branch of the arc
        sim.step(ControlCommand(v, w), dt)
        ref.step(ReferenceCommand(v, w), dt)
        assert _state_bytes(sim) == _state_bytes(ref)


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.floats(-1e12, 1e12, allow_subnormal=True)] * 3))
def test_pose_matches_reference_constructor(xyt):
    p, ref = Pose2D(*xyt), ReferencePose(*xyt)
    assert (p.x, p.y, p.theta) == (ref.x, ref.y, ref.theta)
    assert all(type(f) is float for f in (p.x, p.y, p.theta))


@pytest.mark.parametrize("make", [
    lambda: VelocityLimits(v_max=math.nan),
    lambda: BaseNoiseModel(actuation_v=math.nan),
    lambda: ArmNoiseModel((math.nan, 0.0, 0.0)),
    lambda: CameraIntrinsics(math.nan, 1.0, 0.0, 0.0),
    lambda: OccupancyGrid(math.nan, Pose2D(), [[0]]),
    lambda: SceneObject("box", SE3(), (math.nan, 1.0, 1.0)),
    lambda: SceneObject("cylinder", SE3(), (0.1, math.inf)),
    lambda: TimedTrajectory(math.nan, np.zeros((1, 3)), np.zeros((0, 2))),
    lambda: IkParams(damping=math.nan),
    lambda: IkParams(max_iterations=math.inf),
    lambda: DbscanParams(eps=math.nan, min_pts=3),
    lambda: DwaParams(samples_v=0),
    lambda: DwaParams(horizon=math.nan),
    lambda: DwaParams(weight_clearance=math.inf),
    lambda: Joint("j", SE3(), (0.0, 0.0, 1.0), -1.0, 1.0, max_velocity=math.nan),
], ids=["velocity-limits", "base-noise", "arm-noise", "camera", "grid", "scene-object-nan",
        "scene-object-inf", "timed-trajectory", "ik-nan", "ik-inf", "dbscan", "dwa-samples",
        "dwa-horizon", "dwa-weight", "joint-velocity"])
def test_value_objects_reject_nan(make):
    with pytest.raises(ValueError):
        make()


def test_arm_settles_exactly_with_zero_noise():
    cfg = load_config("locobot")
    sim = ArmSim(cfg.chain, q0=cfg.home)
    target = np.array([0.4, 0.3, -0.5, 0.2, 0.8])
    q = sim.settle(target, 0.05)
    assert np.array_equal(q, target)
    ee = sim.ee_pose()
    ref = forward_kinematics(cfg.chain, target)
    assert np.array_equal(ee.translation, ref.translation)


def test_arm_settle_step_budget():
    """settle slews at most ceil(max_time / dt) + 1 periods, then raises."""
    cfg = load_config("locobot")
    target = np.array([3.0, 0.0, 0.0, 0.0, 0.0])  # waist at 2 rad/s: 6 periods of 0.25 s
    sim = ArmSim(cfg.chain)
    assert np.array_equal(sim.settle(target, 0.25, max_time=1.25), target)
    assert sim.time == 1.5
    sim = ArmSim(cfg.chain)
    with pytest.raises(RuntimeError, match="max_time"):
        sim.settle(target, 0.25, max_time=1.0)
    assert sim.time == 1.25


def reference_settle(sim, target, dt=0.05, max_time=30.0):
    """ArmSim.settle with the slew on numpy arrays, kept verbatim as the byte-equality oracle."""
    target = sim.chain.check_dimension(target)
    for j, x in zip(sim.chain.joints, target):
        if not j.lower - 1e-12 <= x <= j.upper + 1e-12:
            raise ValueError(f"joint {j.name}: target {x:.4f} outside limits "
                             f"[{j.lower:.4f}, {j.upper:.4f}]")
    max_step = sim.chain.velocity_limits * dt
    for _ in range(int(math.ceil(max_time / dt)) + 1):
        sim.q = sim.q + np.clip(target - sim.q, -max_step, max_step)
        sim.time += dt
        if np.all(sim.q == target):
            break
    else:
        raise RuntimeError("arm failed to settle within max_time")
    sigma = np.asarray(sim.noise.sigma)
    delta = sigma * sim._rng.standard_normal(3)
    if np.any(sigma > 0):
        dq = np.linalg.pinv(jacobian(sim.chain, sim.q)[:3]) @ delta
        sim.q = sim.chain.clamp(sim.q + dq)
    return sim.q.copy()


_AXES = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]


@st.composite
def settle_cases(draw):
    """A random chain, a start anywhere in its limits, two targets on or inside them,
    and a period and time budget that sometimes run out before the target."""
    joints, q0, targets = [], [], ([], [])
    for i in range(draw(st.integers(1, 7))):
        lower = draw(st.floats(-3.0, 2.9))
        upper = draw(st.floats(lower + 0.01, 3.0))
        joints.append(Joint(f"j{i}", SE3(tuple(draw(st.floats(-0.3, 0.3)) for _ in range(3))),
                            draw(st.sampled_from(_AXES)), lower, upper,
                            draw(st.floats(0.05, 4.0))))
        inside = st.floats(lower, upper)
        q0.append(draw(inside))
        for t in targets:
            t.append(draw(st.one_of(st.sampled_from([lower, upper]), inside)))
    noise = ArmNoiseModel(draw(st.sampled_from([(0.0, 0.0, 0.0), (1e-4, 2e-4, 0.0)])))
    dt = draw(st.floats(0.01, 0.5))
    max_time = draw(st.one_of(st.floats(0.0, 1.0), st.just(30.0)))
    return KinematicChain(tuple(joints)), noise, q0, targets, dt, max_time, draw(st.integers(0, 99))


@settings(max_examples=100, deadline=None)
@given(settle_cases())
def test_settle_matches_reference(case):
    chain, noise, q0, targets, dt, max_time, seed = case
    sim = ArmSim(chain, noise, rng=np.random.default_rng(seed), q0=q0)
    ref = ArmSim(chain, noise, rng=np.random.default_rng(seed), q0=q0)
    for target in targets:   # the second starts where the first stopped, raised or not
        outcomes = []
        for settle in (sim.settle, lambda t, d, m: reference_settle(ref, t, d, m)):
            try:
                q = settle(np.array(target), dt, max_time)
                outcomes.append((q.dtype, q.tobytes()))
            except RuntimeError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]
        assert sim.q.dtype == ref.q.dtype and sim.q.tobytes() == ref.q.tobytes()
        assert sim.time == ref.time
        assert sim._rng.random() == ref._rng.random()


@pytest.mark.parametrize("name, value", [
    ("dt", 0.0), ("dt", -0.05), ("dt", math.nan), ("dt", math.inf),
    ("max_time", -1.0), ("max_time", math.nan), ("max_time", math.inf),
], ids=["0.0", "-0.05", "nan", "inf", "max_time--1.0", "max_time-nan", "max_time-inf"])
def test_settle_rejects_bad_dt(name, value):
    cfg = load_config("locobot")
    sim = ArmSim(cfg.chain, q0=cfg.home)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        sim.settle(np.array([0.3, 0.4, -0.6, 0.3, 0.0]), **{name: value})
    assert sim.time == 0.0 and np.array_equal(sim.q, cfg.home)


def test_arm_limit_violation_names_joint():
    cfg = load_config("locobot")
    sim = ArmSim(cfg.chain, q0=cfg.home)
    bad = np.zeros(5)
    bad[1] = 99.0
    with pytest.raises(ValueError, match="shoulder"):
        sim.settle(bad, 0.05)


def test_arm_noise_statistics_match_sigma():
    # per-axis sample std over repeated settles tracks the injected sigma
    cfg = load_config("locobot")
    sigma = (0.12e-3, 0.13e-3, 0.21e-3)
    reps = 10
    rng = np.random.default_rng(3)
    sim = ArmSim(cfg.chain, ArmNoiseModel(sigma), rng=rng, q0=cfg.home)
    target = np.array([0.3, 0.4, -0.6, 0.3, 0.0])
    pts = []
    for _ in range(reps):
        sim.settle(np.asarray(cfg.home, dtype=float), 0.05)
        sim.settle(target, 0.05)
        pts.append(sim.ee_pose().translation)
    pts = np.array(pts)
    stds = pts.std(axis=0, ddof=1)
    for axis in range(3):
        sampling_err = sigma[axis] / math.sqrt(2 * (reps - 1))
        assert abs(stds[axis] - sigma[axis]) <= 3 * sampling_err


def test_arm_determinism():
    cfg = load_config("locobot")

    def run(seed):
        sim = ArmSim(cfg.chain, ArmNoiseModel((1e-4, 1e-4, 2e-4)),
                     rng=np.random.default_rng(seed), q0=cfg.home)
        out = []
        for _ in range(5):
            sim.settle(np.asarray(cfg.home, dtype=float), 0.05)
            sim.settle(np.array([0.3, 0.4, -0.6, 0.3, 0.0]), 0.05)
            out.append(sim.ee_pose().translation.copy())
        return np.array(out)

    assert np.array_equal(run(11), run(11))


def test_render_empty_scene_floor_only():
    intr = CameraIntrinsics(600, 600, 320, 240)
    cam = SE3.from_xyz_rpy([0, 0, 0.6], [0, 0, 0]) @ SE3(R=OPTICAL)  # looking forward
    # tilt down so the floor is visible
    from robokit.backends import CameraSim
    from robokit.config import CameraSettings

    settings = CameraSettings(depth_sigma=0.002)
    camera = CameraSim(settings, np.random.default_rng(5), Scene())
    pts, tags = camera.render()
    assert len(pts) > 100
    assert np.all(tags == TAG_FLOOR)
    assert np.max(np.abs(pts[:, 2])) <= 3 * settings.depth_sigma + 1e-12


def test_render_cube_z_bounds():
    from robokit.backends import CameraSim
    from robokit.config import CameraSettings

    cube = SceneObject("box", SE3((0.5, 0.2, 0.03)), (0.06, 0.06, 0.06))
    settings = CameraSettings(depth_sigma=0.001)
    camera = CameraSim(settings, np.random.default_rng(6), Scene(objects=[cube]))
    pts, tags = camera.render()
    obj = pts[tags == TAG_OBJECT]
    assert len(obj) > 20
    assert np.max(obj[:, 2]) <= 0.06 + 3 * settings.depth_sigma
    assert np.min(obj[:, 2]) >= -3 * settings.depth_sigma
    # horizontal footprint near the cube
    assert np.all(np.abs(obj[:, 0] - 0.5) < 0.06)
    assert np.all(np.abs(obj[:, 1] - 0.2) < 0.06)


def test_render_determinism():
    cube = SceneObject("box", SE3((0.5, 0.0, 0.03)), (0.06, 0.06, 0.06))
    intr = CameraIntrinsics(600, 600, 320, 240)
    cam = SE3.from_xyz_rpy([0, 0, 0.6], [0, 0.7, 0]) @ SE3(R=OPTICAL)
    a, ta = render_point_cloud(Scene(objects=[cube]), cam, intr,
                               rng=np.random.default_rng(9), depth_sigma=0.002)
    b, tb = render_point_cloud(Scene(objects=[cube]), cam, intr,
                               rng=np.random.default_rng(9), depth_sigma=0.002)
    assert np.array_equal(a, b)
    assert np.array_equal(ta, tb)


def reference_render_point_cloud(scene, camera_pose, intrinsics, density=20000.0,
                                 depth_sigma=0.0, rng=None, max_range=1.5):
    """The renderer without the floor culls, kept verbatim as the byte-equality oracle:
    it stacks, transforms and projects every floor sample."""
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


def _rotation(yaw, pitch, roll):
    return (axis_rotation((0.0, 0.0, 1.0), yaw) @ axis_rotation((0.0, 1.0, 0.0), pitch)
            @ axis_rotation((1.0, 0.0, 0.0), roll))


_angle = st.floats(-math.pi, math.pi)


@st.composite
def scene_objects(draw):
    shape = draw(st.sampled_from(["box", "cylinder"]))
    xyz = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)), draw(st.floats(0.0, 0.3)))
    pose = SE3(xyz, _rotation(draw(_angle), draw(_angle), draw(_angle)))
    dims = draw(st.lists(st.floats(0.01, 0.3), min_size=3 if shape == "box" else 2,
                         max_size=3 if shape == "box" else 2))
    return SceneObject(shape, pose, tuple(dims))


@st.composite
def render_cases(draw):
    """Camera anywhere from below the floor to well above it, in any orientation, with
    random intrinsics, range, density, floor radius and objects."""
    width, height = draw(st.integers(16, 640)), draw(st.integers(12, 480))
    intr = CameraIntrinsics(draw(st.floats(50.0, 2000.0)), draw(st.floats(50.0, 2000.0)),
                            draw(st.floats(0.0, width)), draw(st.floats(0.0, height)),
                            width, height)
    max_range = draw(st.floats(0.05, 2.0))
    # some within 5 cm of the floor, where floor points sit near the 1 cm depth bound;
    # some within 1e-6 m of max_range or above it, where the floor's range cull
    # keeps almost nothing
    cam_xyz = (draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)),
               draw(st.one_of(st.floats(-0.3, 1.2), st.floats(0.0, 0.05),
                              st.floats(-1e-6, 1e-6).map(lambda d: max_range + d),
                              st.floats(0.0, 0.5).map(lambda d: max_range + d))))
    pitch = draw(st.one_of(_angle, st.floats(0.2, math.pi / 2)))   # half of them look down
    cam = SE3(cam_xyz, _rotation(draw(_angle), pitch, draw(_angle)) @ OPTICAL)
    scene = Scene(objects=draw(st.lists(scene_objects(), max_size=3)),
                  floor_radius=draw(st.floats(0.001, 3.0)))
    kwargs = {"density": draw(st.floats(50.0, 6000.0)),
              "depth_sigma": draw(st.sampled_from([0.0, 0.002])),
              "max_range": max_range}
    return scene, cam, intr, kwargs, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=300, deadline=None)
@given(render_cases())
def test_render_matches_reference(case):
    scene, cam, intr, kwargs, seed = case
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    pts, tags = render_point_cloud(scene, cam, intr, rng=rng, **kwargs)
    try:
        ref_pts, ref_tags = reference_render_point_cloud(scene, cam, intr, rng=rng_ref, **kwargs)
    except ValueError:   # it cannot stack an empty draw (raised after every draw it makes)
        ref_pts, ref_tags = np.zeros((0, 3)), np.zeros(0, dtype=np.int8)
    assert pts.dtype == ref_pts.dtype and tags.dtype == ref_tags.dtype
    assert np.array_equal(pts, ref_pts)
    assert np.array_equal(tags, ref_tags)
    assert rng.random() == rng_ref.random()


def test_render_keeps_points_at_the_range_bound():
    # looking straight down with the whole range circle in view, at a density that puts
    # dozens of kept points within 0.1 mm of max_range, where the floor's range cull lies
    intr = CameraIntrinsics(100, 100, 320, 240)
    cam = SE3((0.1, -0.2, 0.5), _rotation(0.3, math.pi / 2, 0.0) @ OPTICAL)
    kwargs = {"density": 2e5, "max_range": 0.8}
    pts, tags = render_point_cloud(Scene(floor_radius=3.0), cam, intr,
                                   rng=np.random.default_rng(5), **kwargs)
    ref_pts, ref_tags = reference_render_point_cloud(Scene(floor_radius=3.0), cam, intr,
                                                     rng=np.random.default_rng(5), **kwargs)
    assert np.array_equal(pts, ref_pts) and np.array_equal(tags, ref_tags)
    assert np.sum(np.linalg.norm(pts - cam.translation, axis=1) > 0.8 - 1e-4) >= 20


def test_render_empty_view_returns_empty_cloud():
    # the range disk around the camera misses the 1 mm floor patch and there is no object
    intr = CameraIntrinsics(600, 600, 320, 240)
    cam = SE3((0.5, 0.0, 0.6), _rotation(0.0, 0.7, 0.0) @ OPTICAL)
    pts, tags = render_point_cloud(Scene(objects=[], floor_radius=0.001), cam, intr,
                                   rng=np.random.default_rng(0), depth_sigma=0.002, max_range=0.3)
    assert pts.shape == (0, 3) and pts.dtype == float
    assert tags.shape == (0,) and tags.dtype == np.int8


@pytest.mark.parametrize("name, value", [
    ("density", math.nan), ("density", math.inf), ("density", 0.0),
    ("max_range", -1.0), ("max_range", math.nan), ("max_range", math.inf),
    ("depth_sigma", math.nan), ("depth_sigma", -1.0), ("depth_sigma", math.inf),
])
def test_render_rejects_bad_arguments(name, value):
    intr = CameraIntrinsics(600, 600, 320, 240)
    cam = SE3((0.0, 0.0, 0.6), _rotation(0.0, 0.7, 0.0) @ OPTICAL)
    with pytest.raises(ValueError, match=name):
        render_point_cloud(Scene(), cam, intr, rng=np.random.default_rng(0), **{name: value})


def test_noise_streams_independent():
    # enabling arm noise must not shift the base's random draws
    cfg = load_config("locobot")
    from robokit.backends import SimBackend

    def base_trace(arm_sigma):
        noise = ArmNoiseModel((1e-4, 1e-4, 1e-4)) if arm_sigma else cfg.arm_noise
        backend = SimBackend(replace(cfg, arm_noise=noise), seed=123)
        if arm_sigma:
            backend.arm_sim.settle(np.array([0.3, 0.4, -0.6, 0.3, 0.0]), 0.05)
        for _ in range(50):
            backend.base_sim.step(ControlCommand(0.2, 0.1), 0.05)
        return backend.base_sim.true_pose

    assert base_trace(False) == base_trace(True)


def test_xyz_roundtrip(tmp_path):
    pts = np.array([[0.1, -0.2, 0.3], [1.5, 2.5, -3.5]])
    tags = np.array([0, 1], dtype=np.int8)
    path = tmp_path / "cloud.xyz"
    write_xyz(path, pts, tags)
    pts2, tags2 = read_xyz(path)
    assert np.array_equal(pts, pts2)
    assert np.array_equal(tags, tags2)


def test_scene_loading(tmp_path):
    scene_file = tmp_path / "scene.yaml"
    scene_file.write_text(
        "floor_radius: 2.0\nobjects:\n"
        "  - {shape: box, xyz: [0.3, 0.0, 0.025], size: [0.05, 0.05, 0.05]}\n"
        "  - {shape: cylinder, xyz: [0.5, 0.2, 0.05], radius: 0.03, height: 0.1}\n")
    scene = load_scene(scene_file)
    assert scene.floor_radius == 2.0
    assert len(scene.objects) == 2
    assert scene.objects[1].shape == "cylinder"


def test_scene_object_validation():
    with pytest.raises(ValueError):
        SceneObject("sphere", SE3(), (0.1,))
    with pytest.raises(ValueError):
        SceneObject("box", SE3(), (0.1, -0.1, 0.1))
