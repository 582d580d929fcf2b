import math
from dataclasses import replace

import numpy as np
import pytest

from robokit.config import load_config, load_scene
from robokit.geometry import SE3, Pose2D
from robokit.kinematics import forward_kinematics
from robokit.report import read_xyz, write_xyz
from robokit.sim import (ArmNoiseModel, ArmSim, BaseNoiseModel, CameraIntrinsics,
                         DiffDriveSim, Scene, SceneObject, TAG_FLOOR, TAG_OBJECT,
                         render_point_cloud, subsystem_rngs)
from robokit.trajectory import ControlCommand, VelocityLimits

LIMITS = VelocityLimits(v_max=5.0, omega_max=5.0, a_max=1e6, alpha_max=1e6)


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
    cam = SE3.from_xyz_rpy([0, 0, 0.6], [0, 0, 0]) @ SE3(
        rotation=[0.5, -0.5, 0.5, -0.5])  # optical frame looking forward
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
    cam = SE3.from_xyz_rpy([0, 0, 0.6], [0, 0.7, 0]) @ SE3(rotation=[0.5, -0.5, 0.5, -0.5])
    a, ta = render_point_cloud(Scene(objects=[cube]), cam, intr,
                               rng=np.random.default_rng(9), depth_sigma=0.002)
    b, tb = render_point_cloud(Scene(objects=[cube]), cam, intr,
                               rng=np.random.default_rng(9), depth_sigma=0.002)
    assert np.array_equal(a, b)
    assert np.array_equal(ta, tb)


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
