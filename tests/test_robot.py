import math
from dataclasses import replace

import numpy as np
import pytest

from robokit.backends import SimBackend
from robokit.config import load_config
from robokit.errors import CapabilityError, ControlError
from robokit.geometry import Pose2D, angle_diff, planar_distance
from robokit.kinematics import forward_kinematics
from robokit.robot import make_robot
from robokit.trajectory import ControlCommand


@pytest.fixture(scope="module")
def locobot_cfg():
    return load_config("locobot")


def fresh_robot(cfg, seed=0, zero_noise=True, **kw):
    return make_robot(cfg, SimBackend(cfg, seed=seed, zero_noise=zero_noise, **kw))


def test_full_backend_provides_four_subsystems(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    assert bot.arm is not None and bot.base is not None
    assert bot.camera is not None and bot.gripper is not None


def test_capability_mismatch_names_missing_subsystem(locobot_cfg):
    backend = SimBackend(locobot_cfg, capabilities={"arm", "gripper"})
    with pytest.raises(CapabilityError, match="base"):
        make_robot(locobot_cfg, backend)


def test_arm_only_config_on_arm_only_backend():
    cfg = load_config("sawyer_sim")
    backend = SimBackend(cfg, capabilities={"arm", "gripper"})
    bot = make_robot(cfg, backend)
    assert bot.arm is not None and bot.gripper is not None


def test_disabled_subsystem_access_raises():
    cfg = load_config("sawyer_sim")
    bot = make_robot(cfg, SimBackend(cfg))
    with pytest.raises(CapabilityError, match="base"):
        bot.base
    with pytest.raises(CapabilityError, match="camera"):
        bot.camera


def test_go_to_absolute_current_pose_immediate(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    res = bot.base.go_to_absolute([0, 0, 0], "lqr")
    assert res.reached
    assert res.elapsed == 0.0
    assert all(c.v == 0.0 and c.omega == 0.0 for c in res.commands)


def test_unknown_controller_name(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    with pytest.raises(CapabilityError, match=r"unknown controller 'pid'; configured: \['dwa', "):
        bot.base.go_to_absolute([1, 0, 0], "pid")


@pytest.mark.parametrize("controller,tol_mm,tol_deg", [
    ("lqr", 5.0, 0.5), ("proportional", 5.0, 0.5), ("dwa", 20.0, 2.0)])
def test_zero_noise_reaches_target(locobot_cfg, controller, tol_mm, tol_deg):
    bot = fresh_robot(locobot_cfg)
    target = Pose2D(1.0, 0.5, 0.7)
    res = bot.base.go_to_absolute(target, controller)
    assert res.reached
    assert 1000 * planar_distance(res.true_pose, target) <= tol_mm
    assert math.degrees(abs(angle_diff(res.true_pose.theta, target.theta))) <= tol_deg
    assert res.elapsed < 60.0


def test_proportional_reaches_a_1mm_base_tolerance(locobot_cfg):
    # the phase machine ends on base.position_tolerance, not on a 5 mm threshold of its own
    cfg = replace(locobot_cfg, base=replace(locobot_cfg.base, position_tolerance=0.001))
    target = Pose2D(1.0, 0.5, 0.3)
    res = fresh_robot(cfg).base.go_to_absolute(target, "proportional")
    assert res.reached and res.detail == ""
    assert planar_distance(res.true_pose, target) <= 0.001
    assert abs(angle_diff(res.true_pose.theta, target.theta)) <= cfg.base.heading_tolerance


def test_go_to_relative_matches_composition(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    bot.base.go_to_absolute([0.0, 0.0, math.pi / 2], "lqr")
    start = bot.base.odom_pose
    rel = Pose2D(1.0, 1.0, 0.0)
    expected = start.compose(rel)
    res = bot.base.go_to_relative(rel, "lqr")
    assert planar_distance(res.pose, expected) <= 0.005
    assert abs(angle_diff(res.pose.theta, expected.theta)) <= math.radians(0.5)


def test_command_log_respects_rate_bounds(locobot_cfg):
    lim = locobot_cfg.base.limits
    dt = locobot_cfg.base.dt
    for controller in ("lqr", "proportional", "dwa"):
        bot = fresh_robot(locobot_cfg, seed=3, zero_noise=False)
        res = bot.base.go_to_absolute([1.0, 0.6, 0.4], controller)
        cmds = res.commands
        assert all(abs(c.v) <= lim.v_max + 1e-12 for c in cmds)
        assert all(abs(c.omega) <= lim.omega_max + 1e-12 for c in cmds)
        prev_v, prev_w = 0.0, 0.0
        for c in cmds:
            assert abs(c.v - prev_v) <= lim.a_max * dt + 1e-9
            assert abs(c.omega - prev_w) <= lim.alpha_max * dt + 1e-9
            prev_v, prev_w = c.v, c.omega


def test_timeout_reported_not_raised(locobot_cfg):
    import dataclasses
    base = dataclasses.replace(locobot_cfg.base, timeout=0.5)
    cfg = dataclasses.replace(locobot_cfg, base=base)
    for controller in ("lqr", "proportional", "dwa"):
        bot = fresh_robot(cfg)
        res = bot.base.go_to_absolute([2.0, 0.0, 0.0], controller)
        assert not res.reached, controller
        assert res.detail == "timeout", controller


def test_settle_drift_not_reported_as_timeout(locobot_cfg):
    # noisy LQR trial that meets tolerance, then drifts out of it while the settle
    # ramp brings the base to rest: today it ends 5.13 mm off after 7.5 s of a 60 s
    # timeout, and that is not a timeout
    from robokit.benchmark import trial_seed

    target = Pose2D(2.0, 0.0, 0.0)
    bot = fresh_robot(locobot_cfg, seed=trial_seed(1, 0, 0, 0, 0), zero_noise=False)
    res = bot.base.go_to_absolute(target, "lqr")
    assert res.elapsed < locobot_cfg.base.timeout
    assert res.detail == ("" if res.reached else "settled out of tolerance")
    if not res.reached:
        assert planar_distance(res.pose, target) > locobot_cfg.base.position_tolerance


def test_dwa_blocked_reported_through_facade(locobot_cfg):
    from robokit.planning import OccupancyGrid

    grid = OccupancyGrid.empty(10, 10, 0.1, Pose2D(-0.5, -0.5, 0))
    grid.cells[:, :] = 1
    bot = fresh_robot(locobot_cfg)
    res = bot.base.go_to_absolute([0.4, 0.0, 0.0], "dwa", grid)
    assert not res.reached
    assert res.detail == "all DWA samples blocked"
    assert res.elapsed == 0.0
    assert res.commands == []


def test_lqr_smooth_reference_reaches_target_ahead(locobot_cfg):
    import dataclasses
    from robokit.config import LqrParams

    controllers = dict(locobot_cfg.controllers, lqr=LqrParams(trajectory="smooth"))
    bot = fresh_robot(dataclasses.replace(locobot_cfg, controllers=controllers))
    target = Pose2D(1.0, 0.5, 0.3)
    res = bot.base.go_to_absolute(target, "lqr")
    assert res.reached
    assert planar_distance(res.pose, target) <= locobot_cfg.base.position_tolerance
    assert res.elapsed < 10.0


@pytest.mark.xfail(reason="known fault, cause not isolated: LQR on the smooth (Bezier) "
                          "reference never reaches a target behind the robot; with noise off "
                          "(-2, 0, 0) ends 74.4 mm and (-1, -1, 0) 225.7 mm off at the 60 s "
                          "timeout")
@pytest.mark.parametrize("target", [Pose2D(-2.0, 0.0, 0.0), Pose2D(-1.0, -1.0, 0.0)],
                         ids=["behind", "behind-diagonal"])
def test_lqr_smooth_reference_reaches_target_behind(locobot_cfg, target):
    import dataclasses
    from robokit.config import LqrParams

    controllers = dict(locobot_cfg.controllers, lqr=LqrParams(trajectory="smooth"))
    bot = fresh_robot(dataclasses.replace(locobot_cfg, controllers=controllers))
    res = bot.base.go_to_absolute(target, "lqr")
    assert res.reached
    assert planar_distance(res.pose, target) <= locobot_cfg.base.position_tolerance


def test_set_joint_positions_home_is_fk_zero(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    res = bot.arm.set_joint_positions(np.zeros(5))
    ref = forward_kinematics(locobot_cfg.chain, np.zeros(5))
    np.testing.assert_allclose(res.ee_pose.translation, ref.translation, atol=1e-12)


def test_set_joint_positions_dimension_error(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    with pytest.raises(ValueError):
        bot.arm.set_joint_positions(np.zeros(6))


def test_set_joint_positions_limit_error_names_joint(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    bad = np.zeros(5)
    bad[2] = 99.0
    with pytest.raises(ValueError, match="elbow"):
        bot.arm.set_joint_positions(bad)


def test_reset_pose_accepted(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    res = bot.arm.set_joint_positions([-1.5, 0.5, 0.3, -0.7, 0.0])
    assert res.reached
    np.testing.assert_allclose(res.joints, [-1.5, 0.5, 0.3, -0.7, 0.0], atol=1e-12)


def test_move_ee_xyz_zero_displacement(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    res = bot.arm.move_ee_xyz([0.0, 0.0, 0.0])
    assert res.reached
    assert res.elapsed == 0.0


def test_move_ee_xyz_descent_monotonic(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    bot.arm.set_ee_pose_pitch_roll([0.30, 0.0, 0.20], math.pi / 2, 0.0)
    res = bot.arm.move_ee_xyz([0.0, 0.0, -0.07])
    assert res.reached
    zs = [p[2] for p in res.path]
    assert all(b < a + 1e-9 for a, b in zip(zs[:-1], zs[1:]))
    assert zs[-1] == pytest.approx(0.13, abs=1e-5)


def test_move_ee_xyz_workspace_exit_aborts_with_index(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    bot.arm.set_ee_pose_pitch_roll([0.30, 0.0, 0.20], math.pi / 2, 0.0)
    res = bot.arm.move_ee_xyz([1.0, 0.0, 0.0], step=0.05)
    assert not res.reached
    assert "waypoint" in res.detail
    assert len(res.path) >= 1


def test_set_ee_pose_pitch_roll_reaches(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    res = bot.arm.set_ee_pose_pitch_roll([0.25, 0.10, 0.20], math.pi / 2, 0.4)
    np.testing.assert_allclose(res.ee_pose.translation, [0.25, 0.10, 0.20], atol=1e-5)
    approach = res.ee_pose.rotate_vector([1.0, 0.0, 0.0])
    np.testing.assert_allclose(approach, [0, 0, -1], atol=1e-5)


def test_sawyer_cartesian_move_holds_orientation():
    cfg = load_config("sawyer_sim")
    bot = make_robot(cfg, SimBackend(cfg, zero_noise=True))
    bot.arm.set_joint_positions([0.3, 0.5, 0.2, -0.8, 0.1, 0.6, 0.0])
    start = bot.arm.ee_pose
    res = bot.arm.move_ee_xyz([0.0, 0.0, -0.10])
    assert res.reached
    end = bot.arm.ee_pose
    np.testing.assert_allclose(end.translation - start.translation, [0, 0, -0.10], atol=1e-5)
    from robokit.geometry import pose_error
    _, dori = pose_error(start, end)
    assert np.linalg.norm(dori) < 1e-5


@pytest.mark.xfail(strict=True,
                   reason="known fault: move_ee_xyz reads pitch and roll back with "
                          "zyx_from_matrix, which at pitch pi/2 (gimbal lock) folds roll into "
                          "yaw, so a top-down descent ends at roll 0, 1.000 rad off")
def test_top_down_descent_keeps_roll(locobot_cfg):
    from robokit.geometry import pose_error
    from robokit.kinematics import pose_from_pitch_roll

    bot = fresh_robot(locobot_cfg)
    assert bot.arm.set_ee_pose_pitch_roll([0.33, -0.07, 0.2], math.pi / 2, 1.0).reached
    res = bot.arm.move_ee_xyz([0.0, 0.0, -0.07])
    assert res.reached
    end = bot.arm.ee_pose
    _, dori = pose_error(pose_from_pitch_roll(end.translation, math.pi / 2, 1.0), end)
    assert np.linalg.norm(dori) <= 1e-6


def test_gripper_state(locobot_cfg):
    bot = fresh_robot(locobot_cfg)
    assert not bot.gripper.is_closed
    bot.gripper.close()
    assert bot.gripper.is_closed
    bot.gripper.open()
    assert not bot.gripper.is_closed


def test_camera_pan_tilt_and_cloud(locobot_cfg):
    from robokit.sim import Scene, SceneObject, TAG_OBJECT
    from robokit.geometry import SE3

    scene = Scene(objects=[SceneObject("box", SE3((0.36, 0.05, 0.025)), (0.05, 0.05, 0.05))])
    bot = make_robot(locobot_cfg, SimBackend(locobot_cfg, scene=scene, zero_noise=True))
    bot.camera.set_pan_tilt(0.0, 0.7)
    assert bot.camera.pan_tilt == (0.0, 0.7)
    pts, tags = bot.camera.get_point_cloud()
    assert (tags == TAG_OBJECT).sum() > 20


def test_track_trajectory_log_length(locobot_cfg):
    from robokit.trajectory import circle_trajectory, TimedTrajectory

    bot = fresh_robot(locobot_cfg)
    traj = circle_trajectory(0.4, 0.2, locobot_cfg.base.dt)
    log = bot.base.track_trajectory(traj, "lqr")
    assert len(log) == traj.horizon
    empty = TimedTrajectory(0.05, np.zeros((1, 3)), np.zeros((0, 2)))
    assert bot.base.track_trajectory(empty, "lqr") == []


def test_track_trajectory_ends_at_rest(locobot_cfg):
    from robokit.trajectory import circle_trajectory

    for controller in ("lqr", "proportional"):
        bot = fresh_robot(locobot_cfg)
        traj = circle_trajectory(0.4, 0.2, locobot_cfg.base.dt)
        assert len(bot.base.track_trajectory(traj, controller)) == traj.horizon
        velocity = bot.backend.base_sim.velocity
        assert (velocity.v, velocity.omega) == (0.0, 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("call, name", [
    (lambda bot: bot.base.go_to_absolute([NAN, 0.0, 0.0], "lqr"), "target"),
    (lambda bot: bot.base.go_to_relative([0.5, 0.0, NAN], "proportional"), "rel"),
    (lambda bot: bot.arm.set_joint_positions([0.0, NAN, 0.0, 0.0, 0.0]), "joints"),
    (lambda bot: bot.arm.set_ee_pose_pitch_roll([0.3, NAN, 0.2], math.pi / 2, 0.0), "position"),
    (lambda bot: bot.arm.set_ee_pose_pitch_roll([0.3, 0.0, 0.2], INF, 0.0), "pitch"),
    (lambda bot: bot.arm.set_ee_pose_pitch_roll([0.3, 0.0, 0.2], math.pi / 2, NAN), "roll"),
    (lambda bot: bot.arm.move_ee_xyz([0.0, 0.0, INF]), "displacement"),
    (lambda bot: bot.arm.move_ee_xyz([0.0, 0.0, -0.05], step=NAN), "step"),
    (lambda bot: bot.arm.move_ee_xyz([0.0, 0.0, -0.05], step=INF), "step"),
    (lambda bot: bot.camera.set_pan_tilt(NAN, 0.7), "pan"),
    (lambda bot: bot.camera.set_pan_tilt(0.0, INF), "tilt"),
], ids=["abs-nan-x", "rel-nan-theta", "joints-nan", "position-nan",
        "pitch-inf", "roll-nan", "displacement-inf", "step-nan", "step-inf",
        "pan-nan", "tilt-inf"])
def test_non_finite_input_fails_fast(locobot_cfg, call, name):
    """The facade rejects NaN/inf before any motion, naming the bad argument."""
    bot = fresh_robot(locobot_cfg)
    q0, pan_tilt = bot.arm.joint_positions, bot.camera.pan_tilt
    with pytest.raises(ValueError, match=f"^{name} must be"):
        call(bot)
    assert bot.sim_time == 0.0
    assert bot.base.odom_pose == Pose2D()
    np.testing.assert_array_equal(bot.arm.joint_positions, q0)
    assert bot.camera.pan_tilt == pan_tilt


@pytest.mark.parametrize("bad", [ControlCommand(NAN, NAN), ControlCommand(0.1, INF)],
                         ids=["nan", "inf"])
def test_drive_rejects_non_finite_law_command(locobot_cfg, bad):
    """A law's NaN survives the rate limiter as a finite command, so the loop checks it first."""
    bot = fresh_robot(locobot_cfg)

    def law(k, pose, current):
        return ControlCommand(0.1, 0.2) if k < 3 else bad

    with pytest.raises(ControlError, match="at step 3$"):
        bot.base._drive(law, 10.0)
    assert bot.sim_time == pytest.approx(3 * locobot_cfg.base.dt)
