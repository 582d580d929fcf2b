import math

import numpy as np
import pytest

from robokit.geometry import Pose2D, angle_diff, wrap_angle
from robokit.trajectory import (ControlCommand, TimedTrajectory, VelocityLimits,
                                bezier_point, circle_trajectory, generate_sharp_trajectory,
                                generate_smooth_trajectory, integrate_unicycle)

LIMITS = VelocityLimits(v_max=0.3, omega_max=1.0, a_max=0.5, alpha_max=2.0)
DT = 0.05


def max_consistency_error(traj: TimedTrajectory) -> float:
    """Largest one-step re-integration mismatch (m and rad combined max-norm)."""
    worst = 0.0
    for k in range(traj.horizon):
        p = integrate_unicycle(traj.state(k), traj.control(k), traj.dt)
        s = traj.states[k + 1]
        worst = max(worst,
                    abs(p.x - s[0]), abs(p.y - s[1]),
                    abs(wrap_angle(p.theta - s[2])))
    return worst


def test_integrate_straight():
    p = integrate_unicycle(Pose2D(), ControlCommand(0.2, 0.0), 1.0)
    assert (p.x, p.y, p.theta) == (pytest.approx(0.2), 0.0, 0.0)


def test_integrate_pure_rotation():
    p = integrate_unicycle(Pose2D(), ControlCommand(0.0, math.pi / 2), 1.0)
    assert p.x == 0.0 and p.y == 0.0
    assert p.theta == pytest.approx(math.pi / 2)


def test_integrate_closed_arc():
    # constant twist for a full turn returns to the start
    v, w = 0.2, 0.5
    pose = Pose2D()
    steps = 1000
    dt = (2 * math.pi / w) / steps
    for _ in range(steps):
        pose = integrate_unicycle(pose, ControlCommand(v, w), dt)
    assert abs(pose.x) < 1e-9 and abs(pose.y) < 1e-9
    assert abs(angle_diff(pose.theta, 0.0)) < 1e-9


def test_sharp_diagonal_three_phases():
    start, goal = Pose2D(0, 0, 0), Pose2D(1, 1, 0)
    traj = generate_sharp_trajectory(start, goal, LIMITS, DT)
    # rotate to pi/4, drive sqrt(2), rotate back to 0
    headings = traj.states[:, 2]
    assert abs(headings.max() - math.pi / 4) < 1e-9
    drive = traj.controls[:, 0] > 1e-12
    assert np.all(np.abs(traj.controls[drive, 1]) < 1e-12)  # no turning while driving
    np.testing.assert_allclose(traj.states[0], start.as_array(), atol=0)
    np.testing.assert_allclose(traj.states[-1], goal.as_array(), atol=0)
    # total drive distance = sqrt(2)
    assert traj.controls[drive, 0].sum() * DT == pytest.approx(math.sqrt(2), abs=1e-12)


def test_sharp_null_displacement():
    traj = generate_sharp_trajectory(Pose2D(1, 2, 0.5), Pose2D(1, 2, 0.5), LIMITS, DT)
    assert len(traj.states) == 1
    assert traj.horizon == 0


def test_sharp_pure_rotation():
    traj = generate_sharp_trajectory(Pose2D(), Pose2D(0, 0, math.pi / 2), LIMITS, DT)
    assert np.all(traj.controls[:, 0] == 0.0)
    assert traj.states[-1][2] == pytest.approx(math.pi / 2, abs=0)
    assert np.all(np.abs(traj.states[:, :2]) < 1e-15)


def test_sharp_consistency_and_limits():
    rng = np.random.default_rng(0)
    for _ in range(20):
        start = Pose2D(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3))
        goal = Pose2D(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3))
        traj = generate_sharp_trajectory(start, goal, LIMITS, DT)
        assert max_consistency_error(traj) < 1e-9
        assert np.all(np.abs(traj.controls[:, 0]) <= LIMITS.v_max + 1e-12)
        assert np.all(np.abs(traj.controls[:, 1]) <= LIMITS.omega_max + 1e-12)
        dv = np.abs(np.diff(traj.controls[:, 0], prepend=0.0, append=0.0))
        dw = np.abs(np.diff(traj.controls[:, 1], prepend=0.0, append=0.0))
        assert np.all(dv <= LIMITS.a_max * DT + 1e-9)
        assert np.all(dw <= LIMITS.alpha_max * DT + 1e-9)
        np.testing.assert_allclose(traj.states[-1], goal.as_array(), atol=1e-15)


def test_smooth_collinear_is_straight():
    traj = generate_smooth_trajectory(Pose2D(), Pose2D(2, 0, 0), LIMITS, DT)
    assert np.all(np.abs(traj.states[:, 1]) < 1e-9)
    assert np.all(np.abs(traj.controls[:, 1]) < 1e-6)


def test_smooth_bezier_endpoints():
    from robokit.trajectory import _bezier_points

    rng = np.random.default_rng(1)
    for _ in range(20):
        start = Pose2D(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3))
        goal = Pose2D(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3))
        ctrl = _bezier_points(start, goal)
        np.testing.assert_allclose(bezier_point(ctrl, 0.0), [start.x, start.y], atol=1e-15)
        np.testing.assert_allclose(bezier_point(ctrl, 1.0), [goal.x, goal.y], atol=1e-15)


def test_smooth_exact_endpoints_and_consistency():
    start, goal = Pose2D(0, 0, 0), Pose2D(1, 1, 0)
    traj = generate_smooth_trajectory(start, goal, LIMITS, DT)
    np.testing.assert_allclose(traj.states[0], start.as_array(), atol=0)
    np.testing.assert_allclose(traj.states[-1], goal.as_array(), atol=0)
    assert max_consistency_error(traj) < 1e-9


def test_smooth_heading_continuous_no_spin():
    traj = generate_smooth_trajectory(Pose2D(), Pose2D(1, 1, 0), LIMITS, DT)
    dtheta = np.abs(np.diff(traj.states[:, 2]))
    dtheta = np.minimum(dtheta, 2 * math.pi - dtheta)
    assert dtheta.max() < 0.06  # omega_max * dt plus slack: no on-spot rotation
    # dense-sampled curvature of the driven path stays finite
    v = traj.controls[:, 0]
    w = traj.controls[:, 1]
    moving = v > 1e-6
    kappa = np.abs(w[moving] / v[moving])
    assert np.isfinite(kappa).all()
    assert kappa.max() < 50.0


def test_smooth_respects_limits():
    rng = np.random.default_rng(2)
    for _ in range(10):
        start = Pose2D(*rng.uniform(-1, 1, 2), rng.uniform(-1, 1))
        goal_heading = rng.uniform(-1, 1)
        goal = Pose2D(start.x + rng.uniform(0.5, 2), start.y + rng.uniform(-0.5, 0.5),
                      goal_heading)
        traj = generate_smooth_trajectory(start, goal, LIMITS, DT)
        assert max_consistency_error(traj) < 1e-9
        assert np.all(traj.controls[:, 0] <= LIMITS.v_max + 1e-9)
        assert np.all(np.abs(traj.controls[:, 1]) <= LIMITS.omega_max + 1e-9)
        np.testing.assert_allclose(traj.states[-1], goal.as_array(), atol=1e-12)


def test_smooth_pure_rotation_falls_back_to_sharp():
    traj = generate_smooth_trajectory(Pose2D(), Pose2D(0, 0, 1.0), LIMITS, DT)
    assert np.all(traj.controls[:, 0] == 0.0)
    assert traj.states[-1][2] == pytest.approx(1.0, abs=0)


def test_circle_trajectory_closes():
    traj = circle_trajectory(0.4, 0.2, DT)
    assert max_consistency_error(traj) < 1e-9
    start, end = traj.states[0], traj.states[-1]
    assert np.hypot(end[0] - start[0], end[1] - start[1]) < 0.01


def test_timed_trajectory_validation():
    with pytest.raises(ValueError):
        TimedTrajectory(0.0, np.zeros((2, 3)), np.zeros((1, 2)))
    with pytest.raises(ValueError):
        TimedTrajectory(0.05, np.zeros((3, 3)), np.zeros((1, 2)))


@pytest.mark.parametrize("radius, speed", [(math.inf, 0.2), (math.nan, 0.2), (0.4, math.inf),
                                           (0.4, math.nan), (0.0, 0.2), (0.4, -0.1)])
def test_circle_rejects_non_positive_or_non_finite(radius, speed):
    with pytest.raises(ValueError, match="positive and finite"):
        circle_trajectory(radius, speed)
