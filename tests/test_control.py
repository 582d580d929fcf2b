import math

import numpy as np
import pytest

from robokit.control import (ALIGN, DONE, DRIVE, FINAL_ROTATE, CostWeights, DwaParams,
                             ProportionalParams, dwa_step, euler_step,
                             linearize_dynamics, lqr_backward_pass, lqr_track_step,
                             proportional_step, riccati_gains, tracking_error)
from robokit.geometry import Pose2D
from robokit.sim import DiffDriveSim
from robokit.trajectory import (ControlCommand, VelocityLimits, generate_sharp_trajectory)

LIMITS = VelocityLimits(v_max=0.3, omega_max=1.0, a_max=0.5, alpha_max=2.0)
DT = 0.05


# --- linearization -----------------------------------------------------------


def test_linearize_example_values():
    A, B = linearize_dynamics(Pose2D(0, 0, 0), ControlCommand(1.0, 0.0), 0.05)
    np.testing.assert_allclose(A, np.eye(3) + 0.05 * np.array([[0, 0, 0], [0, 0, 1], [0, 0, 0]]),
                               atol=1e-15)
    np.testing.assert_allclose(B, 0.05 * np.array([[1, 0], [0, 0], [0, 1]]), atol=1e-15)


def test_linearize_zero_velocity_decouples():
    A, _ = linearize_dynamics(Pose2D(0.3, -0.2, 1.1), ControlCommand(0.0, 0.4), 0.05)
    np.testing.assert_allclose(A, np.eye(3), atol=1e-15)


def _fd_jacobians(step, state, cmd, dt, h=1e-7):
    A = np.zeros((3, 3))
    B = np.zeros((3, 2))
    x0 = state.as_array()
    u0 = cmd.as_array()
    for i in range(3):
        dp = x0.copy(); dp[i] += h
        dm = x0.copy(); dm[i] -= h
        fp = step(Pose2D.from_array(dp), cmd, dt).as_array()
        fm = step(Pose2D.from_array(dm), cmd, dt).as_array()
        A[:, i] = (fp - fm) / (2 * h)
    for i in range(2):
        up = u0.copy(); up[i] += h
        um = u0.copy(); um[i] -= h
        fp = step(state, ControlCommand(*up), dt).as_array()
        fm = step(state, ControlCommand(*um), dt).as_array()
        B[:, i] = (fp - fm) / (2 * h)
    return A, B


def test_linearize_matches_euler_step_fd():
    rng = np.random.default_rng(0)
    for _ in range(20):
        state = Pose2D(*rng.uniform(-1, 1, 2), rng.uniform(-3, 3))
        cmd = ControlCommand(rng.uniform(-0.3, 0.3), rng.uniform(-1, 1))
        A, B = linearize_dynamics(state, cmd, DT)
        An, Bn = _fd_jacobians(euler_step, state, cmd, DT)
        assert np.max(np.abs(A - An)) < 1e-6
        assert np.max(np.abs(B - Bn)) < 1e-6


def test_linearize_close_to_exact_simulator_step():
    # the simulator integrates exact arcs; Euler Jacobians agree to O(dt^2)
    def sim_step(state, cmd, dt):
        sim = DiffDriveSim(VelocityLimits(v_max=10, omega_max=10, a_max=1e6, alpha_max=1e6),
                           start=state)
        sim.step(cmd, dt)
        return sim.true_pose

    rng = np.random.default_rng(1)
    for _ in range(10):
        state = Pose2D(*rng.uniform(-1, 1, 2), rng.uniform(-3, 3))
        cmd = ControlCommand(rng.uniform(-0.3, 0.3), rng.uniform(-1, 1))
        A, B = linearize_dynamics(state, cmd, DT)
        An, Bn = _fd_jacobians(sim_step, state, cmd, DT)
        # leading discrepancy is dt^2 * omega_max / 2 = 1.25e-3
        assert np.max(np.abs(A - An)) < 2e-3
        assert np.max(np.abs(B - Bn)) < 2e-3


# --- Riccati -----------------------------------------------------------------


def test_riccati_scalar_golden_ratio():
    n = 120
    A = [np.array([[1.0]])] * n
    B = [np.array([[1.0]])] * n
    K = riccati_gains(A, B, np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    assert K[0][0, 0] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-8)


def test_riccati_zero_cost_zero_gain():
    traj = generate_sharp_trajectory(Pose2D(), Pose2D(1, 0, 0), LIMITS, DT)
    weights = CostWeights(Q=np.zeros((3, 3)), R=np.eye(2), Qf=np.zeros((3, 3)))
    gains = lqr_backward_pass(traj, weights)
    assert np.max(np.abs(gains.gains)) == 0.0


def test_riccati_uniform_scaling_invariance():
    traj = generate_sharp_trajectory(Pose2D(), Pose2D(1, 0.5, 0.3), LIMITS, DT)
    w1 = CostWeights.from_diagonals([5, 5, 1], [1, 0.5])
    c = 3.7
    w2 = CostWeights(Q=c * w1.Q, R=c * w1.R, Qf=c * w1.Qf)
    g1 = lqr_backward_pass(traj, w1).gains
    g2 = lqr_backward_pass(traj, w2).gains
    assert np.max(np.abs(g1 - g2)) < 1e-10


def _rollout_cost(A, B, Q, R, Qf, x0, gains_seq):
    x = x0.copy()
    cost = 0.0
    for K in gains_seq:
        u = -K @ x
        cost += x @ Q @ x + u @ R @ u
        x = A @ x + B @ u
    return cost + x @ Qf @ x


def test_lqr_beats_random_linear_policies():
    rng = np.random.default_rng(7)
    n_steps = 20
    A = rng.normal(size=(3, 3)) * 0.4 + np.eye(3) * 0.9
    B = rng.normal(size=(3, 2)) * 0.5
    Q = np.eye(3)
    R = np.eye(2) * 0.5
    Qf = np.eye(3) * 3
    x0 = rng.normal(size=3)
    K = riccati_gains([A] * n_steps, [B] * n_steps, Q, R, Qf)
    optimal = _rollout_cost(A, B, Q, R, Qf, x0, list(K))
    # vectorized rollout of 10^4 random static gains
    m = 10_000
    Ks = rng.normal(size=(m, 2, 3)) * 0.7
    x = np.tile(x0, (m, 1))
    cost = np.zeros(m)
    for _ in range(n_steps):
        u = -np.einsum("mij,mj->mi", Ks, x)
        cost += np.einsum("mi,ij,mj->m", x, Q, x) + np.einsum("mi,ij,mj->m", u, R, u)
        x = x @ A.T + u @ B.T
    cost += np.einsum("mi,ij,mj->m", x, Qf, x)
    assert optimal <= cost.min() + 1e-9


def test_cost_weights_validation():
    with pytest.raises(ValueError):
        CostWeights(Q=np.eye(3), R=np.zeros((2, 2)), Qf=np.eye(3))
    with pytest.raises(ValueError):
        CostWeights(Q=-np.eye(3), R=np.eye(2), Qf=np.eye(3))


# --- tracking step -----------------------------------------------------------


def _tracking_setup():
    traj = generate_sharp_trajectory(Pose2D(), Pose2D(2, 0, 0), LIMITS, DT)
    weights = CostWeights.from_diagonals([5, 5, 1], [1, 0.5])
    return traj, lqr_backward_pass(traj, weights)


def test_lqr_track_step_zero_error_returns_feedforward():
    traj, gains = _tracking_setup()
    t = traj.horizon // 2
    cmd = lqr_track_step(traj.state(t), t, traj, gains, LIMITS)
    assert cmd.v == pytest.approx(traj.controls[t, 0], abs=1e-12)
    assert cmd.omega == pytest.approx(traj.controls[t, 1], abs=1e-12)


def test_lqr_track_step_heading_error_sign():
    traj, gains = _tracking_setup()
    t = traj.horizon // 2
    ref = traj.state(t)
    state = Pose2D(ref.x, ref.y, ref.theta + 0.1)
    cmd = lqr_track_step(state, t, traj, gains, LIMITS)
    assert cmd.omega < 0.0  # command opposes the heading error


def test_lqr_track_step_clamps():
    traj, gains = _tracking_setup()
    state = Pose2D(-5.0, 4.0, 2.0)
    for t in range(traj.horizon):
        cmd = lqr_track_step(state, t, traj, gains, LIMITS)
        assert abs(cmd.v) <= LIMITS.v_max and abs(cmd.omega) <= LIMITS.omega_max


def test_tracking_error_wraps_heading():
    e = tracking_error(Pose2D(0, 0, math.pi - 0.05), Pose2D(0, 0, -math.pi + 0.05))
    assert e[2] == pytest.approx(-0.1, abs=1e-12)


# --- proportional ------------------------------------------------------------


PARAMS = ProportionalParams()


def test_proportional_zero_bearing_goes_straight_to_drive():
    cmd, phase = proportional_step(Pose2D(), Pose2D(2, 0, 0), ALIGN, PARAMS, LIMITS)
    assert phase == DRIVE
    assert cmd.v > 0.0
    assert cmd.omega == 0.0


def test_proportional_pure_rotation_skips_to_final():
    cmd, phase = proportional_step(Pose2D(), Pose2D(0, 0, math.pi / 2), ALIGN, PARAMS, LIMITS)
    assert phase == FINAL_ROTATE
    assert cmd.v == 0.0
    assert cmd.omega > 0.0


def test_proportional_done_when_converged():
    cmd, phase = proportional_step(Pose2D(), Pose2D(0, 0, 0), ALIGN, PARAMS, LIMITS)
    assert phase == DONE
    assert cmd.v == 0.0 and cmd.omega == 0.0


# --- DWA ---------------------------------------------------------------------


DWA = DwaParams()


def test_dwa_goal_ahead_symmetric_tiebreak():
    decision = dwa_step(Pose2D(), ControlCommand(0.1, 0.0), Pose2D(3, 0, 0), None, DWA,
                        LIMITS, DT)
    assert decision.command.omega == 0.0
    assert decision.command.v > 0.0
    assert not decision.blocked


def independent_dwa_oracle(state, current, goal, grid, params, limits, dt):
    """Scalar re-implementation of the window, rollout, scoring, and tie-break."""
    v_lo = max(0.0, current.v - limits.a_max * dt)
    v_hi = min(limits.v_max, current.v + limits.a_max * dt)
    w_lo = max(-limits.omega_max, current.omega - limits.alpha_max * dt)
    w_hi = min(limits.omega_max, current.omega + limits.alpha_max * dt)
    best = None
    for i in range(params.samples_v):
        v = v_lo + (v_hi - v_lo) * i / (params.samples_v - 1)
        for j in range(params.samples_omega):
            w = w_lo + (w_hi - w_lo) * j / (params.samples_omega - 1)
            # closed-form endpoint
            th1 = state.theta + w * params.horizon
            if abs(w) < 1e-9:
                x = state.x + v * params.horizon * math.cos(state.theta)
                y = state.y + v * params.horizon * math.sin(state.theta)
            else:
                x = state.x + v / w * (math.sin(th1) - math.sin(state.theta))
                y = state.y - v / w * (math.cos(th1) - math.cos(state.theta))
            brake = v * v / (2 * limits.a_max)
            sx, sy = x + brake * math.cos(th1), y + brake * math.sin(th1)
            d_stop = math.hypot(goal.x - sx, goal.y - sy)
            bearing = math.atan2(goal.y - y, goal.x - x)
            herr = abs(math.atan2(math.sin(bearing - th1), math.cos(bearing - th1)))
            score = (params.weight_heading * (1 - herr / math.pi)
                     + params.weight_distance / (d_stop + 0.05)
                     + params.weight_velocity * v / limits.v_max)
            collided = False
            if grid is not None:
                n_sub = max(2, int(math.ceil(params.horizon / 0.1)))
                clear = math.inf
                for k in range(1, n_sub + 1):
                    t = params.horizon * k / n_sub
                    th = state.theta + w * t
                    if abs(w) < 1e-9:
                        px = state.x + v * t * math.cos(state.theta)
                        py = state.y + v * t * math.sin(state.theta)
                    else:
                        px = state.x + v / w * (math.sin(th) - math.sin(state.theta))
                        py = state.y - v / w * (math.cos(th) - math.cos(state.theta))
                    c = float(grid.clearance_at(px, py)[0])
                    clear = min(clear, c)
                    if c <= 0.0:
                        collided = True
                score += params.weight_clearance * min(1.0, max(0.0, clear / params.clearance_cap))
            if collided:
                continue
            key = (-score, abs(w), v)
            if best is None or key < best[0]:
                best = (key, v, w)
    if best is None:
        return None
    return best[1], best[2]


def test_dwa_matches_independent_rescoring():
    rng = np.random.default_rng(3)
    for _ in range(25):
        state = Pose2D(*rng.uniform(-1, 1, 2), rng.uniform(-3, 3))
        current = ControlCommand(rng.uniform(0, 0.3), rng.uniform(-1, 1))
        goal = Pose2D(*rng.uniform(-2, 2, 2), 0)
        decision = dwa_step(state, current, goal, None, DWA, LIMITS, DT)
        oracle = independent_dwa_oracle(state, current, goal, None, DWA, LIMITS, DT)
        assert decision.command.v == oracle[0]
        assert decision.command.omega == oracle[1]


def test_dwa_avoids_wall_or_stops():
    from robokit.planning import OccupancyGrid

    grid = OccupancyGrid.empty(30, 30, 0.1, Pose2D(-1.5, -1.5, 0))
    grid.set_box(0.2, -1.5, 0.5, 1.5, 1)  # wall ahead
    state = Pose2D(0, 0, 0)
    decision = dwa_step(state, ControlCommand(0.3, 0.0), Pose2D(1.2, 0, 0), grid, DWA,
                        LIMITS, DT)
    if not decision.blocked:
        # chosen rollout must stay collision-free
        v, w = decision.command.v, decision.command.omega
        for k in range(1, 16):
            t = DWA.horizon * k / 15
            th = state.theta + w * t
            if abs(w) < 1e-9:
                px, py = state.x + v * t, state.y
            else:
                px = state.x + v / w * (math.sin(th) - math.sin(state.theta))
                py = state.y - v / w * (math.cos(th) - math.cos(state.theta))
            assert grid.clearance_at(px, py)[0] > 0.0
    # same oracle agreement with the grid
    oracle = independent_dwa_oracle(state, ControlCommand(0.3, 0.0), Pose2D(1.2, 0, 0),
                                    grid, DWA, LIMITS, DT)
    if oracle is None:
        assert decision.blocked
    else:
        assert decision.command.v == oracle[0]
        assert decision.command.omega == oracle[1]


def test_dwa_fully_blocked_returns_stop():
    from robokit.planning import OccupancyGrid

    grid = OccupancyGrid.empty(10, 10, 0.1, Pose2D(-0.5, -0.5, 0))
    grid.cells[:, :] = 1
    decision = dwa_step(Pose2D(), ControlCommand(0.2, 0.0), Pose2D(0.4, 0, 0), grid, DWA,
                        LIMITS, DT)
    assert decision.blocked
    assert decision.command.v == 0.0 and decision.command.omega == 0.0


def test_rate_limiter():
    c1 = LIMITS.rate_limited(ControlCommand(0.0, 0.0), ControlCommand(1.0, 5.0), DT)
    assert c1.v == pytest.approx(LIMITS.a_max * DT)
    assert c1.omega == pytest.approx(LIMITS.alpha_max * DT)
    c2 = LIMITS.rate_limited(c1, ControlCommand(0.0, 0.0), DT)
    assert c2.v == pytest.approx(0.0)


def test_registry_order_and_laws():
    from robokit.control import CONTROLLERS, DEFAULT_CONTROLLER, TRACKING_CONTROLLERS, tracking_law

    # benchmark "all" runs controllers in registry order, and trial seeds follow it
    assert list(CONTROLLERS) == ["lqr", "proportional", "dwa"]
    assert DEFAULT_CONTROLLER == "lqr"
    assert TRACKING_CONTROLLERS == ("lqr", "proportional")
    with pytest.raises(KeyError, match=r"tracking supports lqr\|proportional"):
        tracking_law("dwa")
