import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robokit.control import (ALIGN, CLEARANCE_CAP, DONE, DRIVE, FINAL_ROTATE, DwaParams,
                             LqrParams, ProportionalParams, _linspace, dwa_scores, dwa_step,
                             dwa_window, linearize_dynamics, lqr_backward_pass, lqr_reference,
                             lqr_track_step, proportional_step, riccati_gains)
from robokit.errors import CapabilityError, ControlError
from robokit.geometry import Pose2D
from robokit.sim import DiffDriveSim
from robokit.trajectory import (ControlCommand, TimedTrajectory, VelocityLimits,
                                generate_sharp_trajectory, generate_smooth_trajectory)

LIMITS = VelocityLimits(v_max=0.3, omega_max=1.0, a_max=0.5, alpha_max=2.0)
DT = 0.05


def euler_step(state: Pose2D, cmd: ControlCommand, dt: float) -> Pose2D:
    """One first-order Euler step; `linearize_dynamics` returns its exact Jacobians."""
    return Pose2D(state.x + dt * cmd.v * math.cos(state.theta),
                  state.y + dt * cmd.v * math.sin(state.theta),
                  state.theta + dt * cmd.omega)


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
    # a tiny r: R + B'PB = R, whose determinant would underflow to 0
    for r in ((1.0, 1.0), (1e-300, 1e-300)):
        gains = lqr_backward_pass(traj, LqrParams(q=(0.0, 0.0, 0.0), r=r))
        assert gains.shape == (traj.horizon, 2, 3)
        assert np.max(np.abs(gains)) == 0.0


def test_riccati_uniform_scaling_invariance():
    traj = generate_sharp_trajectory(Pose2D(), Pose2D(1, 0.5, 0.3), LIMITS, DT)
    c = 3.7
    g1 = lqr_backward_pass(traj, LqrParams(q=(5, 5, 1), r=(1, 0.5)))
    g2 = lqr_backward_pass(traj, LqrParams(q=(5 * c, 5 * c, c), r=(c, 0.5 * c)))
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


def test_lqr_params_validation():
    for bad in ({"r": (1.0, 0.0)}, {"r": (0.0, 0.5)}, {"q": (5.0, -1e-9, 1.0)},
                {"qf_scale": 0.0}, {"q": (1.0, math.nan, 1.0)}, {"r": (1.0, math.nan)},
                {"q": (math.inf, 1.0, 1.0)}, {"qf_scale": math.inf}):
        with pytest.raises(ValueError, match="LqrParams"):
            LqrParams(**bad)
    for bad, field, n in (({"q": (1.0, 2.0)}, "q", 3), ({"r": (1.0, 0.5, 1.0)}, "r", 2)):
        with pytest.raises(ValueError, match=f"^LqrParams.{field} must be a {n}-vector"):
            LqrParams(**bad)
    LqrParams(q=(0.0, 5.0, 0.0))   # a zero state weight is allowed


# --- tracking step -----------------------------------------------------------


def _tracking_setup():
    traj = generate_sharp_trajectory(Pose2D(), Pose2D(2, 0, 0), LIMITS, DT)
    return traj, lqr_reference(traj, LqrParams())


def test_lqr_track_step_zero_error_returns_feedforward():
    traj, ref = _tracking_setup()
    t = traj.horizon // 2
    cmd = lqr_track_step(traj.state(t), t, ref, LIMITS)
    assert cmd.v == pytest.approx(traj.controls[t, 0], abs=1e-12)
    assert cmd.omega == pytest.approx(traj.controls[t, 1], abs=1e-12)


def test_lqr_track_step_heading_error_sign():
    traj, ref = _tracking_setup()
    t = traj.horizon // 2
    pose = traj.state(t)
    state = Pose2D(pose.x, pose.y, pose.theta + 0.1)
    cmd = lqr_track_step(state, t, ref, LIMITS)
    assert cmd.omega < 0.0  # command opposes the heading error


def test_lqr_track_step_clamps():
    traj, ref = _tracking_setup()
    state = Pose2D(-5.0, 4.0, 2.0)
    for t in range(traj.horizon):
        cmd = lqr_track_step(state, t, ref, LIMITS)
        assert abs(cmd.v) <= LIMITS.v_max and abs(cmd.omega) <= LIMITS.omega_max


def test_lqr_track_step_wraps_heading_error():
    # reference heading -pi + 0.05, gain 1 on the heading error only: e = -0.1, not 2pi - 0.1
    ref = [(0.0, 0.0, -math.pi + 0.05, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)]
    cmd = lqr_track_step(Pose2D(0, 0, math.pi - 0.05), 0, ref, LIMITS)
    assert cmd.omega == pytest.approx(0.1, abs=1e-12)
    with pytest.raises(IndexError):
        lqr_track_step(Pose2D(), 1, ref, LIMITS)


# --- proportional ------------------------------------------------------------


PARAMS = ProportionalParams()
TOL = (0.005, math.radians(0.5))


def test_proportional_zero_bearing_goes_straight_to_drive():
    cmd, phase = proportional_step(Pose2D(), Pose2D(2, 0, 0), ALIGN, PARAMS, LIMITS, TOL)
    assert phase == DRIVE
    assert cmd.v > 0.0
    assert cmd.omega == 0.0


def test_proportional_pure_rotation_skips_to_final():
    cmd, phase = proportional_step(Pose2D(), Pose2D(0, 0, math.pi / 2), ALIGN, PARAMS, LIMITS,
                                   TOL)
    assert phase == FINAL_ROTATE
    assert cmd.v == 0.0
    assert cmd.omega > 0.0


def test_proportional_done_when_converged():
    cmd, phase = proportional_step(Pose2D(), Pose2D(0, 0, 0), ALIGN, PARAMS, LIMITS, TOL)
    assert phase == DONE
    assert cmd.v == 0.0 and cmd.omega == 0.0


# --- DWA ---------------------------------------------------------------------


DWA = DwaParams()


def test_dwa_goal_ahead_symmetric_tiebreak():
    cmd = dwa_step(Pose2D(), ControlCommand(0.1, 0.0), Pose2D(3, 0, 0), None, DWA, LIMITS, DT)
    assert cmd is not None
    assert cmd.omega == 0.0
    assert cmd.v > 0.0


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
                score += params.weight_clearance * min(1.0, max(0.0, clear / CLEARANCE_CAP))
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
        cmd = dwa_step(state, current, goal, None, DWA, LIMITS, DT)
        oracle = independent_dwa_oracle(state, current, goal, None, DWA, LIMITS, DT)
        assert cmd.v == oracle[0]
        assert cmd.omega == oracle[1]


def test_dwa_avoids_wall_or_stops():
    from robokit.planning import OccupancyGrid

    grid = OccupancyGrid.empty(30, 30, 0.1, Pose2D(-1.5, -1.5, 0))
    grid.set_box(0.2, -1.5, 0.5, 1.5, 1)  # wall ahead
    state = Pose2D(0, 0, 0)
    cmd = dwa_step(state, ControlCommand(0.3, 0.0), Pose2D(1.2, 0, 0), grid, DWA, LIMITS, DT)
    if cmd is not None:
        # chosen rollout must stay collision-free
        v, w = cmd.v, cmd.omega
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
        assert cmd is None
    else:
        assert cmd.v == oracle[0]
        assert cmd.omega == oracle[1]


def test_dwa_fully_blocked_returns_stop():
    from robokit.planning import OccupancyGrid

    grid = OccupancyGrid.empty(10, 10, 0.1, Pose2D(-0.5, -0.5, 0))
    grid.cells[:, :] = 1
    assert dwa_step(Pose2D(), ControlCommand(0.2, 0.0), Pose2D(0.4, 0, 0), grid, DWA,
                    LIMITS, DT) is None


def test_dwa_complete_tie_goes_to_first_sample():
    # from rest with the goal straight behind, turning left and right score the same
    # bytes at the same v and |omega|; the first in window order (omega < 0) wins
    state, current, goal = Pose2D(), ControlCommand(0.0, 0.0), Pose2D(-1, 0, 0)
    v, w = dwa_window(current, LIMITS, DT, DWA)
    score = dwa_scores(state, goal, v, w, LIMITS, DWA)
    assert list(np.flatnonzero(score == score.max())) == [210, 230]
    assert (v[210], w[210]) == (0.025, -0.1) and (v[230], w[230]) == (0.025, 0.1)
    cmd = dwa_step(state, current, goal, None, DWA, LIMITS, DT)
    assert (cmd.v, cmd.omega) == (0.025, -0.1)
    assert (cmd.v, cmd.omega) == independent_dwa_oracle(state, current, goal, None, DWA,
                                                        LIMITS, DT)


# --- byte-identity referees: the window, scores and Riccati pass as they were


def reference_dwa_window(current, limits, dt, params):
    v_lo = max(0.0, current.v - limits.a_max * dt)
    v_hi = min(limits.v_max, current.v + limits.a_max * dt)
    w_lo = max(-limits.omega_max, current.omega - limits.alpha_max * dt)
    w_hi = min(limits.omega_max, current.omega + limits.alpha_max * dt)
    v = np.linspace(v_lo, v_hi, params.samples_v)
    w = np.linspace(w_lo, w_hi, params.samples_omega)
    vv, ww = np.meshgrid(v, w, indexing="ij")
    return vv.ravel(), ww.ravel()


def reference_rollout_endpoints(state, v, w, horizon):
    th0 = state.theta
    th1 = th0 + w * horizon
    small = np.abs(w) < 1e-9
    ws = np.where(small, 1.0, w)
    x = state.x + np.where(small, v * horizon * np.cos(th0),
                           v / ws * (np.sin(th1) - np.sin(th0)))
    y = state.y + np.where(small, v * horizon * np.sin(th0),
                           -v / ws * (np.cos(th1) - np.cos(th0)))
    return x, y, th1


def reference_dwa_scores(state, goal, v, w, limits, params, grid=None):
    x, y, th = reference_rollout_endpoints(state, v, w, params.horizon)
    brake = v * v / (2.0 * limits.a_max)
    sx = x + brake * np.cos(th)
    sy = y + brake * np.sin(th)
    d_stop = np.hypot(goal.x - sx, goal.y - sy)
    bearing = np.arctan2(goal.y - y, goal.x - x)
    herr = np.abs(np.arctan2(np.sin(bearing - th), np.cos(bearing - th)))

    score = (params.weight_heading * (1.0 - herr / math.pi)
             + params.weight_distance / (d_stop + 0.05)
             + params.weight_velocity * v / limits.v_max)

    if grid is not None:
        n_sub = max(2, int(math.ceil(params.horizon / 0.1)))
        ts = np.linspace(0.0, params.horizon, n_sub + 1)[1:]
        px, py, _ = reference_rollout_endpoints(state, v, w, ts[:, None])
        c = grid.clearance_at(px, py)
        collided = np.any(c <= 0.0, axis=0)
        clearance = c.min(axis=0)
        clear_term = np.clip(clearance / CLEARANCE_CAP, 0.0, 1.0)
        score = score + params.weight_clearance * clear_term
        score[collided] = -np.inf
    return score


def reference_linearize_dynamics(ref_state, ref_control, dt):
    c, s = math.cos(ref_state.theta), math.sin(ref_state.theta)
    v = ref_control.v
    A = np.array([
        [1.0, 0.0, -dt * v * s],
        [0.0, 1.0, dt * v * c],
        [0.0, 0.0, 1.0],
    ])
    B = np.array([
        [dt * c, 0.0],
        [dt * s, 0.0],
        [0.0, dt],
    ])
    return A, B


def reference_riccati_gains(A_seq, B_seq, Q, R, Qf):
    N = len(A_seq)
    n = np.asarray(Q).shape[0]
    m = np.asarray(R).shape[0]
    K = np.zeros((N, m, n))
    P = np.asarray(Qf, dtype=float).copy()
    for t in reversed(range(N)):
        A = np.asarray(A_seq[t], dtype=float)
        B = np.asarray(B_seq[t], dtype=float)
        G = R + B.T @ P @ B
        Kt = np.linalg.solve(G, B.T @ P @ A)
        K[t] = Kt
        P = Q + A.T @ P @ (A - B @ Kt)
        P = 0.5 * (P + P.T)
    return K


def reference_lqr_backward_pass(traj, params):
    A_seq, B_seq = [], []
    for k in range(traj.horizon):
        A, B = reference_linearize_dynamics(traj.state(k), traj.control(k), traj.dt)
        A_seq.append(A)
        B_seq.append(B)
    Q = np.diag(np.asarray(params.q, dtype=float))
    return reference_riccati_gains(A_seq, B_seq, Q, np.diag(np.asarray(params.r, dtype=float)),
                                   params.qf_scale * Q)


def _same_bytes(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


windows = st.builds(
    lambda limits, v, w, dt, nv, nw: (limits, ControlCommand(v, w), dt,
                                      DwaParams(samples_v=nv, samples_omega=nw)),
    st.sampled_from([LIMITS, VelocityLimits(0.5, 2.0, 1.0, 4.0),
                     VelocityLimits(0.3, 1.0, 1e-300, 1e-310)]),   # collapsed, subnormal steps
    st.floats(-0.5, 0.5) | st.sampled_from([0.0, 0.3, 0.3 - 1e-17]),
    st.floats(-1.5, 1.5) | st.sampled_from([0.0, -1.0, 1.0]),
    st.sampled_from([DT, 0.02, 0.1]), st.integers(1, 25), st.integers(1, 25))


@settings(max_examples=400, deadline=None)
@given(windows)
def test_dwa_window_matches_linspace_meshgrid(window):
    limits, current, dt, params = window
    for got, want in zip(dwa_window(current, limits, dt, params),
                         reference_dwa_window(current, limits, dt, params)):
        _same_bytes(got, want)


@settings(max_examples=300, deadline=None)
@given(lo=st.floats(-1e6, 1e6, allow_subnormal=True) | st.sampled_from([0.0, 5e-324, -1e-310]),
       span=st.floats(-1e3, 1e3, allow_subnormal=True) | st.sampled_from([0.0, 1e-323, 5e-324]),
       num=st.integers(0, 40))
def test_linspace_replay_matches_numpy(lo, span, num):
    _same_bytes(_linspace(lo, lo + span, num), np.linspace(lo, lo + span, num))


@settings(max_examples=200, deadline=None)
@given(windows, st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-4, 4)),
       st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-4, 4)), st.booleans())
def test_dwa_scores_match_reference(window, state, goal, with_grid):
    from robokit.planning import OccupancyGrid
    limits, current, dt, params = window
    state, goal = Pose2D(*state), Pose2D(*goal)
    grid = None
    if with_grid:
        grid = OccupancyGrid.empty(60, 60, 0.1, Pose2D(-3, -3, 0))
        grid.set_box(0.4, -0.5, 0.8, 0.5)
    v, w = dwa_window(current, limits, dt, params)
    _same_bytes(dwa_scores(state, goal, v, w, limits, params, grid),
                reference_dwa_scores(state, goal, v, w, limits, params, grid))


def reference_dwa_pick(v, w, score):
    """dwa_step's choice as it was: a lexsort of every sample."""
    if not np.any(np.isfinite(score)):
        return None
    best = np.lexsort((v, np.abs(w), -score))[0]
    return float(v[best]), float(w[best])


def _picked(cmd):
    return None if cmd is None else (cmd.v, cmd.omega)


# goals straight ahead of or behind a pose at rest score mirrored samples alike
symmetric = st.tuples(st.just((0.0, 0.0, 0.0)),
                      st.sampled_from([(3.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]))


@settings(max_examples=200, deadline=None)
@given(windows, st.tuples(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-4, 4)),
                          st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(-4, 4)))
       | symmetric, st.booleans())
def test_dwa_step_picks_as_lexsort(window, poses, with_grid):
    from robokit.planning import OccupancyGrid
    limits, current, dt, params = window
    state, goal = Pose2D(*poses[0]), Pose2D(*poses[1])
    grid = None
    if with_grid:
        grid = OccupancyGrid.empty(60, 60, 0.1, Pose2D(-3, -3, 0))
        grid.set_box(0.4, -0.5, 0.8, 0.5)
    v, w = reference_dwa_window(current, limits, dt, params)
    want = reference_dwa_pick(v, w, reference_dwa_scores(state, goal, v, w, limits, params, grid))
    assert _picked(dwa_step(state, current, goal, grid, params, limits, dt)) == want


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([LIMITS, VelocityLimits(0.3, 1.0, 1e-300, 1e-310)]),
       st.floats(0, 0.3), st.floats(-1, 1) | st.just(0.0), st.integers(1, 5), st.integers(1, 7),
       st.data())
def test_dwa_step_picks_as_lexsort_on_any_scores(limits, v0, w0, nv, nw, data):
    # ties, NaN and infinities that real rollouts rarely score, on small windows
    import robokit.control as control
    current, dt, params = ControlCommand(v0, w0), DT, DwaParams(samples_v=nv, samples_omega=nw)
    v, w = dwa_window(current, limits, dt, params)
    value = st.sampled_from([0.5, 1.0, -math.inf, math.inf, math.nan]) | st.floats(-2, 2)
    score = np.array(data.draw(st.lists(value, min_size=len(v), max_size=len(v))))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(control, "dwa_scores", lambda *args: score.copy())
        cmd = dwa_step(Pose2D(), current, Pose2D(1, 0, 0), None, params, limits, dt)
    assert _picked(cmd) == reference_dwa_pick(v, w, score)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-4, 4)),
       st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-4, 4)),
       st.sampled_from(["sharp", "smooth"]),
       st.sampled_from([LIMITS, VelocityLimits(0.5, 2.0, 1.0, 4.0)]),
       st.sampled_from([DT, 0.1]),
       st.tuples(st.floats(0, 10), st.floats(0, 10), st.floats(0, 10)),
       st.tuples(st.floats(0.01, 10), st.floats(0.01, 10)), st.floats(0.1, 100),
       st.integers(-2, 2))
def test_lqr_backward_pass_matches_reference(start, goal, kind, limits, dt, q, r, qf_scale,
                                             turns):
    gen = generate_smooth_trajectory if kind == "smooth" else generate_sharp_trajectory
    try:
        traj = gen(Pose2D(*start), Pose2D(*goal), limits, dt)
    except ControlError:   # a smooth reference too tight to drive
        return
    assume(traj.horizon > 0)
    # headings off by whole turns: the pass linearizes about the wrapped heading
    traj = TimedTrajectory(traj.dt, traj.states + [0.0, 0.0, 2.0 * math.pi * turns],
                           traj.controls)
    params = LqrParams(q, r, qf_scale)
    # the pass runs in its own fixed float order and the copy through LAPACK, so they
    # agree to rounding, scaled by the gains' size
    got, want = lqr_backward_pass(traj, params), reference_lqr_backward_pass(traj, params)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


def test_lqr_backward_pass_singular_pivot_raises():
    from types import SimpleNamespace

    traj = generate_sharp_trajectory(Pose2D(), Pose2D(1, 0.5, 0.3), LIMITS, DT)
    last = traj.horizon - 1
    # R + B'PB = 0: no weight on the state or the control
    zero = SimpleNamespace(q=(0.0, 0.0, 0.0), r=(0.0, 0.0), qf_scale=1.0)
    with pytest.raises(ControlError, match=f"Riccati step {last}: R \\+ B'PB is singular"):
        lqr_backward_pass(traj, zero)
    # Qf = qf_scale * q overflows: an infinite pivot
    with pytest.raises(ControlError, match=f"Riccati step {last}: .* not finite"):
        lqr_backward_pass(traj, LqrParams(q=(1e308, 1e308, 1e308), qf_scale=10.0))


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
    with pytest.raises(CapabilityError, match=r"tracking supports lqr\|proportional, got 'dwa'"):
        tracking_law("dwa")
