"""Control laws and the controller registry for the differential-drive base.

Three position controllers:

    * proportional — phase machine (align, drive, final-rotate) commanding
      rates proportional to the remaining error
    * LQR — time-varying gains from a backward Riccati recursion over the
      Euler-linearized unicycle dynamics along a reference trajectory
    * DWA — samples (v, omega) pairs inside the acceleration-reachable
      window, forward-simulates them, and picks the best-scoring sample

Each is registered once by name in `CONTROLLERS` with its parameter type, a
position law and, for LQR and proportional, a tracking law. A law is one step
of a blocking motion; `robot.BaseInterface` runs every law in one control
loop that owns the timeout and the rate limiting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ControlError
from .geometry import Pose2D, angle_diff, planar_distance
from .trajectory import (ControlCommand, TimedTrajectory, VelocityLimits,
                         generate_sharp_trajectory, generate_smooth_trajectory)


# --- linearization and Riccati machinery ------------------------------------

def linearize_dynamics(ref_state: Pose2D, ref_control: ControlCommand,
                       dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Euler-discretized Jacobians (A, B) of the unicycle about a reference.

    Model: x+ = x + dt*v*cos(th), y+ = y + dt*v*sin(th), th+ = th + dt*omega.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
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


def euler_step(state: Pose2D, cmd: ControlCommand, dt: float) -> Pose2D:
    """One first-order Euler step; `linearize_dynamics` returns its exact Jacobians."""
    return Pose2D(state.x + dt * cmd.v * math.cos(state.theta),
                  state.y + dt * cmd.v * math.sin(state.theta),
                  state.theta + dt * cmd.omega)


@dataclass(frozen=True)
class CostWeights:
    """Quadratic tracking cost: Q (3x3 state, PSD), R (2x2 control, PD), Qf (terminal, PSD)."""

    Q: np.ndarray
    R: np.ndarray
    Qf: np.ndarray

    @staticmethod
    def from_diagonals(q, r, qf_scale: float = 10.0) -> "CostWeights":
        Q = np.diag(np.asarray(q, dtype=float))
        return CostWeights(Q=Q, R=np.diag(np.asarray(r, dtype=float)), Qf=qf_scale * Q)

    def __post_init__(self):
        for name, m in (("Q", self.Q), ("R", self.R), ("Qf", self.Qf)):
            m = np.asarray(m, dtype=float)
            if not np.allclose(m, m.T):
                raise ValueError(f"CostWeights.{name} must be symmetric")
            eig = np.linalg.eigvalsh(m)
            if name == "R":
                if eig[0] <= 0:
                    raise ValueError("CostWeights.R must be positive definite")
            elif eig[0] < -1e-12:
                raise ValueError(f"CostWeights.{name} must be positive semidefinite")


def riccati_gains(A_seq, B_seq, Q, R, Qf) -> np.ndarray:
    """Finite-horizon discrete Riccati recursion; returns gains K_t, one per step.

    Convention: u_t = -K_t x_t minimizes sum(x'Qx + u'Ru) + terminal x'Qf x.
    """
    N = len(A_seq)
    n = np.asarray(Q).shape[0]
    m = np.asarray(R).shape[0]
    K = np.zeros((N, m, n))
    P = np.asarray(Qf, dtype=float).copy()
    for t in reversed(range(N)):
        A = np.asarray(A_seq[t], dtype=float)
        B = np.asarray(B_seq[t], dtype=float)
        G = R + B.T @ P @ B
        try:
            Kt = np.linalg.solve(G, B.T @ P @ A)
        except np.linalg.LinAlgError as exc:
            raise ControlError(f"Riccati step {t}: R + B'PB is singular") from exc
        K[t] = Kt
        P = Q + A.T @ P @ (A - B @ Kt)
        P = 0.5 * (P + P.T)
    return K


@dataclass(frozen=True)
class GainSchedule:
    """Per-step 2x3 feedback gains along a trajectory (u = u_ref - K e convention)."""

    gains: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gains)
        if g.ndim != 3 or g.shape[1:] != (2, 3):
            raise ValueError("gains must have shape (N, 2, 3)")

    def __len__(self):
        return len(self.gains)


def lqr_backward_pass(traj: TimedTrajectory, weights: CostWeights) -> GainSchedule:
    """Linearize along the reference and run the Riccati recursion; one gain per control."""
    if len(traj.states) < 2:
        raise ControlError("LQR needs a trajectory with at least 2 states")
    A_seq, B_seq = [], []
    for k in range(traj.horizon):
        A, B = linearize_dynamics(traj.state(k), traj.control(k), traj.dt)
        A_seq.append(A)
        B_seq.append(B)
    return GainSchedule(riccati_gains(A_seq, B_seq, weights.Q, weights.R, weights.Qf))


@dataclass(frozen=True)
class LqrParams:
    """Diagonal tracking-cost weights plus the reference generator choice."""

    q: tuple = (5.0, 5.0, 1.0)
    r: tuple = (1.0, 0.5)
    qf_scale: float = 10.0
    trajectory: str = "sharp"

    def weights(self) -> CostWeights:
        return CostWeights.from_diagonals(self.q, self.r, self.qf_scale)


def tracking_error(state: Pose2D, ref: Pose2D) -> np.ndarray:
    """State minus reference with the heading component wrapped to (-pi, pi]."""
    return np.array([state.x - ref.x, state.y - ref.y, angle_diff(state.theta, ref.theta)])


def lqr_track_step(state: Pose2D, t: int, traj: TimedTrajectory, gains: GainSchedule,
                   limits: VelocityLimits) -> ControlCommand:
    """u = u_ref(t) - K_t * wrap(state - ref(t)), clamped to velocity limits."""
    if not 0 <= t < traj.horizon:
        raise IndexError(f"step {t} outside horizon {traj.horizon}")
    e = tracking_error(state, traj.state(t))
    u = traj.controls[t] - gains.gains[t] @ e
    return ControlCommand(u[0], u[1]).clamped(limits.v_max, limits.omega_max)


# --- proportional position controller ---------------------------------------

@dataclass(frozen=True)
class ProportionalParams:
    kp_lin: float = 1.0
    kp_ang: float = 3.0
    bearing_threshold: float = math.radians(2.0)
    distance_threshold: float = 0.005
    heading_threshold: float = math.radians(0.5)


ALIGN, DRIVE, FINAL_ROTATE, DONE = "align", "drive", "final-rotate", "done"


def proportional_step(state: Pose2D, goal: Pose2D, phase: str,
                      params: ProportionalParams, limits: VelocityLimits,
                      ) -> tuple[ControlCommand, str]:
    """One decision of the rotate/drive/rotate phase machine (not rate-limited).

    Phases advance when their error drops below threshold; transitions cascade
    within one call so a phase entered with zero error emits the next phase's
    command immediately.
    """
    while True:
        dist = math.hypot(goal.x - state.x, goal.y - state.y)
        if phase == ALIGN:
            if dist <= params.distance_threshold:
                phase = FINAL_ROTATE
                continue
            bearing = math.atan2(goal.y - state.y, goal.x - state.x)
            err = angle_diff(bearing, state.theta)
            if abs(err) <= params.bearing_threshold:
                phase = DRIVE
                continue
            return (ControlCommand(0.0, params.kp_ang * err)
                    .clamped(limits.v_max, limits.omega_max), phase)
        if phase == DRIVE:
            bearing = math.atan2(goal.y - state.y, goal.x - state.x)
            along = dist * math.cos(angle_diff(bearing, state.theta))
            if dist <= params.distance_threshold or along <= 0.0:
                phase = FINAL_ROTATE
                continue
            err = angle_diff(bearing, state.theta)
            return (ControlCommand(params.kp_lin * along, params.kp_ang * err)
                    .clamped(limits.v_max, limits.omega_max), phase)
        if phase == FINAL_ROTATE:
            err = angle_diff(goal.theta, state.theta)
            if abs(err) <= params.heading_threshold:
                return ControlCommand(0.0, 0.0), DONE
            return (ControlCommand(0.0, params.kp_ang * err)
                    .clamped(limits.v_max, limits.omega_max), phase)
        return ControlCommand(0.0, 0.0), DONE


# --- dynamic window approach --------------------------------------------------

@dataclass(frozen=True)
class DwaParams:
    """Sampling window, rollout horizon, and score weights for the DWA controller."""

    samples_v: int = 11
    samples_omega: int = 21
    horizon: float = 1.5           # s of forward simulation
    weight_heading: float = 0.8
    weight_distance: float = 0.2
    weight_velocity: float = 0.1
    weight_clearance: float = 0.3
    clearance_cap: float = 0.5     # m; clearance beyond this scores 1.0
    position_tolerance: float = 0.015
    heading_tolerance: float = math.radians(1.5)


@dataclass(frozen=True)
class DwaDecision:
    command: ControlCommand
    blocked: bool = False


def dwa_window(current: ControlCommand, limits: VelocityLimits, dt: float,
               params: DwaParams) -> tuple[np.ndarray, np.ndarray]:
    """Velocity samples reachable within one control period; forward-only v."""
    v_lo = max(0.0, current.v - limits.a_max * dt)
    v_hi = min(limits.v_max, current.v + limits.a_max * dt)
    w_lo = max(-limits.omega_max, current.omega - limits.alpha_max * dt)
    w_hi = min(limits.omega_max, current.omega + limits.alpha_max * dt)
    v = np.linspace(v_lo, v_hi, params.samples_v)
    w = np.linspace(w_lo, w_hi, params.samples_omega)
    vv, ww = np.meshgrid(v, w, indexing="ij")
    return vv.ravel(), ww.ravel()


def _rollout_endpoints(state: Pose2D, v: np.ndarray, w: np.ndarray,
                       horizon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form endpoint of holding (v, w) constant for `horizon` seconds."""
    th0 = state.theta
    th1 = th0 + w * horizon
    small = np.abs(w) < 1e-9
    ws = np.where(small, 1.0, w)
    x = state.x + np.where(small, v * horizon * np.cos(th0),
                           v / ws * (np.sin(th1) - np.sin(th0)))
    y = state.y + np.where(small, v * horizon * np.sin(th0),
                           -v / ws * (np.cos(th1) - np.cos(th0)))
    return x, y, th1


def dwa_scores(state: Pose2D, goal: Pose2D, v: np.ndarray, w: np.ndarray,
               limits: VelocityLimits, params: DwaParams,
               grid=None) -> np.ndarray:
    """Score each (v, w) sample; collisions score -inf.

    Terms (each in roughly [0, 1] except the distance term):
      heading     1 - |bearing-to-goal - final heading| / pi, at the rollout end
      distance   1 / (stop-point distance to goal + 0.05), stop point = rollout
                 end plus the braking distance v^2/(2 a_max) along the final heading
      velocity   v / v_max
      clearance  min rollout clearance / clearance_cap (only when a grid is given)
    """
    x, y, th = _rollout_endpoints(state, v, w, params.horizon)
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
        clearance = np.full(v.shape, np.inf)
        collided = np.zeros(v.shape, dtype=bool)
        for t in ts:
            px, py, _ = _rollout_endpoints(state, v, w, t)
            c = grid.clearance_at(px, py)
            collided |= c <= 0.0
            clearance = np.minimum(clearance, c)
        clear_term = np.clip(clearance / params.clearance_cap, 0.0, 1.0)
        score = score + params.weight_clearance * clear_term
        score[collided] = -np.inf
    return score


def dwa_step(state: Pose2D, current_vel: ControlCommand, goal: Pose2D,
             grid, params: DwaParams, limits: VelocityLimits,
             dt: float) -> DwaDecision:
    """Pick the best-scoring sample; ties break to lowest |omega|, then lowest v.

    All samples colliding yields a Stop command with blocked=True.
    """
    v, w = dwa_window(current_vel, limits, dt, params)
    score = dwa_scores(state, goal, v, w, limits, params, grid)
    if not np.any(np.isfinite(score)):
        return DwaDecision(ControlCommand(0.0, 0.0), blocked=True)
    best = None
    best_key = None
    for i in range(len(score)):
        if not math.isfinite(score[i]):
            continue
        key = (-score[i], abs(w[i]), v[i])
        if best_key is None or key < best_key:
            best_key = key
            best = i
    return DwaDecision(ControlCommand(float(v[best]), float(w[best])))


# --- control laws and the controller registry ---------------------------------
#
# A law is one step of a blocking motion: law(k, pose, current) gets the step
# index, the odometric pose and the last rate-limited command, and returns the
# next command (before rate limiting) or a str to stop: "" once the motion is
# done, otherwise why it failed. Position-law factories take (start, goal,
# params, limits, dt, tol, grid), with tol = (position m, heading rad);
# tracking-law factories take (traj, params, limits).

Law = Callable[[int, Pose2D, ControlCommand], "ControlCommand | str"]

_K_HOLD = np.array([[0.5, 0.0, 0.0], [0.0, 0.0, 1.5]])  # LQR final approach without a reference


def within_tolerance(pose: Pose2D, goal: Pose2D, tol: tuple[float, float]) -> bool:
    return (planar_distance(pose, goal) <= tol[0]
            and abs(angle_diff(pose.theta, goal.theta)) <= tol[1])


def proportional_law(start, goal, params, limits, dt, tol, grid) -> Law:
    """The rotate/drive/rotate phase machine; done when its final rotation is."""
    phase = ALIGN

    def law(k, pose, current):
        nonlocal phase
        cmd, phase = proportional_step(pose, goal, phase, params, limits)
        return "" if phase == DONE else cmd
    return law


def lqr_law(start, goal, params, limits, dt, tol, grid) -> Law:
    """Track a reference to the goal, then hold its last gain until within tolerance."""
    gen = (generate_smooth_trajectory if params.trajectory == "smooth"
           else generate_sharp_trajectory)
    traj = gen(start, goal, limits, dt)
    gains = lqr_backward_pass(traj, params.weights()) if traj.horizon > 0 else None
    k_final = _K_HOLD if gains is None else gains.gains[-1]

    def law(k, pose, current):
        if k < traj.horizon:
            return lqr_track_step(pose, k, traj, gains, limits)
        if within_tolerance(pose, goal, tol):
            return ""
        u = -k_final @ tracking_error(pose, goal)
        return ControlCommand(u[0], u[1]).clamped(limits.v_max, limits.omega_max)
    return law


def dwa_law(start, goal, params, limits, dt, tol, grid) -> Law:
    """DWA until within position tolerance, then rotate in place to the goal heading."""
    rotating = False

    def law(k, pose, current):
        nonlocal rotating
        rotating = rotating or planar_distance(pose, goal) <= tol[0]
        if not rotating:
            decision = dwa_step(pose, current, goal, grid, params, limits, dt)
            return "all DWA samples blocked" if decision.blocked else decision.command
        err = angle_diff(goal.theta, pose.theta)
        if abs(err) <= tol[1]:
            return ""
        return ControlCommand(0.0, 3.0 * err).clamped(limits.v_max, limits.omega_max)
    return law


def lqr_tracking_law(traj, params, limits) -> Law:
    gains = lqr_backward_pass(traj, params.weights()) if traj.horizon > 0 else None

    def law(k, pose, current):
        return lqr_track_step(pose, k, traj, gains, limits) if k < traj.horizon else ""
    return law


def proportional_tracking_law(traj, params, limits) -> Law:
    """Chase the moving reference point; adopt its heading when within 5 cm."""
    def law(k, pose, current):
        if k == traj.horizon:
            return ""
        ref = traj.state(k)
        dist = planar_distance(pose, ref)
        heading = math.atan2(ref.y - pose.y, ref.x - pose.x) if dist > 0.05 else ref.theta
        return (ControlCommand(params.kp_lin * dist,
                               params.kp_ang * angle_diff(heading, pose.theta))
                .clamped(limits.v_max, limits.omega_max))
    return law


@dataclass(frozen=True)
class Controller:
    """A registered controller: its parameter type and law factories (None: no tracking)."""

    params: type
    position: Callable[..., Law]
    tracking: Callable[..., Law] | None = None


# benchmark order: "all" runs them in this order and trial seeds follow it; the
# first is the default
CONTROLLERS = {
    "lqr": Controller(LqrParams, lqr_law, lqr_tracking_law),
    "proportional": Controller(ProportionalParams, proportional_law, proportional_tracking_law),
    "dwa": Controller(DwaParams, dwa_law),
}
DEFAULT_CONTROLLER = next(iter(CONTROLLERS))
TRACKING_CONTROLLERS = tuple(name for name, c in CONTROLLERS.items() if c.tracking)


def tracking_law(name: str) -> Callable[..., Law]:
    """The tracking-law factory registered as `name`; KeyError when there is none."""
    factory = CONTROLLERS[name].tracking if name in CONTROLLERS else None
    if factory is None:
        raise KeyError(f"tracking supports {'|'.join(TRACKING_CONTROLLERS)}, got {name!r}")
    return factory
