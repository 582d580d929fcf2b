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

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import Bounded, ControlError, bounded, one_of, positive
from .geometry import Pose2D, angle_diff, planar_distance, wrap_angle
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
    A, B = _linearized([ref_state.theta], np.array([ref_control.v], dtype=float), dt)
    return A[0], B[0]


def _linearized(theta, v: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """`linearize_dynamics` along a reference: (N, 3, 3) A and (N, 3, 2) B stacks for
    N wrapped headings and forward speeds. The trigonometry is math.cos and
    math.sin per heading, which np.cos may not match to the last bit."""
    c = np.array([math.cos(t) for t in theta])
    s = np.array([math.sin(t) for t in theta])
    A = np.zeros((len(c), 3, 3))
    A[:, (0, 1, 2), (0, 1, 2)] = 1.0
    A[:, 0, 2] = -dt * v * s
    A[:, 1, 2] = dt * v * c
    B = np.zeros((len(c), 3, 2))
    B[:, 0, 0] = dt * c
    B[:, 1, 0] = dt * s
    B[:, 2, 1] = dt
    return A, B


def riccati_gains(A_seq, B_seq, Q, R, Qf) -> np.ndarray:
    """Finite-horizon discrete Riccati recursion; returns gains K_t, one per step.

    Convention: u_t = -K_t x_t minimizes sum(x'Qx + u'Ru) + terminal x'Qf x.
    """
    A_seq = np.asarray(A_seq, dtype=float)
    B_seq = np.asarray(B_seq, dtype=float)
    N = len(A_seq)
    n = np.asarray(Q).shape[0]
    m = np.asarray(R).shape[0]
    K = np.zeros((N, m, n))
    P = np.asarray(Qf, dtype=float).copy()
    for t in reversed(range(N)):
        A = A_seq[t]
        B = B_seq[t]
        BtP = B.T @ P
        G = R + BtP @ B
        try:
            Kt = np.linalg.solve(G, BtP @ A)
        except np.linalg.LinAlgError as exc:
            raise ControlError(f"Riccati step {t}: R + B'PB is singular") from exc
        K[t] = Kt
        P = Q + A.T @ P @ (A - B @ Kt)
        P = 0.5 * (P + P.T)
    return K


def lqr_backward_pass(traj: TimedTrajectory, params: LqrParams) -> np.ndarray:
    """Linearize along the reference and run the Riccati recursion with Q = diag(q),
    R = diag(r) and Qf = qf_scale * Q; one 2x3 gain per control (u = u_ref - K e
    convention)."""
    if len(traj.states) < 2:
        raise ControlError("LQR needs a trajectory with at least 2 states")
    if not np.isfinite(traj.states[:-1]).all():
        raise ValueError("LQR reference states must be finite")
    theta = [wrap_angle(t) for t in traj.states[:-1, 2].tolist()]   # as traj.state(k) holds it
    A_seq, B_seq = _linearized(theta, traj.controls[:, 0], traj.dt)
    Q = np.diag(np.asarray(params.q, dtype=float))
    return riccati_gains(A_seq, B_seq, Q, np.diag(np.asarray(params.r, dtype=float)),
                         params.qf_scale * Q)


@dataclass(frozen=True)
class LqrParams(Bounded):
    """Diagonal tracking-cost weights and the reference generator."""

    q: tuple = bounded((5.0, 5.0, 1.0))
    r: tuple = positive((1.0, 0.5))
    qf_scale: float = positive(10.0)
    trajectory: str = one_of("sharp", "smooth", default="sharp")


def tracking_error(state: Pose2D, ref: Pose2D) -> np.ndarray:
    """State minus reference with the heading component wrapped to (-pi, pi]."""
    return np.array([state.x - ref.x, state.y - ref.y, angle_diff(state.theta, ref.theta)])


def lqr_track_step(state: Pose2D, t: int, traj: TimedTrajectory, gains: np.ndarray,
                   limits: VelocityLimits) -> ControlCommand:
    """u = u_ref(t) - K_t * wrap(state - ref(t)), clamped to velocity limits."""
    if not 0 <= t < traj.horizon:
        raise IndexError(f"step {t} outside horizon {traj.horizon}")
    e = tracking_error(state, traj.state(t))
    u = traj.controls[t] - gains[t] @ e
    return ControlCommand(u[0], u[1]).clamped(limits.v_max, limits.omega_max)


# --- proportional position controller ---------------------------------------

@dataclass(frozen=True)
class ProportionalParams(Bounded):
    kp_lin: float = positive(1.0)
    kp_ang: float = positive(3.0)
    bearing_threshold: float = positive(math.radians(2.0))


ALIGN, DRIVE, FINAL_ROTATE, DONE = "align", "drive", "final-rotate", "done"


def proportional_step(state: Pose2D, goal: Pose2D, phase: str,
                      params: ProportionalParams, limits: VelocityLimits,
                      tol: tuple[float, float]) -> tuple[ControlCommand, str]:
    """One decision of the rotate/drive/rotate phase machine (not rate-limited).

    Align ends within `params.bearing_threshold`; drive and final-rotate end on
    the motion's tolerance `tol` = (position m, heading rad). Transitions cascade
    within one call so a phase entered with zero error emits the next phase's
    command immediately.
    """
    dist = math.hypot(goal.x - state.x, goal.y - state.y)
    err = angle_diff(math.atan2(goal.y - state.y, goal.x - state.x), state.theta)
    if phase == ALIGN:
        if dist <= tol[0]:
            phase = FINAL_ROTATE
        elif abs(err) <= params.bearing_threshold:
            phase = DRIVE
        else:
            return (ControlCommand(0.0, params.kp_ang * err)
                    .clamped(limits.v_max, limits.omega_max), phase)
    if phase == DRIVE:
        along = dist * math.cos(err)
        if dist <= tol[0] or along <= 0.0:
            phase = FINAL_ROTATE
        else:
            return (ControlCommand(params.kp_lin * along, params.kp_ang * err)
                    .clamped(limits.v_max, limits.omega_max), phase)
    if phase == FINAL_ROTATE:
        err = angle_diff(goal.theta, state.theta)
        if abs(err) > tol[1]:
            return (ControlCommand(0.0, params.kp_ang * err)
                    .clamped(limits.v_max, limits.omega_max), phase)
    return ControlCommand(0.0, 0.0), DONE


# --- dynamic window approach --------------------------------------------------

CLEARANCE_CAP = 0.5   # m; DWA clearance beyond this scores 1.0


@dataclass(frozen=True)
class DwaParams(Bounded):
    """Sampling window, rollout horizon, and score weights for the DWA controller."""

    samples_v: int = bounded(11, low=1)
    samples_omega: int = bounded(21, low=1)
    horizon: float = positive(1.5)           # s of forward simulation
    weight_heading: float = bounded(0.8)
    weight_distance: float = bounded(0.2)
    weight_velocity: float = bounded(0.1)
    weight_clearance: float = bounded(0.3)
    position_tolerance: float = positive(0.015)
    heading_tolerance: float = positive(math.radians(1.5))


def dwa_window(current: ControlCommand, limits: VelocityLimits, dt: float,
               params: DwaParams) -> tuple[np.ndarray, np.ndarray]:
    """Velocity samples reachable within one control period; forward-only v."""
    v_lo = max(0.0, current.v - limits.a_max * dt)
    v_hi = min(limits.v_max, current.v + limits.a_max * dt)
    w_lo = max(-limits.omega_max, current.omega - limits.alpha_max * dt)
    w_hi = min(limits.omega_max, current.omega + limits.alpha_max * dt)
    v = _linspace(v_lo, v_hi, params.samples_v)
    w = _linspace(w_lo, w_hi, params.samples_omega)
    iv, iw = _grid_index(len(v), len(w))   # meshgrid(v, w, indexing="ij"), raveled
    return v[iv], w[iw]


@functools.lru_cache(maxsize=8)
def _arange(num: int) -> np.ndarray:
    a = np.arange(0, num, dtype=float)
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=8)
def _grid_index(nv: int, nw: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column index of each entry of an (nv, nw) grid, in C order."""
    iv, iw = np.divmod(np.arange(nv * nw), nw)
    iv.flags.writeable = iw.flags.writeable = False
    return iv, iw


def _linspace(lo: float, hi: float, num: int) -> np.ndarray:
    """np.linspace(lo, hi, num) for float bounds: its own arithmetic, step by step,
    on a cached arange, without its per-call conversions."""
    y = _arange(num)
    div = num - 1
    delta = hi - lo
    if div <= 0:
        return y * delta + lo
    step = delta / div
    if step == 0:   # linspace's branch for a step that underflows
        y = y / div * delta
    else:
        y = y * step
    y += lo
    y[-1] = hi
    return y


def _rollout_endpoints(state: Pose2D, v: np.ndarray, w: np.ndarray, horizon: float | np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form endpoint of holding (v, w) constant for `horizon` seconds; an
    (n, 1) column of horizons gives one row of endpoints per horizon."""
    th0 = state.theta
    c0, s0 = np.cos(th0), np.sin(th0)
    th1 = th0 + w * horizon
    small = np.abs(w) < 1e-9
    ws = np.where(small, 1.0, w)
    x = state.x + np.where(small, v * horizon * c0, v / ws * (np.sin(th1) - s0))
    y = state.y + np.where(small, v * horizon * s0, -v / ws * (np.cos(th1) - c0))
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
      clearance  min rollout clearance / CLEARANCE_CAP (only when a grid is given)
    """
    x, y, th = _rollout_endpoints(state, v, w, params.horizon)
    brake = v * v / (2.0 * limits.a_max)
    sx = x + brake * np.cos(th)
    sy = y + brake * np.sin(th)
    d_stop = np.hypot(goal.x - sx, goal.y - sy)
    bearing = np.arctan2(goal.y - y, goal.x - x)
    turn = bearing - th
    herr = np.abs(np.arctan2(np.sin(turn), np.cos(turn)))

    score = (params.weight_heading * (1.0 - herr / math.pi)
             + params.weight_distance / (d_stop + 0.05)
             + params.weight_velocity * v / limits.v_max)

    if grid is not None:
        n_sub = max(2, int(math.ceil(params.horizon / 0.1)))
        ts = np.linspace(0.0, params.horizon, n_sub + 1)[1:]
        px, py, _ = _rollout_endpoints(state, v, w, ts[:, None])   # one row per sub-step
        c = grid.clearance_at(px, py)
        collided = np.any(c <= 0.0, axis=0)
        clearance = c.min(axis=0)
        clear_term = np.clip(clearance / CLEARANCE_CAP, 0.0, 1.0)
        score = score + params.weight_clearance * clear_term
        score[collided] = -np.inf
    return score


def dwa_step(state: Pose2D, current_vel: ControlCommand, goal: Pose2D,
             grid, params: DwaParams, limits: VelocityLimits,
             dt: float) -> ControlCommand | None:
    """Pick the best-scoring sample; ties break to lowest |omega|, then lowest v,
    then the first in window order. None when every sample collides.
    """
    v, w = dwa_window(current_vel, limits, dt, params)
    score = dwa_scores(state, goal, v, w, limits, params, grid)
    if not np.any(np.isfinite(score)):
        return None
    best = np.lexsort((v, np.abs(w), -score))[0]
    return ControlCommand(float(v[best]), float(w[best]))


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
        cmd, phase = proportional_step(pose, goal, phase, params, limits, tol)
        return "" if phase == DONE else cmd
    return law


def lqr_law(start, goal, params, limits, dt, tol, grid) -> Law:
    """Track a reference to the goal, then hold its last gain until within tolerance."""
    gen = (generate_smooth_trajectory if params.trajectory == "smooth"
           else generate_sharp_trajectory)
    traj = gen(start, goal, limits, dt)
    gains = lqr_backward_pass(traj, params) if traj.horizon > 0 else None
    k_final = _K_HOLD if gains is None else gains[-1]

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
            cmd = dwa_step(pose, current, goal, grid, params, limits, dt)
            return "all DWA samples blocked" if cmd is None else cmd
        err = angle_diff(goal.theta, pose.theta)
        if abs(err) <= tol[1]:
            return ""
        return ControlCommand(0.0, 3.0 * err).clamped(limits.v_max, limits.omega_max)
    return law


def lqr_tracking_law(traj, params, limits) -> Law:
    gains = lqr_backward_pass(traj, params) if traj.horizon > 0 else None

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
