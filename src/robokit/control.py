"""Control laws and the controller registry for the differential-drive base.

Three position controllers:

    * proportional — phase machine (align, drive, final-rotate) commanding
      rates proportional to the remaining error
    * LQR — time-varying gains from a backward Riccati recursion over the
      Euler-linearized unicycle dynamics along a reference trajectory; the
      recursion and the feedback step run in Python floats in a fixed order,
      so their bytes do not depend on the BLAS or LAPACK build
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

from .errors import Bounded, CapabilityError, ControlError, bounded, one_of, positive
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
    c, s, v = math.cos(ref_state.theta), math.sin(ref_state.theta), ref_control.v
    return (np.array([[1.0, 0.0, -dt * v * s], [0.0, 1.0, dt * v * c], [0.0, 0.0, 1.0]]),
            np.array([[dt * c, 0.0], [dt * s, 0.0], [0.0, dt]]))


def riccati_gains(A_seq, B_seq, Q, R, Qf) -> np.ndarray:
    """Finite-horizon discrete Riccati recursion; returns gains K_t, one per step.

    Convention: u_t = -K_t x_t minimizes sum(x'Qx + u'Ru) + terminal x'Qf x.
    This is the general dense recursion; `lqr_backward_pass` runs the same one on
    the unicycle's structure.
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
    """`riccati_gains` along the reference with Q = diag(q), R = diag(r) and
    Qf = qf_scale * Q, on the structure of `linearize_dynamics`; one 2x3 gain per
    control, (N, 2, 3) (u = u_ref - K e convention).

    The recursion runs in Python floats, so its bytes do not depend on a BLAS or
    LAPACK build. Each step linearizes about the wrapped reference heading th
    (as traj.state(k) holds it) with c, s = math.cos(th), math.sin(th):
    A = I + (a, b, 0) e3' with a = -dt*v*s, b = dt*v*c, and B has the three
    nonzeros p = dt*c, q = dt*s (column v) and dt (column omega). P is kept as
    its six upper entries, starting from Qf. A step computes, in this order:
      1. W = B'P, and G = R + W B, symmetric with the off-diagonal W[0,2]*dt;
      2. H = B'PA: W with a*W[:,0] + b*W[:,1] + W[:,2] as its last column;
      3. K = G^-1 H by elimination with partial pivoting: the pivot row is the
         row whose first entry is larger in magnitude, row 0 on a tie; a zero or
         non-finite pivot raises ControlError;
      4. P <- Q + (A'PA - H'K) on the six upper entries, where A'PA is P with
         z = P (a, b, 0) added to its last row and column and a*z0 + b*z1 more
         in the corner.
    Every dot product sums its nonzero terms left to right in index order.
    """
    if len(traj.states) < 2:
        raise ControlError("LQR needs a trajectory with at least 2 states")
    if not np.isfinite(traj.states[:-1]).all():
        raise ValueError("LQR reference states must be finite")
    dt = traj.dt
    q0, q1, q2 = (float(x) for x in params.q)
    r0, r1 = (float(x) for x in params.r)
    qf = float(params.qf_scale)
    P00, P01, P02, P11, P12, P22 = qf * q0, 0.0, 0.0, qf * q1, 0.0, qf * q2
    theta = traj.states[:-1, 2].tolist()
    speed = traj.controls[:, 0].tolist()
    K = [None] * len(speed)
    for t in reversed(range(len(speed))):
        th = wrap_angle(theta[t])
        c, s, v = math.cos(th), math.sin(th), speed[t]
        a, b, p, q = -dt * v * s, dt * v * c, dt * c, dt * s
        w00, w01, w02 = p * P00 + q * P01, p * P01 + q * P11, p * P02 + q * P12
        w10, w11, w12 = dt * P02, dt * P12, dt * P22
        g00, g01, g11 = r0 + (w00 * p + w01 * q), w02 * dt, r1 + w12 * dt
        h02, h12 = w00 * a + w01 * b + w02, w10 * a + w11 * b + w12
        row0, row1 = (g00, g01, w00, w01, h02), (g01, g11, w10, w11, h12)   # [G | H]
        (d0, e, x0, x1, x2), (f0, f1, y0, y1, y2) = (
            (row0, row1) if abs(g00) >= abs(g01) else (row1, row0))
        m = f0 / d0 if d0 else math.nan   # a zero pivot fails the check below
        d1 = f1 - m * e
        if not (0.0 < abs(d0) < math.inf and 0.0 < abs(d1) < math.inf):
            raise ControlError(f"Riccati step {t}: R + B'PB is singular or not finite")
        k10, k11, k12 = (y0 - m * x0) / d1, (y1 - m * x1) / d1, (y2 - m * x2) / d1
        k00, k01, k02 = (x0 - e * k10) / d0, (x1 - e * k11) / d0, (x2 - e * k12) / d0
        K[t] = (k00, k01, k02, k10, k11, k12)
        z0, z1, z2 = P00 * a + P01 * b, P01 * a + P11 * b, P02 * a + P12 * b
        P00, P01, P02, P11, P12, P22 = (
            q0 + (P00 - (w00 * k00 + w10 * k10)),
            P01 - (w00 * k01 + w10 * k11),
            P02 + z0 - (w00 * k02 + w10 * k12),
            q1 + (P11 - (w01 * k01 + w11 * k11)),
            P12 + z1 - (w01 * k02 + w11 * k12),
            q2 + (P22 + z2 + z2 + (a * z0 + b * z1) - (h02 * k02 + h12 * k12)))
    return np.array(K, dtype=float).reshape(-1, 2, 3)


@dataclass(frozen=True)
class LqrParams(Bounded):
    """Diagonal tracking-cost weights and the reference generator."""

    q: tuple = bounded((5.0, 5.0, 1.0))
    r: tuple = positive((1.0, 0.5))
    qf_scale: float = positive(10.0)
    trajectory: str = one_of("sharp", "smooth", default="sharp")


def lqr_reference(traj: TimedTrajectory, params: LqrParams) -> list[tuple]:
    """What `lqr_track_step` reads, prepared once per motion as Python floats: per
    step the reference pose with its heading wrapped as traj.state(t) holds it, the
    feedforward (v, omega) and the gain K_t of `lqr_backward_pass`, row-major. Empty
    when the horizon is."""
    if traj.horizon == 0:
        return []
    gains = lqr_backward_pass(traj, params).reshape(-1, 6).tolist()
    return [(x, y, wrap_angle(th), v, w, *k) for (x, y, th), (v, w), k
            in zip(traj.states.tolist(), traj.controls.tolist(), gains)]


def lqr_track_step(state: Pose2D, t: int, reference: list[tuple],
                   limits: VelocityLimits) -> ControlCommand:
    """u = u_ref(t) - K_t e with e = state - ref(t), its heading wrapped to (-pi, pi],
    clamped to velocity limits; `reference` is `lqr_reference`'s."""
    if not 0 <= t < len(reference):
        raise IndexError(f"step {t} outside horizon {len(reference)}")
    return _feedback(state, reference[t], limits)


def _feedback(state: Pose2D, ref: tuple, limits: VelocityLimits) -> ControlCommand:
    """`lqr_track_step` for one `lqr_reference` row, in Python floats: each row of
    K e sums left to right. The final-approach hold calls it directly, so that
    perfbench's trace of `lqr_track_step` counts reference steps only."""
    x, y, th, v, w, k00, k01, k02, k10, k11, k12 = ref
    e0, e1, e2 = state.x - x, state.y - y, angle_diff(state.theta, th)
    return ControlCommand(v - (k00 * e0 + k01 * e1 + k02 * e2),
                          w - (k10 * e0 + k11 * e1 + k12 * e2)
                          ).clamped(limits.v_max, limits.omega_max)


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
                       ) -> tuple[np.ndarray, ...]:
    """Closed-form endpoint (x, y, theta) of holding (v, w) constant for `horizon`
    seconds, and cos and sin of its theta; an (n, 1) column of horizons gives one row
    of endpoints per horizon."""
    th0 = state.theta
    c0, s0 = np.cos(th0), np.sin(th0)
    th1 = th0 + w * horizon
    c1, s1 = np.cos(th1), np.sin(th1)
    small = np.abs(w) < 1e-9
    if small.any():
        ws = np.where(small, 1.0, w)
        x = state.x + np.where(small, v * horizon * c0, v / ws * (s1 - s0))
        y = state.y + np.where(small, v * horizon * s0, -v / ws * (c1 - c0))
    else:   # the arc branch of the above, bit for bit
        x = state.x + v / w * (s1 - s0)
        y = state.y + -v / w * (c1 - c0)
    return x, y, th1, c1, s1


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
    x, y, th, cos_th, sin_th = _rollout_endpoints(state, v, w, params.horizon)
    brake = v * v / (2.0 * limits.a_max)
    sx = x + brake * cos_th
    sy = y + brake * sin_th
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
        px, py = _rollout_endpoints(state, v, w, ts[:, None])[:2]   # one row per sub-step
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
    then the first in window order. None when no sample scores a finite number.
    """
    v, w = dwa_window(current_vel, limits, dt, params)
    score = dwa_scores(state, goal, v, w, limits, params, grid)
    best = int(score.argmax())   # the first NaN, if any
    top = score[best]
    if not (math.isfinite(top) and np.count_nonzero(score == top) == 1):
        if not np.isfinite(score).any():
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

_K_HOLD = (0.5, 0.0, 0.0, 0.0, 0.0, 1.5)   # LQR final approach without a reference; K row-major


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
    reference = lqr_reference(traj, params)
    hold = (goal.x, goal.y, goal.theta, 0.0, 0.0, *(reference[-1][5:] if reference else _K_HOLD))

    def law(k, pose, current):
        if k < traj.horizon:
            return lqr_track_step(pose, k, reference, limits)
        if within_tolerance(pose, goal, tol):
            return ""
        return _feedback(pose, hold, limits)
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
    reference = lqr_reference(traj, params)

    def law(k, pose, current):
        return lqr_track_step(pose, k, reference, limits) if k < traj.horizon else ""
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
    """The tracking-law factory registered as `name`; CapabilityError when there is none."""
    factory = CONTROLLERS[name].tracking if name in CONTROLLERS else None
    if factory is None:
        raise CapabilityError(f"tracking supports {'|'.join(TRACKING_CONTROLLERS)}, got {name!r}")
    return factory
