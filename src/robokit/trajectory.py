"""Reference trajectories for the differential-drive base.

A TimedTrajectory stores dt-sampled states plus per-interval feedforward
commands. The defining contract: integrating states[k] with controls[k]
under `integrate_unicycle` (exact constant-twist arcs) reproduces
states[k+1] to 1e-9, and the first/last states equal the request exactly.

Two generators:
    * sharp  — on-spot rotation, trapezoidal straight drive, final rotation
    * smooth — cubic Bezier between the poses, arc-length reparameterized

Both build states by stepping exact one-interval arcs whose rates come from
telescoped closed-form speed profiles, so the endpoint lands on the goal to
float precision rather than accumulating integration drift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Bounded, ControlError, positive
from .geometry import Pose2D, set_field, wrap_angle


@dataclass(frozen=True, init=False)
class ControlCommand:
    """Forward speed v (m/s) and yaw rate omega (rad/s)."""

    v: float = 0.0
    omega: float = 0.0

    # written by hand for speed, like Pose2D's: the control loop builds several per step
    def __init__(self, v: float = 0.0, omega: float = 0.0):
        set_field(self, "v", v)
        set_field(self, "omega", omega)

    def clamped(self, v_max: float, omega_max: float) -> "ControlCommand":
        return ControlCommand(
            min(v_max, max(-v_max, self.v)),
            min(omega_max, max(-omega_max, self.omega)),
        )

    def as_array(self) -> np.ndarray:
        return np.array([self.v, self.omega])


@dataclass(frozen=True)
class VelocityLimits(Bounded):
    """Symmetric velocity and acceleration bounds for the base."""

    v_max: float = positive(0.3)       # m/s
    omega_max: float = positive(1.0)   # rad/s
    a_max: float = positive(0.5)       # m/s^2
    alpha_max: float = positive(2.0)   # rad/s^2

    def rate_limited(self, prev: ControlCommand, cmd: ControlCommand,
                     dt: float) -> ControlCommand:
        """`cmd` with each rate moved at most one acceleration step of `dt` from `prev`."""
        dv, dw = self.a_max * dt, self.alpha_max * dt
        return ControlCommand(min(prev.v + dv, max(prev.v - dv, cmd.v)),
                              min(prev.omega + dw, max(prev.omega - dw, cmd.omega)))


def integrate_unicycle(pose: Pose2D, cmd: ControlCommand, dt: float) -> Pose2D:
    """Exact constant-twist step: a circular arc (or straight segment when omega ~ 0)."""
    return unicycle_arc(pose, cmd.v, cmd.omega, dt)


def unicycle_arc(pose: Pose2D, v: float, w: float, dt: float) -> Pose2D:
    """`integrate_unicycle` for a twist given as two numbers."""
    if abs(w) < 1e-12:
        return Pose2D(pose.x + v * dt * math.cos(pose.theta),
                      pose.y + v * dt * math.sin(pose.theta),
                      pose.theta)
    th1 = pose.theta + w * dt
    r = v / w
    return Pose2D(pose.x + r * (math.sin(th1) - math.sin(pose.theta)),
                  pose.y - r * (math.cos(th1) - math.cos(pose.theta)),
                  th1)


@dataclass(frozen=True)
class TimedTrajectory:
    """dt-sampled reference: states (N+1, 3) and feedforward controls (N, 2)."""

    dt: float
    states: np.ndarray
    controls: np.ndarray

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if len(self.controls) != max(0, len(self.states) - 1):
            raise ValueError("controls length must be len(states) - 1")

    @property
    def horizon(self) -> int:
        return len(self.controls)

    def state(self, k: int) -> Pose2D:
        return Pose2D.from_array(self.states[k])

    def control(self, k: int) -> ControlCommand:
        return ControlCommand(self.controls[k, 0], self.controls[k, 1])


def _profile_rates(length: float, rate_max: float, accel_max: float, dt: float) -> np.ndarray:
    """Per-interval average rates of a trapezoidal profile covering `length` exactly.

    Rates are finite differences of the closed-form position profile, so they
    telescope: sum(rates) * dt == length to float precision, and consecutive
    rates differ by at most accel_max * dt.
    """
    if length <= 0:
        return np.zeros(0)
    t_acc = rate_max / accel_max
    d_acc = 0.5 * rate_max ** 2 / accel_max
    if 2.0 * d_acc >= length:  # triangular profile
        peak = math.sqrt(length * accel_max)
        t_acc = peak / accel_max
        t_cruise = 0.0
    else:
        peak = rate_max
        t_cruise = (length - 2.0 * d_acc) / rate_max
    total = 2.0 * t_acc + t_cruise

    def s(t: float) -> float:
        t = min(t, total)
        if t <= t_acc:
            return 0.5 * accel_max * t * t
        if t <= t_acc + t_cruise:
            return 0.5 * peak * t_acc + peak * (t - t_acc)
        td = total - t
        return length - 0.5 * accel_max * td * td

    n = max(1, math.ceil(total / dt - 1e-12))
    pos = np.array([s(k * dt) for k in range(n + 1)])
    pos[-1] = length
    return np.diff(pos) / dt


def _rotation_segment(pose: Pose2D, target_heading: float, limits: VelocityLimits,
                      dt: float) -> tuple[list[Pose2D], list[ControlCommand]]:
    dth = wrap_angle(target_heading - pose.theta)
    rates = _profile_rates(abs(dth), limits.omega_max, limits.alpha_max, dt) * math.copysign(1.0, dth)
    states, controls = [], []
    heading = pose.theta
    for w in rates:
        controls.append(ControlCommand(0.0, float(w)))
        heading += w * dt
        states.append(Pose2D(pose.x, pose.y, heading))
    if states:
        # telescoped sum hits the target heading to ~1e-15; pin it exactly
        states[-1] = Pose2D(pose.x, pose.y, target_heading)
    return states, controls


def generate_sharp_trajectory(start: Pose2D, goal: Pose2D, limits: VelocityLimits,
                              dt: float = 0.05) -> TimedTrajectory:
    """Rotate toward the goal, drive straight under a trapezoidal speed profile, rotate to the goal heading.

    Zero-length phases are dropped; start == goal yields a single-state trajectory.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    states: list[Pose2D] = [start]
    controls: list[ControlCommand] = []

    dist = math.hypot(goal.x - start.x, goal.y - start.y)
    if dist > 1e-12:
        bearing = math.atan2(goal.y - start.y, goal.x - start.x)
        s, c = _rotation_segment(states[-1], bearing, limits, dt)
        states += s
        controls += c
        rates = _profile_rates(dist, limits.v_max, limits.a_max, dt)
        pose = states[-1]
        x, y = pose.x, pose.y
        cos_b, sin_b = math.cos(bearing), math.sin(bearing)
        for i, v in enumerate(rates):
            controls.append(ControlCommand(float(v), 0.0))
            x += v * dt * cos_b
            y += v * dt * sin_b
            states.append(Pose2D(x, y, bearing))
        states[-1] = Pose2D(goal.x, goal.y, bearing)

    s, c = _rotation_segment(states[-1], goal.theta, limits, dt)
    states += s
    controls += c
    if states[-1] != goal:
        states[-1] = goal

    return TimedTrajectory(dt, np.array([p.as_array() for p in states]),
                           np.array([u.as_array() for u in controls]).reshape(-1, 2))


def _bezier_points(start: Pose2D, goal: Pose2D) -> np.ndarray:
    d = math.hypot(goal.x - start.x, goal.y - start.y)
    p0 = np.array([start.x, start.y])
    p3 = np.array([goal.x, goal.y])
    p1 = p0 + (d / 3.0) * np.array([math.cos(start.theta), math.sin(start.theta)])
    p2 = p3 - (d / 3.0) * np.array([math.cos(goal.theta), math.sin(goal.theta)])
    return np.array([p0, p1, p2, p3])


def bezier_point(ctrl: np.ndarray, u) -> np.ndarray:
    u = np.atleast_1d(np.asarray(u, dtype=float))[:, None]
    p = ((1 - u) ** 3 * ctrl[0] + 3 * (1 - u) ** 2 * u * ctrl[1]
         + 3 * (1 - u) * u ** 2 * ctrl[2] + u ** 3 * ctrl[3])
    return p.squeeze()


def _bezier_curvature(ctrl: np.ndarray, u: np.ndarray) -> np.ndarray:
    u = u[:, None]
    d1 = (3 * (1 - u) ** 2 * (ctrl[1] - ctrl[0]) + 6 * (1 - u) * u * (ctrl[2] - ctrl[1])
          + 3 * u ** 2 * (ctrl[3] - ctrl[2]))
    d2 = 6 * (1 - u) * (ctrl[2] - 2 * ctrl[1] + ctrl[0]) + 6 * u * (ctrl[3] - 2 * ctrl[2] + ctrl[1])
    speed = np.linalg.norm(d1, axis=1)
    cross = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    return np.abs(cross) / np.maximum(speed ** 3, 1e-12)


_ARC_SAMPLES = 2000


def generate_smooth_trajectory(start: Pose2D, goal: Pose2D, limits: VelocityLimits,
                               dt: float = 0.05) -> TimedTrajectory:
    """Cubic Bezier path with interior control points at d/3 along the endpoint headings.

    The curve is reparameterized by arc length under a trapezoidal speed
    profile capped so that curvature * speed stays inside omega_max. States
    sit on the curve; each interval's command is the exact constant-twist arc
    joining consecutive states (headings track the tangent to O(ds^2)). A
    final pure-rotation micro-step pins the goal heading exactly.

    Pure rotations (start ~ goal position) fall back to the sharp generator.
    High-curvature geometry (e.g. a goal directly behind with the same
    heading) is rejected rather than crawled through a cusp.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    dist = math.hypot(goal.x - start.x, goal.y - start.y)
    if dist < 1e-9:
        return generate_sharp_trajectory(start, goal, limits, dt)

    ctrl = _bezier_points(start, goal)
    u = np.linspace(0.0, 1.0, _ARC_SAMPLES + 1)
    pts = bezier_point(ctrl, u)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    length = arc[-1]
    kappa_max = float(np.max(_bezier_curvature(ctrl, u)))

    v_cap = min(0.999 * limits.v_max, 0.98 * limits.omega_max / max(kappa_max, 1e-12))
    if v_cap < 1e-3:
        raise ControlError(
            f"smooth trajectory curvature too high (kappa={kappa_max:.3g} 1/m); use the sharp generator")

    rates = _profile_rates(length, v_cap, limits.a_max, dt)
    s_k = np.concatenate([[0.0], np.cumsum(rates) * dt])
    s_k[-1] = length
    u_k = np.interp(s_k, arc, u)
    u_k[-1] = 1.0
    xy = bezier_point(ctrl, u_k)
    xy[0] = [start.x, start.y]
    xy[-1] = [goal.x, goal.y]

    states: list[Pose2D] = [start]
    controls: list[ControlCommand] = []
    theta = start.theta
    for k in range(len(xy) - 1):
        c = xy[k + 1] - xy[k]
        chord = math.hypot(c[0], c[1])
        gamma = math.atan2(c[1], c[0]) if chord > 1e-15 else theta
        half = wrap_angle(gamma - theta)
        omega = 2.0 * half / dt
        # chord = v*dt*sin(half)/half for a constant-twist arc
        factor = half / math.sin(half) if abs(half) > 1e-9 else 1.0
        v = chord / dt * factor
        controls.append(ControlCommand(v, omega))
        theta = wrap_angle(theta + 2.0 * half)
        states.append(Pose2D(xy[k + 1][0], xy[k + 1][1], theta))

    residual = wrap_angle(goal.theta - theta)
    if abs(residual) > 1e-12:
        controls.append(ControlCommand(0.0, residual / dt))
        states.append(goal)
    else:
        states[-1] = goal

    return TimedTrajectory(dt, np.array([p.as_array() for p in states]),
                           np.array([u_.as_array() for u_ in controls]))


def circle_trajectory(radius: float, speed: float, dt: float = 0.05,
                      start: Pose2D = Pose2D(), loops: float = 1.0) -> TimedTrajectory:
    """Closed circular reference at constant (v, omega); counterclockwise, tangent at `start`."""
    if not (0 < radius < math.inf and 0 < speed < math.inf):
        raise ValueError(f"radius and speed must be positive and finite, got {radius!r}, {speed!r}")
    omega = speed / radius
    n = max(1, round(loops * 2.0 * math.pi / (omega * dt)))
    states = [start]
    for _ in range(n):
        states.append(unicycle_arc(states[-1], speed, omega, dt))
    return TimedTrajectory(dt, np.array([p.as_array() for p in states]),
                           np.tile([speed, omega], (n, 1)))
