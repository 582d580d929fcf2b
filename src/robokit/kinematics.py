"""Serial-chain kinematics: forward kinematics, geometric Jacobian, damped-least-squares IK.

Chains are revolute-only. Joint i applies `fixed_i · Rot(axis_i, q_i)`; the
end-effector adds one more fixed transform, so

    T(q) = fixed_0 · R_0(q_0) · fixed_1 · R_1(q_1) · ... · tool

All public functions are pure and reentrant. The hot path (FK + Jacobian
inside the IK loop) runs on per-joint arrays each chain builds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IkConvergenceError
from .geometry import SE3, quat_from_zyx

# orientation weight balancing rad against m in the DLS error vector
_ORI_WEIGHT = 0.5


@dataclass(frozen=True)
class Joint:
    """Revolute joint: fixed transform from parent, unit rotation axis, position/velocity limits."""

    name: str
    origin: SE3
    axis: tuple[float, float, float]
    lower: float
    upper: float
    max_velocity: float = 2.0

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float)
        n = np.linalg.norm(ax)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"joint {self.name}: axis must be unit-norm, got |axis|={n:.6g}")
        if not self.lower < self.upper:
            raise ValueError(f"joint {self.name}: lower limit must be < upper limit")


def _read_only(values) -> np.ndarray:
    a = np.array(values)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class KinematicChain:
    """Ordered revolute joints plus a fixed tool transform. The arrays that FK, the Jacobian
    and IK read are cached_property values: built on first use, kept in __dict__."""

    joints: tuple[Joint, ...]
    tool: SE3 = field(default_factory=SE3.identity)

    @property
    def dof(self) -> int:
        return len(self.joints)

    @cached_property
    def lower_limits(self) -> np.ndarray:
        return _read_only([j.lower for j in self.joints])

    @cached_property
    def upper_limits(self) -> np.ndarray:
        return _read_only([j.upper for j in self.joints])

    @cached_property
    def velocity_limits(self) -> np.ndarray:
        return _read_only([j.max_velocity for j in self.joints])

    @cached_property
    def _links(self) -> tuple:
        """Per joint: origin rotation and translation, axis, its skew matrix K and K @ K."""
        links = []
        for j in self.joints:
            m = j.origin.matrix()
            a = np.asarray(j.axis, dtype=float)
            k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
            links.append((m[:3, :3], m[:3, 3], a, k, k @ k))
        return tuple(links)

    @cached_property
    def _tool_rt(self) -> tuple:
        m = self.tool.matrix()
        return m[:3, :3], m[:3, 3]

    def clamp(self, q) -> np.ndarray:
        return np.clip(np.asarray(q, dtype=float), self.lower_limits, self.upper_limits)

    def check_dimension(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dof,):
            raise ValueError(f"expected {self.dof} joint values, got {q.shape}")
        return q


@dataclass(frozen=True)
class IkParams:
    """Damped-least-squares solver settings; all values strictly positive except
    `restarts`, which may be 0."""

    position_tolerance: float = 1e-6   # m
    orientation_tolerance: float = 1e-6  # rad
    max_iterations: int = 300
    damping: float = 0.02
    step_clamp: float = 0.5  # rad, per-joint per-iteration
    restarts: int = 3

    def __post_init__(self):
        for name in ("position_tolerance", "orientation_tolerance", "max_iterations",
                     "damping", "step_clamp"):
            if getattr(self, name) <= 0:
                raise ValueError(f"IkParams.{name} must be positive")
        if self.restarts < 0:
            raise ValueError("IkParams.restarts must be >= 0")


_I3 = np.eye(3)


def _frames_fast(chain: KinematicChain, q: np.ndarray):
    """World axis directions and origins per joint plus the (R, t) of the tool frame."""
    R, t = _I3, np.zeros(3)
    world_axes = np.empty((chain.dof, 3))
    world_origins = np.empty((chain.dof, 3))
    for i, ((Ro, to, axis, K, K2), qi) in enumerate(zip(chain._links, q)):
        t = t + R @ to
        R = R @ Ro
        world_axes[i] = R @ axis
        world_origins[i] = t
        R = R @ (_I3 + math.sin(qi) * K + (1.0 - math.cos(qi)) * K2)
    Rt, tt = chain._tool_rt
    return world_axes, world_origins, R @ Rt, t + R @ tt


def _linear_rows(axes: np.ndarray, origins: np.ndarray, t_ee: np.ndarray) -> np.ndarray:
    """The Jacobian's linear-velocity rows (3 x dof): axis x (tool origin - joint origin)."""
    return np.cross(axes, t_ee[None, :] - origins).T


def _rotation_vector_from_matrix(R: np.ndarray) -> np.ndarray:
    """Axis*angle of a rotation matrix; angle in [0, pi]."""
    tr = min(3.0, max(-1.0, R[0, 0] + R[1, 1] + R[2, 2]))
    angle = math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))
    if angle < 1e-9:
        return 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    if angle > math.pi - 1e-6:
        # near pi: extract axis from the symmetric part
        d = np.diagonal(R)
        k = int(np.argmax(d))
        axis = np.sqrt(np.maximum(0.0, (d - (tr - 1.0) / 2.0) / (2.0 - (tr - 1.0))))
        axis = np.array([math.copysign(axis[0], R[2, 1] - R[1, 2]),
                         math.copysign(axis[1], R[0, 2] - R[2, 0]),
                         math.copysign(axis[2], R[1, 0] - R[0, 1])])
        if axis[k] == 0.0:
            axis[k] = 1.0
        n = np.linalg.norm(axis)
        return angle * axis / n
    s = 2.0 * math.sin(angle)
    return (angle / s) * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])


def forward_kinematics(chain: KinematicChain, q) -> SE3:
    """Pose of the tool frame in the chain base frame."""
    q = chain.check_dimension(q)
    _, _, R, t = _frames_fast(chain, q)
    return SE3.from_matrix(np.block([[R, t[:, None]], [np.zeros((1, 3)), np.ones((1, 1))]]))


def jacobian(chain: KinematicChain, q) -> np.ndarray:
    """Geometric Jacobian (6 x dof) at the end-effector origin: rows 0-2 linear, 3-5 angular."""
    q = chain.check_dimension(q)
    axes, origins, _, t_ee = _frames_fast(chain, q)
    return np.vstack([_linear_rows(axes, origins, t_ee), axes.T])


# far-field stall detection: give up on a basin only when the combined error is
# still above this and has not improved for _STALL_WINDOW iterations
_STALL_ERROR = 1e-3
_STALL_WINDOW = 40


class _Solve:
    """One IK problem instance: shared target data plus iteration bookkeeping."""

    def __init__(self, chain, target, params, position_only):
        self.chain = chain
        self.params = params
        self.position_only = position_only
        self.lo, self.hi = chain.lower_limits, chain.upper_limits
        self.mid = 0.5 * (self.lo + self.hi)
        self.Rt = None if position_only else target.matrix()[:3, :3]
        self.pt = np.asarray(target.translation, dtype=float)
        self.lam2 = params.damping ** 2
        self.best = (math.inf, math.inf)
        self.iterations = 0

    def errors(self, q):
        axes, origins, R_ee, t_ee = _frames_fast(self.chain, q)
        dp = self.pt - t_ee
        ep = math.sqrt(dp @ dp)
        if self.position_only:
            return axes, origins, t_ee, dp, ep, None, 0.0
        dori = _rotation_vector_from_matrix(self.Rt @ R_ee.T)
        return axes, origins, t_ee, dp, ep, dori, math.sqrt(dori @ dori)

    def converged(self, ep, eo):
        return (ep <= self.params.position_tolerance
                and eo <= self.params.orientation_tolerance)

    def descend(self, q, position_only, iters):
        """DLS iterations from q; returns (q, converged). Breaks early on far-field stall."""
        p = self.params
        best_tot, best_it = math.inf, 0
        for it in range(iters):
            axes, origins, t_ee, dp, ep, dori, eo = self.errors(q)
            J = _linear_rows(axes, origins, t_ee)
            if position_only:
                if ep <= p.position_tolerance:
                    return q, True
                err = dp
            else:
                if self.converged(ep, eo):
                    return q, True
                J = np.vstack([J, _ORI_WEIGHT * axes.T])
                err = np.concatenate([dp, _ORI_WEIGHT * dori])
            if (ep, eo) < self.best:
                self.best = (ep, eo)
            tot = ep + eo
            if tot < best_tot * (1.0 - 1e-4):
                best_tot, best_it = tot, it
            elif it - best_it > _STALL_WINDOW and tot > _STALL_ERROR:
                return q, False
            JJt = J @ J.T
            JJt[np.diag_indices_from(JJt)] += self.lam2
            dq = J.T @ np.linalg.solve(JJt, err)
            step = np.max(np.abs(dq))
            if step > p.step_clamp:
                dq *= p.step_clamp / step
            q = np.clip(q + dq, self.lo, self.hi)
            self.iterations += 1
        _, _, _, _, ep, _, eo = self.errors(q)
        if (ep, eo) < self.best:
            self.best = (ep, eo)
        return q, self.converged(ep, eo) if not position_only else ep <= p.position_tolerance

    def attempt(self, seed):
        """Position-first homotopy plus deterministic antithetic continuations.

        Descend position-only, then the full error. On failure, retry from the
        stuck fold and from the seed reflected through the joint-range
        midpoints (the mirror fold of symmetric chains), before giving up on
        this attempt.
        """
        p = self.params
        q, _ = self.descend(seed.copy(), True, 100)
        if self.position_only:
            return self.descend(q, True, p.max_iterations)
        q1, ok = self.descend(q, False, p.max_iterations)
        if ok:
            return q1, True
        # full reflection of the stuck fold, then per-joint reflections
        # (the elbow-flip family), then the reflected seed
        starts = [np.clip(2.0 * self.mid - q1, self.lo, self.hi)]
        for j in range(len(q1)):
            s = q1.copy()
            s[j] = 2.0 * self.mid[j] - s[j]
            starts.append(np.clip(s, self.lo, self.hi))
        starts.append(np.clip(2.0 * self.mid - seed, self.lo, self.hi))
        for start in starts:
            q, _ = self.descend(start, True, 100)
            q, ok = self.descend(q, False, p.max_iterations)
            if ok:
                return q, True
        return q1, False


def inverse_kinematics(
    chain: KinematicChain,
    target: SE3,
    seed,
    params: IkParams | None = None,
    position_only: bool = False,
    rng_seed: int = 0,
) -> np.ndarray:
    """Solve for joints reaching `target`, seeded at `seed`.

    Damped least squares (fixed damping) with per-iteration step clamping and
    joint-limit projection. Each attempt descends a position-only homotopy
    first, then the full pose error, with deterministic antithetic retries;
    up to `params.restarts` uniform-in-limits reseeds run before raising
    IkConvergenceError. A solved seed is returned unchanged.

    With position_only=True the orientation rows are dropped (used for
    redundant position targets such as the repeatability grid poses).
    """
    params = params or IkParams()
    q0 = chain.clamp(chain.check_dimension(seed))
    solver = _Solve(chain, target, params, position_only)

    # a solved seed short-circuits before any iteration
    _, _, _, _, ep, _, eo = solver.errors(q0)
    if solver.converged(ep, eo):
        return q0

    rng = np.random.default_rng(rng_seed)
    q, ok = solver.attempt(q0)
    for _ in range(params.restarts):
        if ok:
            break
        q, ok = solver.attempt(rng.uniform(solver.lo, solver.hi))
    if ok:
        return q
    raise IkConvergenceError(solver.best[0], solver.best[1], solver.iterations)


def bearing_yaw(position) -> float:
    """Azimuth of a target position in the chain base frame; 0 at the base axis."""
    x, y = float(position[0]), float(position[1])
    if abs(x) < 1e-12 and abs(y) < 1e-12:
        return 0.0
    return math.atan2(y, x)


def pose_from_pitch_roll(position, pitch: float, roll: float) -> SE3:
    """Full SE(3) target from position + pitch + roll; yaw follows the base-to-target bearing.

    This is the reachable-orientation convention for 5-DOF chains whose first
    joint spins about the base z axis: the wrist can realize any pitch/roll in
    the vertical plane through the target, but yaw is fixed by geometry.
    """
    yaw = bearing_yaw(position)
    return SE3(np.asarray(position, dtype=float), quat_from_zyx(yaw, pitch, roll))
