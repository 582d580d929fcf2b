"""Serial-chain kinematics: forward kinematics, geometric Jacobian, inverse kinematics.

IK is closed form for the z-y-y-y-x layout (a waist, three parallel pitch
joints and a roll joint, as on the LoCoBot arm), damped least squares (DLS)
otherwise.

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

from .errors import Bounded, IkConvergenceError, bounded, positive
from .geometry import SE3, TWO_PI, rotation_vector, skew, zyx_matrix

# orientation weight balancing rad against m in the DLS error vector
_ORI_WEIGHT = 0.5
_I3 = np.eye(3)
# joint axes of the layout `inverse_kinematics` solves in closed form
_CLOSED_FORM_AXES = np.array([[0, 0, 1], [0, 1, 0], [0, 1, 0], [0, 1, 0], [1, 0, 0]], float)


@dataclass(frozen=True)
class Joint(Bounded):
    """Revolute joint: fixed transform from parent, unit rotation axis, position/velocity limits."""

    name: str
    origin: SE3
    axis: tuple[float, float, float]
    lower: float
    upper: float
    max_velocity: float = positive(2.0)

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float)
        n = np.linalg.norm(ax)
        if abs(n - 1.0) > 1e-9:
            raise ValueError(f"joint {self.name}: axis must be unit-norm, got |axis|={n:.6g}")
        if not self.lower < self.upper:
            raise ValueError(f"joint {self.name}: lower limit must be < upper limit")
        super().__post_init__()


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
            a = np.asarray(j.axis, dtype=float)
            k = skew(a)
            links.append((j.origin.R, j.origin.translation, a, k, k @ k))
        return tuple(links)

    @cached_property
    def _tool_rt(self) -> tuple:
        return self.tool.R, self.tool.translation

    @cached_property
    def closed_form_layout(self) -> tuple[float, float, float, float] | None:
        """(shoulder height, link 1, link 2, wrist-to-tool offset) of a z-y-y-y-x chain
        whose joint origins and tool are unrotated, with joints 0-3 offset along z only
        and joint 4 and the tool along x only; None for any other chain."""
        frames = [j.origin for j in self.joints] + [self.tool]
        offsets = np.array([f.translation for f in frames])
        if (self.dof != 5
                or not np.array_equal([j.axis for j in self.joints], _CLOSED_FORM_AXES)
                or not all(np.array_equal(f.R, _I3) for f in frames)
                or np.any(offsets[:4, :2]) or np.any(offsets[4:, 1:])):
            return None
        z = offsets[:4, 2].tolist()
        return z[0] + z[1], z[2], z[3], float(offsets[4, 0] + offsets[5, 0])

    def clamp(self, q) -> np.ndarray:
        return np.clip(np.asarray(q, dtype=float), self.lower_limits, self.upper_limits)

    def check_dimension(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.dof,):
            raise ValueError(f"expected {self.dof} joint values, got {q.shape}")
        return q


@dataclass(frozen=True)
class IkParams(Bounded):
    """IK settings: the tolerances every solution is checked against, then the DLS settings."""

    position_tolerance: float = positive(1e-6)   # m
    orientation_tolerance: float = positive(1e-6)  # rad
    max_iterations: int = positive(300)
    damping: float = positive(0.02)
    step_clamp: float = positive(0.5)  # rad, per-joint per-iteration
    restarts: int = bounded(3)


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


def forward_kinematics(chain: KinematicChain, q) -> SE3:
    """Pose of the tool frame in the chain base frame."""
    q = chain.check_dimension(q)
    _, _, R, t = _frames_fast(chain, q)
    return SE3(t, R)


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
        self.Rt = None if position_only else target.R
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
        dori = rotation_vector(self.Rt @ R_ee.T)
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


# below this a horizontal direction (m, or a unit vector's length) is rounding noise
_ON_AXIS = 1e-9
# a branch this far (rad) past a joint limit is clipped onto it, not dropped: a
# solution on a limit with a near-straight elbow comes back that far off
_LIMIT_SLACK = 1e-7


def _closed_form(chain: KinematicChain, target: SE3, seed: np.ndarray) -> np.ndarray:
    """Exact solutions for a `closed_form_layout` chain (Pieper: the wrist centre
    decouples position from orientation), one per row, nearest `seed` (L2) first.

    The waist faces the wrist centre or away from it; with the wrist centre on
    the waist axis, it faces along the approach (tool x) or against it. With
    both vertical (pitch ±π/2), the target fixes only waist ∓ roll, and
    `_nearest_on_family` takes the points of that family nearest the seed.
    Each waist has an elbow-up and an elbow-down branch. Each joint takes the
    2π wrap nearest the seed inside its limits (widened by _LIMIT_SLACK, then
    clipped), and a row with a joint that no wrap fits is dropped. Rows are not
    checked against the target: an unreachable target still yields rows.
    """
    h, l1, l2, d = chain.closed_form_layout
    R = target.R
    w = target.translation - d * R[:, 0]
    if math.hypot(w[0], w[1]) >= _ON_AXIS:
        a = math.atan2(w[1], w[0])
        waists = (a, a + math.pi)
    elif math.hypot(R[0, 0], R[1, 0]) >= _ON_AXIS:
        a = math.atan2(R[1, 0], R[0, 0])
        waists = (a, a + math.pi)
    else:
        waists = (seed[0],)
    z = w[2] - h
    c2 = (w[0] ** 2 + w[1] ** 2 + z * z - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    elbow = math.acos(min(1.0, max(-1.0, c2)))
    rows = []
    for q0 in waists:
        c, s = math.cos(q0), math.sin(q0)
        # Rz(q0)ᵀ R = Ry(pitch) Rx(roll): pitch from its column 0, roll from its row 1
        pitch = math.atan2(-R[2, 0], c * R[0, 0] + s * R[1, 0])
        roll = math.atan2(s * R[0, 2] - c * R[1, 2], c * R[1, 1] - s * R[0, 1])
        reach = c * w[0] + s * w[1]
        for q2 in (elbow, -elbow):
            q1 = math.atan2(reach, z) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
            rows.append((q0, q1, q2, pitch - q1 - q2, roll))
    q = np.array(rows)
    if len(waists) == 1:
        q = _nearest_on_family(chain, q, seed, -math.copysign(1.0, R[2, 0]))
    lo, hi = chain.lower_limits - _LIMIT_SLACK, chain.upper_limits + _LIMIT_SLACK
    k = np.clip(np.round((seed - q) / TWO_PI), np.ceil((lo - q) / TWO_PI),
                np.floor((hi - q) / TWO_PI))
    q += TWO_PI * k
    q = chain.clamp(q[np.all((q >= lo) & (q <= hi), axis=1)])
    return q[np.argsort(np.linalg.norm(q - seed, axis=1), kind="stable")]


def _nearest_on_family(chain: KinematicChain, rows: np.ndarray, seed: np.ndarray,
                       s: float) -> np.ndarray:
    """`rows` (all at the seed's waist) moved in (waist, roll) onto the family that
    keeps waist - s·roll modulo 2π (s = sin(pitch) = ±1), at the points nearest
    the seed: the seed's projection onto the family's nearest line and onto its
    two 2π neighbours, each moved along its line into the joint limits."""
    e = ((s * (rows[0, 4] - seed[4]) + math.pi) % TWO_PI - math.pi
         + TWO_PI * np.array([-1.0, 0.0, 1.0]))
    waist, roll = seed[0] - e / 2.0, seed[4] + s * e / 2.0
    lo, hi = chain.lower_limits, chain.upper_limits
    roll_lo, roll_hi = np.sort([s * (lo[4] - roll), s * (hi[4] - roll)], axis=0)
    t = np.clip(0.0, np.maximum(lo[0] - waist, roll_lo), np.minimum(hi[0] - waist, roll_hi))
    out = np.repeat(rows, len(e), axis=0)
    out[:, 0] = np.tile(waist + t, len(rows))
    out[:, 4] = np.tile(roll + s * t, len(rows))
    return out


def _beyond_reach(chain: KinematicChain, target: SE3, params: IkParams) -> bool:
    """True when no pose within the tolerances of `target` puts the wrist centre
    at a distance from the shoulder that links 1 and 2 can span (a pose within
    them moves the wrist centre by at most position_tolerance +
    |d|·orientation_tolerance)."""
    h, l1, l2, d = chain.closed_form_layout
    w = target.translation - d * target.R[:, 0] - (0.0, 0.0, h)
    r = math.sqrt(w @ w)
    margin = params.position_tolerance + abs(d) * params.orientation_tolerance
    return r > l1 + l2 + margin or r < abs(l1 - l2) - margin


def inverse_kinematics(
    chain: KinematicChain,
    target: SE3,
    seed,
    params: IkParams | None = None,
    position_only: bool = False,
    rng_seed: int = 0,
) -> np.ndarray:
    """Solve for joints reaching `target`, seeded at `seed`.

    A solved seed is returned unchanged. Full-pose targets on a chain with a
    `closed_form_layout` (z-y-y-y-x) are solved in closed form: the in-limit
    branch nearest the seed that meets the tolerances in `params`; a target
    whose wrist centre is out of the arm's reach raises IkConvergenceError at
    once, with the nearest branch's residuals and 0 iterations. Every other
    solve, and a closed-form target with no such branch, runs damped least
    squares (fixed damping) with per-iteration step clamping and joint-limit
    projection. Each DLS attempt descends a position-only homotopy first, then
    the full pose error, with deterministic antithetic retries; up to
    `params.restarts` uniform-in-limits reseeds run before raising
    IkConvergenceError. A non-finite target or seed raises ValueError.

    With position_only=True the orientation rows are dropped (used for
    redundant position targets such as the repeatability grid poses).
    """
    params = params or IkParams()
    seed = chain.check_dimension(seed)
    if not np.all(np.isfinite(seed)):
        raise ValueError(f"inverse_kinematics: seed must be finite, got {seed}")
    if not (np.all(np.isfinite(target.translation)) and np.all(np.isfinite(target.R))):
        raise ValueError(f"inverse_kinematics: target must be finite, got t={target.translation}")
    q0 = chain.clamp(seed)
    solver = _Solve(chain, target, params, position_only)

    # a solved seed short-circuits before any iteration
    _, _, _, _, ep, _, eo = solver.errors(q0)
    if solver.converged(ep, eo):
        return q0

    if not position_only and chain.closed_form_layout is not None:
        rows = _closed_form(chain, target, q0)
        for q in rows:
            _, _, _, _, ep, _, eo = solver.errors(q)
            if solver.converged(ep, eo):
                return q
        if _beyond_reach(chain, target, params):
            _, _, _, _, ep, _, eo = solver.errors(rows[0] if len(rows) else q0)
            raise IkConvergenceError(ep, eo, 0)

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
    return SE3(position, zyx_matrix(bearing_yaw(position), pitch, roll))
