"""Serial-chain kinematics: forward kinematics, geometric Jacobian, inverse kinematics.

IK is closed form for the z-y-y-y-x layout (a waist, three parallel pitch
joints and a roll joint, as on the LoCoBot arm), damped least squares (DLS)
otherwise.

Chains are revolute-only. Joint i applies `fixed_i · Rot(axis_i, q_i)`; the
end-effector adds one more fixed transform, so

    T(q) = fixed_0 · R_0(q_0) · fixed_1 · R_1(q_1) · ... · tool

All public functions are pure and reentrant. The hot path (FK, the Jacobian
and the IK residual inside the solve) runs on Python floats in a fixed order,
written down in `_frames_fast` and `_Solve.errors`, over per-joint float tuples
each chain builds once; numpy is used only to build the arrays it returns and
for the DLS solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import Bounded, IkConvergenceError, bounded, positive
from .geometry import SE3, TWO_PI, rotation_vector, zyx_matrix

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
        """What `_frames_fast` reads, as Python floats: per joint its origin rotation
        (9 floats, row-major; None for the identity), origin translation and axis,
        then the tool's rotation and translation likewise."""
        def frame(f: SE3) -> tuple:
            return (None if np.array_equal(f.R, _I3) else tuple(f.R.ravel().tolist()),
                    tuple(f.translation.tolist()))

        return (tuple(frame(j.origin) + (tuple(float(a) for a in j.axis),) for j in self.joints),
                frame(self.tool))

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


def _mul(A: tuple, B: tuple) -> tuple:
    """A @ B of two row-major 3x3 float tuples; each entry sums its three products
    left to right."""
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = A
    b00, b01, b02, b10, b11, b12, b20, b21, b22 = B
    return (a00 * b00 + a01 * b10 + a02 * b20, a00 * b01 + a01 * b11 + a02 * b21,
            a00 * b02 + a01 * b12 + a02 * b22,
            a10 * b00 + a11 * b10 + a12 * b20, a10 * b01 + a11 * b11 + a12 * b21,
            a10 * b02 + a11 * b12 + a12 * b22,
            a20 * b00 + a21 * b10 + a22 * b20, a20 * b01 + a21 * b11 + a22 * b21,
            a20 * b02 + a21 * b12 + a22 * b22)


def _apply(R: tuple, v: tuple) -> tuple:
    """R @ v for a row-major 3x3 float tuple; each entry sums left to right."""
    x, y, z = v
    return (R[0] * x + R[1] * y + R[2] * z, R[3] * x + R[4] * y + R[5] * z,
            R[6] * x + R[7] * y + R[8] * z)


_IDENTITY = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)


def _frames_fast(chain: KinematicChain, q) -> tuple:
    """World axis directions and origins per joint (lists of float 3-tuples), then
    the tool frame's rotation (9 floats, row-major) and origin, for joint values
    `q` given as Python floats.

    From R = I and t = 0, each joint in turn, with (Ro, to) its origin and a its axis:
      1. t <- t + R to, then R <- R Ro (skipped where Ro is the identity);
      2. its world axis is R a and its world origin t;
      3. R <- R Rot(a, q_i), where with c, s = cos q_i, sin q_i and C = 1 - c,
         Rot = c I + s [a]x + C a a' entry by entry: diagonal c + (C a_i) a_i,
         off-diagonal (C a_i) a_j -/+ s a_k as the cross-product sign gives.
    The tool then gives t + R tt and R Rt (the product skipped for an identity Rt).
    Every product R x sums its three terms left to right (`_mul`, `_apply`).
    """
    links, (Rt, tt) = chain._links
    R, (t0, t1, t2) = _IDENTITY, (0.0, 0.0, 0.0)
    axes, origins = [], []
    for (Ro, to, (ax, ay, az)), qi in zip(links, q):
        u0, u1, u2 = _apply(R, to)
        t0, t1, t2 = t0 + u0, t1 + u1, t2 + u2
        if Ro is not None:
            R = _mul(R, Ro)
        axes.append(_apply(R, (ax, ay, az)))
        origins.append((t0, t1, t2))
        c, s = math.cos(qi), math.sin(qi)
        C = 1.0 - c
        cx, cy, cz = C * ax, C * ay, C * az
        sx, sy, sz = s * ax, s * ay, s * az
        cxy, cxz, cyz = cx * ay, cx * az, cy * az
        R = _mul(R, (c + cx * ax, cxy - sz, cxz + sy,
                     cxy + sz, c + cy * ay, cyz - sx,
                     cxz - sy, cyz + sx, c + cz * az))
    u0, u1, u2 = _apply(R, tt)
    return axes, origins, (R if Rt is None else _mul(R, Rt)), (t0 + u0, t1 + u1, t2 + u2)


def _linear_columns(axes: list, origins: list, t_ee: tuple) -> list:
    """The Jacobian's linear-velocity entries per joint: axis x (tool origin - joint
    origin), each component a1*d2 - a2*d1 and so on, as np.cross computes it."""
    x, y, z = t_ee
    return [(a1 * (z - o2) - a2 * (y - o1), a2 * (x - o0) - a0 * (z - o2),
             a0 * (y - o1) - a1 * (x - o0))
            for (a0, a1, a2), (o0, o1, o2) in zip(axes, origins)]


def _log_map(m: tuple) -> tuple:
    """`rotation_vector` of a row-major float rotation, on floats: the same branches
    and the same arithmetic, except that within 1e-6 of π it calls `rotation_vector`."""
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = m
    tr = min(3.0, max(-1.0, m00 + m11 + m22))
    angle = math.acos(min(1.0, max(-1.0, (tr - 1.0) / 2.0)))
    if angle > math.pi - 1e-6:
        return tuple(rotation_vector(np.array(m).reshape(3, 3)).tolist())
    f = 0.5 if angle < 1e-9 else angle / (2.0 * math.sin(angle))
    return f * (m21 - m12), f * (m02 - m20), f * (m10 - m01)


def forward_kinematics(chain: KinematicChain, q) -> SE3:
    """Pose of the tool frame in the chain base frame."""
    q = chain.check_dimension(q)
    _, _, R, t = _frames_fast(chain, q.tolist())
    return SE3(t, np.array(R).reshape(3, 3))


def jacobian(chain: KinematicChain, q) -> np.ndarray:
    """Geometric Jacobian (6 x dof) at the end-effector origin: rows 0-2 linear, 3-5 angular."""
    q = chain.check_dimension(q)
    axes, origins, _, t_ee = _frames_fast(chain, q.tolist())
    return np.array([*zip(*_linear_columns(axes, origins, t_ee)), *zip(*axes)])


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
        self.Rt = None if position_only else tuple(target.R.ravel().tolist())
        self.pt = tuple(target.translation.tolist())
        self.lam2 = params.damping ** 2
        self.best = (math.inf, math.inf)
        self.iterations = 0

    def errors(self, q):
        """Residuals at joint values `q` (Python floats): the world axes, world origins
        and tool origin of `_frames_fast`, the position error dp = target - tool origin
        and its norm ep, and the orientation error dori (the rotation vector of
        Rt R_eeᵀ) and its norm eo; dori is None and eo 0.0 on a position-only solve.

        In floats, in this order: dp component by component; ep = sqrt(dp0² + dp1² +
        dp2²) summed left to right; M = Rt R_eeᵀ, each entry summed left to right;
        dori = `_log_map(M)`; eo from dori as ep from dp.
        """
        axes, origins, R, t_ee = _frames_fast(self.chain, q)
        (px, py, pz), (x, y, z) = self.pt, t_ee
        dp = (px - x, py - y, pz - z)
        ep = math.sqrt(dp[0] * dp[0] + dp[1] * dp[1] + dp[2] * dp[2])
        if self.position_only:
            return axes, origins, t_ee, dp, ep, None, 0.0
        r00, r01, r02, r10, r11, r12, r20, r21, r22 = R
        dori = _log_map(_mul(self.Rt, (r00, r10, r20, r01, r11, r21, r02, r12, r22)))
        return (axes, origins, t_ee, dp, ep, dori,
                math.sqrt(dori[0] * dori[0] + dori[1] * dori[1] + dori[2] * dori[2]))

    def converged(self, ep, eo):
        return (ep <= self.params.position_tolerance
                and eo <= self.params.orientation_tolerance)

    def descend(self, q, position_only, iters):
        """DLS iterations from q; returns (q, converged). Breaks early on far-field stall."""
        p = self.params
        best_tot, best_it = math.inf, 0
        for it in range(iters):
            axes, origins, t_ee, dp, ep, dori, eo = self.errors(q.tolist())
            rows = [*zip(*_linear_columns(axes, origins, t_ee))]
            if position_only:
                if ep <= p.position_tolerance:
                    return q, True
                err = dp
            else:
                if self.converged(ep, eo):
                    return q, True
                rows += zip(*[(_ORI_WEIGHT * a0, _ORI_WEIGHT * a1, _ORI_WEIGHT * a2)
                              for a0, a1, a2 in axes])
                err = dp + (_ORI_WEIGHT * dori[0], _ORI_WEIGHT * dori[1], _ORI_WEIGHT * dori[2])
            J, err = np.array(rows), np.array(err)
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
        _, _, _, _, ep, _, eo = self.errors(q.tolist())
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


def _closed_form(chain: KinematicChain, target: SE3, seed: list) -> list:
    """Exact solutions for a `closed_form_layout` chain (Pieper: the wrist centre
    decouples position from orientation), one list of joint values (Python
    floats) each, nearest `seed` first.

    The waist faces the wrist centre or away from it; with the wrist centre on
    the waist axis, it faces along the approach (tool x) or against it. With
    both vertical (pitch ±π/2), the target fixes only waist ∓ roll, and
    `_nearest_on_family` takes the points of that family nearest the seed.
    Each waist has an elbow-up and an elbow-down branch. Each joint then takes
    the 2π wrap nearest the seed inside its limits, and a row with a joint that
    no wrap fits is dropped (`_wrapped_nearest_first`). Rows are not checked
    against the target: an unreachable target still yields rows.
    """
    h, l1, l2, d = chain.closed_form_layout
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = target.R.ravel().tolist()
    tx, ty, tz = target.translation.tolist()
    wx, wy, wz = tx - d * r00, ty - d * r10, tz - d * r20
    if math.hypot(wx, wy) >= _ON_AXIS:
        a = math.atan2(wy, wx)
        waists = (a, a + math.pi)
    elif math.hypot(r00, r10) >= _ON_AXIS:
        a = math.atan2(r10, r00)
        waists = (a, a + math.pi)
    else:
        waists = (seed[0],)
    z = wz - h
    c2 = (wx * wx + wy * wy + z * z - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)
    elbow = math.acos(min(1.0, max(-1.0, c2)))
    rows = []
    for q0 in waists:
        c, s = math.cos(q0), math.sin(q0)
        # Rz(q0)ᵀ R = Ry(pitch) Rx(roll): pitch from its column 0, roll from its row 1
        pitch = math.atan2(-r20, c * r00 + s * r10)
        roll = math.atan2(s * r02 - c * r12, c * r11 - s * r01)
        reach = c * wx + s * wy
        for q2 in (elbow, -elbow):
            q1 = math.atan2(reach, z) - math.atan2(l2 * math.sin(q2), l1 + l2 * math.cos(q2))
            rows.append((q0, q1, q2, pitch - q1 - q2, roll))
    if len(waists) == 1:
        rows = _nearest_on_family(chain, np.array(rows), seed, -math.copysign(1.0, r20)).tolist()
    return _wrapped_nearest_first(chain, rows, seed)


def _wrapped_nearest_first(chain: KinematicChain, rows: list, seed: list) -> list:
    """`rows` with each joint moved by the 2π wrap nearest `seed` inside its limits
    widened by _LIMIT_SLACK, x + 2π·k with k = round((seed - x) / 2π) (half to even)
    clipped to [ceil((lo - x) / 2π), floor((hi - x) / 2π)]; a row with a joint that
    no wrap fits is dropped, and the rest are clipped onto the limits and sorted by
    their L2 distance to the seed, its squares summed left to right, ties in row
    order."""
    lower, upper = chain.lower_limits.tolist(), chain.upper_limits.tolist()
    lo, hi = [x - _LIMIT_SLACK for x in lower], [x + _LIMIT_SLACK for x in upper]
    out = []
    for row in rows:
        q = []
        for x, s, a, b in zip(row, seed, lo, hi):
            v = (s - x) / TWO_PI
            if not (a <= x <= b and -0.5 <= v <= 0.5):   # else k = 0
                x += TWO_PI * min(max(round(v), math.ceil((a - x) / TWO_PI)),
                                  math.floor((b - x) / TWO_PI))
                if not a <= x <= b:
                    break
            q.append(x)
        else:
            out.append([min(max(x, a), b) for x, a, b in zip(q, lower, upper)])
    return sorted(out, key=lambda q: math.sqrt(sum((x - s) * (x - s) for x, s in zip(q, seed))))


def _nearest_on_family(chain: KinematicChain, rows: np.ndarray, seed: list,
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
    if not all(map(math.isfinite, seed.tolist())):
        raise ValueError(f"inverse_kinematics: seed must be finite, got {seed}")
    if not all(map(math.isfinite, target.translation.tolist() + target.R.ravel().tolist())):
        raise ValueError(f"inverse_kinematics: target must be finite, got t={target.translation}")
    q0 = chain.clamp(seed)
    solver = _Solve(chain, target, params, position_only)

    # a solved seed short-circuits before any iteration
    seed_floats = q0.tolist()
    _, _, _, _, ep, _, eo = solver.errors(seed_floats)
    if solver.converged(ep, eo):
        return q0

    if not position_only and chain.closed_form_layout is not None:
        rows = _closed_form(chain, target, seed_floats)
        for q in rows:
            _, _, _, _, ep, _, eo = solver.errors(q)
            if solver.converged(ep, eo):
                return np.array(q)
        if _beyond_reach(chain, target, params):
            _, _, _, _, ep, _, eo = solver.errors(rows[0] if rows else seed_floats)
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
