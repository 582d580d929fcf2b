"""Benchmark harness: base position-control accuracy trials, arm pose
repeatability, and trajectory tracking, with deterministic seeding.

Every trial runs on a fresh simulator seeded from (master seed, controller,
motion class, target, trial) through SeedSequence, so a report is a pure
function of its master seed. Errors are reported against both the ground-truth
pose (the simulator's motion-capture stand-in) and the odometric pose the
controllers actually close their loop on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RobotConfig
from .control import DEFAULT_CONTROLLER, tracking_law
from .errors import Bounded, IkConvergenceError, bounded, one_of
from .geometry import SE3, Pose2D, angle_diff, planar_distance
from .kinematics import forward_kinematics, inverse_kinematics
from .robot import make_robot
from .trajectory import TimedTrajectory, circle_trajectory

MOTION_CLASSES = ("linear", "rotation", "combined")


@dataclass(frozen=True)
class BaseTrialProtocol(Bounded):
    """One motion class: its target poses and the number of trials per target."""

    motion_class: str = one_of(*MOTION_CLASSES)
    targets: tuple
    trials: int = bounded(5, low=1)


def default_protocols(trials: int = 5) -> tuple[BaseTrialProtocol, ...]:
    """The standard trial set: 2 m line forward/back, on-spot +-pi/2, diagonal combined."""
    return (
        BaseTrialProtocol("linear", (Pose2D(2, 0, 0), Pose2D(-2, 0, 0)), trials),
        BaseTrialProtocol("rotation", (Pose2D(0, 0, math.pi / 2), Pose2D(0, 0, -math.pi / 2)),
                          trials),
        BaseTrialProtocol("combined", (Pose2D(1, 1, 0), Pose2D(-1, -1, 0)), trials),
    )


@dataclass(frozen=True)
class TrialResult:
    controller: str
    motion_class: str
    target: Pose2D
    trial: int
    seed: int
    reached: bool
    elapsed: float
    err_trans_true_mm: float
    err_rot_true_deg: float
    err_trans_odom_mm: float
    err_rot_odom_deg: float


@dataclass(frozen=True)
class AggregateRow:
    controller: str
    motion_class: str
    reference: str   # "truth" | "odometry"
    metric: str      # "translation" | "rotation"
    unit: str        # "mm" | "deg"
    mean: float
    std: float
    n: int
    failures: int


@dataclass
class BenchReport:
    robot: str
    master_seed: int
    controllers: tuple
    trials: list = field(default_factory=list)

    def aggregates(self) -> list[AggregateRow]:
        rows = []
        for controller in self.controllers:
            for mclass in MOTION_CLASSES:
                sel = [t for t in self.trials
                       if t.controller == controller and t.motion_class == mclass]
                if not sel:
                    continue
                failures = sum(1 for t in sel if not t.reached)
                for reference, metric, unit, get in (
                    ("truth", "translation", "mm", lambda t: t.err_trans_true_mm),
                    ("truth", "rotation", "deg", lambda t: t.err_rot_true_deg),
                    ("odometry", "translation", "mm", lambda t: t.err_trans_odom_mm),
                    ("odometry", "rotation", "deg", lambda t: t.err_rot_odom_deg),
                ):
                    vals = np.array([get(t) for t in sel])
                    rows.append(AggregateRow(controller, mclass, reference, metric, unit,
                                             float(vals.mean()),
                                             float(vals.std(ddof=1)) if len(vals) > 1 else 0.0,
                                             len(vals), failures))
        return rows

    def mean_error(self, controller: str, motion_class: str,
                   reference: str = "truth", metric: str = "translation") -> float:
        for row in self.aggregates():
            if (row.controller == controller and row.motion_class == motion_class
                    and row.reference == reference and row.metric == metric):
                return row.mean
        raise KeyError((controller, motion_class, reference, metric))


def trial_seed(master_seed: int, *indices: int) -> int:
    """Deterministic per-trial seed derived from the master seed and trial coordinates."""
    return int(np.random.SeedSequence((master_seed,) + tuple(indices)).generate_state(1)[0])


def run_base_benchmark(config: RobotConfig, backend_factory, controllers,
                       protocols=None, master_seed: int = 0) -> BenchReport:
    """Rerun the base-accuracy trial protocol for each controller.

    `backend_factory(seed)` must return a fresh backend; one is built per
    trial. Failed (timeout) trials are recorded with their terminal error and
    reached=False, and stay in the aggregates.
    """
    protocols = protocols if protocols is not None else default_protocols()
    controllers = tuple(controllers)
    report = BenchReport(robot=config.name, master_seed=master_seed, controllers=controllers)
    for ci, controller in enumerate(controllers):
        for pi, proto in enumerate(protocols):
            for ti, target in enumerate(proto.targets):
                for trial in range(proto.trials):
                    seed = trial_seed(master_seed, ci, pi, ti, trial)
                    robot = make_robot(config, backend_factory(seed))
                    res = robot.base.go_to_absolute(target, controller)
                    true = res.true_pose
                    odom = res.pose
                    report.trials.append(TrialResult(
                        controller=controller, motion_class=proto.motion_class,
                        target=target, trial=trial, seed=seed,
                        reached=res.reached, elapsed=res.elapsed,
                        err_trans_true_mm=1000.0 * planar_distance(true, target),
                        err_rot_true_deg=math.degrees(abs(angle_diff(true.theta, target.theta))),
                        err_trans_odom_mm=1000.0 * planar_distance(odom, target),
                        err_rot_odom_deg=math.degrees(abs(angle_diff(odom.theta, target.theta))),
                    ))
    return report


# --- arm repeatability ---------------------------------------------------------


def iso_position_repeatability(points: np.ndarray) -> tuple[float, float, float]:
    """(l_bar, S_l, RP) over distances of the attained points from their barycenter.

    RP = l_bar + 3 * S_l with the n-1 sample standard deviation.
    """
    pts = np.asarray(points, dtype=float)
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    bary = pts.mean(axis=0)
    l = np.linalg.norm(pts - bary, axis=1)
    lbar = float(l.mean())
    sl = float(l.std(ddof=1))
    return lbar, sl, lbar + 3.0 * sl


@dataclass(frozen=True)
class PoseRepeatability:
    name: str
    target: tuple
    attained_mm: np.ndarray      # (reps, 3) attained positions, mm
    axis_std_mm: tuple           # per-axis sample std
    rp_mm: float
    skipped: bool = False


@dataclass
class RepeatabilityResult:
    robot: str
    master_seed: int
    reps: int
    poses: list = field(default_factory=list)

    @property
    def skipped(self) -> list:
        return [p.name for p in self.poses if p.skipped]


def run_arm_repeatability(config: RobotConfig, backend, poses=None, reps=None,
                          master_seed: int = 0) -> RepeatabilityResult:
    """Repeated point-to-point moves: home first, then the target, per repetition.

    Grid poses are solved once with position-only IK (the metric is position
    repeatability); the same joint command is repeated `reps` times. Attained
    positions come from the simulator's ground truth. A pose whose IK fails is
    skipped and flagged.
    """
    poses = list(poses) if poses is not None else list(config.benchmark.repeatability_poses)
    reps = reps if reps is not None else config.benchmark.repeatability_reps
    if reps < 2:
        raise ValueError("need at least 2 repetitions")
    robot = make_robot(config, backend)
    result = RepeatabilityResult(robot=config.name, master_seed=master_seed, reps=reps)

    named = [(f"pose{i + 1}", tuple(p)) for i, p in enumerate(poses)]
    named.append(("home", tuple(forward_kinematics(config.chain, config.home).translation)))

    for name, target in named:
        if name == "home":
            q_cmd = np.asarray(config.home, dtype=float)
        else:
            try:
                q_cmd = inverse_kinematics(config.chain, SE3(np.asarray(target)),
                                           config.home, config.ik, position_only=True)
            except IkConvergenceError:
                result.poses.append(PoseRepeatability(name, target, np.zeros((0, 3)),
                                                      (0.0, 0.0, 0.0), 0.0, skipped=True))
                continue
        attained = []
        for _ in range(reps):
            robot.arm.set_joint_positions(config.home)
            res = robot.arm.set_joint_positions(q_cmd)
            attained.append(res.ee_pose.translation * 1000.0)
        attained = np.array(attained)
        axis_std = tuple(float(s) for s in attained.std(axis=0, ddof=1))
        _, _, rp = iso_position_repeatability(attained)
        result.poses.append(PoseRepeatability(name, target, attained, axis_std, rp))
    return result


# --- trajectory tracking --------------------------------------------------------


def cross_track_errors(log: list, reference: TimedTrajectory) -> np.ndarray:
    """Distance (m) from each logged ground-truth position to the reference path.

    The reference path is the polyline through the trajectory states; distance
    is measured to the nearest point on any segment (or the single state for a
    degenerate path).
    """
    ref = reference.states[:, :2]
    actual = np.array([[e.true.x, e.true.y] for e in log])
    if len(actual) == 0:
        return np.zeros(0)
    if len(ref) == 1:
        return np.linalg.norm(actual - ref[0], axis=1)
    a = ref[:-1]
    d = ref[1:] - a
    seg_len2 = np.maximum((d * d).sum(axis=1), 1e-18)
    out = np.empty(len(actual))
    for i, p in enumerate(actual):
        t = np.clip(((p - a) * d).sum(axis=1) / seg_len2, 0.0, 1.0)
        proj = a + t[:, None] * d
        out[i] = np.min(np.linalg.norm(proj - p, axis=1))
    return out


@dataclass
class TrackingReport:
    robot: str
    controller: str
    master_seed: int
    reference: TimedTrajectory
    log: list
    rms_mm: float
    max_mm: float


def run_tracking_benchmark(config: RobotConfig, backend, shape="circle",
                           radius: float = 0.4, controller: str = DEFAULT_CONTROLLER,
                           master_seed: int = 0,
                           trajectory: TimedTrajectory | None = None) -> TrackingReport:
    """Track a reference: a circle of the given radius, or an explicit `trajectory`."""
    tracking_law(controller)  # raises KeyError for controllers that cannot track
    ref = trajectory
    if ref is None:
        if shape != "circle":
            raise ValueError(f"unknown shape {shape!r}; pass other references as trajectory=")
        ref = circle_trajectory(radius, config.benchmark.tracking_speed, config.base.dt)
    robot = make_robot(config, backend)
    log = robot.base.track_trajectory(ref, controller)
    errs = cross_track_errors(log, ref)
    rms = float(np.sqrt(np.mean(errs ** 2))) if len(errs) else 0.0
    mx = float(np.max(errs)) if len(errs) else 0.0
    return TrackingReport(robot=config.name, controller=controller, master_seed=master_seed,
                          reference=ref, log=log, rms_mm=1000.0 * rms, max_mm=1000.0 * mx)
