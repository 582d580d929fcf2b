"""Geometric manipulation skills: image-grasp back-projection and execution,
and the point-cloud pushing pipeline (filter, project, cluster, pick a push
point on the cluster's bounding box, execute).

Everything here is geometry plus sequential motion commands through one robot
handle; grasp predictions come from an injectable source (a fixed pixel/depth
tuple or a random-on-object sampler), never a learned model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Bounded, IkConvergenceError, NoClustersError, bounded, positive
from .geometry import SE3
from .kinematics import bearing_yaw
from .robot import MotionResult, Robot
from .sim import CameraIntrinsics

NOISE = -1  # DBSCAN label for non-core, non-reachable points


@dataclass(frozen=True)
class ImageGrasp:
    """Grasp in image space: pixel location, in-plane gripper angle, and depth along the ray."""

    u: float
    v: float
    angle: float
    depth: float

    def validate(self, intrinsics: CameraIntrinsics) -> None:
        for name, value in (("angle", self.angle), ("depth", self.depth)):
            if not math.isfinite(value):
                raise ValueError(f"grasp {name} must be finite, got {value}")
        if self.depth <= 0:
            raise ValueError("grasp depth must be positive")
        if not (0 <= self.u < intrinsics.width and 0 <= self.v < intrinsics.height):
            raise ValueError(f"grasp pixel ({self.u}, {self.v}) outside the image")


@dataclass(frozen=True)
class DbscanParams(Bounded):
    eps: float = positive()
    min_pts: int = bounded(low=1)


@dataclass(frozen=True)
class PushPlan:
    """Pre-push point, push start on the cluster bounding box, and the cluster center (base frame, m)."""

    pre_push_pt: np.ndarray
    push_pt: np.ndarray
    obj_center: np.ndarray


def backproject_pixel(u: float, v: float, depth: float,
                      intrinsics: CameraIntrinsics) -> np.ndarray:
    """Pinhole back-projection to the camera optical frame at depth Z."""
    if depth <= 0:
        raise ValueError("depth must be positive")
    return np.array([(u - intrinsics.cx) * depth / intrinsics.fx,
                     (v - intrinsics.cy) * depth / intrinsics.fy,
                     depth])


def backproject_grasp(grasp: ImageGrasp, intrinsics: CameraIntrinsics,
                      cam_to_base: SE3) -> tuple[np.ndarray, float]:
    """Convert an image-space grasp into (base-frame position, gripper roll)."""
    grasp.validate(intrinsics)
    p_cam = backproject_pixel(grasp.u, grasp.v, grasp.depth, intrinsics)
    position = cam_to_base.transform_point(p_cam)
    # the azimuth of the camera's image-right axis on the base xy-plane
    yaw = bearing_yaw(cam_to_base.rotate_vector(np.array([1.0, 0.0, 0.0])))
    return position, math.atan2(math.sin(grasp.angle + yaw), math.cos(grasp.angle + yaw))


def _run_phases(robot: Robot, phases) -> tuple[MotionResult, dict]:
    """Run (name, move) pairs in order; return the skill's result and each move's by name.

    The first move that raises IkConvergenceError or returns an unreached result
    ends the skill, named in `phases` and `detail`. A move returning None succeeds.
    """
    done, moves = [], {}
    t0 = robot.sim_time
    for name, move in phases:
        try:
            moved = move()
        except IkConvergenceError as exc:
            moved = MotionResult(reached=False, detail=str(exc))
        if moved is not None and not moved.reached:
            return MotionResult(reached=False, elapsed=robot.sim_time - t0,
                                phases=done + [(name, False)],
                                detail=f"{name}: {moved.detail}"), moves
        done.append((name, True))
        moves[name] = moved
    return MotionResult(reached=True, elapsed=robot.sim_time - t0, phases=done,
                        joints=robot.arm.joint_positions, ee_pose=robot.arm.ee_pose), moves


def execute_grasp(robot: Robot, position, roll: float) -> MotionResult:
    """Top-down grasp: hover at the pre-grasp height, descend, close the gripper.

    The heights are the config's `skills.pregrasp_height` and `skills.grasp_height`,
    absolute base-frame z. IK failure aborts with the phase name in the result.
    """
    sk = robot.config.skills
    x, y = float(position[0]), float(position[1])
    return _run_phases(robot, [
        ("pre_grasp", lambda: robot.arm.set_ee_pose_pitch_roll([x, y, sk.pregrasp_height],
                                                               math.pi / 2, roll)),
        ("descend", lambda: robot.arm.move_ee_xyz([0, 0, sk.grasp_height - sk.pregrasp_height])),
        ("close_gripper", lambda: robot.gripper.close()),
    ])[0]


def filter_cloud(points: np.ndarray, z_floor: float, max_range: float) -> np.ndarray:
    """Keep points above the floor threshold and within horizontal range of the base."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(points) == 0:
        return points
    keep = (points[:, 2] > z_floor) & (np.hypot(points[:, 0], points[:, 1]) <= max_range)
    return points[keep]


def dbscan(points: np.ndarray, params: DbscanParams) -> np.ndarray:
    """Density-based clustering; returns a label per point (NOISE == -1).

    Core points have >= min_pts neighbors within eps (inclusive, the point
    itself counts); clusters grow by density reachability. Cluster ids are
    assigned in input order of the first core point, so the labeling is
    deterministic for a fixed input order; a border point reachable from two
    clusters keeps the first.

    Each cluster grows a frontier at a time: the neighbors of the frontier's
    core points that are not yet in the cluster form the next frontier. Neighborhoods come from a
    dense pairwise-distance matrix (O(N^2) memory): fine for filtered
    skill-scale clouds, not for raw full-frame clouds.
    """
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    labels = np.full(n, NOISE, dtype=int)
    if n == 0:
        return labels
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    neighbors = d2 <= params.eps ** 2
    core = neighbors.sum(axis=1) >= params.min_pts
    cluster = 0
    for i in np.flatnonzero(core):
        if labels[i] != NOISE:
            continue
        member = np.zeros(n, dtype=bool)
        member[i] = True
        frontier = member.copy()
        while frontier.any():
            frontier = neighbors[frontier & core].any(axis=0) & ~member
            member |= frontier
        labels[member & (labels == NOISE)] = cluster
        cluster += 1
    return labels


def cluster_points(points_2d: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """Group points by cluster id, noise excluded; keys in ascending id order."""
    out = {}
    for cid in sorted(set(labels[labels != NOISE])):
        out[int(cid)] = points_2d[labels == cid]
    return out


def _perimeter_point(lo: np.ndarray, hi: np.ndarray, s: float) -> np.ndarray:
    """Point at arc position s along the AABB perimeter (counterclockwise from (lo.x, lo.y))."""
    w, h = hi[0] - lo[0], hi[1] - lo[1]
    for length, fn in (
        (w, lambda t: (lo[0] + t, lo[1])),
        (h, lambda t: (hi[0], lo[1] + t)),
        (w, lambda t: (hi[0] - t, hi[1])),
        (h, lambda t: (lo[0], hi[1] - t)),
    ):
        if length > 0.0 and s <= length:
            return np.array(fn(s))
        s -= length
    return np.array([lo[0], lo[1]])  # degenerate box or s at the wrap-around corner


def select_push(clusters: dict[int, np.ndarray], seed: int = 0, *,
                push_height: float, pre_push_height: float) -> PushPlan:
    """Pick a cluster uniformly, then a uniform point on its bounding-box perimeter.

    The push point is lifted to the push plane; the pre-push point sits
    directly above it at the pre-push height; the object center is the
    cluster centroid.
    """
    if not clusters:
        raise NoClustersError("no clusters to push")
    rng = np.random.default_rng(seed)
    ids = sorted(clusters)
    cid = ids[int(rng.integers(len(ids)))]
    pts = np.asarray(clusters[cid], dtype=float)[:, :2]
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    perimeter = 2.0 * ((hi[0] - lo[0]) + (hi[1] - lo[1]))
    s = float(rng.uniform(0.0, perimeter)) if perimeter > 0 else 0.0
    edge = _perimeter_point(lo, hi, s)
    centroid = pts.mean(axis=0)
    return PushPlan(
        pre_push_pt=np.array([edge[0], edge[1], pre_push_height]),
        push_pt=np.array([edge[0], edge[1], push_height]),
        obj_center=np.array([centroid[0], centroid[1], push_height]),
    )


def push_sweep(plan: PushPlan) -> np.ndarray:
    """The horizontal sweep vector: exactly twice the planar center-minus-push vector."""
    sweep = 2.0 * (plan.obj_center - plan.push_pt)
    sweep[2] = 0.0
    return sweep


def execute_push(robot: Robot, plan: PushPlan) -> MotionResult:
    """Close the gripper, hover over the push point, descend, sweep through the cluster center.

    The horizontal sweep is exactly twice the planar center-minus-push vector.
    IK failure aborts with the phase name.
    """
    sweep = push_sweep(plan)
    result, moves = _run_phases(robot, [
        ("close_gripper", lambda: robot.gripper.close()),
        ("pre_push", lambda: robot.arm.set_ee_pose_pitch_roll(plan.pre_push_pt, math.pi / 2, 0.0)),
        ("descend", lambda: robot.arm.move_ee_xyz(plan.push_pt - plan.pre_push_pt)),
        ("push", lambda: robot.arm.move_ee_xyz(sweep)),
    ])
    if result.reached:
        result.path, result.displacement = moves["descend"].path + moves["push"].path, sweep
    return result


def push_pipeline(robot: Robot, seed: int = 0) -> tuple[PushPlan, MotionResult, dict]:
    """Full pushing pipeline on the robot's attached scene.

    Moves the arm out of the camera view, captures a cloud, filters it,
    clusters the xy-projection, plans a push, and executes it. Returns the
    plan, the execution result, and intermediate artifacts for logging.
    """
    sk = robot.config.skills
    robot.gripper.close()
    cam = robot.config.camera
    robot.camera.set_pan_tilt(*cam.default_pan_tilt)
    robot.arm.set_joint_positions(robot.arm.named_pose("overhead"))
    points, tags = robot.camera.get_point_cloud()
    filtered = filter_cloud(points, sk.z_floor, sk.max_range)
    labels = dbscan(filtered[:, :2], DbscanParams(sk.dbscan_eps, sk.dbscan_min_pts))
    clusters = cluster_points(filtered, labels)
    plan = select_push(clusters, seed=seed, push_height=sk.push_height,
                       pre_push_height=sk.pre_push_height)
    result = execute_push(robot, plan)
    artifacts = {"cloud": points, "tags": tags, "filtered": filtered,
                 "labels": labels, "clusters": clusters}
    return plan, result, artifacts
