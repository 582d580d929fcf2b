"""tabletop: manipulation on locobot, on seeded scenes of boxes and cylinders.

Inputs from --seed: fifteen scene files holding 1, 2, 3, 4 and 5 objects
three times over, each object inside the arm's closed-form top-down reach and the camera's view, at
least 4 cm from its neighbours so each forms its own DBSCAN cluster; a seeded
image-plane angle per object; seeds for the push choice and the simulators.
Set-up parses the robot config and the scene files. Every round runs, on
fresh simulators:

* PUSHES_PER_SCENE push-pipeline episodes per scene (render, filter, DBSCAN,
  push choice, cold pitch/roll IK, warm-started Cartesian waypoint IK), arm
  noise off;
* one pre-grasp episode per object: the image-space grasp at the object's top
  centre is back-projected and the gripper hovers above it pointing down at
  the grasp's roll (a cold pitch/roll IK solve), arm noise off;
* the known roll-loss fault: two full top-down grasps (hover, descend, close)
  on the bundled push scene, fixed inputs not from --seed; the descent drops
  the commanded roll, so both fail every time;
* the arm repeatability protocol with the configured arm noise, and its report.

One operation is one episode, one fixed grasp or one repeatability protocol.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
import yaml

from robokit import backends as rk_backends
from robokit import benchmark as rk_bench
from robokit import config as rk_config
from robokit import report as rk_report
from robokit import robot as rk_robot
from robokit import skills as rk_skills

import oracles

SCENE_SIZES = (1, 2, 3, 4, 5) * 3
PUSHES_PER_SCENE = 2
BEARINGS = (-0.75, 0.75)         # rad, sector the objects are spread over
RADII = (0.32, 0.345)            # m, object centre distance from the base axis
GAP = 0.04                       # m between object footprints (> DBSCAN eps)
PUSH_REACH_MARGIN = 0.15         # rad every push waypoint keeps from the joint limits
REACH_SLACK = 0.02               # m of reach every push waypoint keeps in reserve
# fixed inputs of the kept roll-loss fault: full top-down grasps at the top of
# the bundled push scene's cube, (top centre, image-plane angle)
FAULT_GRASPS = (((0.36, 0.05, 0.05), 0.6), ((0.36, 0.05, 0.05), -1.2))


def _object(rng, max_half: float) -> dict:
    """A box or cylinder whose footprint fits a circle of radius max_half."""
    if rng.uniform() < 0.5:
        sx, sy = rng.uniform(0.5, 1.0, 2) * math.sqrt(2.0) * max_half
        return {"shape": "box", "size": [float(sx), float(sy), float(rng.uniform(0.05, 0.1))],
                "yaw": float(rng.uniform(-math.pi, math.pi)),
                "half": math.hypot(sx, sy) / 2.0}
    radius = float(rng.uniform(0.5, 1.0) * max_half)
    return {"shape": "cylinder", "radius": radius, "height": float(rng.uniform(0.05, 0.1)),
            "half": radius}


def _scene(rng, n: int, arm: dict, camera: dict) -> list[dict]:
    """n objects, one per bearing sector; every corner of each footprint is in
    top-down reach at the push and pre-push heights and its top is in view."""
    width = (BEARINGS[1] - BEARINGS[0]) / n
    # centres sit within 10% of their sector's middle, so neighbours are 0.8 sector apart
    max_half = min(0.035, 0.5 * (0.8 * width * RADII[0] - GAP))
    cam = oracles.camera_pose(camera, *camera.get("default_pan_tilt", (0.0, 0.7)))
    objects = []
    for i in range(n):
        for _ in range(10000):
            obj = _object(rng, max_half)
            h = obj.get("height") or obj["size"][2]
            a = BEARINGS[0] + width * (i + 0.5 + rng.uniform(-0.1, 0.1))
            r = rng.uniform(*RADII)
            x, y = r * math.cos(a), r * math.sin(a)
            corners = [(x + dx, y + dy) for dx in (-obj["half"], obj["half"])
                       for dy in (-obj["half"], obj["half"])]
            uv = oracles.project([(cx, cy, h) for cx, cy in corners], cam, camera["intrinsics"])
            visible = np.all((uv[:, 0] > 5) & (uv[:, 0] < camera["intrinsics"]["width"] - 5)
                             & (uv[:, 1] > 5) & (uv[:, 1] < camera["intrinsics"]["height"] - 5))
            # joint-limit margin, and still reachable REACH_SLACK further out,
            # away from the straight-arm singularity
            reach = all(oracles.top_down_margin(arm, (cx * s, cy * s, z)) > PUSH_REACH_MARGIN
                        for cx, cy in corners for z in (0.13, 0.2)
                        for s in (1.0, 1.0 + REACH_SLACK / math.hypot(cx, cy)))
            apart = all(math.dist((x, y), o["xy"]) > obj["half"] + o["half"] + GAP
                        for o in objects)
            if visible and reach and apart:
                obj["xy"] = (x, y)
                obj["z"] = h / 2.0
                objects.append(obj)
                break
        else:
            raise RuntimeError(f"no placement found for object {i} of {n}")
    return objects


def _scene_yaml(objects) -> str:
    rows = []
    for o in objects:
        xyz = [o["xy"][0], o["xy"][1], o["z"]]
        if o["shape"] == "box":
            rows.append({"shape": "box", "xyz": xyz, "size": o["size"], "yaw": o["yaw"]})
        else:
            rows.append({"shape": "cylinder", "xyz": xyz, "radius": o["radius"],
                         "height": o["height"]})
    return yaml.safe_dump({"floor_radius": 1.5, "objects": rows})


class Workload:
    setups = 15

    def __init__(self, seed: int, root: Path, out: Path):
        rng = np.random.default_rng([seed, 3])
        self.out = out
        configs = root / "src" / "robokit" / "configs"
        self.raw = yaml.safe_load((configs / "locobot.yaml").read_text())
        self.fault_scene = configs / "push_scene.yaml"
        self.scenes = [_scene(rng, n, self.raw["arm"], self.raw["camera"]) for n in SCENE_SIZES]
        out.mkdir(parents=True, exist_ok=True)
        self.scene_files = []
        for i, objects in enumerate(self.scenes):
            path = out / f"scene{i}.yaml"
            path.write_text(_scene_yaml(objects))
            self.scene_files.append(path)
        self.push_seeds = [[int(s) for s in rng.integers(2 ** 31, size=PUSHES_PER_SCENE)]
                           for _ in self.scenes]
        self.sim_seeds = [int(s) for s in rng.integers(2 ** 31, size=len(self.scenes) + 1)]
        self.grasp_angles = [[float(rng.uniform(-math.pi, math.pi)) for _ in objs]
                             for objs in self.scenes]

    def notes(self) -> dict:
        return {"kept_fault": f"top-down grasp roll loss: {len(FAULT_GRASPS)} fixed grasps "
                              "per round"}

    def setup(self, clock):
        config = rk_config.load_config("locobot")
        clock.tick()
        return {"config": config,
                "scenes": [rk_config.load_scene(p) for p in self.scene_files],
                "fault_scene": rk_config.load_scene(self.fault_scene)}

    def run_round(self, state, clock, check: bool = False):
        """One round; with check=True every output is checked as soon as it exists,
        so no round holds more than one episode's point clouds."""
        cfg = state["config"]
        digest = hashlib.sha256()
        errors = []
        ops = 0
        for i, (scene, objs, push_seeds, sim_seed) in enumerate(zip(
                state["scenes"], self.scenes, self.push_seeds, self.sim_seeds)):
            for push_seed in push_seeds:
                robot = rk_robot.make_robot(cfg, rk_backends.SimBackend(
                    cfg, seed=sim_seed, scene=scene, zero_noise=True))
                plan, result, art = rk_skills.push_pipeline(robot, seed=push_seed)
                clock.tick()
                digest.update(art["labels"].tobytes())
                digest.update(np.concatenate([plan.push_pt, plan.obj_center,
                                              result.joints]).tobytes())
                if check:
                    errors += [f"scene {i} push {push_seed}: {e}" for e in self._check_push(
                        plan, result, art, robot.camera.pose(), objs)]
                ops += 1
        for k, (scene, objs, angles) in enumerate(zip(state["scenes"], self.scenes,
                                                      self.grasp_angles)):
            for obj, angle in zip(objs, angles):
                top = np.array([obj["xy"][0], obj["xy"][1], 2.0 * obj["z"]])
                g = self._grasp(cfg, scene, self.sim_seeds[k], top, angle, False)
                clock.tick()
                digest.update(np.concatenate([g["position"], [g["roll"]], g["joints"]]).tobytes())
                if check:
                    errors += [f"scene {k} pre-grasp: {e}" for e in self._check_grasp(g)]
                ops += 1
        for top, angle in FAULT_GRASPS:
            g = self._grasp(cfg, state["fault_scene"], 0, np.array(top), angle, True)
            clock.tick()
            digest.update(np.concatenate([g["position"], [g["roll"]], g["joints"]]).tobytes())
            if check and not self._check_grasp(g):
                errors.append(f"fixed grasp {top} {angle}: the kept roll-loss fault no "
                              "longer shows")
        backend = rk_backends.SimBackend(cfg, seed=self.sim_seeds[-1])
        rep = rk_bench.run_arm_repeatability(cfg, backend, master_seed=self.sim_seeds[-1])
        files = rk_report.write_repeatability_report(rep, self.out / "repeatability")
        clock.tick()
        for f in files:
            digest.update(Path(f).read_bytes())
        if check:
            errors += self._check_repeatability(rep)
        return {"attempted": ops + len(FAULT_GRASPS) + 1, "failed": len(FAULT_GRASPS),
                "digest": digest.hexdigest(), "errors": errors}

    def _grasp(self, cfg, scene, sim_seed, top, angle, full):
        """Image-space grasp at an object's top centre: back-project it, then either
        hover at the pre-grasp height (full=False) or run the whole top-down grasp."""
        robot = rk_robot.make_robot(cfg, rk_backends.SimBackend(cfg, seed=sim_seed, scene=scene,
                                                                zero_noise=True))
        cam = robot.camera.pose()
        u, v, depth = oracles.project(top, _matrix(cam), self.raw["camera"]["intrinsics"])[0]
        grasp = rk_skills.ImageGrasp(u=u, v=v, angle=angle, depth=depth)
        position, roll = rk_skills.backproject_grasp(grasp, robot.camera.intrinsics, cam)
        sk = self.raw.get("skills") or {}
        if full:
            result = rk_skills.execute_grasp(robot, position, roll)
            height = sk.get("grasp_height", 0.13)
            reached = result.reached and robot.gripper.is_closed
        else:
            height = sk.get("pregrasp_height", 0.2)
            result = robot.arm.set_ee_pose_pitch_roll([position[0], position[1], height],
                                                      math.pi / 2, roll)
            reached = result.reached
        return {"top": top, "angle": angle, "position": position, "roll": roll,
                "joints": result.joints, "reached": reached, "detail": result.detail,
                "cam": _matrix(cam), "height": height}

    # --- checks -----------------------------------------------------------------

    def _check_cloud(self, cloud, tags, cam, objs) -> list[str]:
        cam_raw = self.raw["camera"]
        intr = cam_raw["intrinsics"]
        sigma = cam_raw.get("depth_sigma", 0.002)
        uvz = oracles.project(cloud, cam, intr)
        errors = []
        inside = ((uvz[:, 0] >= -1e-6) & (uvz[:, 0] < intr["width"] + 1e-6)
                  & (uvz[:, 1] >= -1e-6) & (uvz[:, 1] < intr["height"] + 1e-6) & (uvz[:, 2] > 0))
        if not inside.all():
            errors.append(f"{int((~inside).sum())} points project outside the image")
        floor = tags == 0
        if np.any(np.abs(cloud[floor, 2]) > 8 * sigma):
            errors.append("floor points off the floor plane")
        near = np.zeros(int((~floor).sum()), dtype=bool)
        pts = cloud[~floor]
        for o in objs:
            top = 2.0 * o["z"]
            near |= ((np.hypot(pts[:, 0] - o["xy"][0], pts[:, 1] - o["xy"][1])
                      <= o["half"] + 8 * sigma) & (pts[:, 2] >= -8 * sigma)
                     & (pts[:, 2] <= top + 8 * sigma))
        if not near.all():
            errors.append(f"{int((~near).sum())} object points lie on no object")
        return errors

    def _check_push(self, plan, result, art, cam_pose, objs) -> list[str]:
        sk = self.raw.get("skills") or {}
        z_floor, max_range = sk.get("z_floor", 0.02), sk.get("max_range", 1.0)
        eps, min_pts = sk.get("dbscan_eps", 0.03), sk.get("dbscan_min_pts", 10)
        cam = _matrix(cam_pose)
        pan_tilt = self.raw["camera"].get("default_pan_tilt", (0.0, 0.7))
        if not np.allclose(cam, oracles.camera_pose(self.raw["camera"], *pan_tilt), atol=1e-12):
            return ["camera pose differs from the mount, pan and tilt in the config"]
        errors = self._check_cloud(art["cloud"], art["tags"], cam, objs)
        cloud = art["cloud"]
        keep = (cloud[:, 2] > z_floor) & (np.hypot(cloud[:, 0], cloud[:, 1]) <= max_range)
        if not np.array_equal(art["filtered"], cloud[keep]):
            errors.append("filtered cloud differs from the z/range filter")
        xy = art["filtered"][:, :2]
        labels = art["labels"]
        errors += oracles.dbscan_violations(xy, eps, min_pts, labels)[:3]
        ids = sorted(set(labels[labels >= 0].tolist()))
        if len(ids) != len(objs):
            errors.append(f"{len(ids)} clusters for {len(objs)} separated objects")
        match = [c for c in ids
                 if np.allclose(plan.obj_center[:2], xy[labels == c].mean(axis=0), atol=1e-12)]
        if len(match) != 1:
            return errors + ["push centre is not the centroid of one cluster"]
        pts = xy[labels == match[0]]
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        p = plan.push_pt[:2]
        on_edge = (np.all((p >= lo - 1e-12) & (p <= hi + 1e-12))
                   and np.min(np.abs(np.concatenate([p - lo, hi - p]))) <= 1e-12)
        if not on_edge:
            errors.append(f"push point {p} not on the cluster's bounding box")
        push_h, pre_h = sk.get("push_height", 0.13), sk.get("pre_push_height", 0.2)
        if (plan.push_pt[2] != push_h or plan.obj_center[2] != push_h
                or plan.pre_push_pt[2] != pre_h
                or not np.array_equal(plan.pre_push_pt[:2], plan.push_pt[:2])):
            errors.append("push heights or pre-push point wrong")
        if not result.reached:
            return errors + [f"push aborted: {result.detail}"]
        sweep = 2.0 * (plan.obj_center - plan.push_pt)
        sweep[2] = 0.0
        if not np.array_equal(result.displacement, sweep):
            errors.append(f"sweep {result.displacement} is not exactly 2*(centre - push) {sweep}")
        end = plan.push_pt + sweep
        T = oracles.chain_fk(self.raw["arm"], result.joints)
        dp, dr = oracles.pose_residual(T, oracles.top_down_target(end, 0.0))
        if dp > 1e-5 or dr > 1e-5:
            errors.append(f"final joints reach {T[:3, 3]}, want {end} "
                          f"({dp:.2e} m, {dr:.2e} rad)")
        # move_ee_xyz waypoints are at most 1 cm apart; each move's path starts
        # with its start point
        path = np.array(result.path)
        down = plan.push_pt - plan.pre_push_pt
        n_down = max(1, math.ceil(np.linalg.norm(down) / 0.01))
        n_sweep = max(1, math.ceil(np.linalg.norm(sweep) / 0.01))
        expect = np.vstack([plan.pre_push_pt + down * (np.arange(n_down + 1) / n_down)[:, None],
                            plan.push_pt + sweep * (np.arange(n_sweep + 1) / n_sweep)[:, None]])
        if path.shape != expect.shape or np.max(np.abs(path - expect)) > 1e-5:
            errors.append("Cartesian waypoints leave the straight descend/sweep lines")
        return errors

    def _check_grasp(self, g) -> list[str]:
        errors = []
        if np.max(np.abs(g["position"] - g["top"])) > 1e-9:
            errors.append(f"back-projected {g['position']}, object top {g['top']}")
        right = g["cam"][:3, 0]
        expect = math.remainder(g["angle"] + math.atan2(right[1], right[0]), 2.0 * math.pi)
        if abs(math.remainder(g["roll"] - expect, 2.0 * math.pi)) > 1e-9:
            errors.append(f"roll {g['roll']}, expected {expect}")
        if not g["reached"]:
            return errors + [f"aborted: {g['detail']}"]
        target = (g["top"][0], g["top"][1], g["height"])
        T = oracles.chain_fk(self.raw["arm"], g["joints"])
        dp, dr = oracles.pose_residual(T, oracles.top_down_target(target, g["roll"]))
        if dp > 1e-5 or dr > 1e-5:
            errors.append(f"joints reach {T[:3, 3]}, want {target} top-down with roll "
                          f"{g['roll']:.4f} ({dp:.2e} m, {dr:.2e} rad off)")
        return errors

    def _check_repeatability(self, rep) -> list[str]:
        errors = []
        poses = (self.raw.get("benchmark") or {}).get("repeatability_poses")
        for p in rep.poses:
            if p.skipped:
                errors.append(f"repeatability {p.name} skipped")
                continue
            rp = oracles.iso9283_rp(p.attained_mm)
            std = np.std(np.asarray(p.attained_mm), axis=0, ddof=1)
            if abs(rp - p.rp_mm) > 1e-9 * max(1.0, rp) or not np.allclose(std, p.axis_std_mm,
                                                                          rtol=1e-9):
                errors.append(f"repeatability {p.name}: RP {p.rp_mm}, recomputed {rp}")
            if p.name != "home":
                target = np.asarray(poses[int(p.name[4:]) - 1]) * 1000.0
                if np.linalg.norm(np.mean(p.attained_mm, axis=0) - target) > 2.0:
                    errors.append(f"repeatability {p.name}: attained mean far from {target} mm")
        return errors


def _matrix(se3) -> np.ndarray:
    """4x4 matrix of a robokit SE3 from its quaternion, without robokit's converters."""
    w, x, y, z = (float(c) for c in se3.rotation)
    R = np.array([[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                  [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                  [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]])
    return oracles.homogeneous(R, se3.translation)
