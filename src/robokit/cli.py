"""Command-line entry point: benchmarks, trajectory tracking, grid planning,
and skill demos against the in-process simulator.

Exit codes: 0 success, 1 validation error (bad flags/config), 2 runtime
failure (no path, IK abort, blocked motion). With a fixed --seed and --label,
every subcommand writes byte-identical report files across runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .backends import SimBackend, sim_backend_factory
from .benchmark import (default_protocols, run_arm_repeatability, run_base_benchmark,
                        run_tracking_benchmark)
from .config import load_config, load_scene, bundled_config_dir
from .control import CONTROLLERS, DEFAULT_CONTROLLER, TRACKING_CONTROLLERS
from .errors import ConfigError, NoClustersError, NoPathError, RobokitError
from .geometry import Pose2D
from .planning import OccupancyGrid, plan_global
from .report import (SvgCanvas, write_base_report, write_repeatability_report,
                     write_tracking_report, _write_csv)
from .robot import make_robot
from .skills import ImageGrasp, backproject_grasp, execute_grasp, push_pipeline

DEFAULT_SEED = 7
CONTROLLER_ALIASES = {"prop": "proportional"}   # CLI spelling -> registered name
_CLI_NAMES = {name: alias for alias, name in CONTROLLER_ALIASES.items()}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the CLI contract wants 1 for validation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _out_dir(args, subcommand: str) -> Path:
    label = args.label or time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    out = Path(args.out) / subcommand / label
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse_pose(text: str) -> Pose2D:
    parts = text.split(",")
    if len(parts) != 3:
        raise SystemExit1(f"pose must be X,Y,THETA, got {text!r}")
    try:
        return Pose2D(float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError:
        raise SystemExit1(f"pose must be numeric X,Y,THETA, got {text!r}") from None


class SystemExit1(SystemExit):
    def __init__(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        super().__init__(1)


class SystemExit2(SystemExit):
    def __init__(self, message: str):
        sys.stderr.write(f"error: {message}\n")
        super().__init__(2)


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--robot", default="locobot",
                   help="robot config: bundled name or YAML path (default: locobot)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"master seed, dimensionless (default: {DEFAULT_SEED})")
    p.add_argument("--out", default="robokit_out",
                   help="output directory root (default: ./robokit_out)")
    p.add_argument("--label", default=None,
                   help="run label for the output path (default: UTC timestamp)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="robokit",
                     description="Robot-control benchmarks and skill demos "
                                 "(deterministic, simulator-backed).")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    bench = sub.add_parser("bench", help="accuracy benchmarks")
    bsub = bench.add_subparsers(dest="bench_target", required=True, parser_class=_Parser)

    bb = bsub.add_parser("base", help="base position-control accuracy trials")
    _add_common(bb)
    bb.add_argument("--controller", default="all",
                    choices=[_CLI_NAMES.get(c, c) for c in CONTROLLERS] + ["all"],
                    help="controller to benchmark (default: all)")
    bb.add_argument("--trials", type=int, default=5,
                    help="trials per target, count (default: 5)")
    bb.add_argument("--zero-noise", action="store_true",
                    help="disable all simulator noise")

    ba = bsub.add_parser("arm", help="arm pose repeatability")
    _add_common(ba)
    ba.add_argument("--reps", type=int, default=None,
                    help="repetitions per pose, count (default: config value)")

    tr = sub.add_parser("track", help="trajectory tracking")
    _add_common(tr)
    tr.add_argument("--shape", default="circle", choices=["circle"],
                    help="reference shape (default: circle)")
    tr.add_argument("--radius", type=float, default=0.4,
                    help="circle radius, m (default: 0.4)")
    tr.add_argument("--controller", default=DEFAULT_CONTROLLER,
                    choices=[_CLI_NAMES.get(c, c) for c in TRACKING_CONTROLLERS],
                    help=f"tracking controller (default: {DEFAULT_CONTROLLER})")
    tr.add_argument("--zero-noise", action="store_true",
                    help="disable all simulator noise")

    pl = sub.add_parser("plan", help="occupancy-grid global planning")
    _add_common(pl)
    pl.add_argument("--map", required=True, help="grid map file (see docs/formats.md)")
    pl.add_argument("--start", required=True, help="start pose X,Y,THETA (m, m, rad)")
    pl.add_argument("--goal", required=True, help="goal pose X,Y,THETA (m, m, rad)")
    pl.add_argument("--inflation", type=float, default=0.0,
                    help="obstacle inflation radius, m (default: 0)")

    demo = sub.add_parser("demo", help="skill demos")
    dsub = demo.add_subparsers(dest="demo_target", required=True, parser_class=_Parser)

    dp = dsub.add_parser("push", help="point-cloud pushing pipeline on a synthetic scene")
    _add_common(dp)
    dp.add_argument("--scene", default=None,
                    help="scene YAML (default: bundled one-cube scene)")

    dg = dsub.add_parser("grasp", help="image-grasp back-projection and execution")
    _add_common(dg)
    dg.add_argument("--u", type=float, default=320.0, help="grasp pixel column, px")
    dg.add_argument("--v", type=float, default=430.0, help="grasp pixel row, px")
    dg.add_argument("--angle", type=float, default=0.0,
                    help="grasp angle in the image plane, rad")
    dg.add_argument("--depth", type=float, default=0.639,
                    help="depth along the optical axis, m")
    dg.add_argument("--tilt", type=float, default=0.8, help="camera tilt, rad")
    return parser


def _load_config_checked(args):
    try:
        return load_config(args.robot)
    except FileNotFoundError as exc:
        raise SystemExit1(str(exc)) from None
    except ConfigError as exc:
        raise SystemExit1(str(exc)) from None


def cmd_bench_base(args) -> int:
    cfg = _load_config_checked(args)
    controllers = (tuple(CONTROLLERS) if args.controller == "all"
                   else (CONTROLLER_ALIASES.get(args.controller, args.controller),))
    factory = sim_backend_factory(cfg, zero_noise=args.zero_noise)
    report = run_base_benchmark(cfg, factory, controllers,
                                default_protocols(args.trials), master_seed=args.seed)
    out = _out_dir(args, "bench-base")
    write_base_report(report, out)
    print((out / "summary.txt").read_text())
    print(f"report files in {out}")
    return 0


def cmd_bench_arm(args) -> int:
    cfg = _load_config_checked(args)
    backend = SimBackend(cfg, seed=args.seed)
    result = run_arm_repeatability(cfg, backend, reps=args.reps, master_seed=args.seed)
    out = _out_dir(args, "bench-arm")
    write_repeatability_report(result, out)
    print((out / "summary.txt").read_text())
    print(f"report files in {out}")
    return 0


def cmd_track(args) -> int:
    cfg = _load_config_checked(args)
    if args.radius <= 0:
        raise SystemExit1("--radius must be positive")
    backend = SimBackend(cfg, seed=args.seed, zero_noise=args.zero_noise)
    report = run_tracking_benchmark(cfg, backend, shape=args.shape, radius=args.radius,
                                    controller=CONTROLLER_ALIASES.get(args.controller,
                                                                      args.controller),
                                    master_seed=args.seed)
    out = _out_dir(args, "track")
    write_tracking_report(report, out)
    print((out / "summary.txt").read_text())
    print(f"report files in {out}")
    return 0


def cmd_plan(args) -> int:
    try:
        grid = OccupancyGrid.load(args.map)
    except FileNotFoundError:
        raise SystemExit1(f"map file not found: {args.map}") from None
    except ValueError as exc:
        raise SystemExit1(f"bad map file: {exc}") from None
    start = _parse_pose(args.start)
    goal = _parse_pose(args.goal)
    try:
        waypoints = plan_global(grid, start, goal, inflation=args.inflation)
    except ValueError as exc:
        raise SystemExit1(str(exc)) from None
    except NoPathError as exc:
        raise SystemExit2(f"NoPath: {exc}") from None
    out = _out_dir(args, "plan")
    _write_csv(out / "waypoints.csv", "plan-waypoints", ["index", "x_m", "y_m"],
               [[i, float(x), float(y)] for i, (x, y) in enumerate(waypoints)])
    _plan_svg(grid, waypoints, out / "plan.svg")
    print(f"waypoints ({len(waypoints)}):")
    for x, y in waypoints:
        print(f"  {x:.3f}, {y:.3f}")
    print(f"report files in {out}")
    return 0


def _plan_svg(grid: OccupancyGrid, waypoints, path: Path) -> None:
    x1 = grid.origin.x + grid.width * grid.resolution
    y1 = grid.origin.y + grid.height * grid.resolution
    canvas = SvgCanvas((grid.origin.x, x1), (grid.origin.y, y1))
    for ix in range(grid.width):
        for iy in range(grid.height):
            if grid.cells[ix, iy] != 0:
                cx0 = grid.origin.x + ix * grid.resolution
                cy0 = grid.origin.y + iy * grid.resolution
                color = "#444" if grid.cells[ix, iy] == 1 else "#bbb"
                canvas.rect_world(cx0, cy0, cx0 + grid.resolution, cy0 + grid.resolution, color)
    canvas.polyline(list(waypoints), "red", 2.0)
    canvas.save(path)


def cmd_demo_push(args) -> int:
    cfg = _load_config_checked(args)
    scene_path = args.scene or (bundled_config_dir() / "push_scene.yaml")
    try:
        scene = load_scene(scene_path)
    except FileNotFoundError:
        raise SystemExit1(f"scene file not found: {scene_path}") from None
    except ConfigError as exc:
        raise SystemExit1(str(exc)) from None
    backend = SimBackend(cfg, seed=args.seed, scene=scene)
    robot = make_robot(cfg, backend)
    try:
        plan, result, artifacts = push_pipeline(robot, seed=args.seed)
    except NoClustersError as exc:
        raise SystemExit2(f"NoClusters: {exc}") from None
    out = _out_dir(args, "demo-push")
    _write_csv(out / "push_plan.csv", "push-plan",
               ["point", "x_m", "y_m", "z_m"],
               [["pre_push", *map(float, plan.pre_push_pt)],
                ["push", *map(float, plan.push_pt)],
                ["obj_center", *map(float, plan.obj_center)]])
    _write_csv(out / "phases.csv", "push-phases", ["phase", "ok"],
               [[name, int(ok)] for name, ok in result.phases])
    from .sim import save_xyz
    save_xyz(out / "cloud.xyz", artifacts["filtered"])
    _push_svg(artifacts, plan, out / "push.svg")
    status = "completed" if result.reached else f"aborted: {result.detail}"
    print(f"push {status}; plan: push {np.round(plan.push_pt, 4).tolist()} -> "
          f"center {np.round(plan.obj_center, 4).tolist()}")
    print(f"report files in {out}")
    if not result.reached:
        raise SystemExit2(f"push aborted: {result.detail}")
    return 0


def _push_svg(artifacts, plan, path: Path) -> None:
    filtered = artifacts["filtered"]
    if len(filtered) == 0:
        return
    xr = (float(filtered[:, 0].min()) - 0.05, float(filtered[:, 0].max()) + 0.05)
    yr = (float(filtered[:, 1].min()) - 0.05, float(filtered[:, 1].max()) + 0.05)
    canvas = SvgCanvas(xr, yr)
    for p in filtered:
        canvas.circle(p[0], p[1], 1.0, "#999")
    sweep_end = plan.push_pt + 2.0 * (plan.obj_center - plan.push_pt)
    canvas.polyline([(plan.push_pt[0], plan.push_pt[1]), (sweep_end[0], sweep_end[1])],
                    "red", 2.0)
    canvas.circle(plan.obj_center[0], plan.obj_center[1], 4.0, "blue")
    canvas.text(10, 16, "cluster points: grey, sweep: red, centroid: blue")
    canvas.save(path)


def cmd_demo_grasp(args) -> int:
    cfg = _load_config_checked(args)
    backend = SimBackend(cfg, seed=args.seed)
    robot = make_robot(cfg, backend)
    robot.camera.set_pan_tilt(0.0, args.tilt)
    grasp = ImageGrasp(u=args.u, v=args.v, angle=args.angle, depth=args.depth)
    try:
        position, roll = backproject_grasp(grasp, cfg.camera.intrinsics, robot.camera.pose())
    except ValueError as exc:
        raise SystemExit1(str(exc)) from None
    result = execute_grasp(robot, position, roll)
    out = _out_dir(args, "demo-grasp")
    _write_csv(out / "grasp.csv", "grasp",
               ["u_px", "v_px", "angle_rad", "depth_m", "x_m", "y_m", "z_m", "roll_rad",
                "reached"],
               [[float(args.u), float(args.v), float(args.angle), float(args.depth),
                 float(position[0]), float(position[1]), float(position[2]), float(roll),
                 int(result.reached)]])
    _write_csv(out / "phases.csv", "grasp-phases", ["phase", "ok"],
               [[name, int(ok)] for name, ok in result.phases])
    print(f"grasp position {np.round(position, 4).tolist()} roll {roll:.3f} rad; "
          f"{'completed' if result.reached else 'aborted: ' + result.detail}")
    print(f"report files in {out}")
    if not result.reached:
        raise SystemExit2(f"grasp aborted: {result.detail}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "bench":
            return cmd_bench_base(args) if args.bench_target == "base" else cmd_bench_arm(args)
        if args.command == "track":
            return cmd_track(args)
        if args.command == "plan":
            return cmd_plan(args)
        if args.command == "demo":
            return cmd_demo_push(args) if args.demo_target == "push" else cmd_demo_grasp(args)
        raise SystemExit1(f"unknown command {args.command!r}")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except RobokitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
