"""Command-line entry point: benchmarks, trajectory tracking, grid planning,
and skill demos against the in-process simulator.

Exit codes: 0 success, 1 bad input (flags, config, scene, map or pose, or a
missing file), 2 runtime failure (no path, no clusters, IK abort, blocked
motion, aborted skill). `main` maps exceptions to these codes; the commands
raise and do not catch. With a fixed --seed and --label, every subcommand
writes byte-identical report files across runs.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

from .backends import SimBackend, sim_backend_factory
from .benchmark import (default_protocols, run_arm_repeatability, run_base_benchmark,
                        run_tracking_benchmark)
from .config import load_config, load_scene, bundled_config_dir
from .control import CONTROLLERS, DEFAULT_CONTROLLER, TRACKING_CONTROLLERS
from .errors import RobokitError
from .geometry import Pose2D
from .planning import OccupancyGrid, plan_global
from .report import (write_base_report, write_grasp_report, write_plan_report,
                     write_push_report, write_repeatability_report, write_tracking_report)
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
        raise ValueError(f"pose must be X,Y,THETA, got {text!r}")
    try:
        values = [float(s) for s in parts]
    except ValueError:
        raise ValueError(f"pose must be numeric X,Y,THETA, got {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"pose must be finite, got {text!r}")
    return Pose2D(*values)


def _add_common(p: argparse.ArgumentParser, run):
    """The flags every subcommand takes, and `run`, the function that executes it."""
    p.set_defaults(run=run)
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
    _add_common(bb, cmd_bench_base)
    bb.add_argument("--controller", default="all",
                    choices=[_CLI_NAMES.get(c, c) for c in CONTROLLERS] + ["all"],
                    help="controller to benchmark (default: all)")
    bb.add_argument("--trials", type=int, default=5,
                    help="trials per target, count (default: 5)")
    bb.add_argument("--zero-noise", action="store_true",
                    help="disable all simulator noise")

    ba = bsub.add_parser("arm", help="arm pose repeatability")
    _add_common(ba, cmd_bench_arm)
    ba.add_argument("--reps", type=int, default=None,
                    help="repetitions per pose, count (default: config value)")

    tr = sub.add_parser("track", help="trajectory tracking")
    _add_common(tr, cmd_track)
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
    _add_common(pl, cmd_plan)
    pl.add_argument("--map", required=True, help="grid map file (see docs/formats.md)")
    pl.add_argument("--start", required=True, help="start pose X,Y,THETA (m, m, rad)")
    pl.add_argument("--goal", required=True, help="goal pose X,Y,THETA (m, m, rad)")
    pl.add_argument("--inflation", type=float, default=0.0,
                    help="obstacle inflation radius, m (default: 0)")

    demo = sub.add_parser("demo", help="skill demos")
    dsub = demo.add_subparsers(dest="demo_target", required=True, parser_class=_Parser)

    dp = dsub.add_parser("push", help="point-cloud pushing pipeline on a synthetic scene")
    _add_common(dp, cmd_demo_push)
    dp.add_argument("--scene", default=None,
                    help="scene YAML (default: bundled one-cube scene)")

    dg = dsub.add_parser("grasp", help="image-grasp back-projection and execution")
    _add_common(dg, cmd_demo_grasp)
    dg.add_argument("--u", type=float, default=320.0, help="grasp pixel column, px")
    dg.add_argument("--v", type=float, default=430.0, help="grasp pixel row, px")
    dg.add_argument("--angle", type=float, default=0.0,
                    help="grasp angle in the image plane, rad")
    dg.add_argument("--depth", type=float, default=0.639,
                    help="depth along the optical axis, m")
    dg.add_argument("--tilt", type=float, default=0.8, help="camera tilt, rad")
    return parser


def cmd_bench_base(args) -> int:
    cfg = load_config(args.robot)
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
    cfg = load_config(args.robot)
    backend = SimBackend(cfg, seed=args.seed)
    result = run_arm_repeatability(cfg, backend, reps=args.reps, master_seed=args.seed)
    out = _out_dir(args, "bench-arm")
    write_repeatability_report(result, out)
    print((out / "summary.txt").read_text())
    print(f"report files in {out}")
    return 0


def cmd_track(args) -> int:
    cfg = load_config(args.robot)
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
    grid = OccupancyGrid.load(args.map)
    waypoints = plan_global(grid, _parse_pose(args.start), _parse_pose(args.goal),
                            inflation=args.inflation)
    out = _out_dir(args, "plan")
    write_plan_report(grid, waypoints, out)
    print(f"waypoints ({len(waypoints)}):")
    for x, y in waypoints:
        print(f"  {x:.3f}, {y:.3f}")
    print(f"report files in {out}")
    return 0


def cmd_demo_push(args) -> int:
    cfg = load_config(args.robot)
    scene = load_scene(args.scene or (bundled_config_dir() / "push_scene.yaml"))
    robot = make_robot(cfg, SimBackend(cfg, seed=args.seed, scene=scene))
    plan, result, artifacts = push_pipeline(robot, seed=args.seed)
    out = _out_dir(args, "demo-push")
    write_push_report(plan, result, artifacts["filtered"], out)
    status = "completed" if result.reached else f"aborted: {result.detail}"
    print(f"push {status}; plan: push {np.round(plan.push_pt, 4).tolist()} -> "
          f"center {np.round(plan.obj_center, 4).tolist()}")
    print(f"report files in {out}")
    if not result.reached:   # the report files are written either way
        sys.stderr.write(f"error: push aborted: {result.detail}\n")
    return 0 if result.reached else 2


def cmd_demo_grasp(args) -> int:
    cfg = load_config(args.robot)
    robot = make_robot(cfg, SimBackend(cfg, seed=args.seed))
    robot.camera.set_pan_tilt(0.0, args.tilt)
    grasp = ImageGrasp(u=args.u, v=args.v, angle=args.angle, depth=args.depth)
    position, roll = backproject_grasp(grasp, cfg.camera.intrinsics, robot.camera.pose())
    result = execute_grasp(robot, position, roll)
    out = _out_dir(args, "demo-grasp")
    write_grasp_report(grasp, position, roll, result, out)
    print(f"grasp position {np.round(position, 4).tolist()} roll {roll:.3f} rad; "
          f"{'completed' if result.reached else 'aborted: ' + result.detail}")
    print(f"report files in {out}")
    if not result.reached:   # the report files are written either way
        sys.stderr.write(f"error: grasp aborted: {result.detail}\n")
    return 0 if result.reached else 2


def main(argv=None) -> int:
    """Run one subcommand; the one place where an exception becomes an exit code.

    ValueError (ConfigError included) and OSError (a missing or unreadable
    file, a directory given as a file, ...) exit 1; any other RobokitError
    exits 2, with its type named ("NoPath", "NoClusters", ...).
    """
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:   # argparse: --help exits 0, usage errors exit 1 (_Parser)
        return exc.code if isinstance(exc.code, int) else 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except RobokitError as exc:
        sys.stderr.write(f"error: {type(exc).__name__.removesuffix('Error')}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
