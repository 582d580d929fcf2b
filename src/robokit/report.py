"""Report emission: versioned CSV files, hand-rolled SVG plots, XYZ point
clouds, and plain-text summary tables with "mean ± std" cells. Every report
file the toolkit writes comes from a `write_*_report` function here, and
each returns the paths it wrote.

Floats are written with repr (shortest round-trip form), so re-parsing a CSV
reproduces the aggregates bit-for-bit, and the output bytes are a pure
function of the report contents (no timestamps, no library version strings).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .benchmark import (BenchReport, RepeatabilityResult, TrackingReport)

CSV_SCHEMA_VERSION = 1


def format_cell(mean: float, std: float, unit: str) -> str:
    """Table-style cell: millimeters rounded to integers, degrees to 2 decimals."""
    if unit == "mm":
        return f"{mean:.0f} ± {std:.0f}"
    return f"{mean:.2f} ± {std:.2f}"


def _write_csv(path: Path, name: str, header: list[str], rows: list[list]) -> Path:
    lines = [f"# robokit-csv {name} v{CSV_SCHEMA_VERSION}", ",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float) else str(v)
                              for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def read_csv(path) -> tuple[str, list[str], list[list[str]]]:
    """Parse a robokit CSV back into (schema line, header, string rows)."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# robokit-csv"):
        raise ValueError(f"{path}: missing robokit-csv schema line")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:] if line]
    return lines[0], header, rows


# --- SVG ---------------------------------------------------------------------


class SvgCanvas:
    """Minimal deterministic SVG writer with a true-aspect world-to-pixel mapping."""

    SIZE = 480     # px, square
    MARGIN = 30    # px

    def __init__(self, x_range, y_range):
        span = max(x_range[1] - x_range[0], y_range[1] - y_range[0], 1e-9)
        self.scale = (self.SIZE - 2 * self.MARGIN) / span
        self.x0 = 0.5 * (x_range[0] + x_range[1]) - 0.5 * span
        self.y1 = 0.5 * (y_range[0] + y_range[1]) + 0.5 * span
        self.elements: list[str] = []

    def to_px(self, x: float, y: float) -> tuple[float, float]:
        return (self.MARGIN + (x - self.x0) * self.scale,
                self.MARGIN + (self.y1 - y) * self.scale)

    def polyline(self, points, color: str, width: float) -> None:
        if len(points) == 0:
            return
        px = " ".join(f"{u:.2f},{v:.2f}" for u, v in (self.to_px(x, y) for x, y in points))
        self.elements.append(
            f'<polyline points="{px}" fill="none" stroke="{color}" stroke-width="{width}"/>')

    def circle(self, x: float, y: float, r_px: float, color: str) -> None:
        u, v = self.to_px(x, y)
        self.elements.append(
            f'<circle cx="{u:.2f}" cy="{v:.2f}" r="{r_px:.2f}" stroke="{color}" fill="none"/>')

    def rect_world(self, x0, y0, x1, y1, color: str) -> None:
        u0, v1 = self.to_px(x0, y0)
        u1, v0 = self.to_px(x1, y1)
        self.elements.append(
            f'<rect x="{u0:.2f}" y="{v0:.2f}" width="{u1 - u0:.2f}" height="{v1 - v0:.2f}" '
            f'stroke="none" fill="{color}"/>')

    def caption(self, s: str) -> None:
        """One line of text in the top-left corner."""
        self.elements.append(f'<text x="10.0" y="16.0" font-family="monospace" '
                             f'font-size="12" fill="#333">{s}</text>')

    def save(self, path: Path) -> Path:
        body = "\n".join(self.elements)
        path.write_text(f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.SIZE}" '
                        f'height="{self.SIZE}" viewBox="0 0 {self.SIZE} {self.SIZE}">\n'
                        f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n')
        return path


def path_svg(reference_xy, actual_xy, path: Path) -> Path:
    """Reference in red, actual in black, equal aspect."""
    pts = np.vstack([p for p in (reference_xy, actual_xy) if len(p)])
    xr = (float(pts[:, 0].min()), float(pts[:, 0].max()))
    yr = (float(pts[:, 1].min()), float(pts[:, 1].max()))
    canvas = SvgCanvas(xr, yr)
    canvas.polyline(reference_xy, "red", 1.5)
    canvas.polyline(actual_xy, "black", 1.2)
    canvas.caption("reference: red   actual: black")
    return canvas.save(path)


# --- XYZ point clouds -----------------------------------------------------------


def write_xyz(path: Path, points: np.ndarray, tags: np.ndarray | None = None) -> Path:
    """Plain-text XYZ rows, one point per line, optional integer tag column."""
    with open(path, "w") as f:
        for i, p in enumerate(points):
            row = f"{float(p[0])!r} {float(p[1])!r} {float(p[2])!r}"
            if tags is not None:
                row += f" {int(tags[i])}"
            f.write(row + "\n")
    return path


def read_xyz(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Parse an XYZ file back into (points, tags or None)."""
    pts, tags = [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if not parts:
                continue
            pts.append([float(parts[0]), float(parts[1]), float(parts[2])])
            if len(parts) > 3:
                tags.append(int(parts[3]))
    points = np.array(pts).reshape(-1, 3)
    return points, (np.array(tags, dtype=np.int8) if tags else None)


# --- report writers -------------------------------------------------------------


def write_base_report(report: BenchReport, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trials_csv = _write_csv(out / "trials.csv", "base-trials",
                            ["controller", "motion_class", "target_x", "target_y", "target_theta",
                             "trial", "seed", "reached", "elapsed_s",
                             "err_trans_true_mm", "err_rot_true_deg",
                             "err_trans_odom_mm", "err_rot_odom_deg"],
                            [[t.controller, t.motion_class, t.target.x, t.target.y, t.target.theta,
                              t.trial, t.seed, int(t.reached), t.elapsed,
                              t.err_trans_true_mm, t.err_rot_true_deg,
                              t.err_trans_odom_mm, t.err_rot_odom_deg] for t in report.trials])
    agg_csv = _write_csv(out / "aggregates.csv", "base-aggregates",
                         ["controller", "motion_class", "reference", "metric", "unit",
                          "mean", "std", "n", "failures"],
                         [[r.controller, r.motion_class, r.reference, r.metric, r.unit,
                           r.mean, r.std, r.n, r.failures] for r in report.aggregates()])
    return [trials_csv, agg_csv, _write_base_summary(report, out / "summary.txt")]


def _write_base_summary(report: BenchReport, path: Path) -> Path:
    rows = report.aggregates()
    lines = [f"base position control accuracy — robot {report.robot}, "
             f"master seed {report.master_seed}", ""]
    width = max((len(c) for c in report.controllers), default=8) + 2
    for reference in ("truth", "odometry"):
        lines.append(f"[error vs {'motion capture' if reference == 'truth' else 'odometry'}]")
        header = f"{'':24s}" + "".join(f"{c:>{width + 10}s}" for c in report.controllers)
        lines.append(header)
        for mclass in ("linear", "rotation", "combined"):
            for metric, unit in (("translation", "mm"), ("rotation", "deg")):
                cells = []
                for controller in report.controllers:
                    sel = [r for r in rows if r.controller == controller
                           and r.motion_class == mclass and r.reference == reference
                           and r.metric == metric]
                    cells.append(format_cell(sel[0].mean, sel[0].std, unit) if sel else "-")
                label = f"{mclass} {metric} ({unit})"
                lines.append(f"{label:24s}" + "".join(f"{c:>{width + 10}s}" for c in cells))
        lines.append("")
    path.write_text("\n".join(lines) + "\n")
    return path


def write_repeatability_report(result: RepeatabilityResult, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv = _write_csv(out / "repeatability.csv", "arm-repeatability",
                     ["pose", "target_x", "target_y", "target_z",
                      "std_x_mm", "std_y_mm", "std_z_mm", "rp_mm", "reps", "skipped"],
                     [[p.name, float(p.target[0]), float(p.target[1]), float(p.target[2]),
                       p.axis_std_mm[0], p.axis_std_mm[1], p.axis_std_mm[2],
                       p.rp_mm, result.reps, int(p.skipped)] for p in result.poses])
    summary = out / "summary.txt"
    lines = [f"arm pose repeatability — robot {result.robot}, master seed "
             f"{result.master_seed}, {result.reps} repetitions per pose", ""]
    lines.append(f"{'':16s}" + "".join(f"{p.name:>10s}" for p in result.poses))
    for axis, idx in (("x", 0), ("y", 1), ("z", 2)):
        cells = "".join(f"{p.axis_std_mm[idx]:>10.2f}" for p in result.poses)
        lines.append(f"std {axis} (mm)    " + cells)
    lines.append(f"{'RP (mm)':16s}" + "".join(f"{p.rp_mm:>10.2f}" for p in result.poses))
    if result.skipped:
        lines.append(f"skipped poses: {', '.join(result.skipped)}")
    summary.write_text("\n".join(lines) + "\n")
    return [csv, summary]


def write_tracking_report(report: TrackingReport, out_dir) -> list[Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv = _write_csv(out / "tracking.csv", "tracking",
                     ["step", "ref_x", "ref_y", "ref_theta", "odom_x", "odom_y", "odom_theta",
                      "true_x", "true_y", "true_theta", "cmd_v", "cmd_omega"],
                     [[i, e.reference.x, e.reference.y, e.reference.theta,
                       e.odom.x, e.odom.y, e.odom.theta,
                       e.true.x, e.true.y, e.true.theta,
                       e.command.v, e.command.omega] for i, e in enumerate(report.log)])
    ref_xy = report.reference.states[:, :2]
    act_xy = np.array([[e.true.x, e.true.y] for e in report.log]).reshape(-1, 2)
    svg = path_svg(ref_xy, act_xy, out / "tracking.svg")
    summary = out / "summary.txt"
    summary.write_text(
        f"trajectory tracking — robot {report.robot}, controller {report.controller}, "
        f"master seed {report.master_seed}\n"
        f"RMS cross-track error: {report.rms_mm!r} mm\n"
        f"max cross-track error: {report.max_mm!r} mm\n"
        f"steps: {len(report.log)}\n")
    return [csv, svg, summary]


def write_plan_report(grid, waypoints, out_dir) -> list[Path]:
    """Waypoints of a global plan, and the plan drawn over the grid's blocked cells."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv = _write_csv(out / "waypoints.csv", "plan-waypoints", ["index", "x_m", "y_m"],
                     [[i, float(x), float(y)] for i, (x, y) in enumerate(waypoints)])
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
    return [csv, canvas.save(out / "plan.svg")]


def _write_phases(out: Path, skill: str, result) -> Path:
    return _write_csv(out / "phases.csv", f"{skill}-phases", ["phase", "ok"],
                      [[name, int(ok)] for name, ok in result.phases])


def write_push_report(plan, result, cloud: np.ndarray, out_dir) -> list[Path]:
    """Push plan, phase outcomes and the filtered cloud; the sweep plot when the
    cloud has points."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv = _write_csv(out / "push_plan.csv", "push-plan", ["point", "x_m", "y_m", "z_m"],
                     [["pre_push", *map(float, plan.pre_push_pt)],
                      ["push", *map(float, plan.push_pt)],
                      ["obj_center", *map(float, plan.obj_center)]])
    files = [csv, _write_phases(out, "push", result), write_xyz(out / "cloud.xyz", cloud)]
    if len(cloud):
        xr = (float(cloud[:, 0].min()) - 0.05, float(cloud[:, 0].max()) + 0.05)
        yr = (float(cloud[:, 1].min()) - 0.05, float(cloud[:, 1].max()) + 0.05)
        canvas = SvgCanvas(xr, yr)
        for p in cloud:
            canvas.circle(p[0], p[1], 1.0, "#999")
        sweep_end = plan.push_pt + 2.0 * (plan.obj_center - plan.push_pt)
        canvas.polyline([(plan.push_pt[0], plan.push_pt[1]), (sweep_end[0], sweep_end[1])],
                        "red", 2.0)
        canvas.circle(plan.obj_center[0], plan.obj_center[1], 4.0, "blue")
        canvas.caption("cluster points: grey, sweep: red, centroid: blue")
        files.append(canvas.save(out / "push.svg"))
    return files


def write_grasp_report(grasp, position, roll: float, result, out_dir) -> list[Path]:
    """The image grasp, its back-projected position and roll, and phase outcomes."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv = _write_csv(out / "grasp.csv", "grasp",
                     ["u_px", "v_px", "angle_rad", "depth_m", "x_m", "y_m", "z_m", "roll_rad",
                      "reached"],
                     [[float(grasp.u), float(grasp.v), float(grasp.angle), float(grasp.depth),
                       float(position[0]), float(position[1]), float(position[2]),
                       float(roll), int(result.reached)]])
    return [csv, _write_phases(out, "grasp", result)]
