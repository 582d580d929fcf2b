"""Span tracing of robokit's public functions from outside the package.

`Tracer.install()` rebinds each traced function in every robokit module that
imported it (and each traced method on its class) to a wrapper that records a
span: name, start, end, self time, parent and the round it ran in. Spans stay
in memory as flat arrays and are written out once at the end; `uninstall()`
puts every original object back. Nothing under src/ is modified.

A span's self time is its duration minus the durations of its traced
children. A few very hot, cheap functions are counted without a span.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
import tracemalloc
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# (span name, module, attribute path, kind): kind is "fn" (module-level
# function, rebound wherever imported), "method", "static" or "count" (a
# module-level function only counted).
TARGETS = [
    ("config.load_config", "robokit.config", "load_config", "fn"),
    ("config.load_scene", "robokit.config", "load_scene", "fn"),
    ("backends.SimBackend", "robokit.backends", "SimBackend.__init__", "method"),
    ("planning.OccupancyGrid.loads", "robokit.planning", "OccupancyGrid.loads", "static"),
    ("planning.OccupancyGrid.inflate", "robokit.planning", "OccupancyGrid.inflate", "method"),
    ("planning.OccupancyGrid.clearance_field", "robokit.planning",
     "OccupancyGrid.clearance_field", "method"),
    ("planning.OccupancyGrid.clearance_at", "robokit.planning", "OccupancyGrid.clearance_at",
     "method"),
    ("planning.plan_global", "robokit.planning", "plan_global", "fn"),
    ("planning.astar", "robokit.planning", "astar", "fn"),
    ("planning.shortcut_path", "robokit.planning", "shortcut_path", "fn"),
    ("planning.line_of_sight", "robokit.planning", "line_of_sight", "count"),
    ("control.lqr_backward_pass", "robokit.control", "lqr_backward_pass", "fn"),
    ("control.lqr_track_step", "robokit.control", "lqr_track_step", "fn"),
    ("control.proportional_step", "robokit.control", "proportional_step", "fn"),
    ("control.dwa_step", "robokit.control", "dwa_step", "fn"),
    ("trajectory.generate_sharp_trajectory", "robokit.trajectory", "generate_sharp_trajectory",
     "fn"),
    ("trajectory.circle_trajectory", "robokit.trajectory", "circle_trajectory", "fn"),
    ("sim.DiffDriveSim.step", "robokit.sim", "DiffDriveSim.step", "method"),
    ("sim.ArmSim.settle", "robokit.sim", "ArmSim.settle", "method"),
    ("sim.render_point_cloud", "robokit.sim", "render_point_cloud", "fn"),
    ("kinematics.inverse_kinematics", "robokit.kinematics", "inverse_kinematics", "fn"),
    ("kinematics.forward_kinematics", "robokit.kinematics", "forward_kinematics", "count"),
    ("kinematics.jacobian", "robokit.kinematics", "jacobian", "count"),
    ("skills.filter_cloud", "robokit.skills", "filter_cloud", "fn"),
    ("skills.dbscan", "robokit.skills", "dbscan", "fn"),
    ("skills.execute_push", "robokit.skills", "execute_push", "fn"),
    ("skills.execute_grasp", "robokit.skills", "execute_grasp", "fn"),
    ("robot.go_to_absolute", "robokit.robot", "BaseInterface.go_to_absolute", "method"),
    ("robot.track_trajectory", "robokit.robot", "BaseInterface.track_trajectory", "method"),
    ("robot.set_ee_pose_pitch_roll", "robokit.robot", "ArmInterface.set_ee_pose_pitch_roll",
     "method"),
    ("robot.move_ee_xyz", "robokit.robot", "ArmInterface.move_ee_xyz", "method"),
    ("robot.set_joint_positions", "robokit.robot", "ArmInterface.set_joint_positions", "method"),
    ("benchmark.run_base_benchmark", "robokit.benchmark", "run_base_benchmark", "fn"),
    ("benchmark.cross_track_errors", "robokit.benchmark", "cross_track_errors", "fn"),
    ("benchmark.run_arm_repeatability", "robokit.benchmark", "run_arm_repeatability", "fn"),
    ("report.write_base_report", "robokit.report", "write_base_report", "fn"),
    ("report.write_tracking_report", "robokit.report", "write_tracking_report", "fn"),
    ("report.write_repeatability_report", "robokit.report", "write_repeatability_report", "fn"),
]

MEMORY_PHASE = 10 ** 6    # phase of the untimed round that measures dbscan's memory

LAYERS = ("config", "backends", "planning", "control", "trajectory", "sim", "kinematics",
          "skills", "robot", "benchmark", "report")

# Per-layer metrics: (metric, span, statistic, unit). Statistics: self time
# per call ("self_ms", "self_us"); calls per set-up plus round ("calls");
# inclusive duration per call ("p50", "tail", "max", in ms); and the extra
# readings described in README.md.
_OPS = ("planning.plan_global", "robot.go_to_absolute.lqr",
        "robot.go_to_absolute.proportional", "robot.go_to_absolute.dwa",
        "robot.track_trajectory", "kinematics.inverse_kinematics", "skills.execute_push",
        "skills.execute_grasp", "benchmark.run_base_benchmark",
        "benchmark.run_arm_repeatability")
# operation-level spans called too rarely for a tail (< 40 samples in a traced run)
_NO_TAIL = ("robot.track_trajectory", "skills.execute_grasp", "benchmark.run_arm_repeatability")
_US = ("control.lqr_track_step", "control.proportional_step", "control.dwa_step",
       "sim.DiffDriveSim.step")


def _metric_table():
    rows = []
    spans = [t[0] for t in TARGETS if t[3] != "count"]
    spans = [s for s in spans if s != "robot.go_to_absolute"]
    idx = spans.index("robot.track_trajectory")
    spans[idx:idx] = [f"robot.go_to_absolute.{c}" for c in ("lqr", "proportional", "dwa")]
    for s in spans:
        if s in _US:
            rows.append((f"{s}.us", s, "self_us", "us"))
        else:
            rows.append((f"{s}.ms", s, "self_ms", "ms"))
        rows.append((f"{s}.calls", s, "calls", "count"))
        if s in _OPS:
            rows.append((f"{s}.p50_ms", s, "p50", "ms"))
        if s in _OPS and s not in _NO_TAIL:
            rows.append((f"{s}.tail_ms", s, "tail", "ms"))
        if s == "kinematics.inverse_kinematics":
            rows.append((f"{s}.max_ms", s, "max", "ms"))
            rows.append((f"{s}.failed", s, "failed", "count"))
    for name, _, _, kind in TARGETS:
        if kind == "count":
            rows.append((f"{name}.calls", name, "calls", "count"))
    rows += [
        ("sim.render_point_cloud.points", "sim.render_point_cloud", "points", "count"),
        ("skills.dbscan.points", "skills.dbscan", "points", "count"),
        ("skills.dbscan.peak_mb", "skills.dbscan", "peak_mb", "MB"),
        ("report.bytes", "report", "bytes", "B"),
    ]
    rows += [(f"layer.{layer}.pct", layer, "layer_pct", "%") for layer in LAYERS]
    rows += [("bench.import_ms", "bench", "import_ms", "ms"),
             ("bench.calib_ms", "bench", "calib_ms", "ms"),
             ("bench.trace_overhead_pct", "bench", "trace_overhead_pct", "%")]
    return rows


PER_LAYER = _metric_table()


def tail_percentile(n: int) -> float | None:
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it (None below 40 samples)."""
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        if n >= 40 and n * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.self_s = array("d")
        self.parent = array("i")
        self.phase = array("i")
        self.current_phase = 0          # > 0 round number, < 0 set-up number
        self._stack: list[list] = []
        self.counts: Counter = Counter()     # (phase, name) -> calls of count-only functions
        self.failed: Counter = Counter()     # (phase, name) -> calls that raised
        self.readings = defaultdict(list)    # (phase, reading) -> values
        self._restore: list = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # --- span recording ----------------------------------------------------

    def enter(self, name: str) -> None:
        self._stack.append([self._id(name), time.perf_counter(), 0.0])

    def leave(self) -> None:
        t1 = time.perf_counter()
        nid, t0, child = self._stack.pop()
        dur = t1 - t0
        if self._stack:
            self._stack[-1][2] += dur
            parent = self._stack[-1][0]
        else:
            parent = -1
        self.name.append(nid)
        self.t0.append(t0)
        self.t1.append(t1)
        self.self_s.append(dur - child)
        self.parent.append(parent)
        self.phase.append(self.current_phase)

    def _span(self, name: str, fn, namer=None, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = namer(args, kwargs) if namer else name
            tracer.enter(span)
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.failed[(tracer.current_phase, span)] += 1
                raise
            finally:
                tracer.leave()
            if after:
                after(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts
        tracer = self

        def wrapper(*args, **kwargs):
            counts[(tracer.current_phase, name)] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _reading(self, key: str, value: float) -> None:
        self.readings[(self.current_phase, key)].append(value)

    def _dbscan(self, fn):
        def measured(points, params):
            tracemalloc.start()
            try:
                return fn(points, params)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self._reading("skills.dbscan.points", len(points))
                self._reading("skills.dbscan.peak_mb", peak / 2 ** 20)

        return measured

    def _report_bytes(self, args, paths) -> None:
        self._reading("report.bytes", sum(Path(p).stat().st_size for p in paths))

    # --- installation ----------------------------------------------------------

    def install(self) -> None:
        for name, module, attr, kind in TARGETS:
            mod = importlib.import_module(module)
            if kind in ("method", "static"):
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                fn = orig.__func__ if kind == "static" else orig
                namer = None
                if name == "robot.go_to_absolute":
                    def namer(args, kwargs):
                        ctl = args[2] if len(args) > 2 else kwargs.get("controller", "lqr")
                        return f"robot.go_to_absolute.{ctl}"
                wrapped = self._span(name, fn, namer)
                setattr(cls, meth, staticmethod(wrapped) if kind == "static" else wrapped)
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            if kind == "count":
                wrapped = self._counter(name, orig)
            elif name == "sim.render_point_cloud":
                wrapped = self._span(name, orig, after=lambda a, out: self._reading(
                    "sim.render_point_cloud.points", len(out[0])))
            elif name.startswith("report.write_"):
                wrapped = self._span(name, orig, after=self._report_bytes)
            else:
                wrapped = self._span(name, orig)
            self._rebind(orig, wrapped)

    def _rebind(self, orig, wrapped) -> None:
        """Point every robokit module's name for `orig` at `wrapped`."""
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "robokit" or mname.startswith("robokit.")):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)
                    self._restore.append((m, key, orig))

    def memory_round(self, run) -> None:
        """Call run() once with tracemalloc around every dbscan call and no spans.

        Kept apart from the traced rounds because tracemalloc slows every
        allocation inside the call, which would distort dbscan's timings.
        """
        skills = importlib.import_module("robokit.skills")
        self.current_phase = MEMORY_PHASE
        self._rebind(skills.dbscan, self._dbscan(skills.dbscan))
        try:
            run()
        finally:
            self.uninstall()

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # --- output ----------------------------------------------------------------------

    def save(self, path: Path) -> None:
        """Write every span as flat arrays (names indexed by the `names` array)."""
        np.savez(path, names=np.array(self.names), name=np.frombuffer(self.name, dtype=np.int32),
                 t0=np.frombuffer(self.t0), t1=np.frombuffer(self.t1),
                 self_s=np.frombuffer(self.self_s), parent=np.frombuffer(self.parent,
                                                                          dtype=np.int32),
                 phase=np.frombuffer(self.phase, dtype=np.int32))

    def metrics(self, scale: dict, n_setups: int, n_rounds: int, round_s: float,
                extra: dict) -> dict:
        """Per-layer metrics from the recorded spans.

        `scale[phase]` converts that phase's host seconds to reference seconds;
        `round_s` is the summed calibrated time of the traced rounds.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        phase = np.frombuffer(self.phase, dtype=np.int32)
        factor = np.ones(len(phase))
        for p in np.unique(phase):
            factor[phase == p] = scale.get(int(p), 1.0)
        dur = (np.frombuffer(self.t1) - np.frombuffer(self.t0)) * factor
        self_s = np.frombuffer(self.self_s) * factor
        in_round = phase > 0
        per = {}

        def calls_per(phase_counts_round: float, phase_counts_setup: float) -> float:
            return (phase_counts_round / max(n_rounds, 1)
                    + phase_counts_setup / max(n_setups, 1))

        layer_self = Counter()
        for i, nm in enumerate(self.names):
            sel = name == i
            layer_self[nm.split(".")[0]] += float(self_s[sel & in_round].sum())
            per[nm] = {
                "calls": calls_per(int((sel & in_round).sum()), int((sel & ~in_round).sum())),
                "self": float(self_s[sel].mean()) if sel.any() else 0.0,
                "durations": np.sort(dur[sel & in_round]),
                "failed": sum(v for (p, n), v in self.failed.items() if n == nm and p > 0),
            }
        out = {}
        for metric, span, stat, unit in PER_LAYER:
            info = per.get(span)
            value = 0.0
            if stat in ("self_ms", "self_us"):
                value = info["self"] * (1e3 if stat == "self_ms" else 1e6) if info else 0.0
            elif stat == "calls":
                if info:
                    value = info["calls"]
                else:
                    value = calls_per(sum(v for (p, n), v in self.counts.items()
                                          if n == span and p > 0),
                                      sum(v for (p, n), v in self.counts.items()
                                          if n == span and p < 0))
            elif stat in ("p50", "tail", "max"):
                d = info["durations"] if info else np.zeros(0)
                if len(d):
                    if stat == "p50":
                        value = float(np.median(d)) * 1e3
                    elif stat == "max":
                        value = float(d[-1]) * 1e3
                    else:
                        p = tail_percentile(len(d))
                        value = float(np.percentile(d, p)) * 1e3 if p else 0.0
            elif stat == "failed":
                value = info["failed"] / max(n_rounds, 1) if info else 0.0
            elif stat in ("points", "peak_mb"):
                vals = [v for (p, k), vs in self.readings.items() if k == metric and p > 0
                        for v in vs]
                if vals:
                    value = max(vals) if stat == "peak_mb" else sum(vals) / len(vals)
            elif stat == "bytes":
                vals = [v for (p, k), vs in self.readings.items() if k == metric and p > 0
                        for v in vs]
                value = sum(vals) / max(n_rounds, 1)
            elif stat == "layer_pct":
                value = 100.0 * layer_self[span] / round_s if round_s > 0 else 0.0
            else:
                value = extra[stat]
            out[metric] = {"value": value if math.isfinite(value) else 0.0, "unit": unit}
        return out

    def tail_labels(self) -> dict:
        """Which percentile each operation-level `tail_ms` metric reports."""
        name = np.frombuffer(self.name, dtype=np.int32)
        phase = np.frombuffer(self.phase, dtype=np.int32)
        out = {}
        for span in _OPS:
            if span in self._ids and span not in _NO_TAIL:
                n = int(((name == self._ids[span]) & (phase > 0)).sum())
                p = tail_percentile(n)
                out[f"{span}.tail_ms"] = f"p{p:g} of {n}" if p else f"none ({n} samples)"
        return out
