"""base-nav: wheeled-base position control and circle tracking.

Every round repeats the same operations, each on fresh seeded simulators:

* noisy proportional trials on locobot and locobot_lite, on the standard
  protocol targets plus seeded targets, and noisy DWA (no map) trials on the
  seeded targets;
* zero-noise trials of all three controllers on seeded targets, which must
  all reach tolerance;
* the known LQR settle-drift fault: noisy LQR linear-protocol trials at master
  seeds 1 and 3 (fixed, not from --seed), two of which end out of tolerance;
* circle tracking with LQR and proportional on a seeded radius;
* every report written through robokit.report.

One operation is one trial or one tracking run.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from pathlib import Path

import numpy as np
import yaml

from robokit import backends as rk_backends
from robokit import benchmark as rk_bench
from robokit import config as rk_config
from robokit import report as rk_report
from robokit.geometry import Pose2D

import oracles

ROBOTS = ("locobot", "locobot_lite")
# fixed inputs of the kept fault: master seeds and the trials known to end out
# of tolerance (master seed, target x, trial index)
FAULT_SEEDS = (1, 3)
FAULT_TRIALS = {(1, 2.0, 0), (3, 2.0, 1)}
TARGET_RANGES = (0.7, 1.2, 1.7)


def _seeded_targets(rng, n: int) -> tuple:
    """n targets: ranges cycle through TARGET_RANGES; bearings and final headings
    (relative to the bearing) are evenly spread from random offsets, so the
    total drive and turn of a set varies little from seed to seed."""
    bearing0, heading0 = rng.uniform(0.0, 2.0 * math.pi, 2)
    out = []
    for i in range(n):
        r = TARGET_RANGES[i % len(TARGET_RANGES)]
        a = bearing0 + 2.0 * math.pi * i / n
        h = a + heading0 + 2.0 * math.pi * ((2 * i) % n) / n
        out.append(Pose2D(r * math.cos(a), r * math.sin(a), h))
    return tuple(out)


class Workload:
    setups = 25

    def __init__(self, seed: int, root: Path, out: Path):
        self.seed = seed
        self.out = out
        rng = np.random.default_rng([seed, 1])
        self.noisy_targets = {r: _seeded_targets(rng, 3) for r in ROBOTS}
        self.zero_targets = {r: _seeded_targets(rng, 3) for r in ROBOTS}
        self.zero_dwa_targets = {r: _seeded_targets(rng, 1) for r in ROBOTS}
        self.track = [(ctl, float(rng.uniform(0.3, 0.5)), int(rng.integers(2 ** 31)))
                      for ctl in ("lqr", "proportional")]
        cfg_dir = root / "src" / "robokit" / "configs"
        self.raw = {r: yaml.safe_load((cfg_dir / f"{r}.yaml").read_text()) for r in ROBOTS}
        self.groups = self._groups()

    def notes(self) -> dict:
        return {"kept_fault": "LQR settle drift: 2 of 8 fixed noisy LQR trials per round"}

    def setup(self, clock):
        configs = {}
        for r in ROBOTS:
            configs[r] = rk_config.load_config(r)
            clock.tick()
        return configs

    def _bench(self, cfg, controllers, protocols, master_seed, zero_noise):
        made = []

        def factory(seed):
            made.append(rk_backends.SimBackend(cfg, seed=seed, zero_noise=zero_noise))
            return made[-1]

        rep = rk_bench.run_base_benchmark(cfg, factory, controllers, protocols, master_seed)
        return {"report": rep, "backends": made, "zero": zero_noise, "robot": cfg.name}

    def _groups(self):
        """(robot, controllers, protocols, master seed, zero noise) per benchmark call."""
        P = rk_bench.BaseTrialProtocol
        standard = rk_bench.default_protocols(1)
        out = [("locobot", ["lqr"], (P("linear", standard[0].targets, 2),), ms, False)
               for ms in FAULT_SEEDS]
        for r in ROBOTS:
            seeded = (P("combined", self.noisy_targets[r], 1),)
            out.append((r, ["proportional"], standard + seeded, self.seed, False))
            # one DWA target per call keeps the clock's segments short
            out += [(r, ["dwa"], (P("combined", (t,), 1),), self.seed, False)
                    for t in self.noisy_targets[r]]
            out.append((r, ["lqr", "proportional"], (P("combined", self.zero_targets[r], 1),),
                        self.seed, True))
            out.append((r, ["dwa"], (P("combined", self.zero_dwa_targets[r], 1),), self.seed,
                        True))
        return out

    def run_round(self, configs, clock, check: bool = False):
        groups = []
        for robot, controllers, protocols, master_seed, zero in self.groups:
            groups.append(self._bench(configs[robot], controllers, protocols, master_seed, zero))
            clock.tick()
        tracks = []
        cfg = configs["locobot"]
        for ctl, radius, seed in self.track:
            backend = rk_backends.SimBackend(cfg, seed=seed)
            tracks.append(rk_bench.run_tracking_benchmark(cfg, backend, "circle", radius, ctl,
                                                          self.seed))
            clock.tick()
        files = []
        for i, g in enumerate(groups):
            files += rk_report.write_base_report(g["report"], self.out / f"base{i}")
        for t in tracks:
            files += rk_report.write_tracking_report(t, self.out / f"track-{t.controller}")
        digest = hashlib.sha256()
        for f in files:
            digest.update(Path(f).read_bytes())
        trials = [t for g in groups for t in g["report"].trials]
        failed = sum(not t.reached for t in trials)
        return {"attempted": len(trials) + len(tracks), "failed": failed,
                "digest": digest.hexdigest(),
                "errors": self._check(groups, tracks, files) if check else []}

    # --- checks -----------------------------------------------------------------

    def _tolerances(self, robot: str, controller: str) -> tuple[float, float]:
        raw = self.raw[robot]
        if controller == "dwa":
            dwa = (raw.get("controllers") or {}).get("dwa") or {}
            return (1000.0 * dwa.get("position_tolerance", 0.015),
                    dwa.get("heading_tolerance_deg", 1.5))
        base = raw["base"]
        return 1000.0 * base.get("position_tolerance", 0.005), base.get("heading_tolerance_deg",
                                                                        0.5)

    def _check(self, groups, tracks, files) -> list[str]:
        errors = []
        for g in groups:
            errors += self._check_group(g)
        for f in files:
            if Path(f).name == "aggregates.csv":
                errors += self._check_aggregates(f, groups)
        for t in tracks:
            errors += self._check_tracking(t)
        return errors

    def _check_group(self, g) -> list[str]:
        rep, made = g["report"], g["backends"]
        errors = []
        if len(rep.trials) != len(made):
            return [f"{len(rep.trials)} trials but {len(made)} backends built"]
        timeout = self.raw[g["robot"]]["base"].get("timeout", 60.0)
        for t, b in zip(rep.trials, made):
            where = (f"{g['robot']} {t.controller} {t.motion_class} target {t.target} "
                     f"trial {t.trial}")
            true, odom, tgt = b.base_sim.true_pose, b.base_sim.odom_pose, t.target
            recomputed = (1000.0 * math.hypot(true.x - tgt.x, true.y - tgt.y),
                          math.degrees(abs(math.remainder(true.theta - tgt.theta, 2 * math.pi))),
                          1000.0 * math.hypot(odom.x - tgt.x, odom.y - tgt.y),
                          math.degrees(abs(math.remainder(odom.theta - tgt.theta, 2 * math.pi))))
            reported = (t.err_trans_true_mm, t.err_rot_true_deg,
                        t.err_trans_odom_mm, t.err_rot_odom_deg)
            if t.seed != b.seed:
                errors.append(f"{where}: seed {t.seed} but backend seed {b.seed}")
            if any(abs(a - c) > 1e-9 * max(1.0, abs(c)) for a, c in zip(reported, recomputed)):
                errors.append(f"{where}: errors {reported} recomputed {recomputed}")
            tol_mm, tol_deg = self._tolerances(g["robot"], t.controller)
            within = recomputed[2] <= tol_mm * (1 + 1e-9) and recomputed[3] <= tol_deg * (1 + 1e-9)
            if t.reached != within:
                errors.append(f"{where}: reached={t.reached} but odometric error "
                              f"{recomputed[2]:.3f} mm / {recomputed[3]:.3f} deg")
            if not t.elapsed <= timeout + 0.1:
                errors.append(f"{where}: ran {t.elapsed} s past the {timeout} s timeout")
            if g["zero"] and not t.reached:
                errors.append(f"{where}: zero-noise trial did not reach tolerance")
            if not t.reached and (rep.master_seed, t.target.x, t.trial) not in FAULT_TRIALS:
                errors.append(f"{where}: unexpected failure")
        if not g["zero"] and rep.controllers == ("lqr",):
            missed = {(rep.master_seed, t.target.x, t.trial) for t in rep.trials if not t.reached}
            expected = {k for k in FAULT_TRIALS if k[0] == rep.master_seed}
            if missed != expected:
                errors.append(f"LQR fault trials {sorted(missed)}, expected {sorted(expected)}")
        return errors

    def _check_aggregates(self, path, groups) -> list[str]:
        lines = Path(path).read_text().splitlines()[2:]
        rep = next(g["report"] for g in groups
                   if Path(path).parent.name == f"base{groups.index(g)}")
        getters = {("truth", "translation"): "err_trans_true_mm",
                   ("truth", "rotation"): "err_rot_true_deg",
                   ("odometry", "translation"): "err_trans_odom_mm",
                   ("odometry", "rotation"): "err_rot_odom_deg"}
        errors = []
        seen = 0
        for line in lines:
            ctl, mclass, ref, metric, _, mean, std, n, failures = line.split(",")
            sel = [t for t in rep.trials if t.controller == ctl and t.motion_class == mclass]
            vals = [getattr(t, getters[(ref, metric)]) for t in sel]
            exp_std = statistics.stdev(vals) if len(vals) > 1 else 0.0
            if (int(n) != len(vals) or int(failures) != sum(not t.reached for t in sel)
                    or abs(float(mean) - statistics.fmean(vals)) > 1e-9 * max(1.0, abs(float(mean)))
                    or abs(float(std) - exp_std) > 1e-9 * max(1.0, exp_std)):
                errors.append(f"{path}: row {line} disagrees with the trials")
            seen += 1
        if seen != 4 * len({(t.controller, t.motion_class) for t in rep.trials}):
            errors.append(f"{path}: {seen} aggregate rows")
        return errors

    def _check_tracking(self, t) -> list[str]:
        ref = t.reference
        if len(t.log) != ref.horizon:
            return [f"tracking {t.controller}: {len(t.log)} steps for horizon {ref.horizon}"]
        v, w = ref.controls[0]
        radius = v / w
        sweep = w * ref.dt * ref.horizon
        true_xy = np.array([[e.true.x, e.true.y] for e in t.log])
        d = oracles.arc_distance(true_xy, (0.0, radius), radius, -math.pi / 2, sweep)
        sagitta = radius * (1.0 - math.cos(0.5 * w * ref.dt))
        bound = 1000.0 * sagitta + 1e-6
        rms = 1000.0 * math.sqrt(float(np.mean(d ** 2)))
        mx = 1000.0 * float(d.max())
        errors = []
        if abs(rms - t.rms_mm) > bound or abs(mx - t.max_mm) > bound:
            errors.append(f"tracking {t.controller}: RMS/max {t.rms_mm:.4f}/{t.max_mm:.4f} mm, "
                          f"analytic circle gives {rms:.4f}/{mx:.4f} mm (bound {bound:.4f})")
        if not t.rms_mm < 100.0 * radius:
            errors.append(f"tracking {t.controller}: RMS {t.rms_mm:.1f} mm on a {radius} m circle")
        return errors
