import math
from dataclasses import replace

import numpy as np
import pytest

from robokit.backends import SimBackend, sim_backend_factory
from robokit.benchmark import (BaseTrialProtocol, cross_track_errors, default_protocols,
                               iso_position_repeatability, run_arm_repeatability,
                               run_base_benchmark, run_tracking_benchmark, trial_seed)
from robokit.config import load_config
from robokit.geometry import Pose2D
from robokit.kinematics import forward_kinematics
from robokit.report import (format_cell, read_csv, write_base_report,
                            write_repeatability_report, write_tracking_report)
from robokit.sim import ArmNoiseModel
from robokit.trajectory import TimedTrajectory, circle_trajectory


@pytest.fixture(scope="module")
def locobot_cfg():
    return load_config("locobot")


SMALL = (BaseTrialProtocol("linear", (Pose2D(2, 0, 0),), 2),
         BaseTrialProtocol("rotation", (Pose2D(0, 0, math.pi / 2),), 2),
         BaseTrialProtocol("combined", (Pose2D(1, 1, 0),), 2))


def test_default_protocols_match_trial_table():
    protos = default_protocols()
    assert [p.motion_class for p in protos] == ["linear", "rotation", "combined"]
    assert protos[0].targets[0] == Pose2D(2, 0, 0)
    assert protos[0].targets[1] == Pose2D(-2, 0, 0)
    assert protos[1].targets[0].theta == pytest.approx(math.pi / 2)
    assert protos[2].targets == (Pose2D(1, 1, 0), Pose2D(-1, -1, 0))
    assert all(p.trials == 5 for p in protos)


def test_zero_noise_lqr_linear_convergence(locobot_cfg):
    factory = sim_backend_factory(locobot_cfg, zero_noise=True)
    report = run_base_benchmark(locobot_cfg, factory, ("lqr",), SMALL, master_seed=0)
    assert report.mean_error("lqr", "linear", "truth") < 5.0
    lin_rot = [t.err_rot_true_deg for t in report.trials if t.motion_class == "linear"]
    assert max(lin_rot) < 0.5


def test_report_schema_covers_all_cells(locobot_cfg):
    factory = sim_backend_factory(locobot_cfg, zero_noise=True)
    report = run_base_benchmark(locobot_cfg, factory, ("lqr", "proportional"), SMALL,
                                master_seed=1)
    rows = report.aggregates()
    # 3 motion classes x 2 references x {translation, rotation} per controller
    assert len(rows) == 2 * 3 * 2 * 2
    keys = {(r.controller, r.motion_class, r.reference, r.metric) for r in rows}
    assert len(keys) == len(rows)


def test_benchmark_deterministic_same_master_seed(locobot_cfg):
    factory = sim_backend_factory(locobot_cfg)
    a = run_base_benchmark(locobot_cfg, factory, ("proportional",), SMALL, master_seed=3)
    b = run_base_benchmark(locobot_cfg, factory, ("proportional",), SMALL, master_seed=3)
    assert a.trials == b.trials
    c = run_base_benchmark(locobot_cfg, factory, ("proportional",), SMALL, master_seed=4)
    assert c.trials != a.trials


def test_aggregation_matches_reference_computation(locobot_cfg):
    factory = sim_backend_factory(locobot_cfg)
    report = run_base_benchmark(locobot_cfg, factory, ("lqr",), SMALL, master_seed=5)
    sel = [t.err_trans_true_mm for t in report.trials if t.motion_class == "linear"]
    row = [r for r in report.aggregates()
           if r.motion_class == "linear" and r.reference == "truth"
           and r.metric == "translation"][0]
    n = len(sel)
    mean = sum(sel) / n
    std = math.sqrt(sum((x - mean) ** 2 for x in sel) / (n - 1))
    assert row.mean == pytest.approx(mean, abs=1e-12)
    assert row.std == pytest.approx(std, abs=1e-12)


def test_rotation_error_invariant_under_2pi(locobot_cfg):
    from robokit.geometry import angle_diff

    a = abs(angle_diff(0.3 + 2 * math.pi, 0.1))
    b = abs(angle_diff(0.3, 0.1 + 2 * math.pi))
    c = abs(angle_diff(0.3, 0.1))
    assert a == pytest.approx(c, abs=1e-12)
    assert b == pytest.approx(c, abs=1e-12)


def test_trial_seed_deterministic():
    assert trial_seed(7, 1, 2, 3, 4) == trial_seed(7, 1, 2, 3, 4)
    assert trial_seed(7, 1, 2, 3, 4) != trial_seed(8, 1, 2, 3, 4)


# --- repeatability ---------------------------------------------------------------


def test_rp_identical_points_is_zero():
    pts = np.tile([1.0, 2.0, 3.0], (10, 1))
    lbar, sl, rp = iso_position_repeatability(pts)
    assert lbar == 0.0 and sl == 0.0 and rp == 0.0


def test_rp_hand_computed_case():
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
    lbar, sl, rp = iso_position_repeatability(pts)
    assert lbar == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert sl == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
    assert rp == pytest.approx(2.0 / 3.0 + 3.0 * math.sqrt(1.0 / 3.0), abs=1e-12)
    assert rp == pytest.approx(2.399, abs=1e-3)


def test_repeatability_zero_noise_rp_zero(locobot_cfg):
    backend = SimBackend(locobot_cfg, seed=0, zero_noise=True)
    result = run_arm_repeatability(locobot_cfg, backend, reps=4)
    assert len(result.poses) == 5  # 4 grid poses + home
    assert result.poses[-1].name == "home"
    for pose in result.poses:
        assert not pose.skipped
        assert pose.rp_mm == pytest.approx(0.0, abs=1e-9)


def test_repeatability_home_row_targets_home_position(tmp_path):
    cfg = load_config("sawyer_sim")
    result = run_arm_repeatability(cfg, SimBackend(cfg, seed=0, zero_noise=True), reps=2)
    _, header, rows = read_csv(write_repeatability_report(result, tmp_path)[0])
    home = dict(zip(header, rows[-1]))
    expected = forward_kinematics(cfg.chain, cfg.home).translation
    assert home["pose"] == "home"
    assert [float(home[f"target_{a}"]) for a in "xyz"] == expected.tolist()
    assert np.linalg.norm(expected) > 0.1


def test_repeatability_with_injected_noise(locobot_cfg):
    noisy = replace(locobot_cfg, arm_noise=ArmNoiseModel((0.13e-3, 0.07e-3, 0.33e-3)))
    result = run_arm_repeatability(noisy, SimBackend(noisy, seed=3), reps=10)
    for pose in result.poses:
        assert 0.1 < pose.rp_mm < 2.0  # sub-mm noise scale propagates


def test_repeatability_unreachable_pose_skipped(locobot_cfg):
    backend = SimBackend(locobot_cfg, seed=0, zero_noise=True)
    result = run_arm_repeatability(locobot_cfg, backend,
                                   poses=[(5.0, 0.0, 0.2), (0.3, 0.0, 0.2)], reps=3)
    assert result.poses[0].skipped
    assert not result.poses[1].skipped
    assert result.skipped == ["pose1"]


# --- tracking ---------------------------------------------------------------------


def test_tracking_zero_noise_circle(locobot_cfg):
    backend = SimBackend(locobot_cfg, seed=0, zero_noise=True)
    report = run_tracking_benchmark(locobot_cfg, backend, radius=0.4, controller="lqr")
    assert report.rms_mm < 10.0
    assert len(report.log) == report.reference.horizon


def test_tracking_zero_speed_reference(locobot_cfg):
    backend = SimBackend(locobot_cfg, seed=0, zero_noise=True)
    ref = TimedTrajectory(0.05, np.zeros((31, 3)), np.zeros((30, 2)))
    report = run_tracking_benchmark(locobot_cfg, backend, trajectory=ref, controller="lqr")
    assert report.rms_mm == 0.0
    assert report.max_mm == 0.0


def test_cross_track_oracle():
    ref = circle_trajectory(1.0, 0.25, 0.05)

    class E:
        def __init__(self, x, y):
            self.true = Pose2D(x, y, 0)

    # point at radius 1.1 from the circle center (0, 1): cross-track 0.1
    log = [E(0.0, -0.1)]
    err = cross_track_errors(log, ref)
    assert err[0] == pytest.approx(0.1, abs=1e-3)


def test_tracking_rejects_unknown_controller(locobot_cfg):
    backend = SimBackend(locobot_cfg, seed=0, zero_noise=True)
    with pytest.raises(KeyError):
        run_tracking_benchmark(locobot_cfg, backend, controller="dwa")


def test_tracking_takes_explicit_trajectory_and_rejects_other_shapes(locobot_cfg):
    from robokit.trajectory import circle_trajectory

    quarter = circle_trajectory(0.4, 0.2, locobot_cfg.base.dt, loops=0.25)
    backend = SimBackend(locobot_cfg, seed=0, zero_noise=True)
    rep = run_tracking_benchmark(locobot_cfg, backend, trajectory=quarter)
    assert len(rep.log) == quarter.horizon
    assert rep.rms_mm < 10.0
    with pytest.raises(ValueError, match="shape"):
        run_tracking_benchmark(locobot_cfg, SimBackend(locobot_cfg), "square")


# --- report files ------------------------------------------------------------------


def test_format_cell_mm():
    assert format_cell(17.0, 5.0, "mm") == "17 ± 5"
    assert format_cell(0.43, 0.25, "deg") == "0.43 ± 0.25"


def test_base_report_files_and_roundtrip(tmp_path, locobot_cfg):
    factory = sim_backend_factory(locobot_cfg)
    report = run_base_benchmark(locobot_cfg, factory, ("lqr",), SMALL, master_seed=6)
    files = write_base_report(report, tmp_path)
    assert {f.name for f in files} == {"trials.csv", "aggregates.csv", "summary.txt"}
    _, header, rows = read_csv(tmp_path / "aggregates.csv")
    mean_idx = header.index("mean")
    parsed = {(r[0], r[1], r[2], r[3]): float(r[mean_idx]) for r in rows}
    for agg in report.aggregates():
        key = (agg.controller, agg.motion_class, agg.reference, agg.metric)
        assert parsed[key] == agg.mean  # repr round-trip is exact
    summary = (tmp_path / "summary.txt").read_text()
    assert "±" in summary
    assert "master seed 6" in summary


def test_empty_report_headers_only(tmp_path, locobot_cfg):
    from robokit.benchmark import BenchReport

    report = BenchReport(robot="locobot", master_seed=0, controllers=("lqr",))
    write_base_report(report, tmp_path)
    schema, header, rows = read_csv(tmp_path / "trials.csv")
    assert rows == []
    assert header[0] == "controller"
    assert schema.startswith("# robokit-csv base-trials")


def test_tracking_report_files(tmp_path, locobot_cfg):
    backend = SimBackend(locobot_cfg, seed=1, zero_noise=True)
    report = run_tracking_benchmark(locobot_cfg, backend, radius=0.4, controller="lqr")
    files = write_tracking_report(report, tmp_path)
    svg = (tmp_path / "tracking.svg").read_text()
    assert svg.startswith("<svg")
    assert 'stroke="red"' in svg and 'stroke="black"' in svg
    _, _, rows = read_csv(tmp_path / "tracking.csv")
    assert len(rows) == len(report.log)


def test_repeatability_report_files(tmp_path, locobot_cfg):
    backend = SimBackend(locobot_cfg, seed=2)
    result = run_arm_repeatability(locobot_cfg, backend, reps=3)
    write_repeatability_report(result, tmp_path)
    _, header, rows = read_csv(tmp_path / "repeatability.csv")
    assert "rp_mm" in header
    assert len(rows) == 5
