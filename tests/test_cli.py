import subprocess
import sys
from pathlib import Path

import pytest

from robokit.cli import main
from robokit.config import bundled_config_dir

MAP = str(bundled_config_dir() / "example.grid")


def run_cli(args, tmp_path, label):
    return main(args + ["--out", str(tmp_path), "--label", label])


def tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def assert_identical_runs(args, tmp_path):
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    assert main(args + ["--out", str(a_dir), "--label", "run"]) == 0
    assert main(args + ["--out", str(b_dir), "--label", "run"]) == 0
    a = tree_bytes(a_dir)
    b = tree_bytes(b_dir)
    assert a.keys() == b.keys()
    for name in a:
        assert a[name] == b[name], f"{name} differs between identical runs"


def test_bench_base_deterministic(tmp_path):
    for controller in ("lqr", "prop"):
        assert_identical_runs(["bench", "base", "--controller", controller, "--seed", "7",
                               "--trials", "1"], tmp_path / controller)


def test_bench_arm_deterministic(tmp_path):
    assert_identical_runs(["bench", "arm", "--seed", "7", "--reps", "3"], tmp_path)


def test_track_deterministic(tmp_path):
    for controller in ("lqr", "prop"):
        assert_identical_runs(["track", "--shape", "circle", "--radius", "0.4",
                               "--controller", controller, "--seed", "7"], tmp_path / controller)


def test_plan_deterministic(tmp_path):
    assert_identical_runs(["plan", "--map", MAP, "--start", "0.5,0.5,0",
                           "--goal", "3.5,2.5,0", "--inflation", "0.1"], tmp_path)


def test_demo_push_deterministic(tmp_path):
    assert_identical_runs(["demo", "push", "--seed", "7"], tmp_path)


def test_demo_grasp_deterministic(tmp_path):
    assert_identical_runs(["demo", "grasp", "--seed", "7"], tmp_path)


def test_track_svg_has_red_reference(tmp_path):
    assert run_cli(["track", "--radius", "0.4", "--controller", "lqr", "--zero-noise"],
                   tmp_path, "t") == 0
    svg = (tmp_path / "track" / "t" / "tracking.svg").read_text()
    assert 'stroke="red"' in svg


def test_plan_disconnected_goal_exits_2(tmp_path, capsys):
    grid_file = tmp_path / "walled.grid"
    from robokit.planning import OccupancyGrid

    g = OccupancyGrid.empty(10, 10, 0.1)
    g.cells[5, :] = 1  # full wall
    g.save(grid_file)
    code = run_cli(["plan", "--map", str(grid_file), "--start", "0.15,0.15,0",
                    "--goal", "0.85,0.85,0"], tmp_path, "t")
    assert code == 2
    assert "NoPath" in capsys.readouterr().err


def test_plan_bad_pose_exits_1(tmp_path, capsys):
    code = run_cli(["plan", "--map", MAP, "--start", "1,2", "--goal", "3,2,0"],
                   tmp_path, "t")
    assert code == 1


def test_unknown_flag_exits_1(tmp_path):
    assert main(["bench", "base", "--frobnicate"]) == 1


def test_unknown_robot_exits_1(tmp_path):
    code = run_cli(["bench", "arm", "--robot", "missing_bot"], tmp_path, "t")
    assert code == 1


def test_grasp_out_of_image_exits_1(tmp_path):
    code = run_cli(["demo", "grasp", "--u", "9999", "--v", "240"], tmp_path, "t")
    assert code == 1


def test_help_lists_flags_with_units():
    import robokit.cli as cli

    parser = cli.build_parser()
    for sub_args in (["track", "--help"], ["plan", "--help"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(sub_args)
        assert exc.value.code == 0


def test_help_text_has_units(capsys):
    assert main(["track", "--help"]) == 0  # argparse help exits 0, mapped through main
    out = capsys.readouterr().out
    assert "m (default: 0.4)" in out  # radius documented with units


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "robokit.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "bench" in proc.stdout and "track" in proc.stdout


def test_bench_arm_bad_config_value_exits_1_without_traceback(tmp_path):
    import os

    import robokit

    text = (bundled_config_dir() / "locobot.yaml").read_text()
    bad = tmp_path / "bad.yaml"
    bad.write_text(text.replace("  z_floor: 0.02", "  z_floor: null"))
    src = str(Path(robokit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-m", "robokit.cli", "bench", "arm", "--robot",
                           str(bad), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "skills.z_floor" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("args, code, message", [
    (["plan", "--map", "{tmp}/missing.grid", "--start", "0,0,0", "--goal", "1,1,0"],
     1, "missing.grid"),
    (["bench", "arm", "--robot", "{tmp}/missing.yaml"], 1, "missing.yaml"),
    (["demo", "push", "--scene", "{tmp}/missing.yaml"], 1, "missing.yaml"),
    (["plan", "--map", "{tmp}/bare_width.grid", "--start", "0,0,0", "--goal", "1,1,0"],
     1, "grid file: line 1"),
    (["demo", "push", "--scene", "{tmp}/objects_5.yaml"], 1, "objects"),
    (["plan", "--map", MAP, "--start", "nan,0.5,0", "--goal", "3.5,2.5,0"],
     1, "pose must be finite"),
    (["plan", "--map", "{tmp}/walled.grid", "--start", "0.15,0.15,0", "--goal", "0.85,0.85,0"],
     2, "NoPath"),
    (["demo", "push", "--scene", "{tmp}/no_objects.yaml"], 2, "NoClusters"),
    (["track", "--radius", "inf"], 1, "radius and speed must be positive and finite"),
    (["track", "--radius", "nan"], 1, "radius and speed must be positive and finite"),
    (["plan", "--map", "{tmp}", "--start", "0,0,0", "--goal", "1,1,0"], 1, "Is a directory"),
    (["plan", "--map", "{tmp}/rotated.grid", "--start", "0.05,0.05,0", "--goal", "0.15,0.15,0"],
     1, "grid file: line 4: origin theta must be 0"),
], ids=["missing-map", "missing-robot", "missing-scene", "bad-grid-header", "objects-not-list",
        "nan-pose", "disconnected-goal", "no-clusters", "inf-radius", "nan-radius",
        "map-is-directory", "rotated-map"])
def test_error_exit_codes(tmp_path, capsys, args, code, message):
    from robokit.planning import OccupancyGrid

    walled = OccupancyGrid.empty(10, 10, 0.1)
    walled.cells[5, :] = 1
    walled.save(tmp_path / "walled.grid")
    (tmp_path / "bare_width.grid").write_text("width\nheight 2\nresolution 0.1\norigin 0 0 0\n")
    (tmp_path / "rotated.grid").write_text("width 2\nheight 2\nresolution 0.1\norigin 0 0 0.5\n"
                                           "..\n..\n")
    (tmp_path / "objects_5.yaml").write_text("objects: 5\n")
    (tmp_path / "no_objects.yaml").write_text("objects: []\n")
    argv = [a.replace("{tmp}", str(tmp_path)) for a in args]
    assert run_cli(argv, tmp_path / "out", "t") == code
    assert message in capsys.readouterr().err
