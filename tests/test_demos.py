"""Smoke test: the arm-side demos run to completion against the current facade."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import robokit

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("demo", ["kinematics_tour.py", "grasp_from_image.py",
                                  "push_objects.py"])
def test_arm_demo_exits_0(demo, tmp_path):
    src = str(Path(robokit.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
