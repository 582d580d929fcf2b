"""Golden report hashes: every report file of ten fixed CLI runs against a stored sha256.

Criterion 9 checks that two runs agree with each other; this test checks that
they agree with the bytes the last commit recorded. A change that alters a
report number on purpose regenerates the manifest in the same commit:

    PYTHONPATH=src python tests/test_golden.py

and names the files whose hashes moved, and why. A second test reruns the runs
whose bytes do not depend on the BLAS kernel under another OpenBLAS kernel.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

import robokit
from robokit.cli import main
from robokit.config import bundled_config_dir

MANIFEST = Path(__file__).parent / "golden" / "reports.sha256"

# (output root, CLI arguments); every run adds --seed 7 --label fixed
COMMANDS = (
    ("base", ["bench", "base", "--controller", "all", "--trials", "1"]),
    ("base-lite", ["bench", "base", "--robot", "locobot_lite", "--controller", "all",
                   "--trials", "2"]),
    ("arm-locobot", ["bench", "arm", "--robot", "locobot"]),
    ("arm-locobot_lite", ["bench", "arm", "--robot", "locobot_lite"]),
    ("arm-sawyer_sim", ["bench", "arm", "--robot", "sawyer_sim"]),
    ("track-lqr", ["track", "--controller", "lqr"]),
    ("track-prop", ["track", "--controller", "prop"]),
    ("plan", ["plan", "--map", str(bundled_config_dir() / "example.grid"),
              "--start", "0.5,0.5,0", "--goal", "3.5,2.5,0", "--inflation", "0.1"]),
    ("push", ["demo", "push"]),
    ("grasp", ["demo", "grasp"]),
)


# The runs whose bytes do not depend on the BLAS kernel: their control laws and
# Riccati pass run in Python floats. `bench arm` still does: the IK solve's
# np.linalg.solve and the np.linalg.pinv in ArmSim.settle's noise call LAPACK.
KERNEL_FREE = ("base", "base-lite", "track-lqr", "track-prop")


def versions() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas['name']} {blas['version']}")


def report_hashes(root: Path, names=None) -> dict:
    """Run every command (or those named) into `root`; sha256 of each file written,
    keyed by relative path."""
    for name, args in COMMANDS:
        if names is not None and name not in names:
            continue
        code = main(args + ["--seed", "7", "--label", "fixed", "--out", str(root / name)])
        assert code == 0, f"{' '.join(args)} exited {code}"
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def read_manifest() -> tuple[str, dict]:
    made_with, hashes = "", {}
    for line in MANIFEST.read_text().splitlines():
        if line.startswith("# made with "):
            made_with = line.removeprefix("# made with ")
        elif line and not line.startswith("#"):
            digest, path = line.split(maxsplit=1)
            hashes[path] = digest
    return made_with, hashes


def test_report_bytes_match_manifest(tmp_path, capsys):
    made_with, expected = read_manifest()
    got = report_hashes(tmp_path)
    capsys.readouterr()   # the commands' console summaries
    differ = sorted(p for p in expected.keys() & got.keys() if expected[p] != got[p])
    problems = ([f"differs: {p}" for p in differ]
                + [f"missing: {p}" for p in sorted(expected.keys() - got.keys())]
                + [f"not in manifest: {p}" for p in sorted(got.keys() - expected.keys())])
    assert not problems, ("\n".join(problems)
                          + f"\nmanifest made with {made_with}; this run uses {versions()}")


def test_base_and_track_bytes_match_manifest_on_another_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel from the CPU; OPENBLAS_CORETYPE overrides the pick in
    # the child process only
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [str(Path(robokit.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH")])))
    child = ("import json, sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
             "import test_golden as g; "
             "print(json.dumps(g.report_hashes(Path(sys.argv[2]), g.KERNEL_FREE)))")
    run = subprocess.run([sys.executable, "-c", child, str(Path(__file__).parent), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    made_with, manifest = read_manifest()
    expected = {p: d for p, d in manifest.items() if p.split("/")[0] in KERNEL_FREE}
    differ = sorted(p for p in expected.keys() | got.keys() if expected.get(p) != got.get(p))
    assert not differ, f"under OPENBLAS_CORETYPE=Haswell, against {made_with}: {differ}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = report_hashes(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(f"# made with {versions()}\n"
                        "# regenerate: PYTHONPATH=src python tests/test_golden.py\n"
                        + "".join(f"{d}  {p}\n" for p, d in hashes.items()))
    print(f"wrote {len(hashes)} hashes to {MANIFEST}")
