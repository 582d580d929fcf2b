"""Golden report hashes: every report file of ten fixed CLI runs against a stored sha256.

Criterion 9 checks that two runs agree with each other; this test checks that
they agree with the bytes the last commit recorded. A change that alters a
report number on purpose regenerates the manifest in the same commit:

    PYTHONPATH=src python tests/test_golden.py

and names the files whose hashes moved, and why.
"""

import hashlib
import platform
from pathlib import Path

import numpy as np

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


def versions() -> str:
    return f"python {platform.python_version()}, numpy {np.__version__}"


def report_hashes(root: Path) -> dict:
    """Run every command into `root`; sha256 of each file written, keyed by relative path."""
    for name, args in COMMANDS:
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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = report_hashes(Path(tmp))
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(f"# made with {versions()}\n"
                        "# regenerate: PYTHONPATH=src python tests/test_golden.py\n"
                        + "".join(f"{d}  {p}\n" for p, d in hashes.items()))
    print(f"wrote {len(hashes)} hashes to {MANIFEST}")
