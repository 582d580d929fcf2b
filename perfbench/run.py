"""robokit benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload base-nav --seed 1 --seconds 20 --trace 0

Runs from the root of a robokit checkout and imports robokit from its src/.
The load is a closed loop from one caller: one process, one thread, each
operation issued when the previous one returns. A run builds the workload's
inputs from the seed, sets the workload up several times (each from fresh
objects), runs one warm-up round whose outputs are checked against the
oracles, then repeats identical rounds for --seconds. Set-ups and rounds are
timed in short segments between runs of the calibration kernel, each segment
scaled to reference seconds (see calib.py). With --trace 1 the run reports
per-layer metrics instead: a third of the time runs untraced, the rest
traced (see spans.py), then one untimed round measures dbscan's memory.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The line before it holds raw (uncalibrated) figures for reference.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread: set before numpy is imported anywhere
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import calib  # noqa: E402  (this directory is on sys.path when run as a script)
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"base-nav": "base_nav", "grid-plan": "grid_plan", "tabletop": "tabletop"}
MIN_ROUNDS = 5


def _rounds(wl, state, seconds: float, first: dict, errors: list, phase0: int, tracer=None):
    """Repeat whole rounds until `seconds` have passed: one calibration clock per round."""
    out = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(out) < MIN_ROUNDS:
        gc.collect()
        if tracer:
            tracer.current_phase = phase0 + len(out)
        res, clock = calib.timed(lambda c: wl.run_round(state, c))
        if res["digest"] != first["digest"]:
            errors.append(f"round {phase0 + len(out)}: outputs differ from the checked round")
        if (res["attempted"], res["failed"]) != (first["attempted"], first["failed"]):
            errors.append(f"round {phase0 + len(out)}: operation counts differ")
        out.append(clock)
    return out


def _setups(wl, n: int, tracer=None):
    """Set the workload up n times, each from fresh objects: (last state, clocks)."""
    clocks, state = [], None
    for i in range(n):
        state = None
        gc.collect()
        if tracer:
            tracer.current_phase = -(i + 1)
        state, clock = calib.timed(wl.setup)
        clocks.append(clock)
    return state, clocks


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "robokit" / "__init__.py").is_file():
        print(f"error: no robokit sources under {ROOT / 'src'}; run from a robokit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import yaml  # noqa: F401  (numpy came with calib: import_ms is robokit's own)

    t0 = time.perf_counter()
    import robokit  # noqa: F401
    import_s = time.perf_counter() - t0

    module = importlib.import_module(WORKLOADS[args.workload])
    out_dir = HERE / "_out" / args.workload
    wl = module.Workload(args.seed, ROOT, out_dir)

    errors: list[str] = []
    state, setups = _setups(wl, wl.setups)
    first, _ = calib.timed(lambda c: wl.run_round(state, c, check=True))
    errors += first["errors"]
    per_round = (first["attempted"], first["failed"])

    tracer = None
    if args.trace:
        plain = _rounds(wl, state, args.seconds / 3.0, first, errors, 1)
        tracer = spans.Tracer()
        tracer.install()
        try:
            state, traced_setups = _setups(wl, wl.setups, tracer)
            traced = _rounds(wl, state, 2.0 * args.seconds / 3.0, first, errors,
                             len(plain) + 1, tracer)
        finally:
            tracer.uninstall()
        tracer.memory_round(lambda: calib.timed(lambda c: wl.run_round(state, c)))
        rounds = plain + traced
    else:
        rounds = _rounds(wl, state, args.seconds, first, errors, 1)

    kernels = [k for c in setups + rounds for k in c.kernels]
    attempted = per_round[0] * len(rounds)
    failed = per_round[1] * len(rounds)

    if args.trace:
        scale = {-(i + 1): c.calibrated / c.raw for i, c in enumerate(traced_setups)}
        scale.update({len(plain) + 1 + i: c.calibrated / c.raw for i, c in enumerate(traced)})
        traced_cal = [c.calibrated for c in traced]
        extra = {"import_ms": import_s * 1e3, "calib_ms": median(kernels) * 1e3,
                 "trace_overhead_pct": 100.0 * (median(traced_cal)
                                                / median([c.calibrated for c in plain]) - 1.0)}
        metrics = tracer.metrics(scale, len(traced_setups), len(traced), sum(traced_cal), extra)
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(out_dir / "spans.npz")
        reference = {"tail_percentiles": tracer.tail_labels(),
                     "rounds_untraced": len(plain), "rounds_traced": len(traced)}
    else:
        metrics = {
            "setup_s": {"value": median([c.calibrated for c in setups]), "unit": "s"},
            "ops_per_s": {"value": per_round[0] / median([c.calibrated for c in rounds]),
                          "unit": "op/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        reference = {
            "raw_setup_s": median([c.raw for c in setups]),
            "raw_ops_per_s": per_round[0] / median([c.raw for c in rounds]),
            "raw_round_s": median([c.raw for c in rounds]),
            "calibrated_round_s": median([c.calibrated for c in rounds]),
            "rounds": len(rounds), "setups": len(setups),
        }
    reference.update({"workload": args.workload, "seed": args.seed,
                      "kernel_ms": median(kernels) * 1e3,
                      "reference_kernel_ms": calib.REFERENCE_S * 1e3,
                      "ops_per_round": per_round[0], "failed_per_round": per_round[1],
                      **wl.notes()})
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"reference": reference}))
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
