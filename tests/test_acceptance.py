"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Master seeds are fixed (0..9 for controller ordering, 0..19 for the
repeatability band) so every run is deterministic.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from robokit.backends import SimBackend, sim_backend_factory
from robokit.benchmark import (default_protocols, iso_position_repeatability,
                               run_arm_repeatability, run_base_benchmark,
                               run_tracking_benchmark)
from robokit.cli import main as cli_main
from robokit.config import bundled_config_dir, load_config
from robokit.errors import IkConvergenceError, NoPathError
from robokit.geometry import angle_diff, planar_distance, pose_error
from robokit.kinematics import forward_kinematics, inverse_kinematics, jacobian
from robokit.robot import make_robot
from robokit.sim import ArmNoiseModel, Scene, SceneObject
from robokit.skills import DbscanParams, dbscan, push_pipeline
from robokit.geometry import SE3

ORDER_SEEDS = range(10)
RP_SEEDS = range(20)
CONTROLLERS = ("lqr", "proportional", "dwa")


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def locobot():
    return load_config("locobot")


@pytest.fixture(scope="module")
def seeded_reports(locobot):
    """Full noisy benchmark per master seed 0..9 (shared by criteria 2 and 3)."""
    factory = sim_backend_factory(locobot)
    t0 = time.perf_counter()
    reports = [run_base_benchmark(locobot, factory, CONTROLLERS, master_seed=s)
               for s in ORDER_SEEDS]
    return reports, time.perf_counter() - t0


def test_criterion_01_zero_noise_convergence(locobot):
    targets = [t for p in default_protocols() for t in p.targets]
    bounds = {"lqr": (5.0, 0.5), "proportional": (5.0, 0.5), "dwa": (20.0, 2.0)}
    t0 = time.perf_counter()
    worst = []
    ok = True
    for controller, (tol_mm, tol_deg) in bounds.items():
        for target in targets:
            bot = make_robot(locobot, SimBackend(locobot, seed=0, zero_noise=True))
            res = bot.base.go_to_absolute(target, controller)
            err_mm = 1000 * planar_distance(res.true_pose, target)
            err_deg = math.degrees(abs(angle_diff(res.true_pose.theta, target.theta)))
            ok &= res.reached and err_mm <= tol_mm and err_deg <= tol_deg
            ok &= res.elapsed < 60.0
            worst.append((err_mm, err_deg))
    wall = time.perf_counter() - t0
    ok &= wall < 10.0
    report(1, ok, f"18 zero-noise runs, worst {max(w[0] for w in worst):.2f} mm / "
                  f"{max(w[1] for w in worst):.2f} deg, wall {wall:.2f} s (< 10 s)")


def test_criterion_02_controller_ordering(seeded_reports):
    reports, bench_wall = seeded_reports
    hits = {c: 0 for c in ("linear", "rotation", "combined")}
    for rep in reports:
        for mclass in hits:
            e = [rep.mean_error(c, mclass, "odometry") for c in CONTROLLERS]
            hits[mclass] += (e[0] <= e[1] + 1e-12 and e[1] <= e[2] + 1e-12)
    ordering_ok = all(v >= 8 for v in hits.values())
    odo = np.mean([r.mean_error("lqr", "linear", "odometry") for r in reports])
    gt = np.mean([r.mean_error("lqr", "linear", "truth") for r in reports])
    loop_ok = odo < gt
    report(2, ordering_ok and loop_ok and bench_wall < 120.0,
           f"odometry-frame ordering LQR<=prop<=DWA hits {dict(hits)} (need >=8/10 each); "
           f"LQR linear odometry {odo:.1f} mm < ground-truth {gt:.1f} mm; "
           f"benchmark wall {bench_wall:.1f} s (< 120 s)")


def test_criterion_03_calibration_band(seeded_reports):
    reports, _ = seeded_reports
    vals = [r.mean_error("proportional", "combined", "truth") for r in reports]
    mean = float(np.mean(vals))
    ok = 65.0 - 52.0 <= mean <= 65.0 + 52.0
    report(3, ok, f"proportional combined-motion translation error vs ground truth "
                  f"{mean:.1f} mm, band [13, 117] mm")


def test_criterion_04_riccati_oracle():
    from robokit.control import riccati_gains

    n = 200
    K = riccati_gains([np.array([[1.0]])] * n, [np.array([[1.0]])] * n,
                      np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]))
    golden = (math.sqrt(5) - 1) / 2
    scalar_ok = abs(K[0][0, 0] - golden) < 1e-8

    rng = np.random.default_rng(17)
    policy_ok = True
    for _ in range(3):
        A = rng.normal(size=(3, 3)) * 0.4 + np.eye(3) * 0.9
        B = rng.normal(size=(3, 2)) * 0.5
        Q, R, Qf = np.eye(3), np.eye(2) * 0.5, np.eye(3) * 3
        x0 = rng.normal(size=3)
        steps = 20
        K_seq = riccati_gains([A] * steps, [B] * steps, Q, R, Qf)
        x = x0.copy()
        optimal = 0.0
        for K_t in K_seq:
            u = -K_t @ x
            optimal += x @ Q @ x + u @ R @ u
            x = A @ x + B @ u
        optimal += x @ Qf @ x
        m = 10_000
        Ks = rng.normal(size=(m, 2, 3)) * 0.7
        xs = np.tile(x0, (m, 1))
        cost = np.zeros(m)
        for _ in range(steps):
            u = -np.einsum("mij,mj->mi", Ks, xs)
            cost += np.einsum("mi,ij,mj->m", xs, Q, xs) + np.einsum("mi,ij,mj->m", u, R, u)
            xs = xs @ A.T + u @ B.T
        cost += np.einsum("mi,ij,mj->m", xs, Qf, xs)
        policy_ok &= optimal <= cost.min() + 1e-9
    report(4, scalar_ok and policy_ok,
           f"scalar long-horizon gain {K[0][0, 0]:.10f} vs (sqrt(5)-1)/2 within 1e-8; "
           f"LQR beats 10^4 random linear policies on 3 random 3-state instances")


def test_criterion_05_kinematics(locobot):
    from tests.test_kinematics import numeric_jacobian, random_chain

    rng = np.random.default_rng(100)
    jac_ok = True
    worst_fd = 0.0
    for _ in range(100):
        chain = random_chain(rng)
        q = rng.uniform(chain.lower_limits, chain.upper_limits)
        diff = float(np.max(np.abs(jacobian(chain, q) - numeric_jacobian(chain, q))))
        worst_fd = max(worst_fd, diff)
        jac_ok &= diff <= 1e-5

    chain = locobot.chain
    rng = np.random.default_rng(200)
    n = 1000
    converged = 0
    worst_rt = 0.0
    for i in range(n):
        q = rng.uniform(chain.lower_limits, chain.upper_limits)
        target = forward_kinematics(chain, q)
        try:
            sol = inverse_kinematics(chain, target, locobot.home, locobot.ik, rng_seed=i)
        except IkConvergenceError:
            continue
        converged += 1
        dp, dori = pose_error(target, forward_kinematics(chain, sol))
        worst_rt = max(worst_rt, float(np.linalg.norm(dp)), float(np.linalg.norm(dori)))
    rate = converged / n
    ik_ok = rate >= 0.95 and worst_rt <= 1e-6
    report(5, jac_ok and ik_ok,
           f"Jacobian FD worst {worst_fd:.2e} (<=1e-5) on 100 random chains; "
           f"IK convergence {rate:.1%} (>=95%), worst round-trip {worst_rt:.2e} (<=1e-6)")


def test_criterion_06_repeatability(locobot):
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [-1.0, 0, 0]])
    _, _, rp = iso_position_repeatability(pts)
    exact = 2.0 / 3.0 + 3.0 * math.sqrt(1.0 / 3.0)
    hand_ok = rp == pytest.approx(exact, abs=1e-12) and round(rp, 3) == 2.399

    noisy = replace(locobot, arm_noise=ArmNoiseModel((0.13e-3, 0.07e-3, 0.33e-3)))
    rps = []
    for seed in RP_SEEDS:
        result = run_arm_repeatability(noisy, SimBackend(noisy, seed=seed), reps=10,
                                       master_seed=seed)
        rps.extend(p.rp_mm for p in result.poses if not p.skipped)
    mean_rp = float(np.mean(rps))
    band_ok = 0.58 * 0.7 <= mean_rp <= 0.58 * 1.3
    report(6, hand_ok and band_ok,
           f"hand-computed RP {rp:.6f} mm matches 2/3 + sqrt(3) exactly; injected "
           f"Pose-2 stds give mean RP {mean_rp:.3f} mm over 20 seeds, "
           f"band [{0.58 * 0.7:.3f}, {0.58 * 1.3:.3f}] mm")


def test_criterion_07_tracking(locobot):
    backend = SimBackend(locobot, seed=0, zero_noise=True)
    clean = run_tracking_benchmark(locobot, backend, radius=0.4, controller="lqr")
    clean_ok = clean.rms_mm < 10.0

    wins = 0
    for seed in ORDER_SEEDS:
        lqr = run_tracking_benchmark(locobot, SimBackend(locobot, seed=seed),
                                     radius=0.4, controller="lqr")
        prop = run_tracking_benchmark(locobot, SimBackend(locobot, seed=seed),
                                      radius=0.4, controller="proportional")
        wins += lqr.rms_mm < prop.rms_mm
    report(7, clean_ok and wins >= 8,
           f"zero-noise LQR circle RMS {clean.rms_mm:.2f} mm (<10); "
           f"noisy LQR beats proportional on {wins}/10 seeds (need >=8)")


def _dbscan_reference(points, eps, min_pts):
    """Quadratic reference: per-point numpy row queries, classic expansion."""
    n = len(points)
    labels = np.full(n, -2)  # -2 unvisited, -1 noise
    cluster = -1
    for i in range(n):
        if labels[i] != -2:
            continue
        neigh = np.nonzero(np.linalg.norm(points - points[i], axis=1) <= eps)[0]
        if len(neigh) < min_pts:
            labels[i] = -1
            continue
        cluster += 1
        labels[i] = cluster
        queue = list(neigh)
        while queue:
            j = queue.pop()
            if labels[j] == -1:
                labels[j] = cluster
            if labels[j] != -2:
                continue
            labels[j] = cluster
            jn = np.nonzero(np.linalg.norm(points - points[j], axis=1) <= eps)[0]
            if len(jn) >= min_pts:
                queue.extend(jn)
    return labels


def test_criterion_08_dbscan_and_astar():
    from tests.test_skills import relabel_match
    from tests.test_planning import dijkstra_cost
    from robokit.planning import astar

    rng = np.random.default_rng(300)
    db_ok = True
    for _ in range(100):
        pts = rng.uniform(0, 1, size=(200, 2))
        eps = float(rng.uniform(0.04, 0.12))
        min_pts = int(rng.integers(3, 9))
        ours = dbscan(pts, DbscanParams(eps, min_pts))
        ref = _dbscan_reference(pts, eps, min_pts)
        db_ok &= relabel_match(ours, ref)

    astar_ok = True
    checked = 0
    rng = np.random.default_rng(301)
    while checked < 50:
        blocked = rng.uniform(size=(50, 50)) < 0.25
        blocked[0, 0] = blocked[49, 49] = False
        ref = dijkstra_cost(blocked, (0, 0), (49, 49))
        checked += 1
        if ref is None:
            try:
                astar(blocked, (0, 0), (49, 49))
                astar_ok = False
            except NoPathError:
                pass
        else:
            _, cost = astar(blocked, (0, 0), (49, 49))
            astar_ok &= abs(cost - ref) <= 1e-9
    report(8, db_ok and astar_ok,
           "DBSCAN matches the quadratic reference on 100 random 200-point instances; "
           "A* cost equals Dijkstra on 50 random 50x50 grids")


def test_criterion_09_cli_determinism(tmp_path):
    map_file = str(bundled_config_dir() / "example.grid")
    invocations = [
        ["bench", "base", "--controller", "all", "--seed", "7", "--trials", "2"],
        ["bench", "arm", "--seed", "7", "--reps", "5"],
        ["track", "--shape", "circle", "--radius", "0.4", "--controller", "lqr",
         "--seed", "7"],
        ["plan", "--map", map_file, "--start", "0.5,0.5,0", "--goal", "3.5,2.5,0",
         "--inflation", "0.1", "--seed", "7"],
        ["demo", "push", "--seed", "7"],
        ["demo", "grasp", "--seed", "7"],
    ]
    ok = True
    details = []
    for i, args in enumerate(invocations):
        pair = []
        for run in ("a", "b"):
            out = tmp_path / f"{i}{run}"
            code = cli_main(args + ["--out", str(out), "--label", "run"])
            assert code == 0, f"{args} exited {code}"
            pair.append({str(p.relative_to(out)): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
        same = pair[0] == pair[1]
        ok &= same
        details.append(f"{args[0]} {'=' if same else '!='}")
    report(9, ok, f"byte-identical outputs across two runs: {', '.join(details)}")


def test_criterion_10_push_pipeline(locobot):
    scene = Scene(objects=[SceneObject("box", SE3((0.36, 0.05, 0.025)), (0.05, 0.05, 0.05))])
    bot = make_robot(locobot, SimBackend(locobot, seed=11, scene=scene, zero_noise=True))
    plan, result, _ = push_pipeline(bot, seed=11)
    expected = 2.0 * (plan.obj_center - plan.push_pt)
    expected[2] = 0.0
    sweep_exact = result.reached and np.array_equal(result.displacement, expected)
    a = np.array(result.path[-2])
    b = np.array(result.path[-1])
    line_dist = (np.linalg.norm(np.cross(b - a, plan.obj_center - a))
                 / np.linalg.norm(b - a))
    line_ok = line_dist <= 1e-3
    report(10, sweep_exact and line_ok,
           f"executed sweep exactly 2*(center-push); sweep line passes "
           f"{1000 * line_dist:.4f} mm from the cluster centroid (<= 1 mm)")
