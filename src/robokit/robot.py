"""Unified robot facade: one handle exposing arm/base/camera/gripper subsystems
over a pluggable backend.

Motion commands are blocking and step the control loop in lockstep with the
simulator. The base closes its loop on the odometric pose; ground truth is
only read out for benchmarking. Facade and config objects are immutable after
construction; backends must be externally synchronized if shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import SUBSYSTEMS, RobotConfig
from .control import CONTROLLERS, DEFAULT_CONTROLLER, tracking_law, within_tolerance
from .errors import CapabilityError, ControlError, IkConvergenceError
from .geometry import SE3, Pose2D, zyx_from_matrix
from .kinematics import inverse_kinematics, pose_from_pitch_roll
from .trajectory import ControlCommand, TimedTrajectory


@dataclass
class MotionResult:
    """Outcome of a blocking motion command."""

    reached: bool
    elapsed: float = 0.0
    pose: Pose2D | None = None        # final odometric pose (base motions)
    true_pose: Pose2D | None = None   # ground-truth pose (the mocap stand-in)
    joints: np.ndarray | None = None
    ee_pose: SE3 | None = None
    phases: list = field(default_factory=list)      # (name, ok) pairs
    commands: list = field(default_factory=list)    # emitted ControlCommands
    path: list = field(default_factory=list)        # attained ee positions (arm moves)
    displacement: np.ndarray | None = None          # commanded Cartesian displacement
    detail: str = ""


def _check_finite(**values) -> None:
    """Fail fast on NaN or infinite array input, naming the argument. (A Pose2D is
    finite by construction.)"""
    for name, value in values.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class TrackingEntry:
    reference: Pose2D
    odom: Pose2D
    true: Pose2D
    command: ControlCommand


class BaseInterface:
    """Differential-drive base: position control and trajectory tracking."""

    def __init__(self, config: RobotConfig, backend):
        self._config = config
        self._sim = backend.base_sim
        self._settings = config.base

    @property
    def odom_pose(self) -> Pose2D:
        return self._sim.odom_pose

    @property
    def true_pose(self) -> Pose2D:
        return self._sim.true_pose

    def _drive(self, law, timeout: float) -> tuple[list, list, str | None]:
        """The blocking control loop: step `law` (see control.py) with the simulator.

        Commands are rate-limited from rest. Returns the commands, the
        (odometric, true) pose before each, and the law's stop reason (None if
        `timeout` s of simulated time ran out first). A NaN or infinite command
        from the law raises ControlError naming its step.
        """
        s = self._settings
        t0 = self._sim.time
        current = ControlCommand(0.0, 0.0)
        commands: list = []
        poses: list = []
        while self._sim.time - t0 < timeout:
            out = law(len(commands), self.odom_pose, current)
            if isinstance(out, str):
                return commands, poses, out
            # checked before rate limiting, which would turn a NaN into a finite command
            if not (math.isfinite(out.v) and math.isfinite(out.omega)):
                raise ControlError(f"control law gave {out!r} at step {len(commands)}")
            current = s.limits.rate_limited(current, out, s.dt)
            commands.append(current)
            poses.append((self.odom_pose, self.true_pose))
            self._sim.step(current, s.dt)
        return commands, poses, None

    def _settle(self, commands: list) -> None:
        # ramp the commanded velocity to zero so the next motion starts from rest
        while self._sim.velocity.v != 0.0 or self._sim.velocity.omega != 0.0:
            cmd = ControlCommand(0.0, 0.0)
            commands.append(cmd)
            self._sim.step(cmd, self._settings.dt)

    def go_to_absolute(self, target, controller: str = DEFAULT_CONTROLLER,
                       grid=None) -> MotionResult:
        """Drive to an odometric-frame target pose; blocks until tolerance or timeout."""
        if not isinstance(target, Pose2D):
            _check_finite(target=target)
            target = Pose2D.from_array(target)
        params = self._config.controller_params(controller)
        s = self._settings
        # DWA carries its own tolerances; the other controllers use the base's
        tol = (getattr(params, "position_tolerance", s.position_tolerance),
               getattr(params, "heading_tolerance", s.heading_tolerance))
        t0 = self._sim.time
        law = CONTROLLERS[controller].position(self.odom_pose, target, params, s.limits,
                                               s.dt, tol, grid)
        commands, _, stop = self._drive(law, s.timeout)
        self._settle(commands)
        reached = not stop and within_tolerance(self.odom_pose, target, tol)
        if reached:
            detail = ""
        elif stop is None:
            detail = "timeout"
        else:   # the law's failure, or a pose that left tolerance while settling
            detail = stop or "settled out of tolerance"
        return MotionResult(reached=reached, elapsed=self._sim.time - t0,
                            pose=self.odom_pose, true_pose=self.true_pose,
                            commands=commands, detail=detail)

    def go_to_relative(self, rel, controller: str = DEFAULT_CONTROLLER,
                       grid=None) -> MotionResult:
        """Target expressed in the current odometric frame, composed under SE(2)."""
        if not isinstance(rel, Pose2D):
            _check_finite(rel=rel)
            rel = Pose2D.from_array(rel)
        return self.go_to_absolute(self.odom_pose.compose(rel), controller, grid)

    def track_trajectory(self, traj: TimedTrajectory,
                         controller: str = DEFAULT_CONTROLLER) -> list:
        """Run the chosen feedback law along `traj`, then settle; one TrackingEntry per step."""
        params = self._config.controller_params(controller)
        law = tracking_law(controller)(traj, params, self._settings.limits)
        commands, poses, _ = self._drive(law, math.inf)
        self._settle([])   # the log holds the reference steps only
        return [TrackingEntry(traj.state(k), odom, true, cmd)
                for k, ((odom, true), cmd) in enumerate(zip(poses, commands))]


class ArmInterface:
    """Serial arm: joint-space and Cartesian motion through the backend simulator."""

    def __init__(self, config: RobotConfig, backend):
        self._config = config
        self._sim = backend.arm_sim
        self._chain = config.chain
        self._ik = config.ik

    @property
    def joint_positions(self) -> np.ndarray:
        return self._sim.q.copy()

    @property
    def ee_pose(self) -> SE3:
        return self._sim.ee_pose()

    @property
    def dof(self) -> int:
        return self._chain.dof

    def named_pose(self, name: str) -> np.ndarray:
        if name == "home":
            return self._config.home.copy()
        return self._config.named_poses[name].copy()

    def set_joint_positions(self, q) -> MotionResult:
        """Blocking joint move; the result carries the attained end-effector pose."""
        q = np.asarray(q, dtype=float)
        _check_finite(joints=q)
        t0 = self._sim.time
        attained = self._sim.settle(q)
        return MotionResult(reached=True, elapsed=self._sim.time - t0,
                            joints=attained, ee_pose=self._sim.ee_pose())

    def set_ee_pose_pitch_roll(self, position, pitch: float, roll: float) -> MotionResult:
        """Move the end effector to a position with given pitch/roll; raises IkConvergenceError."""
        _check_finite(position=position, pitch=pitch, roll=roll)
        target = pose_from_pitch_roll(position, pitch, roll)
        return self.set_joint_positions(
            inverse_kinematics(self._chain, target, self._sim.q, self._ik))

    def move_ee_xyz(self, displacement, step: float = 0.01) -> MotionResult:
        """Straight-line Cartesian displacement executed through per-waypoint IK.

        Waypoints are spaced at most `step` apart and solved seeded by the
        previous solution. Chains with fewer than 6 DOF hold the current
        pitch/roll and let yaw follow the waypoint bearing; full-DOF chains
        hold the entire orientation. An IK failure aborts with the waypoint
        index reached.
        """
        if not 0 < step < math.inf:
            raise ValueError(f"step must be positive and finite, got {step!r}")
        displacement = np.asarray(displacement, dtype=float)
        if displacement.shape != (3,):
            raise ValueError("displacement must be a 3-vector")
        _check_finite(displacement=displacement)
        t0 = self._sim.time
        start_pose = self.ee_pose
        dist = float(np.linalg.norm(displacement))
        path = [start_pose.translation.copy()]
        if dist < 1e-12:
            return MotionResult(reached=True, elapsed=0.0, joints=self.joint_positions,
                                ee_pose=start_pose, path=path)
        n = max(1, int(math.ceil(dist / step)))
        _, pitch, roll = zyx_from_matrix(start_pose.R)
        seed = self._sim.q.copy()
        pitch_roll_mode = self._chain.dof < 6
        for i in range(1, n + 1):
            waypoint = start_pose.translation + displacement * (i / n)
            if pitch_roll_mode:
                target = pose_from_pitch_roll(waypoint, pitch, roll)
            else:
                target = SE3(waypoint, start_pose.R)
            try:
                q = inverse_kinematics(self._chain, target, seed, self._ik)
            except IkConvergenceError as exc:
                return MotionResult(reached=False, elapsed=self._sim.time - t0,
                                    joints=self.joint_positions, ee_pose=self.ee_pose,
                                    path=path,
                                    detail=f"IK failed at waypoint {i}/{n}: {exc}")
            self._sim.settle(q)
            path.append(self._sim.ee_pose().translation.copy())
            seed = q
        return MotionResult(reached=True, elapsed=self._sim.time - t0,
                            joints=self.joint_positions, ee_pose=self.ee_pose, path=path,
                            displacement=displacement.copy())


class CameraInterface:
    def __init__(self, config: RobotConfig, backend):
        self._sim = backend.camera_sim
        self.intrinsics = config.camera.intrinsics

    def set_pan_tilt(self, pan: float, tilt: float) -> None:
        _check_finite(pan=pan, tilt=tilt)
        self._sim.set_pan_tilt(pan, tilt)

    @property
    def pan_tilt(self) -> tuple[float, float]:
        return (self._sim.pan, self._sim.tilt)

    def pose(self) -> SE3:
        """Camera optical frame expressed in the robot base frame."""
        return self._sim.pose()

    def get_point_cloud(self):
        """Base-frame point cloud of the attached scene with {floor, object} tags."""
        return self._sim.render()


class GripperInterface:
    def __init__(self, backend):
        self._sim = backend.gripper_sim

    def open(self) -> None:
        self._sim.open()

    def close(self) -> None:
        self._sim.close()

    @property
    def is_closed(self) -> bool:
        return self._sim.closed


class Robot:
    """Config-driven handle; subsystem accessors exist iff the config enables them."""

    def __init__(self, config: RobotConfig, backend):
        missing = []
        for name in SUBSYSTEMS:
            if getattr(config, f"use_{name}") and name not in backend.capabilities:
                missing.append(name)
        if missing:
            raise CapabilityError(
                f"config {config.name!r} enables {', '.join(missing)} but the backend "
                f"only provides {sorted(backend.capabilities)}")
        self.config = config
        self.backend = backend
        self._arm = ArmInterface(config, backend) if config.use_arm else None
        self._base = BaseInterface(config, backend) if config.use_base else None
        self._camera = CameraInterface(config, backend) if config.use_camera else None
        self._gripper = GripperInterface(backend) if config.use_gripper else None

    def _subsystem(self, name: str, value):
        if value is None:
            raise CapabilityError(f"subsystem {name!r} is disabled in config {self.config.name!r}")
        return value

    @property
    def arm(self) -> ArmInterface:
        return self._subsystem("arm", self._arm)

    @property
    def base(self) -> BaseInterface:
        return self._subsystem("base", self._base)

    @property
    def camera(self) -> CameraInterface:
        return self._subsystem("camera", self._camera)

    @property
    def gripper(self) -> GripperInterface:
        return self._subsystem("gripper", self._gripper)

    @property
    def sim_time(self) -> float:
        return self.backend.sim_time


def make_robot(config: RobotConfig, backend) -> Robot:
    """Build a robot handle; raises CapabilityError when the backend lacks an enabled subsystem."""
    return Robot(config, backend)
