"""In-process simulator backend wired from a RobotConfig.

A backend exposes `capabilities` (subset of {"arm", "base", "camera",
"gripper"}) plus the per-subsystem simulator objects the facade drives. One
backend instance owns one robot; benchmarks build a fresh seeded backend per
trial through `sim_backend_factory`.
"""

from __future__ import annotations

import numpy as np

from .config import SUBSYSTEMS, RobotConfig
from .geometry import SE3, axis_rotation
from .sim import (ArmSim, DiffDriveSim, Scene, ZERO_ARM_NOISE, ZERO_BASE_NOISE,
                  render_point_cloud, subsystem_rngs)

# maps the optical frame (x right, y down, z forward) into the camera body
# frame (x forward, y left, z up)
_OPTICAL_IN_BODY = np.array([
    [0.0, 0.0, 1.0],
    [-1.0, 0.0, 0.0],
    [0.0, -1.0, 0.0],
])


class CameraSim:
    """Pan-tilt camera rendering synthetic clouds of the attached scene."""

    def __init__(self, settings, rng, scene: Scene):
        self.settings = settings
        self._rng = rng
        self.scene = scene
        self.pan, self.tilt = settings.default_pan_tilt

    def set_pan_tilt(self, pan: float, tilt: float) -> None:
        self.pan = float(pan)
        self.tilt = float(tilt)

    def pose(self) -> SE3:
        """Camera optical frame in the robot base frame: mount ∘ Rz(pan) ∘ Ry(tilt) ∘ optical."""
        R = (axis_rotation((0.0, 0.0, 1.0), self.pan) @ axis_rotation((0.0, 1.0, 0.0), self.tilt)
             @ _OPTICAL_IN_BODY)
        return self.settings.mount @ SE3(R=R)

    def render(self) -> tuple[np.ndarray, np.ndarray]:
        s = self.settings
        return render_point_cloud(self.scene, self.pose(), s.intrinsics,
                                  density=s.density, depth_sigma=s.depth_sigma,
                                  rng=self._rng, max_range=s.max_range)


class GripperSim:
    def __init__(self):
        self.closed = False

    def open(self) -> None:
        self.closed = False

    def close(self) -> None:
        self.closed = True


class SimBackend:
    """Full kinematic simulator for one robot; subsystems follow the config flags.

    `capabilities` may be narrowed (e.g. {"arm", "gripper"}) to model partial
    hardware. `zero_noise=True` silences base and arm noise while keeping the
    same RNG stream structure; camera depth noise (`camera.depth_sigma`) stays on.
    """

    def __init__(self, config: RobotConfig, seed: int = 0, scene: Scene | None = None,
                 zero_noise: bool = False, capabilities=None):
        self.config = config
        self.seed = seed
        self.scene = scene if scene is not None else Scene()
        rngs = subsystem_rngs(seed)

        wanted = {s for s in SUBSYSTEMS if getattr(config, f"use_{s}")}
        if capabilities is not None:
            wanted &= set(capabilities)
        self.capabilities = frozenset(wanted)

        self.base_sim = None
        self.arm_sim = None
        self.camera_sim = None
        self.gripper_sim = None
        if "base" in wanted:
            noise = ZERO_BASE_NOISE if zero_noise else config.base_noise
            self.base_sim = DiffDriveSim(config.base.limits, noise,
                                         rng_actuation=rngs["base_actuation"],
                                         rng_odometry=rngs["base_odometry"])
        if "arm" in wanted:
            noise = ZERO_ARM_NOISE if zero_noise else config.arm_noise
            self.arm_sim = ArmSim(config.chain, noise, rng=rngs["arm"], q0=config.home)
        if "camera" in wanted:
            self.camera_sim = CameraSim(config.camera, rngs["camera"], self.scene)
        if "gripper" in wanted:
            self.gripper_sim = GripperSim()

    @property
    def sim_time(self) -> float:
        t = 0.0
        if self.base_sim is not None:
            t = max(t, self.base_sim.time)
        if self.arm_sim is not None:
            t = max(t, self.arm_sim.time)
        return t


def sim_backend_factory(config: RobotConfig, scene: Scene | None = None,
                        zero_noise: bool = False):
    """Callable(seed) -> fresh SimBackend; what the benchmark harness consumes."""

    def make(seed: int) -> SimBackend:
        return SimBackend(config, seed=seed, scene=scene, zero_noise=zero_noise)

    return make
