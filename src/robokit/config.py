"""Robot description files: YAML schema (version 1), validation, and bundled configs.

See docs/formats.md for the full schema. Validation errors always name the
offending key (e.g. ``base.v_max``). Controller parameter blocks default to
the documented values when omitted; required structure (subsystem flags, arm
chain when the arm is enabled, base limits when the base is enabled) does not.

Bundled configs: ``locobot``, ``locobot_lite``, ``sawyer_sim``. The
``ROBOKIT_CONFIG_DIR`` environment variable prepends a search directory for
named (non-path) config lookups.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .control import CONTROLLERS, DwaParams, LqrParams, ProportionalParams
from .errors import ConfigError
from .geometry import SE3
from .kinematics import IkParams, Joint, KinematicChain
from .sim import ArmNoiseModel, BaseNoiseModel, CameraIntrinsics, Scene, SceneObject
from .trajectory import VelocityLimits

SCHEMA_VERSION = 1
SUBSYSTEMS = ("arm", "base", "camera", "gripper")

# YAML defaults per controller parameter type (angles in degrees)
_CONTROLLER_DEFAULTS = {
    ProportionalParams: {
        "kp_lin": 1.0, "kp_ang": 3.0,
        "bearing_threshold_deg": 2.0, "distance_threshold": 0.005,
        "heading_threshold_deg": 0.5,
    },
    LqrParams: {
        "q": [5.0, 5.0, 1.0], "r": [1.0, 0.5], "qf_scale": 10.0, "trajectory": "sharp",
    },
    DwaParams: {
        "samples_v": 11, "samples_omega": 21, "horizon": 1.5,
        "weight_heading": 0.8, "weight_distance": 0.2,
        "weight_velocity": 0.1, "weight_clearance": 0.3,
        "position_tolerance": 0.015, "heading_tolerance_deg": 1.5,
    },
}

@dataclass(frozen=True)
class BaseSettings:
    limits: VelocityLimits = field(default_factory=VelocityLimits)
    dt: float = 0.05
    position_tolerance: float = 0.005
    heading_tolerance: float = math.radians(0.5)
    timeout: float = 60.0


@dataclass(frozen=True)
class CameraSettings:
    intrinsics: CameraIntrinsics = CameraIntrinsics(600.0, 600.0, 320.0, 240.0)
    mount: SE3 = field(default_factory=lambda: SE3((0.0, 0.0, 0.6)))
    default_pan_tilt: tuple[float, float] = (0.0, 0.7)
    max_range: float = 1.5
    density: float = 20000.0
    depth_sigma: float = 0.002


@dataclass(frozen=True)
class SkillSettings:
    z_floor: float = 0.02
    max_range: float = 1.0
    dbscan_eps: float = 0.03
    dbscan_min_pts: int = 10
    pregrasp_height: float = 0.2
    grasp_height: float = 0.13
    pre_push_height: float = 0.2
    push_height: float = 0.13


@dataclass(frozen=True)
class BenchmarkSettings:
    repeatability_poses: tuple = ((0.25, -0.10, 0.20), (0.25, 0.10, 0.20),
                                  (0.40, -0.10, 0.20), (0.40, 0.10, 0.20))
    repeatability_reps: int = 10
    tracking_speed: float = 0.2


@dataclass(frozen=True)
class RobotConfig:
    """Validated robot description; immutable and safe to share."""

    name: str
    use_arm: bool
    use_base: bool
    use_camera: bool
    use_gripper: bool
    frames: dict
    chain: KinematicChain | None
    home: np.ndarray | None
    named_poses: dict
    ik: IkParams
    base: BaseSettings
    controllers: dict
    camera: CameraSettings
    base_noise: BaseNoiseModel
    arm_noise: ArmNoiseModel
    skills: SkillSettings
    benchmark: BenchmarkSettings

    def controller_params(self, name: str):
        if name not in self.controllers:
            raise KeyError(f"unknown controller {name!r}; configured: {sorted(self.controllers)}")
        return self.controllers[name]


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return section[key]


def _positive(value, path: str) -> float:
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(path, f"expected a number, got {value!r}") from None
    if v <= 0:
        raise ConfigError(path, f"must be strictly positive, got {v}")
    return v


def _vector(value, n: int, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(path, f"expected a {n}-vector")
    try:
        return [float(x) for x in value]
    except (TypeError, ValueError):
        raise ConfigError(path, "expected numeric entries") from None


def _transform(section: dict, path: str) -> SE3:
    xyz = _vector(section.get("xyz", [0.0, 0.0, 0.0]), 3, f"{path}.xyz")
    rpy = _vector(section.get("rpy", [0.0, 0.0, 0.0]), 3, f"{path}.rpy")
    return SE3.from_xyz_rpy(xyz, rpy)


def _parse_chain(arm: dict) -> tuple[KinematicChain, np.ndarray, dict, IkParams]:
    joints_spec = _require(arm, "joints", "arm")
    if not isinstance(joints_spec, list) or not joints_spec:
        raise ConfigError("arm.joints", "chain must be non-empty when the arm is enabled")
    joints = []
    for i, j in enumerate(joints_spec):
        path = f"arm.joints[{i}]"
        name = _require(j, "name", path)
        jtype = j.get("type", "revolute")
        if jtype != "revolute":
            raise ConfigError(f"{path}.type", f"only revolute joints are supported, got {jtype!r}")
        axis = _vector(_require(j, "axis", path), 3, f"{path}.axis")
        limits = _vector(_require(j, "limits", path), 2, f"{path}.limits")
        if not limits[0] < limits[1]:
            raise ConfigError(f"{path}.limits", "lower limit must be < upper limit")
        max_velocity = _positive(j.get("max_velocity", 2.0), f"{path}.max_velocity")
        try:
            joints.append(Joint(name=name, origin=_transform(j, path), axis=tuple(axis),
                                lower=limits[0], upper=limits[1], max_velocity=max_velocity))
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
    tool = _transform(arm.get("tool", {}), "arm.tool")
    chain = KinematicChain(tuple(joints), tool)

    home = np.asarray(_vector(arm.get("home", [0.0] * chain.dof), chain.dof, "arm.home"))
    named = {}
    for key, val in (arm.get("named_poses") or {}).items():
        named[key] = np.asarray(_vector(val, chain.dof, f"arm.named_poses.{key}"))

    ik_raw = {**asdict(IkParams()), **(arm.get("ik") or {})}
    try:
        ik = IkParams(
            position_tolerance=float(ik_raw["position_tolerance"]),
            orientation_tolerance=float(ik_raw["orientation_tolerance"]),
            max_iterations=int(ik_raw["max_iterations"]),
            damping=float(ik_raw["damping"]),
            step_clamp=float(ik_raw["step_clamp"]),
            restarts=int(ik_raw["restarts"]),
        )
    except ValueError as exc:
        raise ConfigError("arm.ik", str(exc)) from None
    return chain, home, named, ik


def _parse_base(base: dict) -> BaseSettings:
    limits = VelocityLimits(
        v_max=_positive(_require(base, "v_max", "base"), "base.v_max"),
        omega_max=_positive(_require(base, "omega_max", "base"), "base.omega_max"),
        a_max=_positive(base.get("a_max", 0.5), "base.a_max"),
        alpha_max=_positive(base.get("alpha_max", 2.0), "base.alpha_max"),
    )
    return BaseSettings(
        limits=limits,
        dt=_positive(base.get("dt", 0.05), "base.dt"),
        position_tolerance=_positive(base.get("position_tolerance", 0.005),
                                     "base.position_tolerance"),
        heading_tolerance=math.radians(_positive(base.get("heading_tolerance_deg", 0.5),
                                                 "base.heading_tolerance_deg")),
        timeout=_positive(base.get("timeout", 60.0), "base.timeout"),
    )


def _parse_controllers(section: dict) -> dict:
    merged = {}
    for name in section or {}:
        if name not in CONTROLLERS:
            raise ConfigError(f"controllers.{name}",
                              f"unknown controller; supported: {', '.join(CONTROLLERS)}")
    for name, controller in CONTROLLERS.items():
        raw = dict(_CONTROLLER_DEFAULTS[controller.params])
        user = (section or {}).get(name) or {}
        for key in user:
            if key not in raw:
                raise ConfigError(f"controllers.{name}.{key}", "unknown parameter")
        raw.update(user)
        path = f"controllers.{name}"
        try:
            if controller.params is ProportionalParams:
                merged[name] = ProportionalParams(
                    kp_lin=_positive(raw["kp_lin"], f"{path}.kp_lin"),
                    kp_ang=_positive(raw["kp_ang"], f"{path}.kp_ang"),
                    bearing_threshold=math.radians(_positive(raw["bearing_threshold_deg"],
                                                             f"{path}.bearing_threshold_deg")),
                    distance_threshold=_positive(raw["distance_threshold"],
                                                 f"{path}.distance_threshold"),
                    heading_threshold=math.radians(_positive(raw["heading_threshold_deg"],
                                                             f"{path}.heading_threshold_deg")),
                )
            elif controller.params is LqrParams:
                if raw["trajectory"] not in ("sharp", "smooth"):
                    raise ConfigError(f"{path}.trajectory", "must be 'sharp' or 'smooth'")
                merged[name] = LqrParams(
                    q=tuple(_vector(raw["q"], 3, f"{path}.q")),
                    r=tuple(_vector(raw["r"], 2, f"{path}.r")),
                    qf_scale=_positive(raw["qf_scale"], f"{path}.qf_scale"),
                    trajectory=raw["trajectory"],
                )
            else:
                merged[name] = DwaParams(
                    samples_v=int(raw["samples_v"]),
                    samples_omega=int(raw["samples_omega"]),
                    horizon=_positive(raw["horizon"], f"{path}.horizon"),
                    weight_heading=float(raw["weight_heading"]),
                    weight_distance=float(raw["weight_distance"]),
                    weight_velocity=float(raw["weight_velocity"]),
                    weight_clearance=float(raw["weight_clearance"]),
                    position_tolerance=_positive(raw["position_tolerance"],
                                                 f"{path}.position_tolerance"),
                    heading_tolerance=math.radians(_positive(raw["heading_tolerance_deg"],
                                                             f"{path}.heading_tolerance_deg")),
                )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from None
    return merged


def _parse_camera(section: dict) -> CameraSettings:
    intr_raw = _require(section, "intrinsics", "camera")
    for key in ("fx", "fy", "cx", "cy"):
        _require(intr_raw, key, "camera.intrinsics")
        if key in ("fx", "fy"):
            _positive(intr_raw[key], f"camera.intrinsics.{key}")
    try:
        intr = CameraIntrinsics(
            fx=float(intr_raw["fx"]), fy=float(intr_raw["fy"]),
            cx=float(intr_raw["cx"]), cy=float(intr_raw["cy"]),
            width=int(intr_raw.get("width", 640)), height=int(intr_raw.get("height", 480)),
        )
    except ValueError as exc:
        raise ConfigError("camera.intrinsics", str(exc)) from None
    pan_tilt = _vector(section.get("default_pan_tilt", [0.0, 0.7]), 2, "camera.default_pan_tilt")
    return CameraSettings(
        intrinsics=intr,
        mount=_transform(section.get("mount", {"xyz": [0.0, 0.0, 0.6]}), "camera.mount"),
        default_pan_tilt=tuple(pan_tilt),
        max_range=_positive(section.get("max_range", 1.5), "camera.max_range"),
        density=_positive(section.get("density", 20000.0), "camera.density"),
        depth_sigma=float(section.get("depth_sigma", 0.002)),
    )


def parse_config(raw: dict, name_hint: str = "config") -> RobotConfig:
    if not isinstance(raw, dict):
        raise ConfigError(name_hint, "config root must be a mapping")
    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {schema}")
    name = _require(raw, "name", "")
    subsystems = _require(raw, "subsystems", "")
    if not isinstance(subsystems, dict):
        raise ConfigError("subsystems", "must be a mapping of subsystem flags")
    flags = {}
    for sub in SUBSYSTEMS:
        val = subsystems.get(sub, False)
        if not isinstance(val, bool):
            raise ConfigError(f"subsystems.{sub}", "must be a boolean")
        flags[sub] = val

    chain = home = None
    named: dict = {}
    ik = IkParams()
    if flags["arm"]:
        chain, home, named, ik = _parse_chain(_require(raw, "arm", ""))

    base = _parse_base(_require(raw, "base", "")) if flags["base"] else BaseSettings()
    controllers = _parse_controllers(raw.get("controllers"))
    camera = _parse_camera(_require(raw, "camera", "")) if flags["camera"] else CameraSettings()

    noise = raw.get("noise") or {}
    bn = noise.get("base") or {}
    try:
        base_noise = BaseNoiseModel(
            actuation_v=float(bn.get("actuation_v", 0.0)),
            actuation_omega=float(bn.get("actuation_omega", 0.0)),
            odometry_v=float(bn.get("odometry_v", 0.0)),
            odometry_omega=float(bn.get("odometry_omega", 0.0)),
        )
    except ValueError as exc:
        raise ConfigError("noise.base", str(exc)) from None
    an = noise.get("arm") or {}
    try:
        arm_noise = ArmNoiseModel(sigma=tuple(_vector(an.get("sigma", [0.0, 0.0, 0.0]), 3,
                                                      "noise.arm.sigma")))
    except ValueError as exc:
        raise ConfigError("noise.arm", str(exc)) from None

    sk = {**asdict(SkillSettings()), **(raw.get("skills") or {})}
    skills = SkillSettings(
        z_floor=float(sk["z_floor"]),
        max_range=_positive(sk["max_range"], "skills.max_range"),
        dbscan_eps=_positive(sk["dbscan_eps"], "skills.dbscan_eps"),
        dbscan_min_pts=int(sk["dbscan_min_pts"]),
        pregrasp_height=_positive(sk["pregrasp_height"], "skills.pregrasp_height"),
        grasp_height=_positive(sk["grasp_height"], "skills.grasp_height"),
        pre_push_height=_positive(sk["pre_push_height"], "skills.pre_push_height"),
        push_height=_positive(sk["push_height"], "skills.push_height"),
    )
    if skills.dbscan_min_pts < 1:
        raise ConfigError("skills.dbscan_min_pts", "must be >= 1")
    if skills.pregrasp_height < skills.grasp_height:
        raise ConfigError("skills.pregrasp_height", "must be >= skills.grasp_height")
    if skills.pre_push_height < skills.push_height:
        raise ConfigError("skills.pre_push_height", "must be >= skills.push_height")

    bench_raw = {**asdict(BenchmarkSettings()), **(raw.get("benchmark") or {})}
    poses = tuple(tuple(_vector(p, 3, f"benchmark.repeatability_poses[{i}]"))
                  for i, p in enumerate(bench_raw["repeatability_poses"]))
    benchmark = BenchmarkSettings(
        repeatability_poses=poses,
        repeatability_reps=int(bench_raw["repeatability_reps"]),
        tracking_speed=_positive(bench_raw["tracking_speed"], "benchmark.tracking_speed"),
    )
    if benchmark.repeatability_reps < 2:
        raise ConfigError("benchmark.repeatability_reps", "need at least 2 repetitions")

    frames = raw.get("frames") or {}
    return RobotConfig(
        name=str(name),
        use_arm=flags["arm"], use_base=flags["base"],
        use_camera=flags["camera"], use_gripper=flags["gripper"],
        frames={"base": frames.get("base", "base_link"),
                "end_effector": frames.get("end_effector", "ee_link")},
        chain=chain, home=home, named_poses=named, ik=ik,
        base=base, controllers=controllers, camera=camera,
        base_noise=base_noise, arm_noise=arm_noise,
        skills=skills, benchmark=benchmark,
    )


def bundled_config_dir() -> Path:
    return Path(__file__).parent / "configs"


def resolve_config_path(name_or_path) -> Path:
    """Resolve a config argument: an existing path wins, then ROBOKIT_CONFIG_DIR, then bundled."""
    p = Path(name_or_path)
    if p.exists():
        return p
    candidates = []
    env = os.environ.get("ROBOKIT_CONFIG_DIR")
    if env:
        candidates.append(Path(env) / f"{name_or_path}.yaml")
    candidates.append(bundled_config_dir() / f"{name_or_path}.yaml")
    for c in candidates:
        if c.exists():
            return c
    raise FileNotFoundError(f"no config file or bundled config named {name_or_path!r}")


def load_config(name_or_path) -> RobotConfig:
    """Load and validate a robot config from a path or a bundled config name."""
    path = resolve_config_path(name_or_path)
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"parse error: {exc}") from None
    return parse_config(raw, name_hint=str(path))


def load_scene(path) -> Scene:
    """Scene description (objects + floor extent) in the same YAML format as robot configs."""
    try:
        with open(path) as f:
            raw = yaml.safe_load(f)
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"parse error: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "scene root must be a mapping")
    objects = []
    for i, obj in enumerate(raw.get("objects") or []):
        path_i = f"objects[{i}]"
        shape = _require(obj, "shape", path_i)
        xyz = _vector(_require(obj, "xyz", path_i), 3, f"{path_i}.xyz")
        yaw = float(obj.get("yaw", 0.0))
        pose = SE3.from_xyz_rpy(xyz, [0.0, 0.0, yaw])
        if shape == "box":
            dims = tuple(_vector(_require(obj, "size", path_i), 3, f"{path_i}.size"))
        elif shape == "cylinder":
            dims = (_positive(_require(obj, "radius", path_i), f"{path_i}.radius"),
                    _positive(_require(obj, "height", path_i), f"{path_i}.height"))
        else:
            raise ConfigError(f"{path_i}.shape", f"unknown shape {shape!r}")
        try:
            objects.append(SceneObject(shape=shape, pose=pose, dimensions=dims))
        except ValueError as exc:
            raise ConfigError(path_i, str(exc)) from None
    return Scene(objects=objects,
                 floor_radius=_positive(raw.get("floor_radius", 1.5), "floor_radius"))
