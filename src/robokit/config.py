"""Robot description files: YAML schema (version 1), validation, and bundled configs.

See docs/formats.md for the full schema. Each settings section is built from
its dataclass (`_build`): omitted keys keep the dataclass defaults, given keys
are checked here for their YAML form and then against the rule their field
declares (`errors.bounded`, `errors.one_of`), unknown keys are rejected, and
errors name the offending key (e.g. ``base.v_max``). Required structure
(subsystem flags, the arm chain and base limits when enabled) has no default.

Bundled configs: ``locobot``, ``locobot_lite``, ``sawyer_sim``. The
``ROBOKIT_CONFIG_DIR`` environment variable prepends a search directory for
named (non-path) config lookups.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np
import yaml

from .control import CONTROLLERS, LqrParams  # noqa: F401  (LqrParams is re-exported)
from .errors import BoundError, Bounded, CapabilityError, ConfigError, bounded, holds_int, positive
from .geometry import SE3
from .kinematics import IkParams, Joint, KinematicChain
from .sim import ArmNoiseModel, BaseNoiseModel, CameraIntrinsics, Scene, SceneObject
from .trajectory import VelocityLimits

SCHEMA_VERSION = 1
SUBSYSTEMS = ("arm", "base", "camera", "gripper")

# fields held in radians; their YAML key is the field name plus "_deg"
_DEGREES = {"bearing_threshold", "heading_tolerance"}
# fields a config must give although their dataclass has a default
_REQUIRED = {"v_max", "omega_max"}
# keys of the structure that is not built from a dataclass
_TOP_KEYS = ("schema", "name", "subsystems", "frames", "arm", "base", "controllers", "camera",
             "noise", "skills", "benchmark")
_ARM_KEYS = ("joints", "tool", "home", "named_poses", "ik")
_JOINT_KEYS = ("name", "type", "axis", "xyz", "rpy", "limits", "max_velocity")


@dataclass(frozen=True)
class _Frames:
    base: str = "base_link"
    end_effector: str = "ee_link"


@dataclass(frozen=True)
class BaseSettings(Bounded):
    limits: VelocityLimits = field(default_factory=VelocityLimits)
    dt: float = positive(0.05)
    position_tolerance: float = positive(0.005)
    heading_tolerance: float = positive(math.radians(0.5))
    timeout: float = positive(60.0)


@dataclass(frozen=True)
class CameraSettings(Bounded):
    intrinsics: CameraIntrinsics = CameraIntrinsics(600.0, 600.0, 320.0, 240.0)
    mount: SE3 = field(default_factory=lambda: SE3((0.0, 0.0, 0.6)))
    default_pan_tilt: tuple[float, float] = (0.0, 0.7)
    max_range: float = positive(1.5)
    density: float = positive(20000.0)
    depth_sigma: float = bounded(0.002)


@dataclass(frozen=True)
class SkillSettings(Bounded):
    z_floor: float = 0.02
    max_range: float = positive(1.0)
    dbscan_eps: float = positive(0.03)
    dbscan_min_pts: int = bounded(10, low=1)
    grasp_height: float = positive(0.13)
    pregrasp_height: float = bounded(0.2, low="grasp_height")
    push_height: float = positive(0.13)
    pre_push_height: float = bounded(0.2, low="push_height")


@dataclass(frozen=True)
class BenchmarkSettings(Bounded):
    repeatability_poses: tuple = ((0.25, -0.10, 0.20), (0.25, 0.10, 0.20),
                                  (0.40, -0.10, 0.20), (0.40, 0.10, 0.20))
    repeatability_reps: int = bounded(10, low=2)
    tracking_speed: float = positive(0.2)


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
            raise CapabilityError(f"unknown controller {name!r}; "
                                  f"configured: {sorted(self.controllers)}")
        return self.controllers[name]


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return section[key]


def _mapping(section, path: str, known=None) -> dict:
    """`section` as a mapping (None reads as empty); with `known`, no other keys."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(path, "must be a mapping")
    for key in section:
        if known is not None and key not in known:
            raise ConfigError(f"{path}.{key}" if path else str(key),
                              f"unknown key; expected one of: {', '.join(known)}")
    return section


def _number(value, path: str, integer: bool = False):
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(path, f"expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(path, f"must be finite, got {value!r}")
    return int(value) if integer and value == int(value) else float(value)


def _vector(value, n: int, path: str) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        raise ConfigError(path, f"expected a {n}-vector")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _transform(section, path: str, known=("xyz", "rpy")) -> SE3:
    section = _mapping(section, path, known)
    xyz = _vector(section.get("xyz", [0.0, 0.0, 0.0]), 3, f"{path}.xyz")
    rpy = _vector(section.get("rpy", [0.0, 0.0, 0.0]), 3, f"{path}.rpy")
    return SE3.from_xyz_rpy(xyz, rpy)


def _value(value, like, path: str, name: str, integer: bool = False):
    """`value` checked against `like`, the field's default: a string, a list of n-vectors
    (the repeatability poses), an n-vector or a number; an `integer` reads 11.0 as 11."""
    if isinstance(like, str):
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        return value
    if isinstance(like, tuple) and like and isinstance(like[0], tuple):
        if not isinstance(value, list):
            raise ConfigError(path, f"expected a list of {len(like[0])}-vectors")
        return tuple(tuple(_vector(v, len(like[0]), f"{path}[{i}]")) for i, v in enumerate(value))
    if isinstance(like, tuple):
        return tuple(_vector(value, len(like), path))
    v = _number(value, path, integer)
    return math.radians(v) if name in _DEGREES else v


def _key(name: str) -> str:
    return f"{name}_deg" if name in _DEGREES else name


def _build(cls, section, path: str, **given):
    """Instance of dataclass `cls` from the YAML mapping `section` at key `path`.

    `given` holds values the caller parsed from the keys of the same names. A
    field whose default factory is a dataclass (`BaseSettings.limits`) is built
    from the keys of its fields, which sit flat in this mapping. Any other field
    reads key `_key(name)`: an omitted key keeps the default untouched, and is an
    error for fields in `_REQUIRED` or without a default. Unknown keys are rejected.
    """
    section = _mapping(section, path)
    prefix = f"{path}." if path else ""
    kwargs, known = dict(given), list(given)
    for f in fields(cls):
        if f.name in given:
            continue
        if is_dataclass(f.default_factory):
            keys = [_key(g.name) for g in fields(f.default_factory)]
            kwargs[f.name] = _build(f.default_factory,
                                    {k: v for k, v in section.items() if k in keys}, path)
            known += keys
            continue
        key = _key(f.name)
        known.append(key)
        if key in section:
            like = 0.0 if f.default is MISSING else f.default
            kwargs[f.name] = _value(section[key], like, prefix + key, f.name, holds_int(f))
        elif f.name in _REQUIRED or f.default is f.default_factory is MISSING:
            raise ConfigError(prefix + key, "missing required field")
    _mapping(section, path, known)   # rejects the keys that name no field
    return _new(cls, path, section, **kwargs)


def _new(cls, path: str, section: dict, **kwargs):
    """`cls(**kwargs)` for the mapping `section` at key `path`. A BoundError becomes
    a ConfigError naming the key its field reads, quoting the value as written
    there (in degrees for a `_deg` key); any other ValueError one naming `path`."""
    try:
        return cls(**kwargs)
    except BoundError as exc:
        key = _key(exc.name)
        written = section.get(key, exc.value)   # else a default, in the field's units
        if exc.index is not None:
            key, written = f"{key}[{exc.index}]", written[exc.index]
        raise ConfigError(f"{path}.{key}" if path else key,
                          f"must be {exc.bound}, got {written!r}") from None
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_chain(arm: dict) -> tuple[KinematicChain, np.ndarray, dict, IkParams]:
    joints_spec = _require(arm, "joints", "arm")
    if not isinstance(joints_spec, list) or not joints_spec:
        raise ConfigError("arm.joints", "chain must be non-empty when the arm is enabled")
    joints = []
    for i, j in enumerate(joints_spec):
        path = f"arm.joints[{i}]"
        j = _mapping(j, path, _JOINT_KEYS)
        name = _value(_require(j, "name", path), "", f"{path}.name", "name")
        jtype = j.get("type", "revolute")
        if jtype != "revolute":
            raise ConfigError(f"{path}.type", f"only revolute joints are supported, got {jtype!r}")
        axis = _vector(_require(j, "axis", path), 3, f"{path}.axis")
        limits = _vector(_require(j, "limits", path), 2, f"{path}.limits")
        if not limits[0] < limits[1]:
            raise ConfigError(f"{path}.limits", "lower limit must be < upper limit")
        speed = ({"max_velocity": _number(j["max_velocity"], f"{path}.max_velocity")}
                 if "max_velocity" in j else {})
        joints.append(_new(Joint, path, j, name=name, origin=_transform(j, path, None),
                           axis=tuple(axis), lower=limits[0], upper=limits[1], **speed))
    tool = _transform(arm.get("tool"), "arm.tool")
    chain = KinematicChain(tuple(joints), tool)

    home = _joint_vector(arm.get("home", [0.0] * chain.dof), chain, "arm.home")
    named = {key: _joint_vector(val, chain, f"arm.named_poses.{key}")
             for key, val in _mapping(arm.get("named_poses"), "arm.named_poses").items()}
    return chain, home, named, _build(IkParams, arm.get("ik"), "arm.ik")


def _joint_vector(value, chain: KinematicChain, path: str) -> np.ndarray:
    """A joint vector of the chain's length, each entry within its joint's limits (an entry
    outside them is quoted as written)."""
    q = _vector(value, chain.dof, path)
    for i, (j, x) in enumerate(zip(chain.joints, q)):
        if not j.lower <= x <= j.upper:
            raise ConfigError(f"{path}[{i}]", f"joint {j.name}: {value[i]!r} outside its limits "
                                              f"[{j.lower!r}, {j.upper!r}]")
    return np.asarray(q)


def _parse_camera(section) -> CameraSettings:
    section = _mapping(section, "camera")
    given = {"intrinsics": _build(CameraIntrinsics, _require(section, "intrinsics", "camera"),
                                  "camera.intrinsics")}
    if "mount" in section:
        given["mount"] = _transform(section["mount"], "camera.mount")
    return _build(CameraSettings, section, "camera", **given)


def parse_config(raw: dict, name_hint: str = "config") -> RobotConfig:
    if not isinstance(raw, dict):
        raise ConfigError(name_hint, "config root must be a mapping")
    _mapping(raw, "", _TOP_KEYS)
    schema = raw.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError("schema", f"unsupported schema version {schema}")
    name = _value(_require(raw, "name", ""), "", "name", "name")
    subsystems = _mapping(_require(raw, "subsystems", ""), "subsystems", SUBSYSTEMS)
    flags = {}
    for sub in SUBSYSTEMS:
        val = subsystems.get(sub, False)
        if not isinstance(val, bool):
            raise ConfigError(f"subsystems.{sub}", "must be a boolean")
        flags[sub] = val

    chain, home, named, ik = (_parse_chain(_mapping(_require(raw, "arm", ""), "arm", _ARM_KEYS))
                              if flags["arm"] else (None, None, {}, IkParams()))
    base = (_build(BaseSettings, _require(raw, "base", ""), "base") if flags["base"]
            else BaseSettings())
    camera = _parse_camera(_require(raw, "camera", "")) if flags["camera"] else CameraSettings()
    controllers = _mapping(raw.get("controllers"), "controllers", CONTROLLERS)
    noise = _mapping(raw.get("noise"), "noise", ("base", "arm"))
    skills = _build(SkillSettings, raw.get("skills"), "skills")
    benchmark = _build(BenchmarkSettings, raw.get("benchmark"), "benchmark")

    return RobotConfig(
        name=name,
        use_arm=flags["arm"], use_base=flags["base"],
        use_camera=flags["camera"], use_gripper=flags["gripper"],
        frames=asdict(_build(_Frames, raw.get("frames"), "frames")),
        chain=chain, home=home, named_poses=named, ik=ik,
        base=base, camera=camera,
        controllers={ctl: _build(c.params, controllers.get(ctl), f"controllers.{ctl}")
                     for ctl, c in CONTROLLERS.items()},
        base_noise=_build(BaseNoiseModel, noise.get("base"), "noise.base"),
        arm_noise=_build(ArmNoiseModel, noise.get("arm"), "noise.arm"),
        skills=skills, benchmark=benchmark,
    )


def bundled_config_dir() -> Path:
    return Path(__file__).parent / "configs"


def resolve_config_path(name_or_path) -> Path:
    """Resolve a config argument: an existing file wins, then ROBOKIT_CONFIG_DIR, then bundled."""
    p = Path(name_or_path)
    if p.is_file():
        return p
    candidates = []
    env = os.environ.get("ROBOKIT_CONFIG_DIR")
    if env:
        candidates.append(Path(env) / f"{name_or_path}.yaml")
    candidates.append(bundled_config_dir() / f"{name_or_path}.yaml")
    for c in candidates:
        if c.is_file():
            return c
    raise FileNotFoundError(f"no config file or bundled config named {name_or_path!r}")


_MERGE_TAG = "tag:yaml.org,2002:merge"


class _YamlLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's scanner and parser when PyYAML has them; the constructors stay
    PyYAML's, except that a mapping that repeats a scalar key is an error (PyYAML
    keeps the last value without a word)."""

    def construct_mapping(self, node, deep=False):
        pairs = list(node.value)   # as written: flattening merge keys rewrites node.value
        mapping = super().construct_mapping(node, deep)
        # a key for every pair and no merge key: nothing repeats, so skip the look-up
        if len(mapping) < len(pairs) or node.value != pairs:
            seen = set()
            for key_node, _ in pairs:
                if isinstance(key_node, yaml.ScalarNode) and key_node.tag != _MERGE_TAG:
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            "while constructing a mapping", node.start_mark,
                            f"found duplicate key {key!r}", key_node.start_mark)
                    seen.add(key)
        return mapping


def _read_yaml(path):
    try:
        with open(path, "rb") as f:  # the YAML reader detects the encoding
            return yaml.load(f, Loader=_YamlLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(str(path), f"parse error: {exc}") from None


def load_config(name_or_path) -> RobotConfig:
    """Load and validate a robot config from a path or a bundled config name."""
    path = resolve_config_path(name_or_path)
    return parse_config(_read_yaml(path), name_hint=str(path))


def load_scene(path) -> Scene:
    """Scene description (objects + floor extent) in the same YAML format as robot configs."""
    raw = _read_yaml(path)
    if not isinstance(raw, dict):
        raise ConfigError(str(path), "scene root must be a mapping")
    specs = raw.get("objects")
    if not isinstance(specs, (list, type(None))):
        raise ConfigError("objects", f"expected a list of objects, got {specs!r}")
    objects = []
    for i, obj in enumerate(specs or []):
        path_i = f"objects[{i}]"
        obj = _mapping(obj, path_i, ("shape", "xyz", "yaw", "size", "radius", "height"))
        shape = _require(obj, "shape", path_i)
        xyz = _vector(_require(obj, "xyz", path_i), 3, f"{path_i}.xyz")
        yaw = _number(obj.get("yaw", 0.0), f"{path_i}.yaw")
        pose = SE3.from_xyz_rpy(xyz, [0.0, 0.0, yaw])
        if shape == "box":
            keys = ["size[0]", "size[1]", "size[2]"]
            dims = tuple(_vector(_require(obj, "size", path_i), 3, f"{path_i}.size"))
        elif shape == "cylinder":
            keys = ["radius", "height"]
            dims = tuple(_number(_require(obj, key, path_i), f"{path_i}.{key}") for key in keys)
        else:
            raise ConfigError(f"{path_i}.shape", f"unknown shape {shape!r}")
        try:
            objects.append(SceneObject(shape=shape, pose=pose, dimensions=dims))
        except BoundError as exc:   # the shape and the count of dimensions are right
            raise ConfigError(f"{path_i}.{keys[exc.index]}",
                              f"must be {exc.bound}, got {dims[exc.index]!r}") from None
    return _build(Scene, raw, "", objects=objects)
