import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robokit import config
from robokit.config import (bundled_config_dir, load_config, load_scene, parse_config,
                            resolve_config_path)
from robokit.errors import BoundError, ConfigError

import yaml

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


def locobot_raw():
    with open(resolve_config_path("locobot")) as f:
        return yaml.safe_load(f)


def formats_doc_example():
    """The robot-config example in docs/formats.md, as YAML text."""
    doc = (Path(__file__).parent.parent / "docs" / "formats.md").read_text()
    section = doc[doc.index("## Robot config"):]
    return section[section.index("```yaml") + 7:section.index("```\n")]


def test_locobot_arm_has_five_joints():
    cfg = load_config("locobot")
    assert cfg.chain.dof == 5
    assert cfg.use_arm and cfg.use_base and cfg.use_camera and cfg.use_gripper


def test_locobot_reach_is_055():
    cfg = load_config("locobot")
    # shoulder-to-tool link lengths sum to the documented maximum reach
    reach = 0.23 + 0.22 + 0.05 + 0.05
    assert reach == pytest.approx(0.55)


def test_sawyer_sim_flags():
    cfg = load_config("sawyer_sim")
    assert cfg.use_arm and cfg.use_gripper
    assert not cfg.use_base and not cfg.use_camera
    assert cfg.chain.dof == 7


def test_locobot_lite_noise_is_larger():
    a = load_config("locobot").base_noise
    b = load_config("locobot_lite").base_noise
    assert b.odometry_v > a.odometry_v
    assert b.actuation_v > a.actuation_v


def test_named_poses_present_and_within_limits():
    cfg = load_config("locobot")
    for name in ("overhead", "reset"):
        q = cfg.named_poses[name]
        assert np.all(q >= cfg.chain.lower_limits)
        assert np.all(q <= cfg.chain.upper_limits)
    np.testing.assert_allclose(cfg.named_poses["reset"], [-1.5, 0.5, 0.3, -0.7, 0.0])


def test_zero_vmax_names_key():
    raw = locobot_raw()
    raw["base"]["v_max"] = 0
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.key == "base.v_max"


def test_missing_required_field():
    raw = locobot_raw()
    del raw["base"]["omega_max"]
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert "omega_max" in exc.value.key


def test_prismatic_joint_rejected():
    raw = locobot_raw()
    raw["arm"]["joints"][0]["type"] = "prismatic"
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert "type" in exc.value.key


def test_empty_chain_rejected_when_arm_enabled():
    raw = locobot_raw()
    raw["arm"]["joints"] = []
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.key == "arm.joints"


def test_bad_intrinsics_rejected():
    raw = locobot_raw()
    raw["camera"]["intrinsics"]["fx"] = -10.0
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert "fx" in exc.value.key


def test_unknown_controller_rejected():
    raw = locobot_raw()
    raw["controllers"]["mpc"] = {}
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert "mpc" in exc.value.key


def test_unknown_controller_param_rejected():
    raw = locobot_raw()
    raw["controllers"]["lqr"]["gain"] = 3.0
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_lqr_zero_state_weight_accepted():
    # q only needs to be >= 0 (Q positive semidefinite); r > 0 is checked per entry
    raw = locobot_raw()
    raw["controllers"]["lqr"]["q"] = [0, 5.0, 0]
    cfg = parse_config(raw)
    assert cfg.controllers["lqr"].q == (0.0, 5.0, 0.0)


def test_controller_defaults_applied():
    raw = locobot_raw()
    del raw["controllers"]
    cfg = parse_config(raw)
    assert set(cfg.controllers) == {"proportional", "lqr", "dwa"}
    assert cfg.controllers["proportional"].bearing_threshold == pytest.approx(math.radians(2))
    assert cfg.controllers["dwa"].samples_v == 11


def test_omitted_ik_block_uses_ik_params_defaults():
    from robokit.kinematics import IkParams

    raw = locobot_raw()
    del raw["arm"]["ik"]
    assert parse_config(raw).ik == IkParams()


def test_omitted_sections_use_dataclass_defaults():
    from robokit.config import BenchmarkSettings, SkillSettings

    raw = locobot_raw()
    raw.pop("skills", None)
    raw.pop("benchmark", None)
    cfg = parse_config(raw)
    assert cfg.skills == SkillSettings()
    assert cfg.benchmark == BenchmarkSettings()


@pytest.mark.parametrize("objects", ["5", "{a: 1}"])
def test_scene_objects_must_be_a_list(tmp_path, objects):
    scene = tmp_path / "scene.yaml"
    scene.write_text(f"objects: {objects}\n")
    with pytest.raises(ConfigError) as exc:
        load_scene(scene)
    assert exc.value.key == "objects"


def test_parse_error_is_config_error(tmp_path):
    # PyYAML and libyaml word the error differently; both name the file, line and column
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed\n")
    with pytest.raises(ConfigError, match="parse error") as exc:
        load_config(bad)
    assert exc.value.key == str(bad)
    assert f'in "{bad}", line 1, column' in str(exc.value)


@pytest.mark.parametrize("load", [load_config, load_scene], ids=["config", "scene"])
def test_duplicate_key_is_config_error(tmp_path, load):
    # the last of two equal keys used to win without a word
    if load is load_config:
        lines = resolve_config_path("locobot").read_text().splitlines()
        line = next(n for n, text in enumerate(lines, 1) if text.startswith("  v_max: 0.3"))
        lines.insert(line, "  v_max: 0.05")
        key, where = "v_max", f"line {line + 1}, column 3"
    else:
        lines = ["floor_radius: 2.0", "objects: []", "floor_radius: 3.0"]
        key, where = "floor_radius", "line 3, column 1"
    bad = tmp_path / "dup.yaml"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ConfigError, match=f"found duplicate key '{key}'") as exc:
        load(bad)
    assert exc.value.key == str(bad)
    assert f'in "{bad}", {where}' in str(exc.value)


def test_merge_key_is_not_a_duplicate(tmp_path):
    path = tmp_path / "merge.yaml"
    path.write_text("a: &x {b: 1, c: 2}\nd: {<<: *x, b: 3}\n")
    assert config._read_yaml(path) == {"a": {"b": 1, "c": 2}, "d": {"b": 3, "c": 2}}
    path.write_text("a: &x {b: 1, c: 2}\nd: {<<: *x, e: 3, e: 4}\n")
    with pytest.raises(ConfigError, match="found duplicate key 'e'"):
        config._read_yaml(path)


@pytest.mark.parametrize("load", [load_config, load_scene], ids=["config", "scene"])
def test_invalid_utf8_is_config_error(tmp_path, load):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"name: \xff\xfe bad\n")
    with pytest.raises(ConfigError, match="parse error") as exc:
        load(bad)
    assert exc.value.key == str(bad)
    assert "position 6" in str(exc.value)


def test_directory_does_not_shadow_a_config_name(tmp_path, monkeypatch):
    (tmp_path / "locobot").mkdir()
    (tmp_path / "locobot.yaml").mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("ROBOKIT_CONFIG_DIR", str(tmp_path))
    assert resolve_config_path("locobot") == bundled_config_dir() / "locobot.yaml"
    assert load_config("locobot").name == "locobot"


def test_missing_config_file():
    with pytest.raises(FileNotFoundError):
        load_config("no_such_robot")


def test_env_config_dir(tmp_path, monkeypatch):
    custom = tmp_path / "mybot.yaml"
    with open(resolve_config_path("sawyer_sim")) as f:
        text = f.read()
    custom.write_text(text.replace("name: sawyer_sim", "name: mybot"))
    monkeypatch.setenv("ROBOKIT_CONFIG_DIR", str(tmp_path))
    cfg = load_config("mybot")
    assert cfg.name == "mybot"


@pytest.mark.parametrize("upper", ["pre_push_height", "pregrasp_height"], ids=["push", "grasp"])
def test_pre_push_below_push_rejected(upper):
    raw = locobot_raw()
    raw["skills"][upper] = 0.05
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.key == f"skills.{upper}"


@pytest.mark.parametrize("path, value", [
    ("skills.z_floor", None),
    ("camera.mount", 7),
    ("controllers.dwa.samples_v", 0),
    ("controllers.dwa.samples_v", 2.5),
    ("base.v_max", math.nan),
    ("skills.dbscan_epss", 0.03),
    ("base.amax", 0.5),
    ("controllers.dwa.clearance_cap", 0.5),
    ("arm.ik.restarts", -1),
    ("name", None),
    ("arm.joints[0].name", None),
    ("controllers.lqr.r[0]", 0),
    ("controllers.lqr.r[1]", -0.5),
    ("controllers.lqr.q[0]", -1),
    ("controllers.lqr.q[2]", -1e-9),
    ("noise.arm.sigma[0]", -1e-4),
    ("camera.depth_sigma", -0.1),
    ("base.heading_tolerance_deg", -1),
    ("controllers.proportional.kp_lin", -1),
    ("skills.dbscan_min_pts", 0),
    ("benchmark.tracking_speed", 0),
    ("noise.base.actuation_v", -0.1),
    ("controllers.dwa.weight_heading", -1),
    ("arm.joints[0].max_velocity", 0),
    ("arm.joints[0].xyz[0]", "x"),
])
def test_malformed_value_names_exact_key(path, value):
    raw = locobot_raw()
    *sections, key = path.replace("[", ".").replace("]", "").split(".")
    node = raw
    for s in sections:
        node = node[int(s) if isinstance(node, list) else s]
    node[int(key) if isinstance(node, list) else key] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.key == path


def test_degree_key_error_quotes_the_value_as_written():
    # the field holds radians; the message quotes the file's degrees
    raw = locobot_raw()
    raw["base"]["heading_tolerance_deg"] = -1.5
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert str(exc.value) == "base.heading_tolerance_deg: must be > 0, got -1.5"


def _instances():
    """One valid instance of every class that declares field bounds."""
    from robokit.benchmark import BaseTrialProtocol
    from robokit.config import BaseSettings, BenchmarkSettings, CameraSettings, SkillSettings
    from robokit.control import DwaParams, LqrParams, ProportionalParams
    from robokit.geometry import SE3, Pose2D
    from robokit.kinematics import IkParams, Joint
    from robokit.planning import OccupancyGrid
    from robokit.sim import ArmNoiseModel, BaseNoiseModel, CameraIntrinsics, Scene, SceneObject
    from robokit.skills import DbscanParams
    from robokit.trajectory import VelocityLimits

    return {cls.__name__: obj for cls, obj in [
        (c, c()) for c in (VelocityLimits, BaseSettings, CameraSettings, SkillSettings,
                           BenchmarkSettings, LqrParams, ProportionalParams, DwaParams,
                           IkParams, BaseNoiseModel, ArmNoiseModel, Scene)] + [
        (CameraIntrinsics, CameraIntrinsics(600.0, 600.0, 320.0, 240.0)),
        (SceneObject, SceneObject("box", SE3(), (0.1, 0.1, 0.1))),
        (DbscanParams, DbscanParams(0.03, 10)),
        (Joint, Joint("j", SE3(), (0.0, 0.0, 1.0), -1.0, 1.0)),
        (OccupancyGrid, OccupancyGrid(0.1, Pose2D(), [[0]])),
        (BaseTrialProtocol, BaseTrialProtocol("linear", ())),
    ]}


# every declared bound, written out by hand so that a dropped declaration fails:
# class, field, low (a number or the name of the field it compares with), strict
BOUNDS = [
    ("VelocityLimits", "v_max", 0, True), ("VelocityLimits", "omega_max", 0, True),
    ("VelocityLimits", "a_max", 0, True), ("VelocityLimits", "alpha_max", 0, True),
    ("BaseSettings", "dt", 0, True), ("BaseSettings", "position_tolerance", 0, True),
    ("BaseSettings", "heading_tolerance", 0, True), ("BaseSettings", "timeout", 0, True),
    ("CameraSettings", "max_range", 0, True), ("CameraSettings", "density", 0, True),
    ("CameraSettings", "depth_sigma", 0, False),
    ("CameraIntrinsics", "fx", 0, True), ("CameraIntrinsics", "fy", 0, True),
    ("CameraIntrinsics", "width", 0, True), ("CameraIntrinsics", "height", 0, True),
    ("SkillSettings", "max_range", 0, True), ("SkillSettings", "dbscan_eps", 0, True),
    ("SkillSettings", "dbscan_min_pts", 1, False), ("SkillSettings", "grasp_height", 0, True),
    ("SkillSettings", "pregrasp_height", "grasp_height", False),
    ("SkillSettings", "push_height", 0, True),
    ("SkillSettings", "pre_push_height", "push_height", False),
    ("BenchmarkSettings", "repeatability_reps", 2, False),
    ("BenchmarkSettings", "tracking_speed", 0, True),
    ("LqrParams", "q", 0, False), ("LqrParams", "r", 0, True),
    ("LqrParams", "qf_scale", 0, True),
    ("ProportionalParams", "kp_lin", 0, True), ("ProportionalParams", "kp_ang", 0, True),
    ("ProportionalParams", "bearing_threshold", 0, True),
    ("DwaParams", "samples_v", 1, False), ("DwaParams", "samples_omega", 1, False),
    ("DwaParams", "horizon", 0, True), ("DwaParams", "weight_heading", 0, False),
    ("DwaParams", "weight_distance", 0, False), ("DwaParams", "weight_velocity", 0, False),
    ("DwaParams", "weight_clearance", 0, False), ("DwaParams", "position_tolerance", 0, True),
    ("DwaParams", "heading_tolerance", 0, True),
    ("IkParams", "position_tolerance", 0, True), ("IkParams", "orientation_tolerance", 0, True),
    ("IkParams", "max_iterations", 0, True), ("IkParams", "damping", 0, True),
    ("IkParams", "step_clamp", 0, True), ("IkParams", "restarts", 0, False),
    ("BaseNoiseModel", "actuation_v", 0, False), ("BaseNoiseModel", "actuation_omega", 0, False),
    ("BaseNoiseModel", "odometry_v", 0, False), ("BaseNoiseModel", "odometry_omega", 0, False),
    ("ArmNoiseModel", "sigma", 0, False),
    ("Scene", "floor_radius", 0, True),
    ("SceneObject", "dimensions", 0, True),
    ("DbscanParams", "eps", 0, True), ("DbscanParams", "min_pts", 1, False),
    ("Joint", "max_velocity", 0, True),
    ("OccupancyGrid", "resolution", 0, True),
    ("BaseTrialProtocol", "trials", 1, False),
]


@pytest.mark.parametrize("cls, name, low, strict", BOUNDS,
                         ids=[f"{cls}.{name}" for cls, name, _, _ in BOUNDS])
def test_declared_bounds(cls, name, low, strict):
    obj = _instances()[cls]
    bound = getattr(obj, low) if isinstance(low, str) else low
    entry = isinstance(getattr(obj, name), tuple)   # a tuple field: bound its first entry

    def make(v):
        value = (v,) + getattr(obj, name)[1:] if entry else v
        return replace(obj, **{name: value})

    if not strict:
        make(bound)   # the bound itself is allowed
    # an int field rejects bound - 1e-9 by its kind alone, so step below it by 1
    below = bound - (1 if isinstance(getattr(obj, name), int) else 1e-9)
    for v in (math.nan, math.inf, bound if strict else below):
        with pytest.raises(BoundError) as exc:
            make(v)
        assert exc.value.field == (f"{name}[0]" if entry else name), v


# every field annotated int, by hand: each must hold an integer, not a float or a bool
INTEGERS = [
    ("SkillSettings", "dbscan_min_pts"), ("BenchmarkSettings", "repeatability_reps"),
    ("CameraIntrinsics", "width"), ("CameraIntrinsics", "height"),
    ("DwaParams", "samples_v"), ("DwaParams", "samples_omega"),
    ("IkParams", "max_iterations"), ("IkParams", "restarts"),
    ("DbscanParams", "min_pts"), ("BaseTrialProtocol", "trials"),
]


@pytest.mark.parametrize("cls, name", INTEGERS, ids=[f"{c}.{n}" for c, n in INTEGERS])
def test_integer_fields_hold_integers(cls, name):
    obj = _instances()[cls]
    value = getattr(obj, name)
    assert getattr(replace(obj, **{name: np.int64(value)}), name) == value
    for bad in (value + 0.5, float(value), True):
        with pytest.raises(BoundError, match=f"^{cls}.{name} must be an integer ") as exc:
            replace(obj, **{name: bad})
        assert exc.value.field == name


def test_integer_table_lists_every_int_field():
    from dataclasses import fields
    declared = {(cls, f.name) for cls, obj in _instances().items() for f in fields(obj)
                if f.type in (int, "int")}
    assert declared == set(INTEGERS)


# every field whose tuple default fixes its length, by hand
LENGTHS = [("LqrParams", "q", 3), ("LqrParams", "r", 2), ("ArmNoiseModel", "sigma", 3)]


@pytest.mark.parametrize("cls, name, n", LENGTHS, ids=[f"{c}.{n}" for c, n, _ in LENGTHS])
def test_tuple_fields_hold_their_length(cls, name, n):
    obj = _instances()[cls]
    for bad in ((1e-3,) * (n - 1), (1e-3,) * (n + 1), 1e-3):
        with pytest.raises(BoundError, match=f"^{cls}.{name} must be a {n}-vector, got") as exc:
            replace(obj, **{name: bad})
        assert exc.value.field == name
    replace(obj, **{name: [1e-3] * n})   # a list of the right length is taken


# every field with a fixed set of values, by hand
CHOICES = [
    ("LqrParams", "trajectory", ("sharp", "smooth")),
    ("BaseTrialProtocol", "motion_class", ("linear", "rotation", "combined")),
    ("SceneObject", "shape", ("box", "cylinder")),
]


@pytest.mark.parametrize("cls, name, options", CHOICES, ids=[f"{c}.{n}" for c, n, _ in CHOICES])
def test_choice_fields_take_only_their_options(cls, name, options):
    obj = _instances()[cls]
    for bad in ("smoth", options[0].upper(), None, 1):
        with pytest.raises(BoundError) as exc:
            replace(obj, **{name: bad})
        assert exc.value.field == name
        assert str(exc.value) == (f"{cls}.{name} must be one of "
                                  f"{', '.join(map(repr, options))}, got {bad!r}")


@pytest.mark.parametrize("path, value, message", [
    ("controllers.dwa.samples_v", 2.5, "must be an integer >= 1, got 2.5"),
    ("controllers.dwa.samples_v", 0, "must be an integer >= 1, got 0"),
    ("controllers.lqr.trajectory", "smoth", "must be one of 'sharp', 'smooth', got 'smoth'"),
    ("camera.intrinsics.width", 640.5, "must be an integer > 0, got 640.5"),
    ("arm.ik.restarts", 1.5, "must be an integer >= 0, got 1.5"),
])
def test_field_rule_errors_keep_their_key(path, value, message):
    raw = locobot_raw()
    *sections, key = path.split(".")
    node = raw
    for s in sections:
        node = node[s]
    node[key] = value
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.key == path
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("section, name, i, value, message", [
    ("home", None, 0, 640.5, "joint waist: 640.5 outside its limits [-3.1416, 3.1416]"),
    ("home", None, 1, -1.86, "joint shoulder: -1.86 outside its limits [-1.85, 1.85]"),
    ("home", None, 4, 4, "joint wrist_roll: 4 outside its limits [-3.1416, 3.1416]"),
    ("named_poses", "overhead", 1, 50.0, "joint shoulder: 50.0 outside its limits [-1.85, 1.85]"),
    ("named_poses", "reset", 3, 1.8000001,
     "joint wrist_pitch: 1.8000001 outside its limits [-1.8, 1.8]"),
])
def test_joint_vector_outside_limits_names_the_entry(section, name, i, value, message):
    raw = locobot_raw()
    vector = raw["arm"][section] if name is None else raw["arm"][section][name]
    vector[i] = value
    path = f"arm.{section}" if name is None else f"arm.{section}.{name}"
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert exc.value.key == f"{path}[{i}]"
    assert str(exc.value) == f"{path}[{i}]: {message}"


def test_joint_vector_on_its_limits_loads():
    raw = locobot_raw()
    raw["arm"]["home"] = [-3.1416, 1.85, -2.62, 1.80, 3.1416]
    raw["arm"]["named_poses"]["edge"] = [3.1416, -1.85, 2.62, -1.80, -3.1416]
    cfg = parse_config(raw)
    np.testing.assert_array_equal(cfg.home, cfg.chain.lower_limits * [1, -1, 1, -1, -1])
    np.testing.assert_array_equal(cfg.named_poses["edge"], cfg.chain.upper_limits * [1, -1, 1, -1, -1])


def test_integral_float_reads_as_int():
    raw = locobot_raw()
    raw["controllers"]["dwa"]["samples_v"] = 7.0
    samples = parse_config(raw).controllers["dwa"].samples_v
    assert samples == 7 and type(samples) is int


def test_formats_doc_example_lists_every_setting():
    # the robot-config example in docs/formats.md is a valid config (unknown keys
    # are rejected) and names every field of every settings dataclass, so the doc
    # cannot keep a deleted setting or miss a new one
    from dataclasses import fields, is_dataclass

    from robokit.config import (BaseSettings, BenchmarkSettings, CameraSettings, SkillSettings,
                                _Frames, _key)
    from robokit.control import CONTROLLERS
    from robokit.kinematics import IkParams
    from robokit.sim import ArmNoiseModel, BaseNoiseModel, CameraIntrinsics

    raw = yaml.safe_load(formats_doc_example())
    parse_config(raw)
    settings = {"frames": _Frames, "arm.ik": IkParams, "base": BaseSettings,
                "camera": CameraSettings, "camera.intrinsics": CameraIntrinsics,
                "noise.base": BaseNoiseModel, "noise.arm": ArmNoiseModel,
                "skills": SkillSettings, "benchmark": BenchmarkSettings,
                **{f"controllers.{name}": c.params for name, c in CONTROLLERS.items()}}
    for path, cls in settings.items():
        node = raw
        for part in path.split("."):
            node = node[part]
        keys = [_key(g.name) for f in fields(cls)
                for g in (fields(f.default_factory) if is_dataclass(f.default_factory) else [f])]
        assert set(keys) <= set(node), f"{path} lacks {sorted(set(keys) - set(node))}"


@pytest.mark.parametrize("name", ["locobot", "locobot_lite", "sawyer_sim", "push_scene", "docs"])
def test_reader_gives_the_pure_python_documents(tmp_path, name):
    # repr tells 1 from 1.0 and True, which == does not
    if name == "docs":
        path = tmp_path / "example.yaml"
        path.write_text(formats_doc_example())
    else:
        path = bundled_config_dir() / f"{name}.yaml"
    expected = yaml.load(path.read_bytes(), Loader=yaml.SafeLoader)
    assert repr(config._read_yaml(path)) == repr(expected)


scalars = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.text())
documents = st.recursive(scalars, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)), max_leaves=20)


@needs_libyaml
@settings(max_examples=300, deadline=None)
@given(doc=documents, flow=st.sampled_from([False, True, None]), unicode=st.booleans())
def test_libyaml_reads_dumped_documents_like_pure_python(doc, flow, unicode):
    text = yaml.safe_dump(doc, default_flow_style=flow, allow_unicode=unicode).encode()
    expected = yaml.load(text, Loader=yaml.SafeLoader)
    assert repr(yaml.load(text, Loader=yaml.CSafeLoader)) == repr(expected)


@needs_libyaml
def test_reader_parses_with_libyaml(monkeypatch):
    # a reader back on yaml.safe_load parses the bundled config in pure Python, about 4x slower
    streams = []
    init = yaml.CSafeLoader.__init__

    def spy(self, stream):
        streams.append(stream)
        init(self, stream)

    monkeypatch.setattr(yaml.CSafeLoader, "__init__", spy)
    assert config._read_yaml(bundled_config_dir() / "locobot.yaml")["name"] == "locobot"
    assert len(streams) == 1
