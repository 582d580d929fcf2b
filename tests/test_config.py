import math

import numpy as np
import pytest

from robokit.config import load_config, parse_config, resolve_config_path
from robokit.errors import ConfigError

import yaml


def locobot_raw():
    with open(resolve_config_path("locobot")) as f:
        return yaml.safe_load(f)


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


def test_parse_error_is_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed\n")
    with pytest.raises(ConfigError, match="parse error"):
        load_config(bad)


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


def test_pre_push_below_push_rejected():
    raw = locobot_raw()
    raw["skills"]["pre_push_height"] = 0.05
    with pytest.raises(ConfigError) as exc:
        parse_config(raw)
    assert "pre_push" in exc.value.key
