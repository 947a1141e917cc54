"""Tests for strict camera config parsing."""

from __future__ import annotations

import json

import pytest

from camline import (
    CameraConfig,
    ConfigError,
    DistortionCoefficients,
    Intrinsics,
    SceneConstraints,
    load_camera_config,
)

VALID = {
    "intrinsics": {"fx": 1000.0, "fy": 1000.0, "cx": 640.0, "cy": 360.0, "skew": 0.0},
    "distortion": {"k1": -1e-8, "k2": 0.0, "p1": 1e-9, "p2": 0.0, "k3": 0.0},
    "scene": {"c0": 2.0, "z0": 3.0},
}


def write_config(tmp_path, doc, name="camera.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_valid_config(tmp_path):
    cfg = load_camera_config(write_config(tmp_path, VALID))
    assert cfg.intrinsics == Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
    assert cfg.distortion.k1 == -1e-8
    assert cfg.distortion.p1 == 1e-9
    assert cfg.scene == SceneConstraints(c0=2.0, z0=3.0)


def test_skew_and_distortion_default_to_zero(tmp_path):
    doc = {
        "intrinsics": {"fx": 900.0, "fy": 900.0, "cx": 320.0, "cy": 240.0},
        "scene": {"c0": 1.5, "z0": 4.0},
    }
    cfg = load_camera_config(write_config(tmp_path, doc))
    assert cfg.intrinsics.skew == 0.0
    assert cfg.distortion == DistortionCoefficients()


def test_unknown_top_level_field_is_named(tmp_path):
    doc = dict(VALID, extra={"a": 1})
    with pytest.raises(ConfigError, match="extra"):
        load_camera_config(write_config(tmp_path, doc))


def test_unknown_distortion_coefficient_is_named(tmp_path):
    doc = json.loads(json.dumps(VALID))
    doc["distortion"]["k4"] = 0.1
    with pytest.raises(ConfigError, match="distortion.k4"):
        load_camera_config(write_config(tmp_path, doc))


def test_missing_scene_section(tmp_path):
    doc = {"intrinsics": VALID["intrinsics"]}
    with pytest.raises(ConfigError, match="scene"):
        load_camera_config(write_config(tmp_path, doc))


def test_missing_required_field_is_named(tmp_path):
    doc = json.loads(json.dumps(VALID))
    del doc["intrinsics"]["cy"]
    with pytest.raises(ConfigError, match="intrinsics.cy"):
        load_camera_config(write_config(tmp_path, doc))


def test_invariant_violation_names_field(tmp_path):
    doc = json.loads(json.dumps(VALID))
    doc["intrinsics"]["fy"] = 0.0
    with pytest.raises(ConfigError, match="fy"):
        load_camera_config(write_config(tmp_path, doc))


def test_non_numeric_value_rejected(tmp_path):
    doc = json.loads(json.dumps(VALID))
    doc["scene"]["c0"] = "two"
    with pytest.raises(ConfigError, match="scene.c0"):
        load_camera_config(write_config(tmp_path, doc))


def test_boolean_is_not_a_number(tmp_path):
    doc = json.loads(json.dumps(VALID))
    doc["intrinsics"]["fx"] = True
    with pytest.raises(ConfigError, match="intrinsics.fx"):
        load_camera_config(write_config(tmp_path, doc))


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_camera_config(path)


def test_integer_too_large_for_a_float_is_named(tmp_path):
    doc = json.loads(json.dumps(VALID))
    doc["intrinsics"]["fx"] = 10**400
    with pytest.raises(ConfigError, match="intrinsics.fx"):
        load_camera_config(write_config(tmp_path, doc))


def test_integer_past_the_digit_limit_is_malformed_json(tmp_path):
    # json refuses integer literals longer than the interpreter's digit limit.
    path = tmp_path / "camera.json"
    path.write_text(json.dumps(VALID).replace('"fx": 1000.0', '"fx": 1' + "0" * 5000))
    with pytest.raises(ConfigError, match="JSON"):
        load_camera_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="read"):
        load_camera_config(tmp_path / "nope.json")


def test_undecodable_file_cannot_be_read(tmp_path):
    # Bytes ff fe 00 open a UTF-16 byte-order mark; they are not UTF-8 text.
    path = tmp_path / "camera.json"
    path.write_bytes(b"\xff\xfe\x00" + json.dumps(VALID).encode())
    with pytest.raises(ConfigError, match=f"cannot read config file {path}: .*can't decode"):
        load_camera_config(path)


@pytest.mark.parametrize(
    "text, key",
    [
        (json.dumps(VALID).replace('"k1": -1e-08', '"k1": -1e-08, "k1": 0.0'), "k1"),
        (json.dumps(VALID)[:-1] + ', "scene": {"c0": 5.0, "z0": 3.0}}', "scene"),
    ],
    ids=["in_a_section", "top_level"],
)
def test_repeated_key_is_named(tmp_path, text, key):
    # json keeps a repeated key's last value; a strict config refuses it.
    assert text.count(f'"{key}"') == 2
    path = tmp_path / "camera.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match=f"key '{key}' appears more than once"):
        load_camera_config(path)


def test_every_field_loads_as_written(tmp_path):
    # Every field off its default, distortion keys out of the usual order.
    doc = {
        "scene": {"z0": 6.5, "c0": 1.75},
        "distortion": {"p2": 2e-9, "k3": 3e-21, "k1": 1e-8, "p1": -1e-9, "k2": -2e-15},
        "intrinsics": {"skew": 0.25, "cy": 300.0, "cx": 400.0, "fy": 820.0, "fx": 800.0},
    }
    cfg = load_camera_config(write_config(tmp_path, doc))
    assert cfg == CameraConfig(
        intrinsics=Intrinsics(fx=800.0, fy=820.0, cx=400.0, cy=300.0, skew=0.25),
        distortion=DistortionCoefficients(k1=1e-8, k2=-2e-15, k3=3e-21, p1=-1e-9, p2=2e-9),
        scene=SceneConstraints(c0=1.75, z0=6.5),
    )
