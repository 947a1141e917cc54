"""Strict camera config files.

A config is a single JSON document with three sections::

    {
      "intrinsics": {"fx": 1000.0, "fy": 1000.0, "cx": 640.0, "cy": 360.0, "skew": 0.0},
      "distortion": {"k1": 0.0, "k2": 0.0, "p1": 0.0, "p2": 0.0, "k3": 0.0},
      "scene":      {"c0": 2.0, "z0": 3.0}
    }

``skew`` and the whole ``distortion`` section are optional (default 0);
everything else is required.  Unknown fields anywhere are rejected by name so
typos in coefficient names cannot silently become zeros.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core_geometry import DistortionCoefficients, Intrinsics, SceneConstraints
from .errors import ConfigError

__all__ = ["CameraConfig", "load_camera_config"]

_INTRINSICS_REQUIRED = ("fx", "fy", "cx", "cy")
_INTRINSICS_OPTIONAL = ("skew",)
_DISTORTION_KEYS = ("k1", "k2", "p1", "p2", "k3")
_SCENE_REQUIRED = ("c0", "z0")


@dataclass(frozen=True)
class CameraConfig:
    intrinsics: Intrinsics
    distortion: DistortionCoefficients
    scene: SceneConstraints


def _number(section: str, name: str, value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{section}.{name} must be a number, got {value!r}")
    return float(value)


def _section(doc: dict, name: str, required: tuple[str, ...], optional: tuple[str, ...]) -> dict:
    if name not in doc:
        raise ConfigError(f"missing required config section '{name}'")
    section = doc[name]
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    allowed = set(required) | set(optional)
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config field '{name}.{key}'")
    for key in required:
        if key not in section:
            raise ConfigError(f"missing required config field '{name}.{key}'")
    return {key: _number(name, key, value) for key, value in section.items()}


def load_camera_config(path: str | Path) -> CameraConfig:
    """Load and validate a camera config file.

    Raises:
        ConfigError: unreadable file, malformed JSON, unknown or missing
            fields, or field values violating a constructor invariant.
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")

    for key in doc:
        if key not in ("intrinsics", "distortion", "scene"):
            raise ConfigError(f"unknown config field '{key}'")

    intr = _section(doc, "intrinsics", _INTRINSICS_REQUIRED, _INTRINSICS_OPTIONAL)
    scene = _section(doc, "scene", _SCENE_REQUIRED, ())
    dist = (
        _section(doc, "distortion", (), _DISTORTION_KEYS)
        if "distortion" in doc
        else {}
    )

    try:
        return CameraConfig(
            intrinsics=Intrinsics(**intr),
            distortion=DistortionCoefficients(**dist),
            scene=SceneConstraints(**scene),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid config value: {exc}") from exc
