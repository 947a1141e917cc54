"""Strict camera config files.

A config is a single JSON document with three sections::

    {
      "intrinsics": {"fx": 1000.0, "fy": 1000.0, "cx": 640.0, "cy": 360.0, "skew": 0.0},
      "distortion": {"k1": 0.0, "k2": 0.0, "p1": 0.0, "p2": 0.0, "k3": 0.0},
      "scene":      {"c0": 2.0, "z0": 3.0}
    }

Each section holds the fields of the dataclass :class:`CameraConfig` names
for it.  A field with a default may be left out, and so may a section whose
fields all have one (``skew`` and the whole ``distortion`` section, default
0); everything else is required.  Unknown fields anywhere are rejected by name
so typos in coefficient names cannot silently become zeros.  A value its
dataclass refuses reads ``section.field ...``: ``intrinsics.fy must be > 0, got 0.0``.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import get_type_hints

from .core_geometry import DistortionCoefficients, Intrinsics, SceneConstraints, _require_types
from .errors import ConfigError

__all__ = ["CameraConfig", "load_camera_config"]


@dataclass(frozen=True)
class CameraConfig:
    intrinsics: Intrinsics
    distortion: DistortionCoefficients
    scene: SceneConstraints

    def __post_init__(self) -> None:
        _require_types(self, {"intrinsics": Intrinsics, "distortion": DistortionCoefficients,
                              "scene": SceneConstraints})


def _section(doc: dict, name: str, cls: type):
    """Section ``name`` of ``doc`` as a ``cls``, whose fields are its only keys."""
    required = {f.name: f.default is MISSING for f in fields(cls)}
    if name not in doc and any(required.values()):
        raise ConfigError(f"missing required config section '{name}'")
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    for key in section:
        if key not in required:
            raise ConfigError(f"unknown config field '{name}.{key}'")
    for key, needed in required.items():
        if needed and key not in section:
            raise ConfigError(f"missing required config field '{name}.{key}'")
    try:
        return cls(**section)
    except ConfigError as exc:  # its message starts with the field's name
        raise ConfigError(f"{name}.{exc}") from exc


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
    except ValueError as exc:  # also an integer literal past the digit limit
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")

    sections = get_type_hints(CameraConfig)
    for key in doc:
        if key not in sections:
            raise ConfigError(f"unknown config field '{key}'")
    return CameraConfig(**{name: _section(doc, name, cls) for name, cls in sections.items()})
