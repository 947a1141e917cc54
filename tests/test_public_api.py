"""The public API is the explicit list below, and the benchmark's imports stay in it.

A name added to or dropped from ``camline.__all__`` has to be added to or
dropped from ``PUBLIC`` too, so the size of the API changes only on purpose.
"""

from __future__ import annotations

import ast
from pathlib import Path

import camline

PUBLIC = [
    "BehindCamera",
    "CameraConfig",
    "CamlineError",
    "ConfigError",
    "DegenerateGeometry",
    "DegenerateLine",
    "DistortionCoefficients",
    "GeometryError",
    "Intrinsics",
    "NoHorizonIntersection",
    "NonConvergent",
    "Orientation",
    "OrientationEstimate",
    "PixelPoint",
    "ReferenceLineObservation",
    "SceneConstraints",
    "SweepConfig",
    "SyntheticScene",
    "TooFewVisible",
    "TrialReport",
    "WorldPoint",
    "ZSpread",
    "central_pixel",
    "estimate_orientation",
    "estimate_pitch",
    "load_camera_config",
    "project",
    "render_line",
    "residual_z_spread",
    "rotation_x",
    "rotation_xz",
    "rotation_z",
    "sweep",
    "undistort",
    "write_sweep_csv",
]

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 35
    assert len(set(camline.__all__)) == len(camline.__all__)
    assert sorted(camline.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in camline.__all__ if not hasattr(camline, name)]
    assert missing == []


def test_bench_imports_only_public_names():
    tree = ast.parse(WORKLOADS.read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "camline"
        for alias in node.names
    ]
    assert imported, f"{WORKLOADS.name} imports nothing from camline"
    assert sorted(set(imported) - set(camline.__all__)) == []
