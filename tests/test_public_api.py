"""The public API is the explicit list below, and the benchmark's imports stay in it.

A name added to or dropped from ``camline.__all__`` has to be added to or
dropped from ``PUBLIC`` too, so the size of the API changes only on purpose.
Every public function also has a caller outside its own module, and every
leaf error class a raiser outside ``errors.py``.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import camline

PUBLIC = [
    "BehindCamera",
    "CameraConfig",
    "CamlineError",
    "ConfigError",
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
    "central_pixel",
    "estimate_orientation",
    "load_camera_config",
    "render_line",
    "residual_z_spread",
    "rotation_xz",
    "sweep",
    "undistort",
    "write_sweep_csv",
]

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"
SOURCES = sorted((ROOT / "src" / "camline").glob("*.py"))


def _imported_names(path: Path) -> set[str]:
    """Names that ``path`` imports by ``from camline import`` or a relative import."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "camline")
        for alias in node.names
    }


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 28
    assert len(set(camline.__all__)) == len(camline.__all__)
    assert sorted(camline.__all__) == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in camline.__all__ if not hasattr(camline, name)]
    assert missing == []


def test_bench_imports_only_public_names():
    imported = _imported_names(WORKLOADS)
    assert imported, f"{WORKLOADS.name} imports nothing from camline"
    assert sorted(set(imported) - set(camline.__all__)) == []


def test_every_public_function_has_a_caller_in_another_module():
    # A function counts as called when the benchmark or a camline module
    # other than the one defining it imports it by name.
    uncalled = []
    for name in camline.__all__:
        obj = getattr(camline, name)
        if not inspect.isfunction(obj):
            continue
        home = obj.__module__.rsplit(".", 1)[-1] + ".py"
        callers = [WORKLOADS] + [path for path in SOURCES if path.name != home]
        if not any(name in _imported_names(path) for path in callers):
            uncalled.append(name)
    assert uncalled == []


def test_every_leaf_error_is_named_outside_errors_py():
    # A leaf error class must be imported by another camline module, so it
    # cannot outlive its last raise.  Bases such as CamlineError and
    # GeometryError are what callers catch, and have subclasses.
    named = set().union(*(_imported_names(path) for path in SOURCES if path.name != "errors.py"))
    leaves = [
        name
        for name in camline.__all__
        if isinstance(obj := getattr(camline, name), type)
        and issubclass(obj, camline.CamlineError)
        and not obj.__subclasses__()
    ]
    assert len(leaves) == 6
    assert sorted(set(leaves) - named) == []
