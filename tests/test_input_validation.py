"""One number policy for every field of the library, decided in one place.

Every real field of the public dataclasses takes a Python or numpy int or
float, never a bool, that is finite; every int field takes a Python or numpy
int, never a bool; every tuple field takes a sequence or a 1-D array of such
reals, never a string or bytes; every field typed as a camline dataclass
takes an instance of it.  Anything else raises :class:`ConfigError`, a
``ValueError``, whose message starts with the field's name; when several
fields are bad, the first in declaration order is named.  A real field
without a bound accepts a negative value.  The fields are read from
``dataclasses.fields``, and each must fall under one of these rules, so a
field added later is covered too.

``_check_fields`` in ``core_geometry.py`` decides this: it checks each field
by the type the field is declared with, through ``_require_real`` for a real.
The AST checks at the end keep any other module from defining its own
validator or raising ``ValueError`` itself.
"""

from __future__ import annotations

import ast
import itertools
import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from camline import (
    CameraConfig,
    ConfigError,
    DistortionCoefficients,
    Intrinsics,
    Orientation,
    PixelPoint,
    SceneConstraints,
    SweepConfig,
    SyntheticScene,
)
from camline.cli import main

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "camline").glob("*.py"))

K = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
SC = SceneConstraints(c0=2.0, z0=3.0)
SCENE = SyntheticScene(ground_truth=Orientation(), sc=SC, k=K)

# Valid keyword arguments for each public dataclass that checks its fields.
VALID = {
    Intrinsics: dict(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0),
    DistortionCoefficients: {},
    SceneConstraints: dict(c0=2.0, z0=3.0),
    Orientation: {},
    PixelPoint: dict(u=1.0, v=2.0),
    SyntheticScene: dict(ground_truth=Orientation(), sc=SC, k=K),
    SweepConfig: dict(
        base_scene=SCENE, noise_sigmas=(0.0,), roll_range=(-0.1, 0.1),
        pitch_range=(0.4, 0.8), seeds_per_cell=1,
    ),
    CameraConfig: dict(intrinsics=K, distortion=DistortionCoefficients(), scene=SC),
}
TUPLES = ("tuple[float, ...]", "tuple[float, float]")
REAL = [(cls, f.name) for cls in VALID for f in fields(cls) if f.type in ("float", *TUPLES)]
INT = [(cls, f.name) for cls in VALID for f in fields(cls) if f.type == "int"]
SEQUENCE = [(cls, f.name) for cls in VALID for f in fields(cls) if f.type in TUPLES]
CLASSES = {cls.__name__: cls for cls in VALID}
OBJECT = [(cls, f.name) for cls in VALID for f in fields(cls) if f.type in CLASSES]
# Every real field with a bound; the others take any finite value, negative ones too.
BOUNDED = {"fx", "fy", "c0", "z0", "line_x_extent", "noise_sigma", "noise_sigmas"}
UNBOUNDED = [(cls, name) for cls, name in REAL if name not in BOUNDED]


def _build(cls: type, name: str, value: object):
    """``cls`` from its valid arguments, ``value`` in field ``name`` (twice in a tuple field)."""
    tuple_field = next(f.type in TUPLES for f in fields(cls) if f.name == name)
    return cls(**{**VALID[cls], name: (value, value) if tuple_field else value})


def _cases(pairs: list, values: list) -> list:
    return [
        pytest.param(cls, name, value, id=f"{cls.__name__}.{name}-{label}")
        for cls, name in pairs
        for label, value in values
    ]


def test_every_checked_field_is_covered():
    assert (len(REAL), len(INT), len(SEQUENCE), len(OBJECT), len(UNBOUNDED)) == (22, 6, 4, 8, 15)
    every = {(cls, f.name) for cls in VALID for f in fields(cls)}
    assert every == set(REAL) | set(INT) | set(OBJECT)
    for cls, kwargs in VALID.items():
        cls(**kwargs)


@pytest.mark.parametrize(
    "cls, name, value",
    _cases(REAL, [("str", "1.0"), ("bool", True), ("None", None), ("10**400", 10**400)]),
)
def test_a_real_field_refuses_a_non_number_by_name(cls, name, value):
    with pytest.raises(ConfigError) as info:
        _build(cls, name, value)
    assert str(info.value).startswith(f"{name} must be ")


@pytest.mark.parametrize("cls, name, value", _cases(INT, [("float", 1.5), ("bool", True)]))
def test_an_int_field_refuses_a_non_int_by_name(cls, name, value):
    with pytest.raises(ConfigError) as info:
        _build(cls, name, value)
    assert str(info.value).startswith(f"{name} must be an int, got ")


@pytest.mark.parametrize(
    "cls, name, value",
    _cases(REAL, [("int", 1), ("int64", np.int64(1)), ("float32", np.float32(1))])
    + _cases(UNBOUNDED, [("negative", -1.5), ("negative-int", -2)]),
)
def test_a_real_field_keeps_a_number_as_a_python_float(cls, name, value):
    got = getattr(_build(cls, name, value), name)
    assert all(type(x) is float and x == value for x in (got if isinstance(got, tuple) else [got]))


@pytest.mark.parametrize("cls, name, value", _cases(INT, [("int", 2), ("int64", np.int64(2))]))
def test_an_int_field_keeps_an_int_as_a_python_int(cls, name, value):
    got = getattr(_build(cls, name, value), name)
    assert type(got) is int and got == 2


@pytest.mark.parametrize(
    "cls, name, value",
    _cases(SEQUENCE, [
        ("float", 0.5), ("None", None), ("set", {0.0, 1.0}), ("0-d", np.array(0.5)),
        ("str", "0.5"), ("bytes", b"05"), ("bytearray", bytearray(b"05")),
    ]),
)
def test_a_tuple_field_refuses_a_non_sequence_by_name(cls, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be a sequence of numbers, got "):
        cls(**{**VALID[cls], name: value})


@pytest.mark.parametrize(
    "cls, name, value", _cases(SEQUENCE, [("list", [0, 1.0]), ("array", np.array([0.0, 1.0]))])
)
def test_a_tuple_field_keeps_a_sequence_as_a_float_tuple(cls, name, value):
    got = getattr(cls(**{**VALID[cls], name: value}), name)
    assert got == (0.0, 1.0) and type(got) is tuple and all(type(x) is float for x in got)


@pytest.mark.parametrize(
    "cls, name, value",
    _cases(OBJECT, [("None", None), ("float", 1.0), ("str", "x"), ("dict", {"roll": 0.0})]),
)
def test_a_dataclass_field_refuses_another_type_by_name(cls, name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be "):
        cls(**{**VALID[cls], name: value})


@pytest.mark.parametrize(
    "cls, name", [pytest.param(cls, name, id=f"{cls.__name__}.{name}") for cls, name in OBJECT]
)
def test_a_dataclass_field_refuses_another_camline_dataclass(cls, name):
    kind = CLASSES[next(f.type for f in fields(cls) if f.name == name)]
    other = Orientation() if kind is not Orientation else SC
    with pytest.raises(ConfigError) as info:
        cls(**{**VALID[cls], name: other})
    assert str(info.value) == f"{name} must be {kind.__name__}, got {other!r}"


# Two bad fields, passed later one first: every pair of a class's fields set
# to None, and two with values out of bounds or of the wrong type.
FIRST_BAD = [
    pytest.param(cls, {later: None, first: None}, first, id=f"{cls.__name__}.{first}-{later}")
    for cls in VALID
    for first, later in itertools.combinations([f.name for f in fields(cls)], 2)
] + [
    pytest.param(SyntheticScene, dict(line_x_extent=0, n_points=1), "line_x_extent"),
    pytest.param(SweepConfig, dict(k1_scales="x", seeds_per_cell=-1), "seeds_per_cell"),
]


@pytest.mark.parametrize("cls, bad, named", FIRST_BAD)
def test_the_first_bad_field_in_declaration_order_is_named(cls, bad, named):
    with pytest.raises(ConfigError, match=f"^{named} must be "):
        cls(**{**VALID[cls], **bad})


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def _write_config(tmp_path, **intrinsics) -> str:
    path = tmp_path / "camera.json"
    doc = {"intrinsics": {**VALID[Intrinsics], **intrinsics}, "scene": VALID[SceneConstraints]}
    path.write_text(json.dumps(doc))
    return str(path)


def test_cli_exits_1_on_a_negative_seed(tmp_path, capsys):
    config = _write_config(tmp_path)
    assert main(["simulate", config, str(tmp_path / "line.csv"), "--seed", "-1"]) == 1
    assert "error: rng_seed must be >= 0, got -1" in capsys.readouterr().err


def test_cli_exits_1_on_a_bool_in_the_config(tmp_path, capsys):
    assert main(["undistort", _write_config(tmp_path, fx=True), "1", "2"]) == 1
    assert "error: intrinsics.fx must be a real number, got True" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# One place decides
# ---------------------------------------------------------------------------


def raised_value_errors(source: str) -> list[int]:
    """Lines of ``source`` that raise ``ValueError`` itself, called or not."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                lines.append(node.lineno)
    return sorted(lines)


def defined_functions(source: str) -> set[str]:
    """Names of the functions ``source`` defines, at any depth."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_checkers_find_what_they_look_for():
    source = (
        "def _require_real(x):\n    raise ValueError('x')\n"
        "class A:\n    def _require_int(self):\n        raise ConfigError('y')\n"
        "raise ValueError\n"
    )
    assert raised_value_errors(source) == [2, 6]
    assert defined_functions(source) == {"_require_real", "_require_int"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_raises_value_error_itself(path):
    assert raised_value_errors(path.read_text()) == []


def test_the_validators_are_defined_only_in_core_geometry():
    homes = {
        name: [path.name for path in SOURCES if name in defined_functions(path.read_text())]
        for name in ("_require_real", "_check_fields")
    }
    assert homes == dict.fromkeys(homes, ["core_geometry.py"])
