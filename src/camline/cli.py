"""Command-line front-end.

Subcommands::

    camline estimate CONFIG LINE_CSV [-o RESULT_JSON]
    camline simulate CONFIG OUTPUT_CSV --roll DEG --pitch DEG [--noise PX] [--seed N] ...
    camline project  CONFIG X Y Z [--roll DEG] [--pitch DEG]
    camline undistort CONFIG U V

Angles are degrees at this boundary (radians inside the library).  Exit
codes: 0 success, 1 input/config error or an unwritable output file, 2
domain or numerical error; domain errors print their error name in the
diagnostic.  All numeric output is written with full round-trip precision
and every subcommand is deterministic given its arguments and input files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .config import load_camera_config
from .core_geometry import (
    Orientation, PixelPoint, _project_uv, _require_real, rotation_xz, undistort,
)
from .errors import BehindCamera, ConfigError, GeometryError
from .orientation_estimator import ReferenceLineObservation, estimate_orientation
from .synthetic_rig import SyntheticScene, render_line

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; bad usage is an input error here.
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _read_line_points(path: str) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read line file {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    rows = [(reader.line_num, row) for row in reader if row]
    if not rows:
        raise ConfigError(f"line file {path} is empty; expected a 'u,v' header")
    (_, first), *data = rows
    if [cell.strip() for cell in first] != ["u", "v"]:
        raise ConfigError(f"line file must start with the header 'u,v', got {first!r}")
    if len(data) < 2:
        raise ConfigError(f"line file must contain at least 2 data rows, got {len(data)}")
    for line_num, row in data:
        if len(row) != 2:
            raise ConfigError(f"line file row {line_num} has {len(row)} cells; expected 2 (u,v)")
    try:
        return np.array([[float(u), float(v)] for _, (u, v) in data])
    except ValueError as exc:
        raise ConfigError(f"line file contains a non-numeric row: {exc}") from exc


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _cmd_estimate(args: argparse.Namespace) -> int:
    cfg = load_camera_config(args.config)
    obs = ReferenceLineObservation(_read_line_points(args.line_points))
    est = estimate_orientation(obs, cfg.intrinsics, cfg.distortion, cfg.scene)
    o = est.orientation
    result = {
        "roll_deg": math.degrees(o.roll),
        "pitch_deg": math.degrees(o.pitch),
        "roll_rad": o.roll,
        "pitch_rad": o.pitch,
        "residual_z_spread_m": est.residual_z_spread,
        "residual_z_bias_m": est.residual_z_bias,
        "warnings": list(est.warnings),
    }
    payload = json.dumps(result, indent=2) + "\n"
    if args.output:
        _write_text(Path(args.output), payload)
    else:
        sys.stdout.write(payload)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_camera_config(args.config)
    given = {f.name: getattr(args, f.name) for f in fields(SyntheticScene) if f.name in args}
    scene = SyntheticScene(
        ground_truth=Orientation(
            roll=math.radians(args.roll), pitch=math.radians(args.pitch)
        ),
        sc=cfg.scene,
        k=cfg.intrinsics,
        d=cfg.distortion,
        **given,
    )
    obs = render_line(scene)

    out = Path(args.output)
    lines = ["u,v"] + [f"{u!r},{v!r}" for u, v in obs.uv_array().tolist()]
    _write_text(out, "\n".join(lines) + "\n")

    truth = {
        "roll_deg": args.roll,
        "pitch_deg": args.pitch,
        "roll_rad": scene.ground_truth.roll,
        "pitch_rad": scene.ground_truth.pitch,
        "c0": cfg.scene.c0,
        "z0": cfg.scene.z0,
        "noise_sigma": scene.noise_sigma,
        "seed": scene.rng_seed,
        "n_points": scene.n_points,
        "line_x_extent": scene.line_x_extent,
        "image_width": scene.image_width,
        "image_height": scene.image_height,
        "n_visible": len(obs),
    }
    sidecar = out.with_suffix(".truth.json")
    _write_text(sidecar, json.dumps(truth, indent=2) + "\n")
    print(f"wrote {len(obs)} points to {out} (ground truth: {sidecar})")
    return 0


def _cmd_project(args: argparse.Namespace) -> int:
    cfg = load_camera_config(args.config)
    o = Orientation(roll=math.radians(args.roll), pitch=math.radians(args.pitch))
    w = np.array([_require_real(name, getattr(args, name)) for name in "xyz"])
    rot = rotation_xz(o.pitch, o.roll)
    depth = float((w @ rot)[2])
    if depth <= 0.0:
        raise BehindCamera(f"point has non-positive camera depth {depth:.6g} m")
    # PixelPoint rejects a projection that overflowed to a non-finite pixel.
    p = PixelPoint(*_project_uv(w, cfg.intrinsics, cfg.distortion, rot).tolist())
    print(f"{p.u!r},{p.v!r}")
    return 0


def _cmd_undistort(args: argparse.Namespace) -> int:
    cfg = load_camera_config(args.config)
    q = undistort(PixelPoint(args.u, args.v), cfg.intrinsics, cfg.distortion)
    print(f"{q.u!r},{q.v!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="camline", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_est = sub.add_parser("estimate", help="estimate roll/pitch from observed line pixels")
    p_est.add_argument("config", help="camera config JSON")
    p_est.add_argument("line_points", help="CSV of observed line pixels (header 'u,v')")
    p_est.add_argument("-o", "--output", help="write the result JSON here (default: stdout)")
    p_est.set_defaults(func=_cmd_estimate)

    # An option left out is not set, so the SyntheticScene field it names keeps its default.
    p_sim = sub.add_parser("simulate", help="render a synthetic reference line",
                           argument_default=argparse.SUPPRESS)
    p_sim.add_argument("config", help="camera config JSON")
    p_sim.add_argument("output", help="output CSV path; ground truth goes to *.truth.json")
    p_sim.add_argument("--roll", type=float, default=0.0, help="ground-truth roll, degrees")
    p_sim.add_argument("--pitch", type=float, default=0.0, help="ground-truth pitch, degrees")
    p_sim.add_argument("--noise", dest="noise_sigma", type=float, help="pixel noise sigma")
    p_sim.add_argument("--seed", dest="rng_seed", type=int, help="noise RNG seed")
    p_sim.add_argument("--points", dest="n_points", type=int, help="points along the line")
    p_sim.add_argument(
        "--extent", dest="line_x_extent", type=float, help="line half-width, metres"
    )
    p_sim.add_argument("--width", dest="image_width", type=int, help="image width, px")
    p_sim.add_argument("--height", dest="image_height", type=int, help="image height, px")
    p_sim.set_defaults(func=_cmd_simulate)

    p_proj = sub.add_parser("project", help="project a world point to a pixel")
    p_proj.add_argument("config", help="camera config JSON")
    p_proj.add_argument("x", type=float, help="lateral, metres")
    p_proj.add_argument("y", type=float, help="down (toward plane), metres")
    p_proj.add_argument("z", type=float, help="depth, metres")
    p_proj.add_argument("--roll", type=float, default=0.0, help="roll, degrees")
    p_proj.add_argument("--pitch", type=float, default=0.0, help="pitch, degrees")
    p_proj.set_defaults(func=_cmd_project)

    p_und = sub.add_parser("undistort", help="remove lens distortion from a pixel")
    p_und.add_argument("config", help="camera config JSON")
    p_und.add_argument("u", type=float)
    p_und.add_argument("v", type=float)
    p_und.set_defaults(func=_cmd_undistort)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed its own diagnostic
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GeometryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
