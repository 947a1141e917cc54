"""Synthetic ground-truth rig: render a reference line, score the estimators.

The rig places the camera at the origin of the world frame, builds the
reference line as evenly spaced points at height ``c0`` and depth ``z0``,
projects them through the full forward model (rotation, intrinsics,
distortion), adds seeded Gaussian pixel noise *after* distortion (where a
real line detector would see it), and keeps the points that land inside the
image.  Everything is deterministic given the scene, including its seed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core_geometry import (
    DistortionCoefficients,
    Intrinsics,
    Orientation,
    _distort_uv,
    _pixels_from_camera_frame,
    rotation_matrix,
)
from .errors import GeometryError, TooFewVisible
from .orientation_estimator import ReferenceLineObservation, estimate_orientation
from .plane_backprojection import SceneConstraints

__all__ = [
    "SyntheticScene",
    "TrialReport",
    "SweepConfig",
    "render_line",
    "run_trial",
    "sweep",
    "write_sweep_csv",
    "SWEEP_CSV_HEADER",
    "default_intrinsics",
    "DEFAULT_IMAGE_WIDTH",
    "DEFAULT_IMAGE_HEIGHT",
]

DEFAULT_IMAGE_WIDTH = 1280
DEFAULT_IMAGE_HEIGHT = 720


def default_intrinsics() -> Intrinsics:
    """Desk-scale defaults: 1000 px focal lengths, principal point at 1280x720 centre."""
    return Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)


@dataclass(frozen=True)
class SyntheticScene:
    """Ground truth and rendering knobs for one synthetic trial."""

    ground_truth: Orientation
    sc: SceneConstraints
    k: Intrinsics
    d: DistortionCoefficients = DistortionCoefficients()
    line_x_extent: float = 3.0
    n_points: int = 101
    noise_sigma: float = 0.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ValueError(f"n_points must be >= 2, got {self.n_points}")
        if not math.isfinite(self.line_x_extent) or self.line_x_extent <= 0.0:
            raise ValueError(f"line_x_extent must be > 0, got {self.line_x_extent}")
        if not math.isfinite(self.noise_sigma) or self.noise_sigma < 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass(frozen=True, slots=True)
class TrialReport:
    """Outcome of one rendered-and-estimated trial.

    ``roll_error``/``pitch_error`` are signed (estimate minus ground truth).
    Failed trials carry NaN errors and the failure message instead of
    aborting a sweep.  Field order matches the sweep CSV columns.
    """

    seed: int
    noise_sigma: float
    k1_scale: float
    roll_gt: float
    pitch_gt: float
    roll_error: float
    pitch_error: float
    residual_z_spread: float
    n_visible: int
    failure: str | None = None


def render_line(
    scene: SyntheticScene,
    image_width: int = DEFAULT_IMAGE_WIDTH,
    image_height: int = DEFAULT_IMAGE_HEIGHT,
) -> ReferenceLineObservation:
    """Render the reference line through the forward model.

    Projects ``n_points`` world points evenly spaced along the line through
    the ground-truth rotation (zero translation), applies distortion, adds
    seeded Gaussian pixel noise, and keeps points inside
    ``[0, width) x [0, height)``.  Bit-identical for identical scenes.

    Raises:
        TooFewVisible: fewer than 2 points land inside the image.
    """
    n = scene.n_points
    xs = np.linspace(-scene.line_x_extent, scene.line_x_extent, n)
    world = np.column_stack([xs, np.full(n, scene.sc.c0), np.full(n, scene.sc.z0)])

    m = rotation_matrix(scene.ground_truth)
    cam = world @ m  # rows are (m.T @ w), the camera-frame coordinates
    ideal = _pixels_from_camera_frame(cam, scene.k)  # NaN rows for depth <= 0
    uv = _distort_uv(ideal, scene.k, scene.d)

    rng = np.random.default_rng(scene.rng_seed)
    uv = uv + rng.normal(0.0, scene.noise_sigma, size=(n, 2))

    keep = (
        np.isfinite(uv).all(axis=1)
        & (uv[:, 0] >= 0.0)
        & (uv[:, 0] < image_width)
        & (uv[:, 1] >= 0.0)
        & (uv[:, 1] < image_height)
    )
    n_visible = int(np.count_nonzero(keep))
    if n_visible < 2:
        raise TooFewVisible(
            f"only {n_visible} of {n} line points project inside the "
            f"{image_width}x{image_height} image"
        )
    return ReferenceLineObservation.from_array(uv[keep])


def run_trial(
    scene: SyntheticScene,
    image_dims: tuple[int, int] = (DEFAULT_IMAGE_WIDTH, DEFAULT_IMAGE_HEIGHT),
) -> TrialReport:
    """Render one scene, run the estimator, report signed errors and residuals."""
    obs = render_line(scene, image_dims[0], image_dims[1])
    est = estimate_orientation(obs, scene.k, scene.d, scene.sc)
    gt = scene.ground_truth
    return TrialReport(
        seed=scene.rng_seed,
        noise_sigma=scene.noise_sigma,
        k1_scale=1.0,
        roll_gt=gt.roll,
        pitch_gt=gt.pitch,
        roll_error=est.orientation.roll - gt.roll,
        pitch_error=est.orientation.pitch - gt.pitch,
        residual_z_spread=est.residual_z_spread,
        n_visible=len(obs),
    )


@dataclass(frozen=True)
class SweepConfig:
    """Grid specification for a Monte-Carlo sweep.

    The grid runs over ``noise_sigmas`` x ``k1_scales`` with
    ``seeds_per_cell`` trials per cell.  Trial ``j`` uses noise seed
    ``base_seed + j`` and draws its ground-truth roll/pitch uniformly from the
    given ranges with a generator seeded by ``(base_seed, j)``, so the pose
    and the underlying noise draws are shared across cells (common random
    numbers) and every run of the same config reproduces the same reports.
    """

    base_scene: SyntheticScene
    noise_sigmas: tuple[float, ...]
    roll_range: tuple[float, float]
    pitch_range: tuple[float, float]
    seeds_per_cell: int
    base_seed: int = 0
    k1_scales: tuple[float, ...] = (1.0,)
    image_width: int = DEFAULT_IMAGE_WIDTH
    image_height: int = DEFAULT_IMAGE_HEIGHT


def sweep(config: SweepConfig) -> list[TrialReport]:
    """Run the full grid in deterministic grid-major order.

    Individual trial failures are recorded in their report (NaN errors plus
    the failure message); they never abort the sweep.
    """
    base = config.base_scene
    # Trial j's pose and seed depend only on (base_seed, j): draw them once
    # and share them across every cell.
    trials = []
    for j in range(config.seeds_per_cell):
        pose_rng = np.random.default_rng((config.base_seed, j))
        roll = float(pose_rng.uniform(*config.roll_range))
        pitch = float(pose_rng.uniform(*config.pitch_range))
        trials.append((Orientation(roll=roll, pitch=pitch), config.base_seed + j))
    reports: list[TrialReport] = []
    for sigma in config.noise_sigmas:
        for k1_scale in config.k1_scales:
            d = replace(base.d, k1=base.d.k1 * k1_scale)
            for gt, seed in trials:
                scene = replace(
                    base,
                    ground_truth=gt,
                    d=d,
                    noise_sigma=sigma,
                    rng_seed=seed,
                )
                try:
                    report = replace(
                        run_trial(scene, (config.image_width, config.image_height)),
                        k1_scale=k1_scale,
                    )
                except GeometryError as exc:
                    report = TrialReport(
                        seed=seed,
                        noise_sigma=sigma,
                        k1_scale=k1_scale,
                        roll_gt=gt.roll,
                        pitch_gt=gt.pitch,
                        roll_error=math.nan,
                        pitch_error=math.nan,
                        residual_z_spread=math.nan,
                        n_visible=0,
                        failure=f"{type(exc).__name__}: {exc}",
                    )
                reports.append(report)
    return reports


SWEEP_CSV_HEADER = (
    "seed",
    "noise_sigma",
    "k1_scale",
    "roll_gt",
    "pitch_gt",
    "roll_error",
    "pitch_error",
    "residual_z_spread",
    "n_visible",
)


def write_sweep_csv(reports: list[TrialReport], path: str | Path) -> None:
    """Write one CSV row per report with the fixed header, full float precision."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_CSV_HEADER)
        for r in reports:
            writer.writerow(
                [
                    r.seed,
                    repr(float(r.noise_sigma)),
                    repr(float(r.k1_scale)),
                    repr(float(r.roll_gt)),
                    repr(float(r.pitch_gt)),
                    repr(float(r.roll_error)),
                    repr(float(r.pitch_error)),
                    repr(float(r.residual_z_spread)),
                    r.n_visible,
                ]
            )
