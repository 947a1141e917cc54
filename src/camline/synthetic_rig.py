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
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from .core_geometry import (
    DistortionCoefficients,
    Intrinsics,
    Orientation,
    SceneConstraints,
    _check_fields,
    _distort_components,
    _distort_jacobian,
    _project_uv,
    _require_real,
    rotation_xz,
)
from .errors import ConfigError, TooFewVisible
from .orientation_estimator import ReferenceLineObservation, _estimate

__all__ = [
    "SyntheticScene",
    "TrialReport",
    "SweepConfig",
    "render_line",
    "sweep",
    "write_sweep_csv",
]


@dataclass(frozen=True)
class SyntheticScene:
    """Ground truth and rendering knobs for one synthetic trial.

    ``image_width`` x ``image_height`` is the image the line is rendered
    into, in pixels.
    """

    ground_truth: Orientation
    sc: SceneConstraints
    k: Intrinsics
    d: DistortionCoefficients = DistortionCoefficients()
    line_x_extent: float = 3.0
    n_points: int = 101
    noise_sigma: float = 0.0
    rng_seed: int = 0
    image_width: int = 1280
    image_height: int = 720

    def __post_init__(self) -> None:
        _check_fields(self, above={"line_x_extent": 0}, least={
            "n_points": 2, "noise_sigma": 0, "rng_seed": 0, "image_width": 1, "image_height": 1})


@dataclass(frozen=True, slots=True)
class TrialReport:
    """Outcome of one rendered-and-estimated trial.

    ``roll_error``/``pitch_error`` are signed (estimate minus ground truth).
    Failed trials carry NaN errors and the failure message instead of
    aborting a sweep.  The sweep CSV has one column per field, in field
    order, named after the field.
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


def _line_pixels(scene: SyntheticScene, poses: list[Orientation]) -> np.ndarray:
    """Ideal (undistorted) pixels (S, N, 2) of the scene's line under each of S poses.

    Rows with depth <= 0 are NaN, which is off the unfolded branch.
    """
    n = scene.n_points
    with np.errstate(over="ignore", invalid="ignore"):  # a huge extent gives non-finite rows
        xs = np.linspace(-scene.line_x_extent, scene.line_x_extent, n)
    world = np.column_stack([xs, np.full(n, scene.sc.c0), np.full(n, scene.sc.z0)])
    pitches, rolls = np.array([(pose.pitch, pose.roll) for pose in poses]).T
    return _project_uv(world, scene.k, DistortionCoefficients(), rotation_xz(pitches, rolls))


def _observe(
    scene: SyntheticScene,
    ideal: np.ndarray,
    d: DistortionCoefficients,
    noise: np.ndarray,
    sigmas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Distort ideal pixels (S, N, 2) through ``d`` and add ``sigma * noise`` for each sigma.

    Returns the observed pixels (len(sigmas), S, N, 2) and the visible mask
    (len(sigmas), S, N): rows inside the scene's ``[0, image_width) x
    [0, image_height)`` image whose ideal pixel is on the unfolded branch of
    the lens map (past the fold, undistortion finds a different point).
    """
    # A focal length far above the image or a sigma near the float limit overflows;
    # such a row comes out non-finite, and the image bounds or the fold test drop it.
    with np.errstate(over="ignore", invalid="ignore"):
        u, v, dx, dy, r2, radial = _distort_components(ideal[..., 0], ideal[..., 1], scene.k, d)
        *_, det = _distort_jacobian(dx, dy, r2, radial, d)
        uv = np.stack([u, v], axis=-1) + np.multiply.outer(sigmas, noise)
    unfolded = (radial > 0.0) & (det > 0.0)
    u, v = uv[..., 0], uv[..., 1]
    inside = (u >= 0.0) & (u < scene.image_width) & (v >= 0.0) & (v < scene.image_height)
    return uv, unfolded & inside


def _too_few_visible(n_visible: int, scene: SyntheticScene) -> TooFewVisible:
    return TooFewVisible(
        f"only {n_visible} of {scene.n_points} line points project inside the "
        f"{scene.image_width}x{scene.image_height} image"
    )


def render_line(scene: SyntheticScene) -> ReferenceLineObservation:
    """Render the reference line through the forward model.

    Projects ``n_points`` world points evenly spaced along the line through
    the ground-truth rotation (camera at the origin), applies distortion, adds
    seeded Gaussian pixel noise, and keeps points inside the scene's
    ``[0, image_width) x [0, image_height)`` image whose ideal pixel is on the
    unfolded branch of the lens map (past the fold, undistortion finds a
    different point).
    Bit-identical for identical scenes.

    Raises:
        TooFewVisible: fewer than 2 points land inside the image.
    """
    ideal = _line_pixels(scene, [scene.ground_truth])
    noise = np.random.default_rng(scene.rng_seed).standard_normal(ideal.shape)
    uv, visible = _observe(scene, ideal, scene.d, noise, np.array([scene.noise_sigma]))
    keep = visible[0, 0]
    n_visible = int(np.count_nonzero(keep))
    if n_visible < 2:
        raise _too_few_visible(n_visible, scene)
    return ReferenceLineObservation(uv[0, 0][keep])


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

    def __post_init__(self) -> None:
        _check_fields(self, least={"noise_sigmas": 0, "seeds_per_cell": 0, "base_seed": 0})
        for name in ("roll_range", "pitch_range"):
            span = getattr(self, name)
            if not (len(span) == 2 and span[0] <= span[1]):
                raise ConfigError(f"{name} must be (lo, hi) with lo <= hi, got {span!r}")
            if not math.isfinite(span[1] - span[0]):  # numpy cannot draw from it
                raise ConfigError(f"{name} must have a finite width hi - lo, got {span!r}")
        for i, k1_scale in enumerate(self.k1_scales):  # sweep's lens k1 for that scale
            _require_real(f"k1_scales[{i}] * base_scene.d.k1", self.base_scene.d.k1 * k1_scale)


def sweep(config: SweepConfig) -> list[TrialReport]:
    """Run the full grid in deterministic grid-major order.

    Each k1 scale is one batched render and estimate over every noise level and seed, and
    each trial's report is built where its batch is estimated.  Individual trial failures
    are recorded in their report (NaN errors plus the failure message); they never abort it.
    """
    base = config.base_scene
    sigmas, k1_scales = config.noise_sigmas, config.k1_scales
    if not (sigmas and k1_scales and config.seeds_per_cell):
        return []
    # Trial j's pose and noise depend only on (base_seed, j): draw them once
    # and share them across every cell.
    seeds, poses = [], []
    for j in range(config.seeds_per_cell):
        pose_rng = np.random.default_rng((config.base_seed, j))
        roll = float(pose_rng.uniform(*config.roll_range))
        pitch = float(pose_rng.uniform(*config.pitch_range))
        seeds.append(config.base_seed + j)
        poses.append(Orientation(roll=roll, pitch=pitch))
    ideal = _line_pixels(base, poses)
    n = base.n_points
    noise = np.stack([np.random.default_rng(seed).standard_normal((n, 2)) for seed in seeds])

    # A k1 scale's batch runs noise level by noise level, seed by seed.  Each noise
    # level's zip takes the next len(seeds) trials: it stops at the end of seeds first.
    by_sigma: list[list[TrialReport]] = [[] for _ in sigmas]
    for k1_scale in k1_scales:
        d = replace(base.d, k1=base.d.k1 * k1_scale)
        uv, visible = _observe(base, ideal, d, noise, np.array(sigmas))
        uv, visible = uv.reshape(-1, n, 2), visible.reshape(-1, n)
        trials = zip(visible.sum(axis=-1).tolist(), *_estimate(uv, visible, base.k, d, base.sc))
        for sigma, reports in zip(sigmas, by_sigma):
            for seed, pose, (count, roll, pitch, spread, _, failure) in zip(seeds, poses, trials):
                if count < 2:
                    failure = _too_few_visible(count, base)
                if failure is None:
                    outcome = (roll - pose.roll, pitch - pose.pitch, spread, count, None)
                else:
                    failed = f"{type(failure).__name__}: {failure}"
                    outcome = (math.nan, math.nan, math.nan, 0, failed)
                reports.append(TrialReport(seed, sigma, k1_scale, pose.roll, pose.pitch, *outcome))
    return [report for reports in by_sigma for report in reports]


def write_sweep_csv(reports: list[TrialReport], path: str | Path) -> None:
    """Write a header of :class:`TrialReport`'s field names, then one row per report.

    Floats keep full precision; ``failure`` is empty for a trial that succeeded.
    """
    names = [f.name for f in fields(TrialReport)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows(map(attrgetter(*names), reports))
