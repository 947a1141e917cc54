"""Closed-form roll/pitch estimation from an observed ground reference line.

Inputs are pixel samples along a straight scene line at known camera height
``c0`` and known depth ``z0`` (see :class:`~camline.core_geometry.SceneConstraints`).
One orthogonal-regression line is fitted through every undistorted sample:
roll is its image angle, pitch comes from its de-rolled height.  A residual
diagnostic back-projects every sample onto the plane and reports how far the
recovered depths are from being constant and from ``z0``.

Sign convention: world y increases downward (matching image v), and the
observed plane lies a known height ``c0`` *below* the camera, i.e. at
y = +c0.  A back-projected ray with a positive y component therefore descends
toward the plane; a negative y component points above the horizon and never
meets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_geometry import (
    DistortionCoefficients,
    Intrinsics,
    Orientation,
    PixelPoint,
    SceneConstraints,
    _normalize_uv,
    _undistort_uv,
    rotation_xz,
)
from .errors import DegenerateGeometry, DegenerateLine, NoHorizonIntersection

__all__ = [
    "ReferenceLineObservation",
    "OrientationEstimate",
    "ZSpread",
    "estimate_pitch",
    "central_pixel",
    "estimate_orientation",
    "residual_z_spread",
]

# Rays with y below this miss the plane: a negative y points above the
# horizon, and a tiny positive one would meet the plane ~1e12 m away and
# poison any residual built on it.
HORIZON_EPS = 1e-12


@dataclass(frozen=True)
class ReferenceLineObservation:
    """Ordered pixel samples along the detected reference line (>= 2 points)."""

    pixels: tuple[PixelPoint, ...]

    def __post_init__(self) -> None:
        pixels = tuple(self.pixels)
        if len(pixels) < 2:
            raise ValueError(
                f"a reference-line observation needs at least 2 points, got {len(pixels)}"
            )
        object.__setattr__(self, "pixels", pixels)

    @classmethod
    def from_array(cls, uv: np.ndarray) -> "ReferenceLineObservation":
        """Build from an (N, 2) array of (u, v) pixel coordinates."""
        arr = np.asarray(uv, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected an (N, 2) array of pixels, got shape {arr.shape}")
        return cls(tuple(PixelPoint(float(u), float(v)) for u, v in arr))

    def uv_array(self) -> np.ndarray:
        """(N, 2) array of the observed pixel coordinates."""
        return np.array([[p.u, p.v] for p in self.pixels])

    def __len__(self) -> int:
        return len(self.pixels)


@dataclass(frozen=True)
class OrientationEstimate:
    """Estimated orientation plus back-projection residual diagnostics.

    ``residual_z_spread`` is max - min of the back-projected depth over all
    line pixels (0 for a perfect estimate on noise-free input);
    ``residual_z_bias`` is the mean back-projected depth minus ``z0``.
    ``warnings`` is reserved for notes on how the estimate was obtained.
    """

    orientation: Orientation
    residual_z_spread: float
    residual_z_bias: float
    warnings: tuple[str, ...] = ()


class ZSpread(NamedTuple):
    spread: float
    mean_depth: float


def estimate_pitch(y0_normalized: float, sc: SceneConstraints) -> float:
    """Pitch angle from the de-rolled normalized height of the line.

    Evaluates ``atan((c0 - z0*y') / (z0 + c0*y'))`` with ``y'`` the de-rolled
    height ``cos(roll)*yn - sin(roll)*xn``, the same at every point of the
    line.  It equals the line's crossing of xn = 0 only at roll 0.
    Back-projecting the de-rolled point ``(0, y')`` through
    ``rotation_x(result)`` lands at depth ``z0`` exactly.

    Raises:
        DegenerateGeometry: the denominator ``z0 + c0*y'`` vanishes, i.e. the
            line sits where pitch is unobservable.
    """
    num = sc.c0 - sc.z0 * y0_normalized
    den = sc.z0 + sc.c0 * y0_normalized
    if abs(den) < 1e-12:
        raise DegenerateGeometry(
            f"pitch is unobservable: z0 + c0*y' = {den:.3e} vanishes"
        )
    return math.atan(num / den)


def _fit_line(norm: np.ndarray) -> tuple[float, float]:
    """Orthogonal-regression line through normalized points (N, 2).

    Returns ``(roll, height)``: the angle ``0.5*atan2(2*Sxy, Sxx - Syy)`` of
    the centred scatter's principal axis, wrapped into (-pi/2, pi/2], and the
    de-rolled height ``cos(roll)*yn - sin(roll)*xn`` of the centroid, which
    every point of the fitted line shares (Pearson 1901).
    """
    centroid = norm.mean(axis=0)
    centred = norm - centroid
    (sxx, sxy), (_, syy) = (centred.T @ centred).tolist()
    roll = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
    if roll <= -math.pi / 2:
        roll += math.pi
    x_mean, y_mean = centroid.tolist()
    return roll, math.cos(roll) * y_mean - math.sin(roll) * x_mean


def _fit_observation(
    obs: ReferenceLineObservation, k: Intrinsics, d: DistortionCoefficients
) -> tuple[np.ndarray, float, float]:
    """Undistort, span-check and normalize the pixels: ``(norm, *_fit_line(norm))``."""
    und = _undistort_uv(obs.uv_array(), k, d)
    span = float(np.hypot(*np.ptp(und, axis=0)))
    if span <= 1.0:
        raise DegenerateLine(f"line pixels span {span:.3g} px; they must span more than 1 px")
    norm = _normalize_uv(und, k)
    return (norm, *_fit_line(norm))


def central_pixel(
    obs: ReferenceLineObservation, k: Intrinsics, d: DistortionCoefficients
) -> float:
    """Normalized height ``yn`` at which the observation's fitted line crosses xn = 0.

    Raises:
        NonConvergent: a pixel could not be undistorted.
        DegenerateLine: the undistorted pixels span 1 px or less, or the
            fitted line runs parallel to the centre column (|cos roll| < 1e-9).
    """
    _, roll, height = _fit_observation(obs, k, d)
    cos_roll = math.cos(roll)
    if abs(cos_roll) < 1e-9:
        raise DegenerateLine(f"fitted line is parallel to the centre column (roll {roll:.6g} rad)")
    return height / cos_roll


def _plane_points(norm: np.ndarray, rot: np.ndarray, c0: float) -> np.ndarray:
    """Intersect the rays through normalized points (..., 2) with the plane.

    Each ray is ``rot @ (xn, yn, 1)``, with ``rot`` the camera-to-world
    rotation, scaled until its y component reaches ``c0``.  Returns (..., 3)
    world points whose ``y`` is ``c0`` exactly.

    Raises:
        NoHorizonIntersection: some ray's y component is below ``HORIZON_EPS``,
            so it runs along or above the horizon.
    """
    rays = np.concatenate([norm, np.ones(norm.shape[:-1] + (1,))], axis=-1) @ rot.T
    y = rays[..., 1]
    n_bad = int(np.count_nonzero(y < HORIZON_EPS))
    if n_bad:
        raise NoHorizonIntersection(f"{n_bad} point(s) back-project at or above the horizon")
    points = c0 * rays / y[..., None]
    points[..., 1] = c0
    return points


def _depth_stats(norm: np.ndarray, orientation: Orientation, c0: float) -> ZSpread:
    """Depth spread and mean depth of normalized points (N, 2) back-projected to the plane."""
    depths = _plane_points(norm, rotation_xz(orientation.pitch, orientation.roll), c0)[:, 2]
    return ZSpread(float(depths.max() - depths.min()), float(depths.mean()))


def estimate_orientation(
    obs: ReferenceLineObservation,
    k: Intrinsics,
    d: DistortionCoefficients,
    sc: SceneConstraints,
) -> OrientationEstimate:
    """Estimate roll and pitch from a reference-line observation.

    Pipeline: undistort all pixels; fit one orthogonal-regression line through
    all of them in normalized coordinates, whose angle is the roll; feed its
    de-rolled height ``cos(roll)*yn - sin(roll)*xn``, the same at every point
    of the line, to the pitch formula; then back-project every pixel through
    the combined rotation to fill in the depth residuals.  On two pixels the
    roll is the image angle of the segment between them.

    Raises:
        NonConvergent: a pixel could not be undistorted.
        DegenerateLine: the undistorted pixels span a bounding box whose
            diagonal is 1 px or less.
        DegenerateGeometry: the pitch denominator vanishes.
        NoHorizonIntersection: some pixel back-projects at or above the
            horizon under the estimated rotation (grossly wrong inputs).
    """
    norm, roll, height = _fit_observation(obs, k, d)
    pitch = estimate_pitch(height, sc)

    orientation = Orientation(roll=roll, pitch=pitch)
    spread, mean_depth = _depth_stats(norm, orientation, sc.c0)
    return OrientationEstimate(orientation, spread, mean_depth - sc.z0)


def residual_z_spread(
    obs: ReferenceLineObservation,
    k: Intrinsics,
    d: DistortionCoefficients,
    orientation: Orientation,
    c0: float,
) -> ZSpread:
    """Depth spread (max - min) and mean depth of the back-projected line.

    Quantifies how close the given orientation comes to making every observed
    line pixel land at one common depth on the plane; zero spread means the
    orientation is consistent with the observation.

    Raises:
        NonConvergent: a pixel could not be undistorted.
        NoHorizonIntersection: some pixel back-projects at or above the
            horizon under ``orientation``.
    """
    norm = _normalize_uv(_undistort_uv(obs.uv_array(), k, d), k)
    return _depth_stats(norm, orientation, c0)
