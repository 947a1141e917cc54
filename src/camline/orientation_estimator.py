"""Closed-form roll/pitch estimation from an observed ground reference line.

Inputs are pixel samples along a straight scene line at known camera height
``c0`` and known depth ``z0`` (see :class:`~camline.plane_backprojection.SceneConstraints`).
Roll comes from the image angle of the line; pitch from where the line
crosses the image-centre column.  A residual diagnostic back-projects every
sample onto the plane and reports how far the recovered depths are from being
constant and from ``z0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core_geometry import (
    DistortionCoefficients,
    Intrinsics,
    NormalizedPoint,
    Orientation,
    PixelPoint,
    _normalize_uv,
    _undistort_uv,
    rotation_matrix,
)
from .errors import (
    DegenerateGeometry,
    DegenerateLine,
    NoHorizonIntersection,
    RayAwayFromPlane,
    RayParallelToPlane,
)
from .plane_backprojection import SceneConstraints, _plane_points

__all__ = [
    "ReferenceLineObservation",
    "OrientationEstimate",
    "ZSpread",
    "estimate_roll",
    "estimate_pitch",
    "central_pixel",
    "estimate_orientation",
    "residual_z_spread",
]

_HALF_PI = math.pi / 2.0

# Normalized-coordinate separation below which two points cannot define a
# line direction.
_MIN_SEPARATION = 1e-9

# Minimum pixel separation of the two extreme (min/max u) line points.
_MIN_EXTREME_SPAN_PX = 1.0

_CENTER_FALLBACK_WARNING = (
    "reference line does not bracket the image-centre column; "
    "nearest point used for the pitch estimate"
)


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
    """

    orientation: Orientation
    residual_z_spread: float
    residual_z_bias: float
    warnings: tuple[str, ...] = ()


class ZSpread(NamedTuple):
    spread: float
    mean_depth: float


def estimate_roll(p1: NormalizedPoint, p2: NormalizedPoint) -> float:
    """Roll angle from two normalized line points: the image angle of the line.

    Uses the two-argument arctangent of (yn1 - yn2, xn1 - xn2), wrapped into
    (-pi/2, pi/2] since a line's direction carries no orientation sign; the
    result is therefore independent of the point order.

    Raises:
        DegenerateLine: the points are closer than 1e-9 in normalized units.
    """
    dx = p1.xn - p2.xn
    dy = p1.yn - p2.yn
    if math.hypot(dx, dy) < _MIN_SEPARATION:
        raise DegenerateLine(
            f"line points are separated by less than {_MIN_SEPARATION:g} "
            "in normalized coordinates"
        )
    angle = math.atan2(dy, dx)
    if angle > _HALF_PI:
        angle -= math.pi
    elif angle <= -_HALF_PI:
        angle += math.pi
    return angle


def estimate_pitch(y0_normalized: float, sc: SceneConstraints) -> float:
    """Pitch angle from the normalized height of the line's central pixel.

    Evaluates ``atan((c0 - z0*y') / (z0 + c0*y'))`` with ``y'`` the
    normalized y of the point where the line crosses the image-centre column.
    Back-projecting that central pixel through ``rotation_x(result)`` lands at
    depth ``z0`` exactly.

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


def _interpolate_center(norm_xy: np.ndarray) -> tuple[NormalizedPoint, bool]:
    """Point where the (undistorted, normalized) line crosses xn = 0.

    Linear interpolation between the two points bracketing the centre column;
    a point exactly on the column is returned as-is.  When the observed span
    does not bracket xn = 0 the nearest point by |xn| is returned together
    with ``True`` so callers can flag the extrapolation.
    """
    xs = norm_xy[:, 0]
    ys = norm_xy[:, 1]
    exact = np.flatnonzero(xs == 0.0)
    if exact.size:
        return NormalizedPoint(0.0, float(ys[exact[0]])), False
    order = np.argsort(xs, kind="stable")
    xs_sorted = xs[order]
    ys_sorted = ys[order]
    idx = int(np.searchsorted(xs_sorted, 0.0))
    if 0 < idx < len(xs_sorted):
        xa, xb = xs_sorted[idx - 1], xs_sorted[idx]
        ya, yb = ys_sorted[idx - 1], ys_sorted[idx]
        t = (0.0 - xa) / (xb - xa)
        return NormalizedPoint(0.0, float(ya + t * (yb - ya))), False
    nearest = int(np.argmin(np.abs(xs)))
    return NormalizedPoint(float(xs[nearest]), float(ys[nearest])), True


def central_pixel(
    obs: ReferenceLineObservation, k: Intrinsics, d: DistortionCoefficients
) -> NormalizedPoint:
    """Undistort the observation and locate its crossing of the centre column."""
    und = _undistort_uv(obs.uv_array(), k, d)
    point, _ = _interpolate_center(_normalize_uv(und, k))
    return point


def _extreme_indices(und_uv: np.ndarray) -> tuple[int, int]:
    """Indices of the min-u and max-u undistorted pixels, checked for spread."""
    i_lo = int(np.argmin(und_uv[:, 0]))
    i_hi = int(np.argmax(und_uv[:, 0]))
    span = float(np.hypot(*(und_uv[i_hi] - und_uv[i_lo])))
    if span <= _MIN_EXTREME_SPAN_PX:
        raise DegenerateLine(
            f"extreme line pixels are {span:.3g} px apart; "
            f"they must be more than {_MIN_EXTREME_SPAN_PX:g} px apart"
        )
    return i_lo, i_hi


def _depth_stats(norm: np.ndarray, orientation: Orientation, c0: float) -> ZSpread:
    """Depth spread and mean depth of normalized points (N, 2) back-projected to the plane."""
    depths = _plane_points(norm, rotation_matrix(orientation), c0)[:, 2]
    return ZSpread(float(depths.max() - depths.min()), float(depths.mean()))


def estimate_orientation(
    obs: ReferenceLineObservation,
    k: Intrinsics,
    d: DistortionCoefficients,
    sc: SceneConstraints,
) -> OrientationEstimate:
    """Estimate roll and pitch from a reference-line observation.

    Pipeline: undistort all pixels; take the two extreme points (min/max u)
    for the roll estimate; interpolate the centre-column crossing and feed its
    de-rolled height ``cos(roll)*yn - sin(roll)*xn`` to the pitch formula (the
    raw height is exact only for a roll-free camera; the de-rolled height of a
    line point is invariant along the line, so this stays exact even when the
    centre column is not bracketed); then back-project every pixel through the
    combined rotation to fill in the depth residuals.

    Raises:
        NonConvergent: a pixel could not be undistorted.
        DegenerateLine: the extreme points are too close together.
        DegenerateGeometry: the pitch denominator vanishes.
        NoHorizonIntersection: some pixel back-projects at or above the
            horizon under the estimated rotation (grossly wrong inputs).
    """
    und = _undistort_uv(obs.uv_array(), k, d)
    norm = _normalize_uv(und, k)

    i_lo, i_hi = _extreme_indices(und)
    roll = estimate_roll(
        NormalizedPoint(float(norm[i_lo, 0]), float(norm[i_lo, 1])),
        NormalizedPoint(float(norm[i_hi, 0]), float(norm[i_hi, 1])),
    )

    center, extrapolated = _interpolate_center(norm)
    deroll_height = math.cos(roll) * center.yn - math.sin(roll) * center.xn
    pitch = estimate_pitch(deroll_height, sc)

    orientation = Orientation(roll=roll, pitch=pitch)
    try:
        spread, mean_depth = _depth_stats(norm, orientation, sc.c0)
    except (RayParallelToPlane, RayAwayFromPlane) as exc:
        raise NoHorizonIntersection(
            f"estimated orientation sends line pixels to the horizon: {exc}"
        ) from exc

    warnings = (_CENTER_FALLBACK_WARNING,) if extrapolated else ()
    return OrientationEstimate(
        orientation=orientation,
        residual_z_spread=spread,
        residual_z_bias=mean_depth - sc.z0,
        warnings=warnings,
    )


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
    """
    norm = _normalize_uv(_undistort_uv(obs.uv_array(), k, d), k)
    return _depth_stats(norm, orientation, c0)
