"""Inverse projection: intersect pixel rays with the ground plane below the camera.

Sign convention: world y increases downward (matching image v), and the
observed plane lies a known height ``c0`` *below* the camera, i.e. at
y = +c0.  A back-projected ray with a positive y component therefore descends
toward the plane; a negative y component points above the horizon and never
meets it.

One array kernel, ``_plane_points``, intersects the rays through any number
of normalized points with the plane; the functions on single pixels wrap it.

The ``rot`` argument of every function here is the camera-to-world rotation
(what :func:`camline.core_geometry.rotation_matrix` returns).  It is the
transpose of the world-to-camera block used by ``project``; because rotations
are orthogonal the inverse is always taken as a transpose, never a general
matrix inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_geometry import (
    DistortionCoefficients,
    Intrinsics,
    PixelPoint,
    _normalize_uv,
    undistort,
)
from .errors import RayAwayFromPlane, RayParallelToPlane

__all__ = [
    "SceneConstraints",
    "PlanePoint",
    "back_project_to_plane",
    "undistort_then_back_project",
]

# Rays with |y| below this are treated as horizon hits: the nominal
# intersection would sit ~1e12 m away and poison any residual built on it.
HORIZON_EPS = 1e-12


@dataclass(frozen=True)
class SceneConstraints:
    """Known scene geometry: camera height and reference-line depth (metres)."""

    c0: float
    z0: float

    def __post_init__(self) -> None:
        for name in ("c0", "z0"):
            value = float(getattr(self, name))
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PlanePoint:
    """3D point on the observed plane; ``y`` equals the camera height exactly."""

    x: float
    y: float
    z: float


def _plane_points(norm: np.ndarray, rot: np.ndarray, c0: float) -> np.ndarray:
    """Intersect the rays through normalized points (..., 2) with the plane.

    Each ray is ``rot @ (xn, yn, 1)``, scaled until its y component reaches
    ``c0``.  Returns (..., 3) world points whose ``y`` is ``c0`` exactly.

    Raises:
        RayParallelToPlane: some ray runs along the horizon (|y| < 1e-12).
        RayAwayFromPlane: some ray points above the horizon.
    """
    rays = np.concatenate([norm, np.ones(norm.shape[:-1] + (1,))], axis=-1) @ rot.T
    y = rays[..., 1]
    if np.any(np.abs(y) < HORIZON_EPS):
        n_bad = int(np.count_nonzero(np.abs(y) < HORIZON_EPS))
        raise RayParallelToPlane(f"{n_bad} point(s) back-project along the horizon")
    if np.any(y < 0.0):
        n_bad = int(np.count_nonzero(y < 0.0))
        raise RayAwayFromPlane(f"{n_bad} point(s) back-project above the horizon")
    points = c0 * rays / y[..., None]
    points[..., 1] = c0
    return points


def back_project_to_plane(
    p: PixelPoint, k: Intrinsics, rot: np.ndarray, c0: float
) -> PlanePoint:
    """Intersect the ray through ``p`` with the plane ``c0`` metres below.

    Args:
        p: Pixel, assumed free of lens distortion.
        k: Intrinsics.
        rot: Camera-to-world rotation.
        c0: Camera height above the plane, metres (> 0).

    Returns:
        The intersection point; its ``y`` is ``c0`` exactly by construction.

    Raises:
        RayParallelToPlane: the ray runs along the horizon (|y| < 1e-12).
        RayAwayFromPlane: the ray points above the horizon.
    """
    x, y, z = _plane_points(_normalize_uv(np.array([p.u, p.v]), k), rot, c0)
    return PlanePoint(float(x), float(y), float(z))


def undistort_then_back_project(
    p: PixelPoint,
    k: Intrinsics,
    d: DistortionCoefficients,
    rot: np.ndarray,
    c0: float,
) -> PlanePoint:
    """Remove lens distortion from ``p``, then back-project onto the plane.

    Raises whatever :func:`~camline.core_geometry.undistort` or
    :func:`back_project_to_plane` raises.
    """
    return back_project_to_plane(undistort(p, k, d), k, rot, c0)
