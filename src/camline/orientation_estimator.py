"""Closed-form roll/pitch estimation from an observed ground reference line.

Inputs are pixel samples along a straight scene line at known camera height
``c0`` and known depth ``z0`` (see :class:`~camline.core_geometry.SceneConstraints`).
One orthogonal-regression line is fitted through every undistorted sample:
roll is its image angle, pitch comes from its de-rolled height.  A residual
diagnostic back-projects every sample onto the plane and reports how far the
recovered depths are from being constant and from ``z0``.

Each stage is one kernel over a batch of T observations of N pixels,
``(T, N, 2)`` with a ``(T, N)`` mask of the rows to use, that records a
failure per observation instead of raising.  The public functions run a
batch of one and raise its failure.

Sign convention: world y increases downward (matching image v), and the
observed plane lies a known height ``c0`` *below* the camera, i.e. at
y = +c0.  A back-projected ray with a positive y component therefore descends
toward the plane; a negative y component points above the horizon and never
meets it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .errors import DegenerateLine, NoHorizonIntersection

__all__ = [
    "ReferenceLineObservation",
    "OrientationEstimate",
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
        """Build from an (N, 2) array-like of (u, v) pixel coordinates.

        The pixels hold exactly the doubles of ``np.asarray(uv, dtype=float)``.

        Raises:
            ValueError: ``uv`` is not (N, 2), N < 2, or a value is not
                finite (the message names ``u`` or ``v``).
        """
        arr = np.asarray(uv, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"expected an (N, 2) array of pixels, got shape {arr.shape}")
        # One tolist() gives Python floats: no per-row views or numpy scalars.
        return cls(tuple(PixelPoint(u, v) for u, v in arr.tolist()))

    def uv_array(self) -> np.ndarray:
        """(N, 2) array of the observed pixel coordinates."""
        # One flat list of floats builds faster than N two-element rows; the
        # copy makes each row contiguous, as an (N, 2) array usually is.
        us, vs = [p.u for p in self.pixels], [p.v for p in self.pixels]
        return np.array(us + vs).reshape(2, -1).T.copy()

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


def _raise_first(failures: list) -> None:
    """Raise the first recorded failure, if any."""
    for failure in failures:
        if failure is not None:
            raise failure


def _pitch(heights: list[float], sc: SceneConstraints) -> list[float]:
    """Pitch of each observation from its line's de-rolled normalized height.

    The line lies ``atan2(c0, z0)`` below the horizontal, and the de-rolled
    camera sees it ``atan(y')`` below its optical axis, with ``y'`` the
    de-rolled height ``cos(roll)*yn - sin(roll)*xn``, the same at every point
    of the line.  The pitch is their difference, in (-pi/2, pi) for every
    finite ``y'``: back-projecting the de-rolled point ``(0, y')`` through
    ``rotation_xz(pitch, 0)`` lands at depth ``z0`` exactly.
    """
    depression = math.atan2(sc.c0, sc.z0)
    return [depression - math.atan(height) for height in heights]


def _fit_line(norm: np.ndarray, visible: np.ndarray) -> tuple[list[float], list[float]]:
    """Orthogonal-regression line through each observation's visible points.

    ``norm`` holds observations of N normalized points (..., N, 2) and
    ``visible`` (..., N) marks the rows to fit, at least one per
    observation.  Returns ``(roll, height)``, one float per observation
    (leading axes flattened) in each: the angle
    ``0.5*atan2(2*Sxy, Sxx - Syy)`` of the centred scatter's principal axis,
    wrapped into (-pi/2, pi/2], and the de-rolled height
    ``cos(roll)*yn - sin(roll)*xn`` of the centroid, which every point of
    the fitted line shares (Pearson 1901).  Both are NaN where the scatter
    overflowed: it fixes no direction then.
    """
    weights = visible[..., None, :].astype(float)
    centroid = (weights @ norm)[..., 0, :] / visible.sum(axis=-1)[..., None]
    centred = norm - centroid[..., None, :]
    scatter = (centred.swapaxes(-1, -2) * weights) @ centred
    rolls, heights = [], []
    for ((sxx, sxy), (_, syy)), (x_mean, y_mean) in zip(
        scatter.reshape(-1, 2, 2).tolist(), centroid.reshape(-1, 2).tolist()
    ):
        # |Sxy| <= (Sxx + Syy) / 2, so a finite trace means a finite scatter.
        if math.isfinite(sxx + syy):
            roll = 0.5 * math.atan2(2.0 * sxy, sxx - syy)
        else:
            roll = math.nan
        if roll <= -math.pi / 2:
            roll += math.pi
        rolls.append(roll)
        heights.append(math.cos(roll) * y_mean - math.sin(roll) * x_mean)
    return rolls, heights


def _fit_observation(
    uv: np.ndarray, visible: np.ndarray, k: Intrinsics, d: DistortionCoefficients
) -> tuple[np.ndarray, list[float], list[float], list]:
    """Undistort, span-check, normalize and fit each observation's visible pixels.

    ``uv`` is (T, N, 2) and ``visible`` (T, N), with at least one visible
    row per observation.  Returns ``(norm, roll, height, failures)``, with
    :class:`NonConvergent` or :class:`DegenerateLine` recorded per
    observation.  Each row of ``norm`` that is not visible repeats a visible
    one.
    """
    # A row that is not visible becomes a copy of the observation's first
    # visible row: it converges, folds or diverges in the same round as that
    # row, and leaves every maximum and minimum as it is.
    if not visible.all():
        first = uv[np.arange(len(uv)), visible.argmax(axis=-1)]
        uv = np.where(visible[..., None], uv, first[:, None, :])
    und, failures = _undistort_uv(uv, k, d)
    # A failed observation's pixels come back as given, which may be as far
    # out as 1e300: put them on the principal point so no later stage overflows.
    failed = [i for i, failure in enumerate(failures) if failure is not None]
    if failed:
        und[failed] = (k.cx, k.cy)
    u, v = und[..., 0], und[..., 1]
    spans = np.hypot(u.max(axis=-1) - u.min(axis=-1), v.max(axis=-1) - v.min(axis=-1))
    for i, span in enumerate(spans.tolist()):
        if span <= 1.0 and failures[i] is None:
            failures[i] = DegenerateLine(
                f"line pixels span {span:.3g} px; they must span more than 1 px"
            )
    # A focal length far below the line's pixel span can overflow the
    # normalized points or their scatter; the fit then gives a NaN roll.
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _normalize_uv(und, k)
        rolls, heights = _fit_line(norm, visible)
    for i, roll in enumerate(rolls):
        if math.isnan(roll) and failures[i] is None:
            failures[i] = DegenerateLine("the line's scatter overflows in normalized coordinates")
    return norm, rolls, heights, failures


def _batch_of_one(obs: ReferenceLineObservation) -> tuple[np.ndarray, np.ndarray]:
    """The observation as a batch of one: pixels (1, N, 2), every row visible."""
    uv = obs.uv_array()[None]
    return uv, np.ones(uv.shape[:-1], dtype=bool)


def central_pixel(
    obs: ReferenceLineObservation, k: Intrinsics, d: DistortionCoefficients
) -> float:
    """Normalized height ``yn`` at which the observation's fitted line crosses xn = 0.

    Raises:
        NonConvergent: a pixel could not be undistorted.
        DegenerateLine: the undistorted pixels span 1 px or less, or the
            fitted line runs parallel to the centre column (|cos roll| < 1e-9).
    """
    _, (roll,), (height,), failures = _fit_observation(*_batch_of_one(obs), k, d)
    _raise_first(failures)
    cos_roll = math.cos(roll)
    if abs(cos_roll) < 1e-9:
        raise DegenerateLine(f"fitted line is parallel to the centre column (roll {roll:.6g} rad)")
    return height / cos_roll


def _plane_points(norm: np.ndarray, rot: np.ndarray, c0: float) -> tuple[np.ndarray, np.ndarray]:
    """Intersect the rays through normalized points (..., 2) with the plane.

    Each ray is ``rot @ (xn, yn, 1)``, with ``rot`` the camera-to-world
    rotation, (3, 3) or one per observation (T, 3, 3) for points
    (T, N, 2), scaled until its y component reaches ``c0``.  Returns
    (..., 3) world points whose ``y`` is ``c0`` exactly, and the (...,) mask
    of rays that miss the plane, whose ``x`` and ``z`` are NaN: those whose y
    component is below ``HORIZON_EPS``, which run along or above the
    horizon, and those that meet it beyond the float range, which by the
    same rule meet it at the horizon.
    """
    ones = np.ones(norm.shape[:-1] + (1,))
    with np.errstate(over="ignore", invalid="ignore"):
        rays = np.concatenate([norm, ones], axis=-1) @ rot.swapaxes(-1, -2)
        y = rays[..., 1]
        # Divide first: c0 * rays can overflow where the point is in range.
        points = rays * (c0 / np.where(y < HORIZON_EPS, np.nan, y))[..., None]
    missed = ~np.isfinite(points).all(axis=-1)
    points[missed] = np.nan
    points[..., 1] = c0
    return points, missed


def _depth_stats(
    norm: np.ndarray,
    visible: np.ndarray,
    rolls: list[float],
    pitches: list[float],
    c0: float,
    failures: list,
) -> tuple[list[float], list[float]]:
    """Depth spread and mean depth of each observation's visible points on the plane.

    ``norm`` is (T, N, 2) and ``visible`` (T, N), with one roll and pitch
    per observation; each row that is not visible repeats a visible one, as
    :func:`_fit_observation` leaves them.  Records
    :class:`NoHorizonIntersection` for an observation with a visible point
    at or above the horizon; its numbers are then NaN.
    """
    rot = np.array([rotation_xz(pitch, roll) for roll, pitch in zip(rolls, pitches)])
    points, missed = _plane_points(norm, rot, c0)
    # A row that is not visible repeats a visible one, so it misses only
    # where that row does.
    for i, any_missed in enumerate(missed.any(axis=-1).tolist()):
        if any_missed and failures[i] is None:
            n_missed = int(np.count_nonzero(missed[i] & visible[i]))
            failures[i] = NoHorizonIntersection(
                f"{n_missed} point(s) back-project at or above the horizon"
            )
    depths = points[..., 2]
    spreads = depths.max(axis=-1) - depths.min(axis=-1)
    weights = visible[..., None, :].astype(float)
    means = (weights @ depths[..., None])[..., 0, 0] / visible.sum(axis=-1)
    return spreads.tolist(), means.tolist()


def _estimate(
    uv: np.ndarray,
    visible: np.ndarray,
    k: Intrinsics,
    d: DistortionCoefficients,
    sc: SceneConstraints,
) -> tuple[list[float], list[float], list[float], list[float], list]:
    """:func:`estimate_orientation` over a batch of observations.

    ``uv`` holds T observations of N pixels (T, N, 2), of which only the
    ``visible`` (T, N) rows are used, at least 2 per observation.  Returns
    one roll, pitch, depth spread and mean depth per observation, and per
    observation ``None`` or the :class:`GeometryError` it failed with, the
    first of ``NonConvergent``, ``DegenerateLine`` and
    ``NoHorizonIntersection``.  A failed observation's numbers are
    meaningless.
    """
    norm, rolls, heights, failures = _fit_observation(uv, visible, k, d)
    pitches = _pitch(heights, sc)
    spreads, means = _depth_stats(norm, visible, rolls, pitches, sc.c0, failures)
    return rolls, pitches, spreads, means, failures


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
        NoHorizonIntersection: some pixel back-projects at or above the
            horizon under the estimated rotation (grossly wrong inputs).
    """
    (roll,), (pitch,), (spread,), (mean_depth,), failures = _estimate(
        *_batch_of_one(obs), k, d, sc
    )
    _raise_first(failures)
    return OrientationEstimate(Orientation(roll=roll, pitch=pitch), spread, mean_depth - sc.z0)


def residual_z_spread(
    obs: ReferenceLineObservation,
    k: Intrinsics,
    d: DistortionCoefficients,
    orientation: Orientation,
    c0: float,
) -> tuple[float, float]:
    """``(spread, mean_depth)``: depth max - min and mean of the back-projected line.

    Quantifies how close the given orientation comes to making every observed
    line pixel land at one common depth on the plane; zero spread means the
    orientation is consistent with the observation.

    Raises:
        NonConvergent: a pixel could not be undistorted.
        NoHorizonIntersection: some pixel back-projects at or above the
            horizon under ``orientation``.
    """
    uv, visible = _batch_of_one(obs)
    und, failures = _undistort_uv(uv, k, d)
    if failures[0] is not None:
        und[:] = (k.cx, k.cy)  # as in _fit_observation: a failed pixel may be 1e300 px out
    (spread,), (mean_depth,) = _depth_stats(
        _normalize_uv(und, k), visible, [orientation.roll], [orientation.pitch], c0, failures
    )
    _raise_first(failures)
    return spread, mean_depth
