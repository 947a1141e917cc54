"""Closed-form roll/pitch estimation from an observed ground reference line.

Inputs are pixel samples along a straight scene line at known camera height
``c0`` and known depth ``z0`` (see :class:`~camline.core_geometry.SceneConstraints`).
One orthogonal-regression line is fitted through every undistorted sample:
roll is its image angle, pitch comes from its de-rolled height.  A residual
diagnostic takes each sample's depth on the plane from its own de-rolled
height and reports how far the depths are from being constant and from ``z0``.

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
    SceneConstraints,
    _normalize_uv,
    _require_real,
    _undistort_uv,
)
from .errors import ConfigError, DegenerateLine, NoHorizonIntersection

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


@dataclass(frozen=True, init=False, eq=False)
class ReferenceLineObservation:
    """Ordered pixel samples along the detected reference line (>= 2 points).

    Built from an (N, 2) array-like of (u, v) pixel coordinates, checked once
    as a whole.  The one field is a read-only, C-contiguous copy holding
    exactly the doubles of ``np.asarray(uv, dtype=float)``, which the
    estimators read; later changes to ``uv`` reach neither it nor its
    estimates.  Two observations are equal when their arrays have the same
    shape and equal floats (so ``-0.0 == 0.0``), and their hashes agree.

    Raises:
        ConfigError: ``uv`` is a ragged sequence, holds no ints or floats, is
            not (N, 2), has a non-finite value (named ``u`` or ``v``, the
            first in row order) or N < 2, in that order.
    """

    _uv: np.ndarray

    def __init__(self, uv: np.ndarray) -> None:
        try:
            arr = np.asarray(uv)
        except ValueError:  # numpy refuses rows of unequal length
            raise ConfigError(
                "expected an (N, 2) array of pixels, got a ragged sequence"
            ) from None
        if arr.dtype.kind not in "iuf":
            raise ConfigError(f"pixels must be real numbers, got an array of {arr.dtype}")
        # Always a new C-ordered array, never the caller's own.
        arr = np.array(arr, dtype=float, order="C")
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ConfigError(f"expected an (N, 2) array of pixels, got shape {arr.shape}")
        finite = np.isfinite(arr)
        if not finite.all():
            row, column = divmod(int(finite.argmin()), 2)
            _require_real("uv"[column], arr[row, column])  # raises, naming u or v
        if len(arr) < 2:
            raise ConfigError(
                f"a reference-line observation needs at least 2 points, got {len(arr)}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "_uv", arr)

    @classmethod
    def from_array(cls, uv: np.ndarray) -> ReferenceLineObservation:
        """The constructor under its earlier name: ``cls(uv)``."""
        return cls(uv)

    def uv_array(self) -> np.ndarray:
        """A writable (N, 2) copy of the observed pixel coordinates."""
        return self._uv.copy()

    def __len__(self) -> int:
        return len(self._uv)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self._uv, other._uv)

    def __hash__(self) -> int:
        return hash(tuple(self._uv.ravel().tolist()))

    def __reduce__(self):
        # Pickle and deepcopy re-run the constructor, which makes the array read-only.
        return type(self), (self._uv,)


@dataclass(frozen=True)
class OrientationEstimate:
    """Estimated orientation plus back-projection residual diagnostics.

    A pixel's depth on the plane falls strictly with its de-rolled height,
    and the pitch puts the fitted height at depth ``z0``.  So
    ``residual_z_spread``, the depths' max - min, maps the fit's two extreme
    perpendicular residuals: 0 on noise-free input, and blind to a wrong lens
    that does not bow the line.  ``residual_z_bias`` is the mean depth minus
    ``z0``.  ``warnings`` is reserved for notes on how the estimate was obtained.
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
    ``visible`` (..., N) marks the rows to fit.  Returns ``(roll, height)``,
    one float per observation (leading axes flattened) in each: the angle
    ``0.5*atan2(2*Sxy, Sxx - Syy)`` of the centred scatter's principal axis,
    wrapped into (-pi/2, pi/2], and the de-rolled height
    ``cos(roll)*yn - sin(roll)*xn`` of the centroid, which every point of
    the fitted line shares (Pearson 1901).  Both are NaN where no row is
    visible, or where the scatter overflowed: it fixes no direction then.
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
    """Undistort, normalize, span-check and fit each observation's visible pixels.

    ``uv`` is (T, N, 2) and ``visible`` (T, N).  Returns ``(norm, roll, height,
    failures)``, with :class:`NonConvergent` or :class:`DegenerateLine`
    recorded per observation.  Each row that is not visible becomes a copy of
    the first visible row, or of the first row if none is, in ``norm`` too: it
    converges, folds or diverges with that row and moves no maximum or minimum.
    So an observation with fewer than 2 visible rows is one pixel, and records
    ``DegenerateLine`` (span 0), or ``NonConvergent`` if that pixel is NaN.
    """
    if not visible.all():
        first = uv[np.arange(len(uv)), visible.argmax(axis=-1)]
        uv = np.where(visible[..., None], uv, first[:, None, :])
    und, failures = _undistort_uv(uv, k, d)
    # A failed observation keeps its pixels, out to 1.7e308 px, which may overflow its
    # span; a focal length far below the span may overflow the scatter (a NaN roll).
    with np.errstate(over="ignore", invalid="ignore"):
        norm = _normalize_uv(und, k)
        u, v = und[..., 0], und[..., 1]
        spans = np.hypot(u.max(axis=-1) - u.min(axis=-1), v.max(axis=-1) - v.min(axis=-1))
        rolls, heights = _fit_line(norm, visible)
    for i, (span, roll) in enumerate(zip(spans.tolist(), rolls)):
        if span <= 1.0 and failures[i] is None:
            failures[i] = DegenerateLine(
                f"line pixels span {span:.3g} px; they must span more than 1 px"
            )
        elif math.isnan(roll) and failures[i] is None:
            failures[i] = DegenerateLine("the line's scatter overflows in normalized coordinates")
    return norm, rolls, heights, failures


def _batch_of_one(obs: ReferenceLineObservation) -> tuple[np.ndarray, np.ndarray]:
    """The observation as a batch of one: pixels (1, N, 2), every row visible."""
    uv = obs._uv[None]
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
    per observation; each row that is not visible repeats another, as
    :func:`_fit_observation` leaves them.  A point's ray
    ``rotation_xz(pitch, roll) @ (xn, yn, 1)`` depends on it only through its
    de-rolled height ``y' = cos(roll)*yn - sin(roll)*xn``: it descends by
    ``sin(pitch) + cos(pitch)*y'`` and runs forward by
    ``cos(pitch) - sin(pitch)*y'``.  It misses the plane where
    it descends by less than ``HORIZON_EPS`` (along or above the horizon) or
    meets it beyond the float range.  Records :class:`NoHorizonIntersection`
    for an observation with a visible point that misses; its numbers are
    then NaN.  A miss shows in the observation's largest or smallest depth,
    as NaN reaches both, +inf the largest and -inf the smallest, so the
    per-point mask and count are built only for an observation that
    missed.  A spread of two finite depths may still overflow to +inf.
    """
    # (T, 1) columns: one cosine and one sine of each angle per observation,
    # from one array of math values.
    trig = [f(a) for angles in (rolls, pitches) for f in (math.cos, math.sin) for a in angles]
    cos_roll, sin_roll, cos_pitch, sin_pitch = np.array(trig).reshape(4, len(rolls), 1)
    with np.errstate(over="ignore", invalid="ignore"):
        height = cos_roll * norm[..., 1] - sin_roll * norm[..., 0]
        down = sin_pitch + cos_pitch * height
        # Divide first: c0 * the forward run can overflow where the depth is in range.
        scale = c0 / np.where(down < HORIZON_EPS, np.nan, down)
        depths = (cos_pitch - sin_pitch * height) * scale
        largest, smallest = depths.max(axis=-1), depths.min(axis=-1)
        spreads = (largest - smallest).tolist()
        weights = visible[..., None, :].astype(float)
        means = ((weights @ depths[..., None])[..., 0, 0] / visible.sum(axis=-1)).tolist()
    for i, extremes in enumerate(zip(largest.tolist(), smallest.tolist())):
        if all(map(math.isfinite, extremes)):
            continue
        spreads[i] = means[i] = math.nan
        # A row that is not visible repeats a visible one, so it misses only
        # where that row does.
        if failures[i] is None:
            n_missed = int(np.count_nonzero(~np.isfinite(depths[i]) & visible[i]))
            failures[i] = NoHorizonIntersection(
                f"{n_missed} point(s) back-project at or above the horizon"
            )
    return spreads, means


def _estimate(
    uv: np.ndarray,
    visible: np.ndarray,
    k: Intrinsics,
    d: DistortionCoefficients,
    sc: SceneConstraints,
) -> tuple[list[float], list[float], list[float], list[float], list]:
    """:func:`estimate_orientation` over a batch of observations.

    ``uv`` holds T observations of N pixels (T, N, 2), of which only the
    ``visible`` (T, N) rows are used.  Every observation runs through every
    stage.  Returns one roll, pitch, depth spread and mean depth per
    observation, and per observation ``None`` or the :class:`GeometryError`
    it failed with, the first of ``NonConvergent``, ``DegenerateLine`` and
    ``NoHorizonIntersection``: it alone marks a failed observation, whose
    numbers are meaningless.
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
    of the line, to the pitch formula; then take every pixel's depth on the
    plane from its own de-rolled height to fill in the depth residuals.  On
    two pixels the roll is the image angle of the segment between them.

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
    with np.errstate(over="ignore", invalid="ignore"):  # a pixel far out may normalize to inf
        norm = _normalize_uv(und, k)
    (spread,), (mean_depth,) = _depth_stats(
        norm, visible, [orientation.roll], [orientation.pitch], c0, failures
    )
    _raise_first(failures)
    return spread, mean_depth
