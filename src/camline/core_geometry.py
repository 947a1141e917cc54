"""Forward camera model: intrinsics, lens distortion, rotations, projection.

Coordinate conventions
----------------------
World frame (camera-centred):
  - x: lateral (right), metres
  - y: down, toward the observed ground plane, metres
  - z: forward depth, metres

Camera frame: standard computer-vision axes (x right, y down, z along the
optical axis into the scene).  Image pixels: u right, v down, origin at the
top-left corner.

Rotation convention
-------------------
``rotation_x`` / ``rotation_z`` / ``rotation_xz`` build matrices that map
*camera-frame* directions into *world-frame* directions::

    world_dir = R @ camera_dir

``project`` therefore uses the transpose of ``rotation_matrix(orientation)``
as the world-to-camera block of the extrinsic transform, while the
back-projection code applies the matrix directly to the homogeneous ray
``(xn, yn, 1)``.  Angles are radians everywhere; roll rotates about the
optical (z) axis, pitch about the lateral (x) axis, and the yaw slot is
reserved and fixed at zero.

Distortion convention
---------------------
Brown-Conrady radial + tangential distortion, expressed directly in pixel
units: offsets are measured from the principal point and the radius ``r``
uses pixel distances, so the coefficients are scaled for pixel-space radii
(a ``k1`` of 1e-7 is a mild lens here).  With all coefficients zero the
distortion map is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BehindCamera, NonConvergent

__all__ = [
    "Intrinsics",
    "DistortionCoefficients",
    "PixelPoint",
    "NormalizedPoint",
    "Orientation",
    "Pose",
    "WorldPoint",
    "normalize",
    "denormalize",
    "distort",
    "undistort",
    "rotation_x",
    "rotation_z",
    "rotation_xz",
    "rotation_matrix",
    "project",
]


def _require_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


@dataclass(frozen=True)
class Intrinsics:
    """Pinhole intrinsic parameters, all in pixel units.

    ``fx``/``fy`` are the focal lengths, ``(cx, cy)`` the principal point and
    ``skew`` the off-diagonal axis-skew term (zero on modern sensors).
    """

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self) -> None:
        for name in ("fx", "fy", "cx", "cy", "skew"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.fx <= 0.0:
            raise ValueError(f"fx must be > 0, got {self.fx}")
        if self.fy <= 0.0:
            raise ValueError(f"fy must be > 0, got {self.fy}")

    @property
    def matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix ``[[fx, skew, cx], [0, fy, cy], [0, 0, 1]]``."""
        return np.array(
            [
                [self.fx, self.skew, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )


@dataclass(frozen=True)
class DistortionCoefficients:
    """Brown-Conrady coefficients: radial ``k1, k2, k3``, tangential ``p1, p2``.

    The all-zero value is an ideal, distortion-free lens.
    """

    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3", "p1", "p2"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))

    @classmethod
    def zero(cls) -> "DistortionCoefficients":
        return cls()


@dataclass(frozen=True)
class PixelPoint:
    """Real-valued image location (u right, v down), in pixels."""

    u: float
    v: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "u", _require_finite("u", self.u))
        object.__setattr__(self, "v", _require_finite("v", self.v))


@dataclass(frozen=True)
class NormalizedPoint:
    """Dimensionless image coordinates after removing the intrinsic map."""

    xn: float
    yn: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "xn", _require_finite("xn", self.xn))
        object.__setattr__(self, "yn", _require_finite("yn", self.yn))


@dataclass(frozen=True)
class Orientation:
    """Camera orientation angles in radians.

    ``roll`` rotates about the optical (z) axis, ``pitch`` about the lateral
    (x) axis.  ``yaw`` is a reserved slot and must stay 0; nothing in this
    package estimates or applies a yaw.
    """

    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def __post_init__(self) -> None:
        for name in ("roll", "pitch", "yaw"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))
        if self.yaw != 0.0:
            raise ValueError(f"yaw is a reserved slot and must be 0.0, got {self.yaw}")


@dataclass(frozen=True)
class Pose:
    """Orientation plus a camera-frame translation (metres)."""

    orientation: Orientation
    translation: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        t = tuple(_require_finite("translation", v) for v in self.translation)
        if len(t) != 3:
            raise ValueError(f"translation must have 3 components, got {len(t)}")
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "Pose":
        return cls(Orientation())


@dataclass(frozen=True)
class WorldPoint:
    """3D point in the camera-centred world frame (metres)."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))


# ---------------------------------------------------------------------------
# Intrinsic normalization
# ---------------------------------------------------------------------------


def normalize(p: PixelPoint, k: Intrinsics) -> NormalizedPoint:
    """Map a pixel to normalized image coordinates (inverse intrinsic map).

    Solves the upper-triangular intrinsic system exactly: ``yn`` first, then
    ``xn`` using the skew term, so ``denormalize(normalize(p)) == p``.
    """
    yn = (p.v - k.cy) / k.fy
    xn = (p.u - k.cx - k.skew * yn) / k.fx
    return NormalizedPoint(xn, yn)


def denormalize(n: NormalizedPoint, k: Intrinsics) -> PixelPoint:
    """Apply the intrinsic map to normalized coordinates."""
    return PixelPoint(k.cx + k.fx * n.xn + k.skew * n.yn, k.cy + k.fy * n.yn)


def _normalize_uv(uv: np.ndarray, k: Intrinsics) -> np.ndarray:
    """Vectorized ``normalize`` for an (..., 2) pixel array."""
    yn = (uv[..., 1] - k.cy) / k.fy
    xn = (uv[..., 0] - k.cx - k.skew * yn) / k.fx
    return np.stack([xn, yn], axis=-1)


# ---------------------------------------------------------------------------
# Brown-Conrady distortion
# ---------------------------------------------------------------------------


def _distort_components(
    u: np.ndarray, v: np.ndarray, k: Intrinsics, d: DistortionCoefficients
) -> tuple[np.ndarray, ...]:
    """Distortion map on pixel components, with the terms its Jacobian reuses.

    Returns ``(u', v', dx, dy, r2, radial)``: the distorted components, the
    offsets from the principal point, their squared radius and the radial
    factor ``1 + k1*r^2 + k2*r^4 + k3*r^6``.
    """
    dx = u - k.cx
    dy = v - k.cy
    r2 = dx * dx + dy * dy
    radial = 1.0 + d.k1 * r2 + d.k2 * r2 * r2 + d.k3 * r2 * r2 * r2
    u_d = k.cx + dx * radial + d.p1 * (r2 + 2.0 * dx * dx) + 2.0 * d.p2 * dx * dy
    v_d = k.cy + dy * radial + 2.0 * d.p1 * dx * dy + d.p2 * (r2 + 2.0 * dy * dy)
    return u_d, v_d, dx, dy, r2, radial


def _distort_uv(uv: np.ndarray, k: Intrinsics, d: DistortionCoefficients) -> np.ndarray:
    """Vectorized distortion map for an (..., 2) pixel array."""
    u, v, *_ = _distort_components(uv[..., 0], uv[..., 1], k, d)
    return np.stack([u, v], axis=-1)


def distort(p: PixelPoint, k: Intrinsics, d: DistortionCoefficients) -> PixelPoint:
    """Apply lens distortion to an ideal (undistorted) pixel.

    The radial polynomial scales the offset from the principal point and the
    tangential terms are added on top:

    ``u' = cx + (u-cx)*(1 + k1*r^2 + k2*r^4 + k3*r^6) + p1*(r^2 + 2(u-cx)^2) + 2*p2*(u-cx)(v-cy)``
    ``v' = cy + (v-cy)*(1 + k1*r^2 + k2*r^4 + k3*r^6) + 2*p1*(u-cx)(v-cy) + p2*(r^2 + 2(v-cy)^2)``

    with ``r^2 = (u-cx)^2 + (v-cy)^2`` in pixel units.  Zero coefficients make
    this the identity; the principal point is always a fixed point.
    """
    out = _distort_uv(np.array([p.u, p.v]), k, d)
    return PixelPoint(float(out[0]), float(out[1]))


def _undistort_uv(
    uv: np.ndarray,
    k: Intrinsics,
    d: DistortionCoefficients,
    tol: float = 1e-9,
    max_iter: int = 50,
) -> np.ndarray:
    """Vectorized Newton inverse of :func:`_distort_uv`.

    Starting from the target itself, each of at most ``max_iter`` rounds
    evaluates the residual ``distort(q) - target`` and returns once every
    point's residual is within ``tol`` pixels (Euclidean).  Otherwise it takes
    the Newton step ``q <- q - J(q)^-1 residual``, where ``J`` is the analytic
    Jacobian of the Brown-Conrady map (symmetric, since ``du'/dv == dv'/du``)
    and each point's 2x2 system is solved in closed form.  With no lens the
    first residual is zero, so one round returns the input unchanged.

    Newton converges to whichever preimage it meets, so a solution is
    accepted only on the branch that contains the principal point: the
    radial factor and ``det J`` must both be positive there.  (With no lens
    both are 1 everywhere, so that check is skipped.)

    Raises:
        NonConvergent: the iteration diverged, did not reach ``tol`` within
            ``max_iter`` rounds, or found a root on a folded branch.  This
            happens for pixels outside the lens's invertible region.
    """
    target = np.asarray(uv, dtype=float)
    t_u, t_v = target[..., 0], target[..., 1]
    u, v = t_u, t_v
    lens = any((d.k1, d.k2, d.k3, d.p1, d.p2))
    # A singular or overflowing step shows up as a non-finite residual in the
    # next round, which is the detector, so the transient warnings carry no
    # information.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            u_d, v_d, dx, dy, r2, radial = _distort_components(u, v, k, d)
            e_u, e_v = u_d - t_u, v_d - t_v
            worst = float(np.max(np.hypot(e_u, e_v)))
            if not math.isfinite(worst):
                raise NonConvergent(
                    "undistortion diverged; pixel outside the invertible lens region"
                )
            if worst <= tol and not lens:
                return target.copy()
            # d(radial)/d(dx) = slope2 * dx, and likewise for dy.
            slope2 = 2.0 * d.k1 + r2 * (4.0 * d.k2 + 6.0 * d.k3 * r2)
            j_uu = radial + slope2 * dx * dx + 6.0 * d.p1 * dx + 2.0 * d.p2 * dy
            j_uv = slope2 * dx * dy + 2.0 * d.p1 * dy + 2.0 * d.p2 * dx
            j_vv = radial + slope2 * dy * dy + 2.0 * d.p1 * dx + 6.0 * d.p2 * dy
            det = j_uu * j_vv - j_uv * j_uv
            if worst <= tol:
                if not np.all((radial > 0.0) & (det > 0.0)):
                    raise NonConvergent(
                        "undistortion reached a folded branch of the lens map; "
                        "pixel outside the invertible lens region"
                    )
                return np.stack([u, v], axis=-1)
            u = u - (j_vv * e_u - j_uv * e_v) / det
            v = v - (j_uu * e_v - j_uv * e_u) / det
    raise NonConvergent(
        f"undistortion did not reach tol={tol} px within {max_iter} iterations"
    )


def undistort(
    p: PixelPoint,
    k: Intrinsics,
    d: DistortionCoefficients,
    tol: float = 1e-9,
    max_iter: int = 50,
) -> PixelPoint:
    """Numerically invert :func:`distort` at a single pixel.

    Runs Newton's method on the analytic Jacobian of the distortion map,
    starting from ``p`` itself, and accepts the result only on the branch
    of the map that contains the principal point (positive radial factor
    and Jacobian determinant).

    Args:
        p: Distorted pixel, assumed to lie in the invertible lens region.
        k: Intrinsics (only the principal point matters to the offsets).
        d: Distortion coefficients.
        tol: Convergence tolerance in pixels on ``distort(result) - p``.
        max_iter: Cap on residual evaluations; the last one only tests, so
            at most ``max_iter - 1`` Newton steps are taken.

    Returns:
        The pixel ``q`` with ``distort(q)`` within ``tol`` pixels of ``p``.

    Raises:
        NonConvergent: iteration failed to converge or reached a folded
            branch of the map (extreme coefficients, or a pixel beyond the
            reach of the radial polynomial).
    """
    out = _undistort_uv(np.array([p.u, p.v]), k, d, tol=tol, max_iter=max_iter)
    return PixelPoint(float(out[0]), float(out[1]))


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------


def rotation_x(theta: float) -> np.ndarray:
    """Pitch rotation about the lateral (x) axis; camera-to-world map."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rotation_z(lam: float) -> np.ndarray:
    """Roll rotation about the optical (z) axis; camera-to-world map."""
    c, s = math.cos(lam), math.sin(lam)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_xz(theta: float, lam: float) -> np.ndarray:
    """Combined pitch-then-roll map, equal to ``rotation_x(theta) @ rotation_z(lam)``.

    The composition order is fixed; the closed-form entries below are what the
    estimators invert, so it is not configurable.
    """
    ct, st = math.cos(theta), math.sin(theta)
    cl, sl = math.cos(lam), math.sin(lam)
    return np.array(
        [
            [cl, sl, 0.0],
            [-sl * ct, cl * ct, st],
            [sl * st, -cl * st, ct],
        ]
    )


def rotation_matrix(orientation: Orientation) -> np.ndarray:
    """Camera-to-world rotation for an :class:`Orientation` (yaw fixed at 0)."""
    return rotation_xz(orientation.pitch, orientation.roll)


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def _pixels_from_camera_frame(q: np.ndarray, k: Intrinsics) -> np.ndarray:
    """Perspective-divide camera-frame points (N, 3) into ideal pixels (N, 2).

    Rows with non-positive depth come out as NaN instead of raising.
    """
    z = q[..., 2]
    z_safe = np.where(z > 0.0, z, np.nan)
    u = (k.fx * q[..., 0] + k.skew * q[..., 1] + k.cx * z) / z_safe
    v = (k.fy * q[..., 1] + k.cy * z) / z_safe
    return np.stack([u, v], axis=-1)


def project(w: WorldPoint, k: Intrinsics, d: DistortionCoefficients, pose: Pose) -> PixelPoint:
    """Project a world point to a (distorted) pixel.

    The pipeline is: extrinsic transform into the camera frame, intrinsic map
    and perspective divide, then the distortion map.  With the identity pose
    and zero distortion this reduces to the plain pinhole equations
    ``u = fx*x/z + skew*y/z + cx`` and ``v = fy*y/z + cy``.

    Args:
        w: World point in the camera-centred frame.
        k: Intrinsics.
        d: Distortion coefficients.
        pose: Orientation plus camera-frame translation.

    Returns:
        The projected pixel, including lens distortion.

    Raises:
        BehindCamera: the transformed point has depth <= 0.
    """
    m = rotation_matrix(pose.orientation)
    q = m.T @ np.array([w.x, w.y, w.z]) + np.asarray(pose.translation, dtype=float)
    if q[2] <= 0.0:
        raise BehindCamera(f"point has non-positive camera depth {q[2]:.6g} m")
    u = (k.fx * q[0] + k.skew * q[1] + k.cx * q[2]) / q[2]
    v = (k.fy * q[1] + k.cy * q[2]) / q[2]
    return distort(PixelPoint(float(u), float(v)), k, d)
