"""Forward camera model: intrinsics, lens distortion, rotations, projection.

Each operation is one array kernel over ``(..., k)`` arrays (``_normalize_uv``,
``_denormalize_xy``, ``_distort_uv``, ``_undistort_uv``, ``_project_uv``).  Only
``undistort`` remains as a single-point wrapper, for the CLI.

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
``rotation_xz`` builds the matrix that maps *camera-frame* directions into
*world-frame* directions::

    world_dir = R @ camera_dir

The camera sits at the world origin.  ``_project_uv`` therefore uses the
transpose of ``rotation_xz(pitch, roll)`` as the world-to-camera map,
while the back-projection code applies the matrix directly to the homogeneous
ray ``(xn, yn, 1)``.  Angles are radians everywhere; roll rotates about the
optical (z) axis and pitch about the lateral (x) axis.

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

from .errors import NonConvergent

__all__ = [
    "Intrinsics",
    "DistortionCoefficients",
    "SceneConstraints",
    "PixelPoint",
    "Orientation",
    "undistort",
    "rotation_xz",
]

# Undistortion stops once a pixel's distortion is this close to its target.
UNDISTORT_TOL_PX = 1e-9
_DIVERGED = "undistortion diverged; pixel outside the invertible lens region"


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


@dataclass(frozen=True, init=False)
class PixelPoint:
    """Real-valued image location (u right, v down), in pixels."""

    u: float
    v: float

    def __init__(self, u: float, v: float) -> None:
        # Each field is set once: observations build one point per pixel.
        object.__setattr__(self, "u", _require_finite("u", u))
        object.__setattr__(self, "v", _require_finite("v", v))


@dataclass(frozen=True)
class Orientation:
    """Camera roll about the optical (z) axis and pitch about the lateral (x) axis, radians."""

    roll: float = 0.0
    pitch: float = 0.0

    def __post_init__(self) -> None:
        for name in ("roll", "pitch"):
            object.__setattr__(self, name, _require_finite(name, getattr(self, name)))


# ---------------------------------------------------------------------------
# Intrinsic normalization
# ---------------------------------------------------------------------------


def _normalize_uv(uv: np.ndarray, k: Intrinsics) -> np.ndarray:
    """Inverse intrinsic map on an (..., 2) pixel array.

    Solves the upper-triangular intrinsic system exactly: ``yn`` first, then
    ``xn`` using the skew term, so ``_denormalize_xy`` inverts it.
    """
    yn = (uv[..., 1] - k.cy) / k.fy
    xn = (uv[..., 0] - k.cx - k.skew * yn) / k.fx
    return np.stack([xn, yn], axis=-1)


def _denormalize_xy(xy: np.ndarray, k: Intrinsics) -> np.ndarray:
    """Intrinsic map on an (..., 2) array of normalized coordinates."""
    xn, yn = xy[..., 0], xy[..., 1]
    return np.stack([k.cx + k.fx * xn + k.skew * yn, k.cy + k.fy * yn], axis=-1)


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


def _distort_jacobian(
    dx: np.ndarray, dy: np.ndarray, r2: np.ndarray, radial: np.ndarray, d: DistortionCoefficients
) -> tuple[np.ndarray, ...]:
    """Jacobian of the distortion map from the terms :func:`_distort_components` returns.

    Returns ``(j_uu, j_uv, j_vv, det, unfolded)``: the symmetric Jacobian, its
    determinant, and where the radial factor and ``det`` are both positive,
    which marks the branch of the map that holds the principal point.
    """
    # d(radial)/d(dx) = slope2 * dx, and likewise for dy.
    slope2 = 2.0 * d.k1 + r2 * (4.0 * d.k2 + 6.0 * d.k3 * r2)
    j_uu = radial + slope2 * dx * dx + 6.0 * d.p1 * dx + 2.0 * d.p2 * dy
    j_uv = slope2 * dx * dy + 2.0 * d.p1 * dy + 2.0 * d.p2 * dx
    j_vv = radial + slope2 * dy * dy + 2.0 * d.p1 * dx + 6.0 * d.p2 * dy
    det = j_uu * j_vv - j_uv * j_uv
    return j_uu, j_uv, j_vv, det, (radial > 0.0) & (det > 0.0)


def _distort_uv(uv: np.ndarray, k: Intrinsics, d: DistortionCoefficients) -> np.ndarray:
    """Apply lens distortion to an (..., 2) array of ideal (undistorted) pixels.

    The radial polynomial scales the offset from the principal point and the
    tangential terms are added on top:

    ``u' = cx + (u-cx)*(1 + k1*r^2 + k2*r^4 + k3*r^6) + p1*(r^2 + 2(u-cx)^2) + 2*p2*(u-cx)(v-cy)``
    ``v' = cy + (v-cy)*(1 + k1*r^2 + k2*r^4 + k3*r^6) + 2*p1*(u-cx)(v-cy) + p2*(r^2 + 2(v-cy)^2)``

    with ``r^2 = (u-cx)^2 + (v-cy)^2`` in pixel units.  Zero coefficients make
    this the identity; the principal point is always a fixed point.
    """
    u, v, *_ = _distort_components(uv[..., 0], uv[..., 1], k, d)
    return np.stack([u, v], axis=-1)


def _undistort_uv(
    uv: np.ndarray,
    k: Intrinsics,
    d: DistortionCoefficients,
    max_iter: int = 50,
) -> tuple[np.ndarray, list[NonConvergent | None]]:
    """Vectorized Newton inverse of :func:`_distort_uv`, converging per observation.

    ``uv`` holds observations of N pixels each, ``(..., N, 2)``; a single
    ``(2,)`` pixel is one observation of one pixel.  Returns the undistorted
    pixels in ``uv``'s shape and, for each observation (leading axes
    flattened in C order), ``None`` or the :class:`NonConvergent` it failed
    with.  A failed observation's pixels come back as given.

    Starting from the target itself, each of at most ``max_iter`` rounds
    evaluates the residual ``_distort_uv(q) - target``.  An observation is
    done once its own worst residual is within ``UNDISTORT_TOL_PX`` pixels (Euclidean)
    and takes no further step, so its pixels are bit-identical to those of a
    call on that observation alone.  The others take the Newton step
    ``q <- q - J(q)^-1 residual``, where ``J`` is the analytic Jacobian of
    the Brown-Conrady map (symmetric, since ``du'/dv == dv'/du``) and each
    point's 2x2 system is solved in closed form.

    With no lens the map is the identity, so the pixels come back as given
    with no Newton round, whatever ``max_iter``.  Only an observation with a
    pixel where ``r^2 + 2*dx^2`` or ``r^2 + 2*dy^2`` overflows (from 7.7e153
    to 1.3e154 px from the principal point, by direction) fails, as
    diverged: the map's zero terms are NaN there.

    Newton converges to whichever preimage it meets, so a solution is
    accepted only on the branch that contains the principal point: the
    radial factor and ``det J`` must both be positive there.

    An observation fails with :class:`NonConvergent` when its iteration
    diverged, did not reach that tolerance within ``max_iter`` rounds, or found a
    root on a folded branch.  This happens for pixels outside the lens's
    invertible region.
    """
    target = np.asarray(uv, dtype=float)
    obs = target.reshape((-1,) + target.shape[-2:]) if target.ndim > 1 else target.reshape(1, 1, 2)
    out = obs.copy()
    if not any((d.k1, d.k2, d.k3, d.p1, d.p2)):
        # The identity, but where these overflow _distort_components gives 0 * inf = NaN.
        with np.errstate(over="ignore", invalid="ignore"):
            dx, dy = out[..., 0] - k.cx, out[..., 1] - k.cy
            r2 = dx * dx + dy * dy
            finite = np.isfinite(r2 + 2.0 * dx * dx) & np.isfinite(r2 + 2.0 * dy * dy)
        ok = finite.all(axis=-1).tolist()
        return out.reshape(target.shape), [None if o else NonConvergent(_DIVERGED) for o in ok]
    failures: list[NonConvergent | None] = [None] * len(obs)
    index = np.arange(len(obs))  # the observations still iterating
    # Contiguous components: ufuncs on strided 2-D views cost about twice as much.
    t_u, t_v = obs.transpose(2, 0, 1).copy()
    u, v = t_u, t_v
    # A singular or overflowing step shows up as a non-finite residual in the
    # next round, which is the detector, so the transient warnings carry no
    # information.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            u_d, v_d, dx, dy, r2, radial = _distort_components(u, v, k, d)
            e_u, e_v = u_d - t_u, v_d - t_v
            worst = np.hypot(e_u, e_v).max(axis=-1).tolist()
            # A NaN or infinite residual stops its observation too: it diverged.
            going = [UNDISTORT_TOL_PX < w < math.inf for w in worst]
            j_uu, j_uv, j_vv, det, unfolded = _distort_jacobian(dx, dy, r2, radial, d)
            if not all(going):
                good = []
                on_branch = unfolded.all(axis=-1).tolist()
                for pos, (i, w, go) in enumerate(zip(index.tolist(), worst, going)):
                    if go:
                        continue
                    if not w <= UNDISTORT_TOL_PX:
                        failures[i] = NonConvergent(_DIVERGED)
                    elif not on_branch[pos]:
                        failures[i] = NonConvergent(
                            "undistortion reached a folded branch of the lens map; "
                            "pixel outside the invertible lens region"
                        )
                    else:
                        good.append(pos)
                if good:
                    # Views, not copies, when every observation left is good.
                    rows = slice(None) if len(good) == len(index) else good
                    out[index[rows]] = np.stack([u[rows], v[rows]], axis=-1)
                if not any(going):
                    return out.reshape(target.shape), failures
                index, u, v, t_u, t_v, e_u, e_v, j_uu, j_uv, j_vv, det = (
                    a[going] for a in (index, u, v, t_u, t_v, e_u, e_v, j_uu, j_uv, j_vv, det)
                )
            u = u - (j_vv * e_u - j_uv * e_v) / det
            v = v - (j_uu * e_v - j_uv * e_u) / det
    for i in index.tolist():
        failures[i] = NonConvergent(
            f"undistortion did not reach tol={UNDISTORT_TOL_PX} px within {max_iter} iterations"
        )
    return out.reshape(target.shape), failures


def undistort(
    p: PixelPoint,
    k: Intrinsics,
    d: DistortionCoefficients,
    max_iter: int = 50,
) -> PixelPoint:
    """Single-pixel :func:`_undistort_uv`, whose docstring gives the method.

    Returns the pixel ``q`` with ``_distort_uv(q)`` within ``UNDISTORT_TOL_PX``
    pixels of ``p``.  ``max_iter`` caps the residual evaluations; the last one only
    tests, so at most ``max_iter - 1`` Newton steps are taken.

    Raises:
        NonConvergent: iteration failed to converge or reached a folded
            branch of the map (``p`` outside the invertible lens region).
    """
    out, (failure,) = _undistort_uv(np.array([p.u, p.v]), k, d, max_iter=max_iter)
    if failure is not None:
        raise failure
    return PixelPoint(float(out[0]), float(out[1]))


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------


def rotation_xz(theta: float, lam: float) -> np.ndarray:
    """Combined pitch-then-roll map ``Rx(theta) @ Rz(lam)``, camera-to-world.

    ``Rx(theta)`` pitches about the lateral (x) axis,
    ``[[1, 0, 0], [0, cos, sin], [0, -sin, cos]]``, and ``Rz(lam)`` rolls
    about the optical (z) axis, ``[[cos, sin, 0], [-sin, cos, 0], [0, 0, 1]]``.
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


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


def _project_uv(
    world: np.ndarray, k: Intrinsics, d: DistortionCoefficients, rot: np.ndarray
) -> np.ndarray:
    """Forward model on an (..., 3) array of world points: (..., 2) distorted pixels.

    ``rot`` is the camera-to-world rotation, (3, 3) or a stack (S, 3, 3);
    a stack gives (S, ..., 2).  Rotates the points into the camera frame,
    divides by depth, applies the intrinsic map and then the distortion map.
    Rows with depth <= 0 come out as NaN instead of raising, and rows whose
    pixel overflows come out infinite or NaN; callers check finiteness.  With no
    rotation and no lens this is the pinhole map ``u = fx*x/z + skew*y/z + cx``,
    ``v = fy*y/z + cy``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        cam = world @ rot  # rows are R.T @ w
        z = cam[..., 2:]
        xy = cam[..., :2] / np.where(z > 0.0, z, np.nan)
        return _distort_uv(_denormalize_xy(xy, k), k, d)

