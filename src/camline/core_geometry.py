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
transpose of ``rotation_xz(pitch, roll)`` as the world-to-camera map; the
estimator builds no matrix, as a ray's depth on the plane depends only on
the pitch and its de-rolled height ``cos(roll)*yn - sin(roll)*xn``.  Angles
are radians everywhere; roll rotates about the optical (z) axis and pitch
about the lateral (x) axis.

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

from .errors import ConfigError, NonConvergent

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


# Concrete types: an isinstance check against numbers.Real costs ten times as much.
_REAL_TYPES = (float, int, np.floating, np.integer)


def _require_real(
    name: str, value: object, above: float | None = None, least: float | None = None
) -> float:
    """``value`` as a float, or :class:`ConfigError` whose message starts with ``name``.

    ``value`` must be a Python or numpy int or float, never a bool, finite
    (an int too large for a float is not), and, where given, > ``above`` and
    >= ``least``.
    """
    if value.__class__ is not float:  # most values are floats: skip the type checks
        if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
            raise ConfigError(f"{name} must be a real number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(f"{name} must be finite, got an int too large for a float") from None
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    if above is not None and value <= above:
        raise ConfigError(f"{name} must be > {above}, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value!r}")
    return value


def _require_int(name: str, value: object, least: int) -> int:
    """:func:`_require_real` for a Python or numpy int, never a bool: ``value`` as an int."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _require_types(obj: object, types: dict[str, type]) -> None:
    """:class:`ConfigError` naming the first field of ``obj`` that is not its type in ``types``."""
    for name, kind in types.items():
        if not isinstance(getattr(obj, name), kind):
            raise ConfigError(f"{name} must be {kind.__name__}, got {getattr(obj, name)!r}")


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
        for name, above in (("fx", 0), ("fy", 0), ("cx", None), ("cy", None), ("skew", None)):
            object.__setattr__(self, name, _require_real(name, getattr(self, name), above))


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
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))


@dataclass(frozen=True)
class SceneConstraints:
    """Known scene geometry: camera height and reference-line depth (metres)."""

    c0: float
    z0: float

    def __post_init__(self) -> None:
        for name in ("c0", "z0"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name), above=0))


@dataclass(frozen=True, slots=True)
class PixelPoint:
    """One real-valued image location (u right, v down), in pixels.

    The single-pixel type of :func:`undistort` and the CLI; an observation
    keeps its pixels as one array instead.  The fields live in slots, so a
    point has no ``__dict__``.
    """

    u: float
    v: float

    def __post_init__(self) -> None:
        for name in ("u", "v"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))


@dataclass(frozen=True)
class Orientation:
    """Camera roll about the optical (z) axis and pitch about the lateral (x) axis, radians."""

    roll: float = 0.0
    pitch: float = 0.0

    def __post_init__(self) -> None:
        for name in ("roll", "pitch"):
            object.__setattr__(self, name, _require_real(name, getattr(self, name)))


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
    factor ``1 + k1*r^2 + k2*r^4 + k3*r^6``.  Each is a new array; ``u`` and
    ``v``, arrays of one or more dimensions, are only read.  The terms are
    built in place, in the order and grouping of the formula in
    :func:`_distort_uv`.

    The ``k2``, ``k3``, ``p1`` and ``p2`` terms are left out when their
    coefficient is zero.  Such a term is a signed zero wherever it is
    finite, so each finite result equals the full map's bit for bit (up to
    the sign of a zero result).
    """
    dx = u - k.cx
    dy = v - k.cy
    r2 = dx * dx
    term = dy * dy
    r2 += term
    radial = d.k1 * r2
    radial += 1.0
    if d.k2:
        np.multiply(r2, d.k2, out=term)
        term *= r2
        radial += term
    if d.k3:
        np.multiply(r2, d.k3, out=term)
        term *= r2
        term *= r2
        radial += term
    u_d = dx * radial
    u_d += k.cx
    v_d = dy * radial
    v_d += k.cy
    if d.p1:
        np.multiply(dx, 2.0, out=term)
        term *= dx
        term += r2
        term *= d.p1
        u_d += term
        np.multiply(dx, 2.0 * d.p1, out=term)
        term *= dy
        v_d += term
    if d.p2:
        np.multiply(dx, 2.0 * d.p2, out=term)
        term *= dy
        u_d += term
        np.multiply(dy, 2.0, out=term)
        term *= dy
        term += r2
        term *= d.p2
        v_d += term
    return u_d, v_d, dx, dy, r2, radial


def _distort_jacobian(
    dx: np.ndarray, dy: np.ndarray, r2: np.ndarray, radial: np.ndarray, d: DistortionCoefficients
) -> tuple[np.ndarray, ...]:
    """Jacobian of the distortion map from the terms :func:`_distort_components` returns.

    Returns ``(j_uu, j_uv, j_vv, det)``: the symmetric Jacobian and its
    determinant, each a new array; the inputs are only read.  Where the
    radial factor and ``det`` are both positive lies the branch of the map
    that holds the principal point.  Terms with a zero coefficient are left
    out, as in :func:`_distort_components`.
    """
    # d(radial)/d(dx) = slope2 * dx, and likewise for dy.
    slope2 = 2.0 * d.k1
    if d.k2 or d.k3:
        slope2 = r2 * (6.0 * d.k3)
        slope2 += 4.0 * d.k2
        slope2 *= r2
        slope2 += 2.0 * d.k1
    j_uv = slope2 * dx
    j_uu = j_uv * dx
    j_uu += radial
    j_uv *= dy
    j_vv = slope2 * dy
    j_vv *= dy
    j_vv += radial
    term = np.empty_like(j_uu)
    if d.p1:
        j_uu += np.multiply(dx, 6.0 * d.p1, out=term)
        j_uv += np.multiply(dy, 2.0 * d.p1, out=term)
        j_vv += np.multiply(dx, 2.0 * d.p1, out=term)
    if d.p2:
        j_uu += np.multiply(dy, 2.0 * d.p2, out=term)
        j_uv += np.multiply(dx, 2.0 * d.p2, out=term)
        j_vv += np.multiply(dy, 6.0 * d.p2, out=term)
    det = j_uu * j_vv
    det -= np.multiply(j_uv, j_uv, out=term)
    return j_uu, j_uv, j_vv, det


def _distort_uv(uv: np.ndarray, k: Intrinsics, d: DistortionCoefficients) -> np.ndarray:
    """Apply lens distortion to an (..., 2) array of ideal (undistorted) pixels.

    The radial polynomial scales the offset from the principal point and the
    tangential terms are added on top:

    ``u' = cx + (u-cx)*(1 + k1*r^2 + k2*r^4 + k3*r^6) + p1*(r^2 + 2(u-cx)^2) + 2*p2*(u-cx)(v-cy)``
    ``v' = cy + (v-cy)*(1 + k1*r^2 + k2*r^4 + k3*r^6) + 2*p1*(u-cx)(v-cy) + p2*(r^2 + 2(v-cy)^2)``

    with ``r^2 = (u-cx)^2 + (v-cy)^2`` in pixel units.  Zero coefficients make
    this the identity; the principal point is always a fixed point.
    """
    # The kernel works in place, which needs arrays: a (2,) pixel becomes (1, 2).
    flat = uv.reshape(-1, 2)
    u, v, *_ = _distort_components(flat[:, 0], flat[:, 1], k, d)
    return np.stack([u, v], axis=-1).reshape(uv.shape)


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
    with.  A failed observation's pixels come back as given, and one of no
    pixels converges.

    Starting from the target itself, each of at most ``max_iter`` rounds
    evaluates the residual ``_distort_uv(q) - target``.  An observation is
    done once its own worst residual is within ``UNDISTORT_TOL_PX`` pixels (Euclidean)
    and takes no further step, so its pixels are bit-identical to those of a
    call on that observation alone.  The others take the Newton step
    ``q <- q - J(q)^-1 residual``, where ``J`` is the analytic Jacobian of
    the Brown-Conrady map (symmetric, since ``du'/dv == dv'/du``) and each
    point's 2x2 system is solved in closed form.  Map and Jacobian leave out
    the ``k2``, ``k3``, ``p1`` and ``p2`` terms whose coefficient is zero
    (see :func:`_distort_components`).  The worst norm is taken as the
    square root of the largest ``e_u^2 + e_v^2``, so a residual whose square
    overflows (beyond about 1.3e154 px) counts as diverged.  Each round
    forms the residual in the map's output arrays and the step in the
    Jacobian's, in place and in the order of the formulas above; ``uv`` is
    only read, and the pixels returned share no memory with it.

    With no lens the map is the identity, so the pixels come back as given
    with no Newton round, whatever ``max_iter``.  Only an observation with a
    pixel where ``r^2 + 2*dx^2`` or ``r^2 + 2*dy^2`` overflows (from 7.7e153
    to 1.3e154 px from the principal point, by direction) fails, as
    diverged: the tangential terms of the map are not finite there.  One
    bound is tested first: when every offset from the principal point is
    within 1e150 px, neither can overflow and every observation converges;
    only a batch that fails it (a NaN does) tests each pixel.

    Newton converges to whichever preimage it meets, so a solution is
    accepted only on the branch that contains the principal point: the
    radial factor and ``det J`` must both be positive there.  This fold test
    runs only on rounds where some observation stops.

    An observation fails with :class:`NonConvergent` when its iteration
    diverged, did not reach that tolerance within ``max_iter`` rounds, or found a
    root on a folded branch.  This happens for pixels outside the lens's
    invertible region.
    """
    target = np.asarray(uv, dtype=float)
    if target.ndim > 1:
        # The count, not -1: numpy cannot infer it for observations of no pixel.
        obs = target.reshape((math.prod(target.shape[:-2]),) + target.shape[-2:])
    else:
        obs = target.reshape(1, 1, 2)
    out = obs.copy()
    if not any((d.k1, d.k2, d.k3, d.p1, d.p2)):
        # The identity.  A pixel where r^2 + 2*dx^2 or r^2 + 2*dy^2 overflows
        # still fails as diverged: the tangential terms are not finite there.
        # Offsets within 1e150 px keep both below 3e300, so only a batch with
        # a larger offset, or a NaN, which fails the bound, tests each pixel.
        with np.errstate(over="ignore", invalid="ignore"):
            offsets = out - (k.cx, k.cy)
            if np.abs(offsets).max(initial=0.0) <= 1e150:
                return out.reshape(target.shape), [None] * len(obs)
            dx, dy = offsets[..., 0], offsets[..., 1]
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
            e_u, e_v, dx, dy, r2, radial = _distort_components(u, v, k, d)
            e_u -= t_u
            e_v -= t_v
            j_uu, j_uv, j_vv, det = _distort_jacobian(dx, dy, r2, radial, d)
            # dx and dy are spent; they hold the squared residual norms.
            norm2 = np.multiply(e_u, e_u, out=dx)
            norm2 += np.multiply(e_v, e_v, out=dy)
            # initial=0.0: an observation of no pixel has converged.
            worst = np.sqrt(norm2.max(axis=-1, initial=0.0)).tolist()
            # A NaN or infinite residual stops its observation too: it diverged.
            going = [UNDISTORT_TOL_PX < w < math.inf for w in worst]
            if not all(going):
                good = []
                on_branch = ((radial > 0.0) & (det > 0.0)).all(axis=-1).tolist()
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
                # One mask array: numpy converts a list again for every index.
                keep = np.array(going)
                index, u, v, t_u, t_v, e_u, e_v, j_uu, j_uv, j_vv, det = (
                    a[keep] for a in (index, u, v, t_u, t_v, e_u, e_v, j_uu, j_uv, j_vv, det)
                )
            # u <- u - (j_vv*e_u - j_uv*e_v)/det and v <- v - (j_uu*e_v - j_uv*e_u)/det,
            # the products formed in the residual's arrays, the steps in the Jacobian's.
            j_vv *= e_u
            j_uu *= e_v
            e_u *= j_uv
            e_v *= j_uv
            j_vv -= e_v
            j_uu -= e_u
            j_vv /= det
            j_uu /= det
            u = np.subtract(u, j_vv, out=j_vv)
            v = np.subtract(v, j_uu, out=j_uu)
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


def rotation_xz(theta: float | np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """Combined pitch-then-roll map ``Rx(theta) @ Rz(lam)``, camera-to-world.

    ``Rx(theta)`` pitches about the lateral (x) axis,
    ``[[1, 0, 0], [0, cos, sin], [0, -sin, cos]]``, and ``Rz(lam)`` rolls
    about the optical (z) axis, ``[[cos, sin, 0], [-sin, cos, 0], [0, 0, 1]]``.
    The composition order is fixed; the closed-form entries below are what the
    estimators invert, so it is not configurable.  Angles that broadcast to a
    shape S give one matrix per pair, (*S, 3, 3).
    """
    theta, lam = np.asarray(theta, dtype=float), np.asarray(lam, dtype=float)
    ct, st = np.cos(theta), np.sin(theta)
    cl, sl = np.cos(lam), np.sin(lam)
    rot = np.zeros(np.broadcast_shapes(theta.shape, lam.shape) + (3, 3))
    rot[..., 0, 0], rot[..., 0, 1] = cl, sl
    rot[..., 1, 0], rot[..., 1, 1], rot[..., 1, 2] = -sl * ct, cl * ct, st
    rot[..., 2, 0], rot[..., 2, 1], rot[..., 2, 2] = sl * st, -cl * st, ct
    return rot


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

