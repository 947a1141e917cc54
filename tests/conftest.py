"""Shared fixtures and independent numerical oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from camline import (
    DistortionCoefficients,
    Intrinsics,
    NoHorizonIntersection,
    NonConvergent,
    SceneConstraints,
)
from camline.core_geometry import UNDISTORT_TOL_PX
from camline.orientation_estimator import HORIZON_EPS


@pytest.fixture
def default_k() -> Intrinsics:
    return Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)


@pytest.fixture
def zero_d() -> DistortionCoefficients:
    return DistortionCoefficients()


@pytest.fixture
def mild_d() -> DistortionCoefficients:
    return DistortionCoefficients(k1=-1e-8, p1=1e-9, p2=-1e-9)


@pytest.fixture
def sc() -> SceneConstraints:
    return SceneConstraints(c0=2.0, z0=3.0)


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Independent rotation oracle: Rodrigues formula, active right-handed."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    kx, ky, kz = a
    kmat = np.array([[0.0, -kz, ky], [kz, 0.0, -kx], [-ky, kx, 0.0]])
    return np.eye(3) + math.sin(angle) * kmat + (1.0 - math.cos(angle)) * (kmat @ kmat)


def rotation_x(theta: float) -> np.ndarray:
    """Pitch factor of ``rotation_xz``: about the lateral (x) axis, camera-to-world."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def rotation_z(lam: float) -> np.ndarray:
    """Roll factor of ``rotation_xz``: about the optical (z) axis, camera-to-world."""
    c, s = math.cos(lam), math.sin(lam)
    return np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])


def distort_components_full(u, v, k: Intrinsics, d: DistortionCoefficients) -> tuple:
    """Reference Brown-Conrady map evaluating all five terms, zero or not.

    Returns ``(u', v', dx, dy, r2, radial)`` as ``_distort_components`` does.
    """
    dx = u - k.cx
    dy = v - k.cy
    r2 = dx * dx + dy * dy
    radial = 1.0 + d.k1 * r2 + d.k2 * r2 * r2 + d.k3 * r2 * r2 * r2
    u_d = k.cx + dx * radial + d.p1 * (r2 + 2.0 * dx * dx) + 2.0 * d.p2 * dx * dy
    v_d = k.cy + dy * radial + 2.0 * d.p1 * dx * dy + d.p2 * (r2 + 2.0 * dy * dy)
    return u_d, v_d, dx, dy, r2, radial


def distort_jacobian_full(dx, dy, r2, radial, d: DistortionCoefficients) -> tuple:
    """Reference Jacobian of :func:`distort_components_full`, all five terms.

    Returns ``(j_uu, j_uv, j_vv, det, unfolded)`` as ``_distort_jacobian`` does.
    """
    slope2 = 2.0 * d.k1 + r2 * (4.0 * d.k2 + 6.0 * d.k3 * r2)
    j_uu = radial + slope2 * dx * dx + 6.0 * d.p1 * dx + 2.0 * d.p2 * dy
    j_uv = slope2 * dx * dy + 2.0 * d.p1 * dy + 2.0 * d.p2 * dx
    j_vv = radial + slope2 * dy * dy + 2.0 * d.p1 * dx + 6.0 * d.p2 * dy
    det = j_uu * j_vv - j_uv * j_uv
    return j_uu, j_uv, j_vv, det, (radial > 0.0) & (det > 0.0)


def undistort_reference(uv, k: Intrinsics, d: DistortionCoefficients, max_iter: int = 50):
    """Newton undistortion with a new array per expression, the ``_undistort_uv`` oracle.

    Takes ``(T, N, 2)`` observations and a lens with some non-zero
    coefficient, and returns the pixels and per-observation failures that
    ``_undistort_uv`` must reproduce bit for bit.  Each round forms the
    residual through the full five-term map, stops the observations whose
    worst residual norm is within ``UNDISTORT_TOL_PX`` (or not finite), and
    steps the others by ``q - J^-1 residual``.  Where the map is finite the
    full map differs from the kernels' only in the sign of a zero result,
    which changes no step unless a determinant is exactly zero; where it is
    not, the observation stops as diverged either way.
    """
    obs = np.asarray(uv, dtype=float)
    out = obs.copy()
    failures = [None] * len(obs)
    index = np.arange(len(obs))
    t_u, t_v = obs[..., 0].copy(), obs[..., 1].copy()
    u, v = t_u, t_v
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(max_iter):
            u_d, v_d, dx, dy, r2, radial = distort_components_full(u, v, k, d)
            e_u, e_v = u_d - t_u, v_d - t_v
            worst = np.sqrt((e_u * e_u + e_v * e_v).max(axis=-1)).tolist()
            going = [UNDISTORT_TOL_PX < w < math.inf for w in worst]
            j_uu, j_uv, j_vv, det, unfolded = distort_jacobian_full(dx, dy, r2, radial, d)
            on_branch = unfolded.all(axis=-1).tolist()
            for pos, (i, w, go) in enumerate(zip(index.tolist(), worst, going)):
                if go:
                    continue
                if not w <= UNDISTORT_TOL_PX:
                    failures[i] = NonConvergent(
                        "undistortion diverged; pixel outside the invertible lens region"
                    )
                elif not on_branch[pos]:
                    failures[i] = NonConvergent(
                        "undistortion reached a folded branch of the lens map; "
                        "pixel outside the invertible lens region"
                    )
                else:
                    out[i] = np.stack([u[pos], v[pos]], axis=-1)
            if not any(going):
                return out, failures
            index, u, v, t_u, t_v, e_u, e_v, j_uu, j_uv, j_vv, det = (
                a[going] for a in (index, u, v, t_u, t_v, e_u, e_v, j_uu, j_uv, j_vv, det)
            )
            u = u - (j_vv * e_u - j_uv * e_v) / det
            v = v - (j_uu * e_v - j_uv * e_u) / det
    for i in index.tolist():
        failures[i] = NonConvergent(
            f"undistortion did not reach tol={UNDISTORT_TOL_PX} px within {max_iter} iterations"
        )
    return out, failures


def undistort_no_lens_reference(uv, k: Intrinsics):
    """No-lens undistortion that tests every pixel, the oracle of ``_undistort_uv``'s bound.

    Takes ``(T, N, 2)`` observations and returns a copy of the pixels and,
    per observation, ``None`` or the ``NonConvergent`` it fails with: where
    some pixel's ``r^2 + 2*dx^2`` or ``r^2 + 2*dy^2`` is not finite, the
    tangential terms of the map are not finite either.
    """
    obs = np.asarray(uv, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        dx, dy = obs[..., 0] - k.cx, obs[..., 1] - k.cy
        r2 = dx * dx + dy * dy
        finite = np.isfinite(r2 + 2.0 * dx * dx) & np.isfinite(r2 + 2.0 * dy * dy)
    failures = [
        None if ok else NonConvergent("undistortion diverged; pixel outside the invertible lens region")
        for ok in finite.all(axis=-1).tolist()
    ]
    return obs.copy(), failures


def depth_stats_reference(derolled, visible, pitches, c0: float, failures: list):
    """``_depth_stats`` with a per-point miss mask over the whole batch, its oracle.

    Takes the same (T, N) de-rolled heights, (T, N) mask and one pitch per
    observation.  Marks every non-finite depth as a miss and sets it to NaN
    before taking the spread (max - min) and the mean, so an observation with
    a miss gets NaN numbers, and records ``NoHorizonIntersection`` with the
    count of its visible points that miss.  ``_depth_stats`` must give the
    same numbers, bit for bit, and the same failures.
    """
    cos_pitch, sin_pitch = (np.array([f(pitch) for pitch in pitches])[:, None]
                            for f in (math.cos, math.sin))
    with np.errstate(over="ignore", invalid="ignore"):
        down = sin_pitch + cos_pitch * derolled
        scale = c0 / np.where(down < HORIZON_EPS, np.nan, down)
        depths = (cos_pitch - sin_pitch * derolled) * scale
        missed = ~np.isfinite(depths)
        depths[missed] = np.nan
        for i, any_missed in enumerate(missed.any(axis=-1).tolist()):
            if any_missed and failures[i] is None:
                n_missed = int(np.count_nonzero(missed[i] & visible[i]))
                failures[i] = NoHorizonIntersection(
                    f"{n_missed} point(s) back-project at or above the horizon"
                )
        spreads = depths.max(axis=-1) - depths.min(axis=-1)
        weights = visible[..., None, :].astype(float)
        means = (weights @ depths[..., None])[..., 0, 0] / visible.sum(axis=-1)
    return spreads.tolist(), means.tolist()


def plane_points(norm: np.ndarray, rot: np.ndarray, c0: float) -> tuple[np.ndarray, np.ndarray]:
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


def line_angle_distance(a: float, b: float) -> float:
    """Distance between two undirected line angles (mod pi)."""
    diff = abs(a - b) % math.pi
    return min(diff, math.pi - diff)
