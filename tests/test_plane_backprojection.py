"""Tests for ray/plane back-projection: the 3-D oracle ``plane_points`` and the
estimator's closed-form depths (``_derolled`` then ``_depth_stats``) against it."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from camline import (
    Intrinsics,
    NoHorizonIntersection,
    Orientation,
    SceneConstraints,
    rotation_xz,
)
from camline.core_geometry import _normalize_uv, _project_uv, _undistort_uv
from camline.orientation_estimator import HORIZON_EPS, _depth_stats, _derolled

from conftest import depth_stats_reference, plane_points, rotation_x


def back_project(u, v, k, rot, c0, d=None):
    """Plane point (x, y, z) of pixel (u, v), undistorted first when ``d`` is
    given, and whether its ray misses the plane (the point is then NaN)."""
    uv = np.array([u, v])
    if d is not None:
        uv, (failure,) = _undistort_uv(uv, k, d)
        assert failure is None
    return plane_points(_normalize_uv(uv, k), rot, c0)


class TestSceneConstraints:
    @pytest.mark.parametrize("c0, z0", [(0.0, 3.0), (-1.0, 3.0), (2.0, 0.0), (2.0, -5.0)])
    def test_rejects_non_positive(self, c0, z0):
        with pytest.raises(ValueError):
            SceneConstraints(c0=c0, z0=z0)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="z0"):
            SceneConstraints(c0=2.0, z0=math.nan)


class TestInverseRay:
    """``plane_points`` lands on the pixel's inverse ray ``rot @ (xn, yn, 1)``."""

    def test_identity_rotation_optical_axis(self, default_k):
        # Unrotated, the column through the principal point keeps x = 0, and a
        # pixel fy/2 below the optical axis reaches the plane at z = 2 * c0.
        p, missed = back_project(
            default_k.cx, default_k.cy + default_k.fy / 2, default_k, np.eye(3), 2.0
        )
        assert p.tolist() == [0.0, 2.0, 4.0] and not missed

    def test_pitched_camera_optical_axis(self, default_k):
        theta = 0.4
        (x, y, z), _ = back_project(default_k.cx, default_k.cy, default_k, rotation_x(theta), 2.0)
        assert x == pytest.approx(0.0, abs=1e-15)
        assert y == 2.0
        assert z == pytest.approx(2.0 / math.tan(theta), abs=1e-12)

    @given(
        theta=st.floats(min_value=-1.2, max_value=1.2),
        lam=st.floats(min_value=-1.2, max_value=1.2),
        u=st.floats(min_value=0.0, max_value=1280.0),
        v=st.floats(min_value=0.0, max_value=720.0),
    )
    @settings(deadline=None)
    def test_world_to_camera_recovers_homogeneous_pixel(self, theta, lam, u, v):
        # Applying the world-to-camera map (the transpose) to the plane point
        # must give a multiple of the homogeneous normalized vector.
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        rot = rotation_xz(theta, lam)
        xn = (u - k.cx) / k.fx
        yn = (v - k.cy) / k.fy
        ray_y = (rot @ [xn, yn, 1.0])[1]
        if ray_y < 1e-6:
            return  # at or above the horizon: no plane point to test
        point, missed = back_project(u, v, k, rot, 2.0)
        assert not missed
        cam = rot.T @ point
        assert np.allclose(cam / cam[2], [xn, yn, 1.0], atol=1e-12)


class TestBackProjectToPlane:
    def test_forty_five_degree_ray(self, default_k):
        # Optical axis pitched 45 degrees down from 2 m: hits the plane 2 m out.
        (x, y, z), _ = back_project(
            default_k.cx, default_k.cy, default_k, rotation_x(math.pi / 4), 2.0
        )
        assert x == pytest.approx(0.0, abs=1e-12)
        assert y == 2.0
        assert z == pytest.approx(2.0, abs=1e-12)

    def test_level_camera_is_parallel_to_plane(self, default_k):
        assert back_project(default_k.cx, default_k.cy, default_k, np.eye(3), 2.0)[1]

    def test_pixel_above_horizon(self, default_k):
        # v far above the centre overcomes a 0.3 rad downward pitch.
        point, missed = back_project(
            default_k.cx, default_k.cy - 2000.0, default_k, rotation_x(0.3), 2.0
        )
        assert missed and np.isnan(point[[0, 2]]).all()

    @given(
        y=st.floats(min_value=-4 * HORIZON_EPS, max_value=4 * HORIZON_EPS),
        xn=st.floats(min_value=-1.0, max_value=1.0),
    )
    @example(y=-HORIZON_EPS / 2, xn=0.0)
    @example(y=0.0, xn=0.0)
    @example(y=HORIZON_EPS / 2, xn=0.0)
    @example(y=2 * HORIZON_EPS, xn=0.0)
    @settings(deadline=None)
    def test_one_mask_at_the_horizon(self, y, xn):
        # Unrotated, a ray's y component is its yn exactly.  A ray at the
        # boundary is missed on its own, beside a ray that meets the plane.
        points, missed = plane_points(np.array([[xn, y], [0.0, 0.5]]), np.eye(3), 2.0)
        assert missed.tolist() == [y < HORIZON_EPS, False]
        assert points[1].tolist() == [0.0, 2.0, 4.0]
        if y < HORIZON_EPS:
            assert np.isnan(points[0, [0, 2]]).all()
        else:
            assert points[0, 1] == 2.0

    @given(
        y=st.floats(min_value=-4 * HORIZON_EPS, max_value=4 * HORIZON_EPS),
        xn=st.floats(min_value=-1.0, max_value=1.0),
    )
    @example(y=-HORIZON_EPS / 2, xn=0.0)
    @example(y=0.0, xn=0.0)
    @example(y=HORIZON_EPS / 2, xn=0.0)
    @example(y=HORIZON_EPS, xn=0.0)
    @example(y=2 * HORIZON_EPS, xn=0.0)
    @settings(deadline=None)
    def test_closed_form_has_one_mask_at_the_horizon(self, y, xn):
        # At zero roll and pitch the ray descends by yn exactly.  Observation 0
        # holds the ray at the boundary, observation 1 one that meets the plane.
        norm = np.array([[[xn, y]], [[0.0, 0.5]]])
        failures = [None, None]
        _, means = _depth_stats(_derolled(norm, [0.0, 0.0]), np.ones((2, 1), bool), [0.0, 0.0],
                                2.0, failures)
        assert isinstance(failures[0], NoHorizonIntersection) == (y < HORIZON_EPS)
        assert failures[1] is None and means[1] == 4.0
        if y < HORIZON_EPS:
            assert math.isnan(means[0])
        else:
            assert means[0] == 2.0 / y

    def test_a_missed_ray_fails_its_own_observation(self):
        # Unrotated camera: observation 0 has one level ray (yn = 0), which
        # misses the plane; observation 1 meets it at depths 5, 4 and 10/3.
        norm = np.array([[[0.1, 0.0], [0.2, 0.5], [0.3, 0.5]],
                         [[0.1, 0.4], [0.2, 0.5], [0.3, 0.6]]])
        failures = [None, None]
        spreads, means = _depth_stats(_derolled(norm, [0.0, 0.0]), np.ones((2, 3), bool),
                                      [0.0, 0.0], 2.0, failures)
        assert isinstance(failures[0], NoHorizonIntersection)
        assert str(failures[0]).startswith("1 point(s) back-project")
        assert failures[1] is None
        assert spreads[1] == pytest.approx(5.0 - 10.0 / 3.0, abs=1e-12)
        assert means[1] == pytest.approx((5.0 + 4.0 + 10.0 / 3.0) / 3.0, abs=1e-12)

    @given(
        theta=st.floats(min_value=0.15, max_value=1.2),
        u=st.floats(min_value=0.0, max_value=1280.0),
        v=st.floats(min_value=300.0, max_value=720.0),
        c0=st.floats(min_value=0.5, max_value=5.0),
    )
    @settings(deadline=None)
    def test_height_is_exact_by_construction(self, theta, u, v, c0):
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        ray = rotation_x(theta) @ [(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0]
        if ray[1] < 1e-6:
            return  # too close to the horizon to be a meaningful sample
        assert back_project(u, v, k, rotation_x(theta), c0)[0][1] == c0


class TestClosedFormDepth:
    """``_depth_stats`` takes each depth from the de-rolled height alone, as
    ``_derolled`` forms it; the oracle ``plane_points`` rotates the full ray
    ``rot @ (xn, yn, 1)``."""

    @given(
        roll=st.floats(min_value=-1.2, max_value=1.2),
        pitch=st.floats(min_value=-math.pi / 2, max_value=math.pi,
                        exclude_min=True, exclude_max=True),
        xn=st.floats(min_value=-2.0, max_value=2.0),
        yn=st.floats(min_value=-2.0, max_value=2.0),
    )
    @example(roll=0.0, pitch=0.0, xn=0.3, yn=HORIZON_EPS)
    @example(roll=0.0, pitch=0.0, xn=0.3, yn=HORIZON_EPS * (1 - 2**-52))
    @settings(deadline=None)
    def test_matches_the_rotated_ray(self, roll, pitch, xn, yn):
        c0 = 2.0
        rot = rotation_xz(pitch, roll)
        point, missed = plane_points(np.array([xn, yn]), rot, c0)
        failures = [None]
        _, (depth,) = _depth_stats(_derolled(np.array([[[xn, yn]]]), [roll]), np.ones((1, 1), bool),
                                   [pitch], c0, failures)
        down = (rot @ [xn, yn, 1.0])[1]
        # At zero roll and pitch both descend by yn exactly, so they agree at
        # the boundary too.  Otherwise they sum the descent in different
        # orders and may round to different sides of it only right next to it.
        if roll == pitch == 0.0 or abs(down - HORIZON_EPS) > 1e-15:
            assert isinstance(failures[0], NoHorizonIntersection) == missed
        if missed or failures[0] is not None:
            return
        # Each side rounds the ray's descent and forward run, both of size up
        # to 1 + |y'|, by a few ulps; depth = c0 * forward / down carries that
        # error into the bound below, so it holds near the horizon and near
        # depth 0, where a purely relative bound does not.
        height = math.cos(roll) * yn - math.sin(roll) * xn
        bound = 1e-15 * (1.0 + abs(height)) * (c0 + abs(point[2])) / down
        assert abs(depth - point[2]) <= bound

    def test_divides_first_near_the_float_range(self):
        # Camera pitched up, point far down the image: c0 times the forward
        # run (4.8e309) overflows, but the depth is about 0.55 * c0.
        failures = [None]
        _, (depth,) = _depth_stats(_derolled(np.array([[[0.0, 1e10]]]), [0.0]),
                                   np.ones((1, 1), bool), [-0.5], 1e300, failures)
        point, missed = plane_points(np.array([0.0, 1e10]), rotation_xz(-0.5, 0.0), 1e300)
        assert failures == [None] and not missed
        assert depth == pytest.approx(point[2], rel=1e-12)


def _batch_as_fitted(norm: np.ndarray, visible: np.ndarray) -> np.ndarray:
    """``norm`` with each row that is not visible replaced by the observation's
    first visible row, as ``_fit_observation`` leaves them."""
    first = norm[np.arange(len(norm)), visible.argmax(axis=-1)]
    return np.where(visible[..., None], norm, first[:, None, :])


class TestDepthStatsOracle:
    """``_depth_stats`` finds a miss from each observation's largest and
    smallest depth; the oracle ``depth_stats_reference`` masks every point.
    Both read the de-rolled heights ``_derolled`` gives for ``norm``."""

    @staticmethod
    def _check(norm, visible, rolls, pitches, c0, failures=None):
        failures = failures or [None] * len(norm)
        want_failures = list(failures)
        derolled = _derolled(norm, rolls)
        got = _depth_stats(derolled, visible, pitches, c0, failures)
        want = depth_stats_reference(derolled, visible, pitches, c0, want_failures)
        for g, w in zip(got, want):
            assert np.array(g).tobytes() == np.array(w).tobytes()
        assert repr(failures) == repr(want_failures)
        return (*got, failures)

    @pytest.mark.parametrize("c0", [2.0, 1e300, 1.5e307])
    def test_random_batches_match_the_per_point_mask(self, c0):
        # Pitches over (-pi/2, pi) put many points at or above the horizon,
        # and a huge c0 sends others past the float range.  Rows that are not
        # visible repeat the first visible row, which may itself miss.
        rng = np.random.default_rng(7)
        n_missed = 0
        for n in (1, 2, 5, 40):
            norm = rng.uniform(-2.0, 2.0, (60, n, 2))
            visible = rng.random((60, n)) < 0.7
            visible[np.arange(60), rng.integers(n, size=60)] = True
            rolls = rng.uniform(-1.2, 1.2, 60).tolist()
            pitches = rng.uniform(-1.5, 3.1, 60).tolist()
            *_, failures = self._check(_batch_as_fitted(norm, visible), visible, rolls, pitches,
                                       c0)
            n_missed += sum(f is not None for f in failures)
        assert 0 < n_missed < 240

    def test_a_missed_row_that_is_not_visible_is_not_counted(self):
        # Unrotated camera: row 0 looks along the horizon (yn = 0) and
        # misses; rows 2 and 3 repeat it but are not visible.
        norm = np.array([[[0.1, 0.0], [0.2, 0.5], [0.1, 0.0], [0.1, 0.0]]])
        visible = np.array([[True, True, False, False]])
        (spread,), (mean,), failures = self._check(norm, visible, [0.0], [0.0], 2.0)
        assert math.isnan(spread) and math.isnan(mean)
        assert str(failures[0]) == "1 point(s) back-project at or above the horizon"

    def test_an_earlier_failure_is_kept(self):
        norm = np.array([[[0.1, 0.0], [0.2, 0.5]], [[0.1, 0.4], [0.2, 0.5]]])
        earlier = NoHorizonIntersection("recorded before")
        *_, failures = self._check(norm, np.ones((2, 2), bool), [0.0, 0.0], [0.0, 0.0], 2.0,
                                   [earlier, None])
        assert failures == [earlier, None]

    def test_finite_depths_whose_spread_overflows_are_not_a_miss(self):
        # Pitched 1.2 rad down, y' = -2 meets the plane ahead at about
        # 10.7 * c0 and y' = 100 behind the camera at about -2.5 * c0: both
        # depths are finite, but their difference exceeds the float range.
        norm = np.array([[[0.0, -2.0], [0.0, 100.0]]])
        (spread,), _, failures = self._check(norm, np.ones((1, 2), bool), [0.0], [1.2], 1.5e307)
        assert failures == [None] and spread == math.inf


class TestUndistortThenBackProject:
    def test_zero_distortion_matches_plain_back_projection(self, default_k, zero_d):
        rot = rotation_xz(0.5, 0.05)
        a, _ = back_project(700.0, 500.0, default_k, rot, 2.0, zero_d)
        b, _ = back_project(700.0, 500.0, default_k, rot, 2.0)
        assert np.array_equal(a, b)

    def test_round_trip_with_distortion(self, default_k, mild_d):
        # Project plane points through the full forward model, then invert.
        rng = np.random.default_rng(11)
        worst = 0.0
        n_done = 0
        while n_done < 100:
            orientation = Orientation(
                roll=rng.uniform(-0.25, 0.25), pitch=rng.uniform(0.1, 1.0)
            )
            c0 = rng.uniform(0.5, 5.0)
            w = np.array([rng.uniform(-3.0, 3.0), c0, rng.uniform(0.5, 10.0)])
            rot = rotation_xz(orientation.pitch, orientation.roll)
            # A point behind the camera projects to NaN and fails the image test.
            u, v = _project_uv(w, default_k, mild_d, rot)
            if not (0 <= u < 1280 and 0 <= v < 720):
                continue
            (x, _, z), missed = back_project(u, v, default_k, rot, c0, mild_d)
            assert not missed
            worst = max(worst, abs(x - w[0]), abs(z - w[2]))
            n_done += 1
        assert worst < 1e-6

    def test_round_trip_zero_distortion_tight(self, default_k, zero_d):
        rng = np.random.default_rng(12)
        worst = 0.0
        n_done = 0
        while n_done < 100:
            orientation = Orientation(
                roll=rng.uniform(-0.25, 0.25), pitch=rng.uniform(0.1, 1.0)
            )
            c0 = rng.uniform(0.5, 5.0)
            w = np.array([rng.uniform(-3.0, 3.0), c0, rng.uniform(0.5, 10.0)])
            rot = rotation_xz(orientation.pitch, orientation.roll)
            u, v = _project_uv(w, default_k, zero_d, rot)
            if not (np.isfinite(u) and np.isfinite(v)):
                continue  # behind the camera
            (x, _, z), missed = back_project(u, v, default_k, rot, c0, zero_d)
            assert not missed
            worst = max(worst, abs(x - w[0]), abs(z - w[2]))
            n_done += 1
        assert worst < 1e-9

    def test_above_horizon_after_undistortion(self, default_k, zero_d):
        # A point above the camera projects fine but its ray never descends.
        orientation = Orientation(roll=0.0, pitch=0.3)
        rot = rotation_xz(orientation.pitch, orientation.roll)
        u, v = _project_uv(np.array([0.0, -1.0, 5.0]), default_k, zero_d, rot)
        assert np.isfinite([u, v]).all()
        assert back_project(u, v, default_k, rot, 2.0, zero_d)[1]
