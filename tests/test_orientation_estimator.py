"""Tests for the closed-form roll/pitch estimators and their residuals."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camline import (
    DegenerateLine,
    DistortionCoefficients,
    GeometryError,
    Intrinsics,
    NoHorizonIntersection,
    NonConvergent,
    Orientation,
    OrientationEstimate,
    PixelPoint,
    ReferenceLineObservation,
    SceneConstraints,
    SyntheticScene,
    TooFewVisible,
    central_pixel,
    estimate_orientation,
    render_line,
    residual_z_spread,
)
from camline.core_geometry import _normalize_uv
from camline.orientation_estimator import _estimate, _fit_line, _pitch, _plane_points

from conftest import line_angle_distance, rotation_x

coords = st.floats(min_value=-0.8, max_value=0.8)


def _roll(x1, y1, x2, y2):
    """Roll that ``_fit_line`` gives for the line through two normalized points."""
    return _fit_line(np.array([[x1, y1], [x2, y2]]), np.ones(2, bool))[0][0]


def _scene(roll, pitch, k, d=DistortionCoefficients(), sc=None, **kwargs):
    return SyntheticScene(
        ground_truth=Orientation(roll=roll, pitch=pitch),
        sc=sc or SceneConstraints(c0=2.0, z0=3.0),
        k=k,
        d=d,
        **kwargs,
    )


class TestObservation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="2"):
            ReferenceLineObservation((PixelPoint(1.0, 2.0),))

    def test_from_array_shape_check(self):
        with pytest.raises(ValueError):
            ReferenceLineObservation.from_array(np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "uv",
        [[(1, 2.5), (-0.0, -3e-310), (0.1, 1e300)], np.array([[3, -4], [5, 6], [2**53 + 1, 0]])],
        ids=["tuples", "ints"],
    )
    def test_from_array_pixels_are_the_float_array(self, uv):
        obs = ReferenceLineObservation.from_array(uv)
        expected = np.asarray(uv, dtype=float)
        assert np.array([[p.u, p.v] for p in obs.pixels]).tobytes() == expected.tobytes()
        assert all(type(p.u) is float and type(p.v) is float for p in obs.pixels)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column, name", [(0, "u"), (1, "v")])
    def test_from_array_names_a_non_finite_field(self, bad, column, name):
        uv = np.array([[1.0, 2.0], [3.0, 4.0]])
        uv[1, column] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
            ReferenceLineObservation.from_array(uv)

    def test_from_array_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2 points, got 1"):
            ReferenceLineObservation.from_array(np.array([[1.0, 2.0]]))

    def test_round_trips_through_array(self):
        uv = np.array([[1.0, 2.0], [3.0, 4.5]])
        obs = ReferenceLineObservation.from_array(uv)
        assert np.array_equal(obs.uv_array(), uv)
        assert obs.uv_array().flags.c_contiguous
        assert len(obs) == 2


class TestEstimateRoll:
    """Roll is the angle of the line ``_fit_line`` fits; two points fix it."""

    def test_horizontal_line_gives_zero(self):
        assert _roll(-0.4, 0.1, 0.3, 0.1) == 0.0

    def test_unit_slope(self):
        assert _roll(0.0, 0.1, 0.1, 0.2) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_vertical_line_maps_to_half_pi(self):
        assert _roll(0.0, 0.0, 0.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_minus_half_pi_wraps_to_half_pi(self):
        # A leftward drift of 1e-17 makes Sxy a tiny positive number and
        # Sxx - Syy negative: 0.5*atan2 gives exactly -pi/2 before the wrap.
        rolls, _ = _fit_line(np.array([[0.0, -0.5], [-1e-17, 0.5]]), np.ones(2, bool))
        assert rolls == [math.pi / 2]

    @given(x1=coords, y1=coords, x2=coords, y2=coords)
    @settings(deadline=None)
    def test_symmetric_in_point_order(self, x1, y1, x2, y2):
        if math.hypot(x1 - x2, y1 - y2) < 1e-6:
            return
        a = _roll(x1, y1, x2, y2)
        b = _roll(x2, y2, x1, y1)
        assert line_angle_distance(a, b) < 1e-12
        assert -math.pi / 2 < a <= math.pi / 2

    @given(x1=coords, y1=coords, x2=coords, y2=coords,
           scale=st.floats(min_value=1e-2, max_value=1e2))
    @settings(deadline=None)
    def test_invariant_to_uniform_scaling(self, x1, y1, x2, y2, scale):
        if math.hypot(x1 - x2, y1 - y2) < 1e-6:
            return
        a = _roll(x1, y1, x2, y2)
        b = _roll(x1 * scale, y1 * scale, x2 * scale, y2 * scale)
        assert line_angle_distance(a, b) < 1e-9

    def test_recovers_synthetic_ground_truth(self, default_k, zero_d, sc):
        scene = _scene(0.07, 0.35, default_k, sc=sc)
        est = estimate_orientation(render_line(scene), default_k, zero_d, sc)
        assert est.orientation.roll == pytest.approx(0.07, abs=1e-10)


class TestEstimatePitch:
    def test_centre_at_principal_point(self):
        sc = SceneConstraints(c0=2.0, z0=2.0)
        assert _pitch([0.0], sc) == [pytest.approx(math.pi / 4, abs=1e-15)]

    def test_hand_substitution(self, sc):
        # tan(pitch) = (2 - 3*0.25) / (3 + 2*0.25) = 1.25/3.5
        (got,) = _pitch([0.25], sc)
        assert got == pytest.approx(0.3430239404207034, abs=1e-14)
        # Independent check: the central pixel back-projects to depth z0.
        p, _ = _plane_points(np.array([0.0, 0.25]), rotation_x(got), sc.c0)
        assert p[2] == pytest.approx(sc.z0, abs=1e-10)

    @given(
        c0=st.floats(min_value=0.1, max_value=10.0),
        z0=st.floats(min_value=0.1, max_value=10.0),
        offset=st.floats(min_value=-math.pi / 2 + 1e-3, max_value=math.pi / 2 - 1e-3),
    )
    @settings(deadline=None)
    def test_inverts_the_line_angle_seen_below_the_axis(self, c0, z0, offset):
        # A camera pitched theta sees the line atan2(c0, z0) - theta below
        # its optical axis, at height tan of that, for any such angle.
        sc = SceneConstraints(c0=c0, z0=z0)
        theta = math.atan2(c0, z0) - offset
        assert _pitch([math.tan(offset)], sc) == [pytest.approx(theta, abs=1e-12)]

    @pytest.mark.parametrize("pitch", [1.4, math.pi / 2, 1.6])
    def test_recovers_pitch_at_and_past_straight_down(self, zero_d, sc, pitch):
        k = Intrinsics(fx=200.0, fy=200.0, cx=640.0, cy=360.0)
        obs = render_line(_scene(0.03, pitch, k, sc=sc, line_x_extent=1.0))
        assert len(obs) == 101
        est = estimate_orientation(obs, k, zero_d, sc)
        assert est.orientation.pitch == pytest.approx(pitch, abs=1e-12)
        assert est.orientation.roll == pytest.approx(0.03, abs=1e-12)
        assert est.residual_z_spread < 1e-12

    def test_recovers_synthetic_ground_truth(self, default_k, zero_d, sc):
        scene = _scene(0.0, 0.4, default_k, sc=sc)
        est = estimate_orientation(render_line(scene), default_k, zero_d, sc)
        assert est.orientation.pitch == pytest.approx(0.4, abs=1e-10)


class TestCentralPixel:
    def test_exact_hit_is_returned(self, default_k, zero_d):
        obs = ReferenceLineObservation.from_array(
            np.array([[540.0, 420.0], [640.0, 430.0], [740.0, 440.0]])
        )
        got = central_pixel(obs, default_k, zero_d)
        assert got == pytest.approx((430.0 - 360.0) / 1000.0, abs=1e-15)

    def test_symmetric_points_interpolate_to_midpoint(self, default_k, zero_d):
        obs = ReferenceLineObservation.from_array(
            np.array([[640.0 - 80.0, 410.0], [640.0 + 80.0, 410.0]])
        )
        got = central_pixel(obs, default_k, zero_d)
        assert got == pytest.approx(0.05, abs=1e-12)

    def test_interpolation_matches_undistorted_line(self, default_k, mild_d, sc):
        # The centre found on a distorted render must match the centre of the
        # same scene rendered without distortion (whose image is the exact line).
        scene_d = _scene(0.08, 0.45, default_k, d=mild_d, sc=sc)
        scene_0 = replace(scene_d, d=DistortionCoefficients())
        zero_d = DistortionCoefficients()
        got = central_pixel(render_line(scene_d), default_k, mild_d)
        want = central_pixel(render_line(scene_0), default_k, zero_d)
        assert got == pytest.approx(want, abs=1e-6)

    def test_crossing_of_line_right_of_centre(self, default_k, zero_d):
        # Normalized points (0.26, 0.05), (0.36, 0.055), (0.46, 0.06): slope
        # 0.05, so the line crosses xn = 0 at yn = 0.05 - 0.26 * 0.05.
        obs = ReferenceLineObservation.from_array(
            np.array([[900.0, 410.0], [1000.0, 415.0], [1100.0, 420.0]])
        )
        assert central_pixel(obs, default_k, zero_d) == pytest.approx(0.037, abs=1e-12)

    def test_vertical_line_raises(self, default_k, zero_d):
        # The fitted line never crosses xn = 0; 1/cos(pi/2) would give ~1e15.
        obs = ReferenceLineObservation.from_array(np.array([[700.0, 420.0], [700.0, 500.0]]))
        with pytest.raises(DegenerateLine, match="parallel"):
            central_pixel(obs, default_k, zero_d)

    def test_duplicated_pixels_raise(self, default_k, zero_d):
        obs = ReferenceLineObservation.from_array(np.tile([700.0, 450.0], (5, 1)))
        with pytest.raises(DegenerateLine, match="span"):
            central_pixel(obs, default_k, zero_d)


class TestEstimateOrientation:
    def test_recovers_joint_ground_truth(self, default_k, zero_d, sc):
        scene = _scene(0.05, 0.35, default_k, sc=sc)
        est = estimate_orientation(render_line(scene), default_k, zero_d, sc)
        assert est.orientation.roll == pytest.approx(0.05, abs=1e-9)
        assert est.orientation.pitch == pytest.approx(0.35, abs=1e-9)
        assert est.residual_z_spread < 1e-9
        assert abs(est.residual_z_bias) < 1e-9
        assert est.warnings == ()

    def test_zero_roll_is_recovered_exactly(self, default_k, zero_d, sc):
        scene = _scene(0.0, 0.35, default_k, sc=sc)
        est = estimate_orientation(render_line(scene), default_k, zero_d, sc)
        assert abs(est.orientation.roll) <= 1e-12

    def test_with_distortion(self, default_k, sc):
        d = DistortionCoefficients(k1=-1e-8)
        scene = _scene(0.05, 0.35, default_k, d=d, sc=sc)
        est = estimate_orientation(render_line(scene), default_k, d, sc)
        assert est.orientation.roll == pytest.approx(0.05, abs=1e-6)
        assert est.orientation.pitch == pytest.approx(0.35, abs=1e-6)

    def test_pitch_does_not_depend_on_sampling(self, default_k, zero_d, sc):
        # The de-rolled height is the same at every point of the line, so
        # where along it the pixels fall must not move the estimate.
        scene_a = _scene(0.07, 0.5, default_k, sc=sc, line_x_extent=3.0, n_points=101)
        scene_b = replace(scene_a, line_x_extent=0.8, n_points=7)
        est_a = estimate_orientation(render_line(scene_a), default_k, zero_d, sc)
        est_b = estimate_orientation(render_line(scene_b), default_k, zero_d, sc)
        assert est_a.orientation.pitch == pytest.approx(est_b.orientation.pitch, abs=1e-12)
        assert est_a.orientation.roll == pytest.approx(est_b.orientation.roll, abs=1e-12)

    def test_extremes_too_close_raise(self, default_k, zero_d, sc):
        obs = ReferenceLineObservation.from_array(
            np.array([[640.0, 400.0], [640.4, 400.3]])
        )
        with pytest.raises(DegenerateLine):
            estimate_orientation(obs, default_k, zero_d, sc)

    def test_level_line_far_above_centre_is_a_steep_pitch(self, default_k, zero_d, sc):
        # yn = -2: the line is seen atan(2) above the axis, so the camera
        # looks atan2(2, 3) + atan(2) below the horizontal, past straight down.
        obs = ReferenceLineObservation.from_array(
            np.array([[540.0, -1640.0], [740.0, -1640.0]])
        )
        est = estimate_orientation(obs, default_k, zero_d, sc)
        assert est.orientation.roll == 0.0
        assert est.orientation.pitch == pytest.approx(1.6951513213416578, abs=1e-12)
        assert abs(est.residual_z_bias) < 1e-12

    def test_horizon_violation(self, default_k, zero_d, sc):
        # A line of 100 pixels below the centre fixes the pitch; the one
        # outlier far above it then back-projects above the horizon.
        uv = [(12.8 * i, 400.0) for i in range(100)] + [(640.0, -400.0)]
        obs = ReferenceLineObservation.from_array(uv)
        with pytest.raises(
            NoHorizonIntersection, match=r"^1 point\(s\) back-project at or above the horizon$"
        ):
            estimate_orientation(obs, default_k, zero_d, sc)

    def test_line_right_of_centre_is_recovered(self, default_k, zero_d, sc):
        # Only the pixels well right of the centre column: the fitted line
        # still carries the exact de-rolled height, with nothing to warn about.
        scene = _scene(0.05, 0.35, default_k, sc=sc)
        uv = render_line(scene).uv_array()
        obs = ReferenceLineObservation.from_array(uv[uv[:, 0] > default_k.cx + 100.0])
        est = estimate_orientation(obs, default_k, zero_d, sc)
        assert est.orientation.roll == pytest.approx(0.05, abs=1e-9)
        assert est.orientation.pitch == pytest.approx(0.35, abs=1e-9)
        assert est.warnings == ()

    def test_one_pixel_noise_uses_every_pixel(self, default_k, zero_d, sc):
        # The fit gives RMS errors of about 3e-4 (roll) and 1.2e-4 rad (pitch)
        # here; reading roll from the two extreme pixels and pitch from the two
        # pixels beside the centre column gives about 1.1e-3 and 8.4e-4.
        rng = np.random.default_rng(77)
        roll_err, pitch_err = [], []
        for seed in range(200):
            roll, pitch = rng.uniform(-0.1, 0.1), rng.uniform(0.4, 0.8)
            scene = _scene(roll, pitch, default_k, sc=sc, noise_sigma=1.0, rng_seed=seed)
            est = estimate_orientation(render_line(scene), default_k, zero_d, sc)
            roll_err.append(est.orientation.roll - roll)
            pitch_err.append(est.orientation.pitch - pitch)
        assert math.sqrt(np.mean(np.square(roll_err))) < 6e-4
        assert math.sqrt(np.mean(np.square(pitch_err))) < 4e-4

    def test_two_pixels_reduce_to_the_two_point_formulas(self, default_k, zero_d, sc):
        obs = ReferenceLineObservation.from_array(np.array([[520.0, 470.0], [810.0, 505.0]]))
        (x1, y1), (x2, y2) = _normalize_uv(obs.uv_array(), default_k)
        est = estimate_orientation(obs, default_k, zero_d, sc)
        roll = est.orientation.roll
        # The segment's direction angle, wrapped into (-pi/2, pi/2].
        want = math.atan2(y2 - y1, x2 - x1)
        if want > math.pi / 2:
            want -= math.pi
        elif want <= -math.pi / 2:
            want += math.pi
        assert roll == pytest.approx(want, abs=1e-15)
        for xn, yn in ((x1, y1), (x2, y2)):
            height = math.cos(roll) * yn - math.sin(roll) * xn
            (pitch,) = _pitch([height], sc)
            assert est.orientation.pitch == pytest.approx(pitch, abs=1e-12)

    def test_duplicated_pixels_raise(self, default_k, zero_d, sc):
        obs = ReferenceLineObservation.from_array(np.tile([700.0, 450.0], (5, 1)))
        with pytest.raises(DegenerateLine):
            estimate_orientation(obs, default_k, zero_d, sc)

    def test_vertical_line_gives_half_pi(self, default_k, zero_d, sc):
        obs = ReferenceLineObservation.from_array(
            np.array([[700.0, 420.0], [700.0, 460.0], [700.0, 500.0]])
        )
        est = estimate_orientation(obs, default_k, zero_d, sc)
        assert est.orientation.roll == pytest.approx(math.pi / 2, abs=1e-12)
        assert est.residual_z_spread > 0.0

    @pytest.mark.parametrize(
        "fx, c0, extent, error",
        [
            (1e-300, 1e-300, 1e-300, DegenerateLine),  # the normalized scatter overflows
            (1e-300, 1e-300, 1e300, TooFewVisible),  # the projection's division overflows
            (1e-8, 1e-300, 3.0, TooFewVisible),  # the distortion's radius overflows
        ],
    )
    @pytest.mark.parametrize(
        "d", [DistortionCoefficients(), DistortionCoefficients(k1=-1e-7, p1=1e-6)],
        ids=["no_lens", "mild_lens"],
    )
    def test_extreme_scales_raise_a_named_error_without_a_warning(self, fx, c0, extent, error, d):
        k = Intrinsics(fx=fx, fy=fx, cx=640.0, cy=360.0)
        sc = SceneConstraints(c0=c0, z0=c0)
        scene = _scene(0.05, 0.6, k, d, sc, line_x_extent=extent, noise_sigma=0.5, rng_seed=3)
        with pytest.raises(error):
            estimate_orientation(render_line(scene), k, d, sc)

    def test_plane_points_near_the_float_range_give_finite_numbers(self, zero_d):
        # c0 * ray overflows here, but the rays meet the plane about 1e300 m
        # away, within the float range: the estimate is finite.
        k = Intrinsics(fx=1e-8, fy=1e-8, cx=640.0, cy=360.0)
        sc = SceneConstraints(c0=1e300, z0=1e-300)
        obs = ReferenceLineObservation.from_array([(639, 380.01), (640, 380), (641, 379.98)])
        est = estimate_orientation(obs, k, zero_d, sc)
        o = est.orientation
        assert all(map(math.isfinite, (o.roll, o.pitch, est.residual_z_spread, est.residual_z_bias)))

    @pytest.mark.parametrize("far", [1e200, 1e300])
    @pytest.mark.parametrize("k1", [0.0, -1e-8], ids=["no_lens", "mild_lens"])
    def test_a_far_pixel_fails_without_a_numpy_warning(self, default_k, sc, far, k1):
        # Undistortion fails on the far pixel; the fit and depth stages must
        # not then overflow on it (pytest turns any warning into an error).
        d = DistortionCoefficients(k1=k1)
        far_uv = np.array([[0.0, 400.0], [far, 400.2], [1.0, 401.0]])
        obs = ReferenceLineObservation.from_array(far_uv)
        with pytest.raises(NonConvergent):
            estimate_orientation(obs, default_k, d, sc)
        with pytest.raises(NonConvergent):
            central_pixel(obs, default_k, d)
        # In a batch it fails alone, and its neighbour's estimate stands.
        good_uv = np.array([[500.0, 450.0], [640.0, 460.0], [780.0, 470.0]])
        rolls, pitches, spreads, _, failures = _estimate(
            np.stack([far_uv, good_uv]), np.ones((2, 3), dtype=bool), default_k, d, sc
        )
        assert isinstance(failures[0], NonConvergent) and failures[1] is None
        est = estimate_orientation(ReferenceLineObservation.from_array(good_uv), default_k, d, sc)
        assert rolls[1] == pytest.approx(est.orientation.roll, abs=1e-12)
        assert pitches[1] == pytest.approx(est.orientation.pitch, abs=1e-12)
        assert spreads[1] == pytest.approx(est.residual_z_spread, abs=1e-12)


class TestResidualZSpread:
    def test_ground_truth_orientation_has_tiny_spread(self, default_k, zero_d, sc):
        gt = Orientation(roll=0.06, pitch=0.5)
        scene = SyntheticScene(ground_truth=gt, sc=sc, k=default_k)
        obs = render_line(scene)
        spread, mean_depth = residual_z_spread(obs, default_k, zero_d, gt, sc.c0)
        assert spread < 1e-9
        assert mean_depth == pytest.approx(sc.z0, abs=1e-9)

    def test_roll_perturbation_strictly_increases_spread(self, default_k, zero_d, sc):
        gt = Orientation(roll=0.06, pitch=0.5)
        scene = SyntheticScene(ground_truth=gt, sc=sc, k=default_k)
        obs = render_line(scene)
        base, _ = residual_z_spread(obs, default_k, zero_d, gt, sc.c0)
        for delta in (0.01, -0.01):
            perturbed = Orientation(roll=gt.roll + delta, pitch=gt.pitch)
            spread, _ = residual_z_spread(obs, default_k, zero_d, perturbed, sc.c0)
            assert spread > base

    def test_two_pixel_observation(self, default_k, zero_d, sc):
        # Spread of two points must equal |z1 - z2| from back-projecting each.
        obs = ReferenceLineObservation.from_array(
            np.array([[540.0, 500.0], [760.0, 530.0]])
        )
        orientation = Orientation(roll=0.02, pitch=0.5)
        rot = rotation_x(orientation.pitch) @ np.array(
            [
                [math.cos(orientation.roll), math.sin(orientation.roll), 0.0],
                [-math.sin(orientation.roll), math.cos(orientation.roll), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        z = [_plane_points(_normalize_uv(uv, default_k), rot, sc.c0)[0][2] for uv in obs.uv_array()]
        spread, mean_depth = residual_z_spread(obs, default_k, zero_d, orientation, sc.c0)
        assert spread == pytest.approx(abs(z[0] - z[1]), abs=1e-12)
        assert mean_depth == pytest.approx((z[0] + z[1]) / 2.0, abs=1e-12)

    def test_a_point_beyond_the_float_range_misses_the_plane(self, default_k, zero_d):
        # yn = 1e-10: the ray descends, but meets the plane 1e310 m away,
        # which is counted as the horizon rather than overflowing.
        obs = ReferenceLineObservation.from_array([(600.0, 400.0), (680.0, 360.0000001)])
        with pytest.raises(NoHorizonIntersection, match=r"^1 point\(s\) back-project"):
            residual_z_spread(obs, default_k, zero_d, Orientation(), 1e300)

    @pytest.mark.parametrize("k1", [0.0, -1e-8], ids=["no_lens", "mild_lens"])
    def test_a_far_pixel_fails_without_a_numpy_warning(self, k1):
        # Undistortion fails on the 1e305 px pixel; normalizing it with a
        # focal length of 1e-8 must not then overflow.
        k = Intrinsics(fx=1e-8, fy=1e-8, cx=640.0, cy=360.0)
        obs = ReferenceLineObservation.from_array([(0.0, 400.0), (1e305, 400.2), (1.0, 401.0)])
        with pytest.raises(NonConvergent):
            residual_z_spread(obs, k, DistortionCoefficients(k1=k1), Orientation(pitch=0.5), 2.0)

    def test_pixels_above_the_horizon_raise(self, default_k, zero_d, sc):
        # Pixels below the principal point, under a camera pitched 0.3 rad up:
        # every ray rises, so none of them meets the plane.
        obs = render_line(SyntheticScene(ground_truth=Orientation(pitch=0.5), sc=sc, k=default_k))
        with pytest.raises(NoHorizonIntersection, match=rf"^{len(obs)} point\(s\) back-project"):
            residual_z_spread(obs, default_k, zero_d, Orientation(pitch=-0.3), sc.c0)


class TestWholeDomain:
    SCALES = [1e-300, 1e-8, 1.0, 1e8, 1e300]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extent", [1e-300, 3.0, 1e300])
    @pytest.mark.parametrize(
        "d", [DistortionCoefficients(), DistortionCoefficients(k1=-1e-7, p1=1e-6)],
        ids=["no_lens", "mild_lens"],
    )
    def test_every_call_is_finite_or_a_named_error(self, extent, d):
        # Over the grid of focal length, camera height and line depth, each
        # public call on each rendered line returns finite numbers or raises
        # a named error, and no numpy warning escapes.
        n_rendered = 0
        for f, c0, z0 in itertools.product(self.SCALES, repeat=3):
            k = Intrinsics(fx=f, fy=f, cx=640.0, cy=360.0)
            sc = SceneConstraints(c0=c0, z0=z0)
            scene = _scene(0.05, 0.6, k, d, sc, line_x_extent=extent, noise_sigma=0.5, rng_seed=3)
            try:
                obs = render_line(scene)
            except TooFewVisible:
                continue
            n_rendered += 1
            calls = [
                lambda: estimate_orientation(obs, k, d, sc),
                lambda: central_pixel(obs, k, d),
                lambda: residual_z_spread(obs, k, d, scene.ground_truth, c0),
            ]
            for call in calls:
                try:
                    result = call()
                except (GeometryError, ValueError):
                    continue
                if isinstance(result, OrientationEstimate):
                    o = result.orientation
                    result = (o.roll, o.pitch, result.residual_z_spread, result.residual_z_bias)
                assert np.isfinite(result).all()
        assert n_rendered > 0


class TestOracleEquivalence:
    def test_random_scenes_recover_ground_truth(self, default_k, zero_d):
        # Randomized miniature of the acceptance sweep: every visible scene
        # must be recovered to well under 1e-8 rad.
        rng = np.random.default_rng(2024)
        n_done = 0
        worst = 0.0
        while n_done < 100:
            sc = SceneConstraints(c0=rng.uniform(0.5, 5.0), z0=rng.uniform(1.0, 10.0))
            gt = Orientation(
                roll=rng.uniform(math.radians(-15), math.radians(15)),
                pitch=rng.uniform(math.radians(5), math.radians(60)),
            )
            scene = SyntheticScene(
                ground_truth=gt, sc=sc, k=default_k, rng_seed=int(rng.integers(2**31))
            )
            try:
                obs = render_line(scene)
            except Exception:
                continue
            est = estimate_orientation(obs, default_k, zero_d, sc)
            worst = max(
                worst,
                abs(est.orientation.roll - gt.roll),
                abs(est.orientation.pitch - gt.pitch),
            )
            n_done += 1
        assert worst < 1e-8
