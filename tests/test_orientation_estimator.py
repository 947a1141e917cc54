"""Tests for the closed-form roll/pitch estimators and their residuals."""

from __future__ import annotations

import copy
import itertools
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camline import (
    ConfigError,
    DegenerateLine,
    DistortionCoefficients,
    GeometryError,
    Intrinsics,
    NoHorizonIntersection,
    NonConvergent,
    Orientation,
    OrientationEstimate,
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
from camline.orientation_estimator import _estimate, _fit_line, _pitch

from conftest import line_angle_distance, plane_points, rotation_x

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
        with pytest.raises(ConfigError, match="at least 2 points, got 1"):
            ReferenceLineObservation(((1.0, 2.0),))

    def test_from_array_shape_check(self):
        with pytest.raises(ValueError):
            ReferenceLineObservation.from_array(np.zeros((3, 3)))

    @pytest.mark.parametrize(
        "uv",
        [[(1, 2.5), (-0.0, -3e-310), (0.1, 1e300)], np.array([[3, -4], [5, 6], [2**53 + 1, 0]])],
        ids=["tuples", "ints"],
    )
    def test_from_array_pixels_are_the_float_array(self, uv):
        expected = np.asarray(uv, dtype=float)
        for obs in (ReferenceLineObservation(uv), ReferenceLineObservation.from_array(uv)):
            assert obs._uv.dtype == np.float64 and obs.uv_array().dtype == np.float64
            assert obs.uv_array().tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column, name", [(0, "u"), (1, "v")])
    def test_from_array_names_a_non_finite_field(self, bad, column, name):
        uv = np.array([[1.0, 2.0], [3.0, 4.0]])
        uv[1, column] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {bad!r}$"):
            ReferenceLineObservation.from_array(uv)

    def test_from_array_names_the_first_non_finite_value_in_row_order(self):
        with pytest.raises(ValueError, match="^v must be finite, got nan$"):
            ReferenceLineObservation.from_array([[1.0, math.nan], [math.inf, 2.0]])

    def test_from_array_checks_finiteness_before_the_row_count(self):
        with pytest.raises(ValueError, match="^u must be finite, got nan$"):
            ReferenceLineObservation.from_array([[math.nan, 2.0]])

    def test_from_array_keeps_ints_signed_zeros_and_subnormals_exactly(self):
        tiny = 5e-324
        obs = ReferenceLineObservation.from_array([[3, -0.0], [tiny, -2.5e-310], [-7, 2**60]])
        got = obs.uv_array().tolist()
        assert all(type(x) is float for pair in got for x in pair)
        assert np.array(got).tobytes() == np.array(
            [[3.0, -0.0], [tiny, -2.5e-310], [-7.0, 2.0**60]]
        ).tobytes()
        assert math.copysign(1.0, got[0][1]) == -1.0

    @pytest.mark.parametrize(
        "uv",
        [
            np.array([[1 + 2j, 3.0], [4.0, 5.0]]),
            np.array([[True, False], [False, True]]),
            [["1", "2"], ["3", "4"]],
            np.array([[1.0, None], [3.0, 4.0]], dtype=object),
        ],
        ids=["complex", "bool", "string", "object"],
    )
    def test_from_array_refuses_a_non_real_array_by_its_dtype(self, uv):
        # Checked before the shape: a (1, 3) array fails on its dtype too.
        dtype = np.asarray(uv).dtype
        message = rf"^pixels must be real numbers, got an array of {dtype}$"
        for bad in (uv, np.asarray(uv)[:1, [0, 1, 1]]):
            with pytest.raises(ConfigError, match=message):
                ReferenceLineObservation.from_array(bad)

    @pytest.mark.parametrize(
        "uv", [[[1.0, 2.0], [3.0]], [[1.0, 2.0], 3.0], [[1.0, 2.0], [3.0, 4.0, 5.0]]]
    )
    def test_a_ragged_sequence_is_named(self, uv):
        message = r"^expected an \(N, 2\) array of pixels, got a ragged sequence$"
        for build in (ReferenceLineObservation, ReferenceLineObservation.from_array):
            with pytest.raises(ConfigError, match=message):
                build(uv)

    def test_from_array_needs_two_rows(self):
        with pytest.raises(ValueError, match="at least 2 points, got 1"):
            ReferenceLineObservation.from_array(np.array([[1.0, 2.0]]))

    def test_round_trips_through_array(self):
        uv = np.array([[1.0, 2.0], [3.0, 4.5]])
        obs = ReferenceLineObservation.from_array(uv)
        assert np.array_equal(obs.uv_array(), uv)
        assert obs.uv_array().flags.c_contiguous
        assert len(obs) == 2

    @pytest.mark.parametrize("layout", ["c", "fortran", "strided"])
    def test_later_changes_to_the_callers_array_reach_nothing(
        self, default_k, zero_d, sc, layout
    ):
        base = render_line(_scene(0.03, 0.6, default_k, sc=sc, noise_sigma=0.5)).uv_array()
        uv = {
            "c": base.copy(),
            "fortran": np.asfortranarray(base),
            "strided": np.repeat(base, 2, axis=0)[::2],
        }[layout]
        obs = ReferenceLineObservation.from_array(uv)
        before = (repr(obs), estimate_orientation(obs, default_k, zero_d, sc))
        uv[:] = uv[::-1] + 7.0
        assert repr(obs) == before[0]
        assert obs.uv_array().tobytes() == base.tobytes()
        assert estimate_orientation(obs, default_k, zero_d, sc) == before[1]

    def test_the_kept_array_is_read_only_and_uv_array_a_writable_copy(self):
        given = [[1, 2.5], [-0.0, 3e-310], [4.0, 2**60]]
        obs = ReferenceLineObservation.from_array(given)
        kept = obs._uv
        assert not kept.flags.writeable and kept.flags.c_contiguous and kept.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            kept[0, 0] = 9.0
        uv = obs.uv_array()
        assert uv.flags.writeable and uv.flags.c_contiguous and uv.flags.owndata
        assert not np.shares_memory(uv, kept)
        assert uv.tobytes() == kept.tobytes() == np.array(given, dtype=float).tobytes()
        uv[0, 0] = 9.0
        assert obs.uv_array()[0, 0] == 1.0 and kept[0, 0] == 1.0
        for copied in (pickle.loads(pickle.dumps(obs)), copy.deepcopy(obs)):
            assert copied == obs and copied._uv.tobytes() == kept.tobytes()
            assert not copied._uv.flags.writeable

    def test_the_constructor_keeps_the_same_array_as_from_array(self, default_k):
        uv = render_line(_scene(0.03, 0.6, default_k, noise_sigma=0.5)).uv_array()
        given = (
            uv,
            uv.tolist(),
            tuple(map(tuple, uv.tolist())),
            uv[::-1],
            np.asfortranarray(uv),
            np.repeat(uv, 2, axis=0)[::2],
        )
        for pixels in given:
            built = ReferenceLineObservation(pixels)
            from_array = ReferenceLineObservation.from_array(pixels)
            assert built._uv.tobytes() == from_array._uv.tobytes()
            assert built._uv.tobytes() == np.asarray(pixels, dtype=float).tobytes()
            assert not built._uv.flags.writeable and built._uv.flags.c_contiguous
            assert built == from_array and hash(built) == hash(from_array)

    def test_equality_and_hash_follow_the_array(self):
        uv = [[1.0, 2.0], [3.0, 4.5], [5.0, 6.0]]
        a = ReferenceLineObservation.from_array(uv)
        b = ReferenceLineObservation(tuple(map(tuple, uv)))
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert a != ReferenceLineObservation.from_array(a.uv_array()[::-1])
        assert a != ReferenceLineObservation(uv[:2]) and a != uv and a != tuple(map(tuple, uv))
        # Equal floats, not equal bits: -0.0 == 0.0, and the hashes agree.
        zero = ReferenceLineObservation([[0.0, 1.0], [2.0, 0.0]])
        negative_zero = ReferenceLineObservation([[-0.0, 1.0], [2.0, -0.0]])
        assert zero == negative_zero and hash(zero) == hash(negative_zero)
        assert len({a, b, zero, negative_zero}) == 2


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
        p, _ = plane_points(np.array([0.0, 0.25]), rotation_x(got), sc.c0)
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
        # Every point of the fitted line has one de-rolled height, so one depth:
        # the spread is rounding at most.
        assert 0.0 <= est.residual_z_spread <= 1e-12

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "d",
        [DistortionCoefficients(), DistortionCoefficients(k1=-1e-7, p1=1e-6)],
        ids=["no_lens", "mild_lens"],
    )
    def test_a_batch_carries_its_failed_observations_to_the_end(self, default_k, sc, d):
        # Every observation runs through every stage; a bad one records its
        # named failure, and the good one's numbers are those it gets alone.
        scene = _scene(0.05, 0.6, default_k, d, sc, noise_sigma=0.5, rng_seed=3)
        good = render_line(scene).uv_array()
        n = len(good)
        none_visible = np.full((n, 2), 500.0)
        none_visible[0] = np.nan
        one_visible = np.full((n, 2), np.nan)
        one_visible[n // 2] = good[n // 2]
        far = good.copy()
        far[n // 2, 0] = 1e300
        visible = np.ones((4, n), dtype=bool)
        visible[1] = False
        visible[2] = np.arange(n) == n // 2
        batch = _estimate(
            np.stack([good, none_visible, one_visible, far]), visible, default_k, d, sc
        )
        *numbers, failures = batch
        assert failures[0] is None
        assert [type(f) for f in failures[1:]] == [NonConvergent, DegenerateLine, NonConvergent]
        alone = _estimate(good[None], np.ones((1, n), dtype=bool), default_k, d, sc)
        assert alone[-1] == [None]
        assert [column[0] for column in numbers] == [column[0] for column in alone[:-1]]


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
        z = [plane_points(_normalize_uv(uv, default_k), rot, sc.c0)[0][2] for uv in obs.uv_array()]
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

    def test_a_far_pixel_that_undistorts_misses_the_plane_without_a_warning(self, zero_d):
        # With no lens the 1e100 px pixel undistorts, but normalizing it with
        # a focal length of 1e-300 overflows to infinity.
        k = Intrinsics(fx=1e-300, fy=1e-300, cx=640.0, cy=360.0)
        obs = ReferenceLineObservation.from_array([(0.0, 400.0), (1e100, 400.2), (1.0, 401.0)])
        with pytest.raises(NoHorizonIntersection, match=r"^1 point\(s\) back-project"):
            residual_z_spread(obs, k, zero_d, Orientation(pitch=0.5), 2.0)

    def test_pixels_above_the_horizon_raise(self, default_k, zero_d, sc):
        # Pixels below the principal point, under a camera pitched 0.3 rad up:
        # every ray rises, so none of them meets the plane.
        obs = render_line(SyntheticScene(ground_truth=Orientation(pitch=0.5), sc=sc, k=default_k))
        with pytest.raises(NoHorizonIntersection, match=rf"^{len(obs)} point\(s\) back-project"):
            residual_z_spread(obs, default_k, zero_d, Orientation(pitch=-0.3), sc.c0)


class TestWholeDomain:
    SCALES = [1e-300, 1e-8, 1.0, 1e8, 1e100, 1e150, 1e300]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("extent", [1e-300, 3.0, 1e300])
    @pytest.mark.parametrize(
        "d",
        [
            DistortionCoefficients(),
            DistortionCoefficients(k1=-1e-7),
            DistortionCoefficients(k1=-1e-7, p1=1e-6),
            DistortionCoefficients(k1=-1e-7, k2=1e-13, k3=-1e-19, p1=1e-6, p2=-1e-6),
        ],
        ids=["no_lens", "k1_only", "mild_lens", "five_coefficients"],
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


class TestSymmetries:
    @given(
        roll=st.floats(min_value=-0.1, max_value=0.1),
        pitch=st.floats(min_value=0.4, max_value=0.8),
        k1=st.floats(min_value=-3e-7, max_value=3e-7),
        k2=st.floats(min_value=-1e-13, max_value=1e-13),
        p1=st.floats(min_value=-1e-6, max_value=1e-6),
        p2=st.floats(min_value=-1e-6, max_value=1e-6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None, max_examples=150)
    def test_mirrored_pixels_give_the_opposite_roll(self, roll, pitch, k1, k2, p1, p2, seed):
        # Mirroring the image about the principal column (u -> 2cx - u) and
        # flipping p1 maps the Brown-Conrady map onto itself, so the mirrored
        # line is the same line seen with the opposite roll: roll -> -roll,
        # pitch unchanged.  Only the mirror's own rounding may differ.
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        sc = SceneConstraints(c0=2.0, z0=3.0)
        d = DistortionCoefficients(k1=k1, k2=k2, p1=p1, p2=p2)
        obs = render_line(_scene(roll, pitch, k, d, sc, noise_sigma=0.5, rng_seed=seed))
        mirrored = obs.uv_array()
        mirrored[:, 0] = 2.0 * k.cx - mirrored[:, 0]
        mirrored_obs = ReferenceLineObservation.from_array(mirrored)
        try:
            est = estimate_orientation(obs, k, d, sc).orientation
        except GeometryError as exc:
            with pytest.raises(type(exc)):
                estimate_orientation(mirrored_obs, k, replace(d, p1=-p1), sc)
            return
        mirror = estimate_orientation(mirrored_obs, k, replace(d, p1=-p1), sc).orientation
        assert abs(mirror.roll + est.roll) <= 1e-15
        assert abs(mirror.pitch - est.pitch) <= 1e-15

    @given(
        roll=st.floats(min_value=-0.1, max_value=0.1),
        pitch=st.floats(min_value=0.4, max_value=0.8),
        k1=st.floats(min_value=-3e-7, max_value=3e-7),
        p1=st.floats(min_value=-1e-6, max_value=1e-6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None, max_examples=150)
    def test_reversed_pixels_give_the_same_orientation(self, roll, pitch, k1, p1, seed):
        # The fit sums the points in another order; nothing else changes.
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        sc = SceneConstraints(c0=2.0, z0=3.0)
        d = DistortionCoefficients(k1=k1, p1=p1)
        obs = render_line(_scene(roll, pitch, k, d, sc, noise_sigma=0.5, rng_seed=seed))
        reversed_obs = ReferenceLineObservation.from_array(obs.uv_array()[::-1])
        try:
            est = estimate_orientation(obs, k, d, sc).orientation
        except GeometryError as exc:
            with pytest.raises(type(exc)):
                estimate_orientation(reversed_obs, k, d, sc)
            return
        rev = estimate_orientation(reversed_obs, k, d, sc).orientation
        assert abs(rev.roll - est.roll) <= 4.4e-16
        assert abs(rev.pitch - est.pitch) <= 4.4e-16

    @given(
        roll=st.floats(min_value=-0.1, max_value=0.1),
        pitch=st.floats(min_value=0.4, max_value=0.8),
        c0=st.floats(min_value=0.5, max_value=5.0),
        off_axis=st.floats(min_value=-0.25, max_value=0.25),
        k1=st.floats(min_value=-3e-7, max_value=3e-7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None, max_examples=150)
    def test_scaling_the_scene_by_eight_scales_only_the_depths(
        self, roll, pitch, c0, off_axis, k1, seed
    ):
        # The same pixels against a scene 8 times as large: pitch depends on
        # c0 and z0 only through atan2(c0, z0), and every depth is c0 times
        # a factor of the pixel, so a power of two scales them exactly.  The
        # line lies off_axis rad off the optical axis, inside the image.
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        d = DistortionCoefficients(k1=k1, p1=1e-6)
        sc = SceneConstraints(c0=c0, z0=c0 / math.tan(pitch + off_axis))
        big = SceneConstraints(c0=8.0 * sc.c0, z0=8.0 * sc.z0)
        obs = render_line(_scene(roll, pitch, k, d, sc, noise_sigma=0.5, rng_seed=seed))
        try:
            est = estimate_orientation(obs, k, d, sc)
        except GeometryError as exc:
            with pytest.raises(type(exc)):
                estimate_orientation(obs, k, d, big)
            return
        scaled = estimate_orientation(obs, k, d, big)
        assert scaled.orientation == est.orientation
        assert scaled.residual_z_spread == 8.0 * est.residual_z_spread
        assert scaled.residual_z_bias == 8.0 * est.residual_z_bias

    @given(
        roll=st.floats(min_value=-0.1, max_value=0.1),
        pitch=st.floats(min_value=0.4, max_value=0.8),
        delta=st.floats(min_value=-0.5, max_value=0.5),
        k1=st.floats(min_value=-3e-7, max_value=3e-7),
        k2=st.floats(min_value=-1e-13, max_value=1e-13),
        p1=st.floats(min_value=-1e-6, max_value=1e-6),
        p2=st.floats(min_value=-1e-6, max_value=1e-6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(deadline=None, max_examples=150)
    def test_rotated_pixels_give_the_rotated_roll(self, roll, pitch, delta, k1, k2, p1, p2, seed):
        # In complex offsets z from the principal point the lens map is
        # z*radial(|z|^2) + 2|z|^2*P + z^2*conj(P), with P = p1 + i*p2.
        # Rotating z by delta and P with it rotates the map's output by
        # delta, and with fx = fy and no skew so does intrinsic
        # normalisation: roll -> roll + delta, while the line's distance
        # from the principal point, and so pitch and spread, stay.  2,000
        # seeded scenes moved roll by at most 3.3e-16 rad, pitch by 2.2e-16
        # rad and spread by 3.6e-15 m; the bounds leave a margin of about 300.
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        sc = SceneConstraints(c0=2.0, z0=3.0)
        d = DistortionCoefficients(k1=k1, k2=k2, p1=p1, p2=p2)
        obs = render_line(_scene(roll, pitch, k, d, sc, noise_sigma=0.5, rng_seed=seed))
        turn = complex(math.cos(delta), math.sin(delta))
        z = (obs.uv_array() - (k.cx, k.cy)) @ np.array([1.0, 1.0j]) * turn
        rotated_obs = ReferenceLineObservation(np.column_stack([z.real + k.cx, z.imag + k.cy]))
        p = complex(p1, p2) * turn
        rotated_d = replace(d, p1=p.real, p2=p.imag)
        try:
            est = estimate_orientation(obs, k, d, sc)
        except GeometryError as exc:
            with pytest.raises(type(exc)):
                estimate_orientation(rotated_obs, k, rotated_d, sc)
            return
        rotated = estimate_orientation(rotated_obs, k, rotated_d, sc)
        assert abs(rotated.orientation.roll - (est.orientation.roll + delta)) <= 1e-13
        assert abs(rotated.orientation.pitch - est.orientation.pitch) <= 1e-13
        assert abs(rotated.residual_z_spread - est.residual_z_spread) <= 1e-12


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

    def test_the_full_intrinsic_matrix_and_lens_are_recovered_noise_free(self, sc):
        # The paper's intrinsic matrix [[fx, skew, cx], [0, fy, cy], [0, 0, 1]]
        # (Hartley & Zisserman 2004, Multiple View Geometry, sec. 6.1) with
        # fx != fy, a skew, an off-centre principal point and all five lens
        # coefficients.  Over 499 such noise-free scenes an earlier
        # measurement found errors up to 9.6e-13 rad in roll and 2.8e-13 in
        # pitch, and 1,500 scenes drawn as here gave 1.5e-13 and 5.3e-14.
        # The bound is about twice the largest of those.  Leaving the skew
        # term out of the normalization moves roll and pitch by up to 5e-5 rad.
        rng = np.random.default_rng(61)
        n_done = 0
        for _ in range(300):
            k = Intrinsics(
                fx=rng.uniform(600.0, 1400.0),
                fy=rng.uniform(600.0, 1400.0),
                cx=rng.uniform(560.0, 720.0),
                cy=rng.uniform(300.0, 420.0),
                skew=rng.uniform(-2.0, 2.0),
            )
            d = DistortionCoefficients(
                k1=rng.uniform(-1e-7, 1e-7),
                k2=rng.uniform(-1e-13, 1e-13),
                k3=rng.uniform(-1e-19, 1e-19),
                p1=rng.uniform(-1e-6, 1e-6),
                p2=rng.uniform(-1e-6, 1e-6),
            )
            gt = Orientation(roll=rng.uniform(-0.1, 0.1), pitch=rng.uniform(0.4, 0.8))
            try:
                obs = render_line(SyntheticScene(ground_truth=gt, sc=sc, k=k, d=d))
            except TooFewVisible:
                continue
            est = estimate_orientation(obs, k, d, sc).orientation
            assert abs(est.roll - gt.roll) <= 2e-12
            assert abs(est.pitch - gt.pitch) <= 2e-12
            n_done += 1
        assert n_done >= 290
