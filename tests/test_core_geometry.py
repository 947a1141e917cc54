"""Tests for the forward camera model: normalization, distortion, rotations, projection."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camline import (
    BehindCamera,
    DistortionCoefficients,
    Intrinsics,
    NonConvergent,
    NormalizedPoint,
    Orientation,
    PixelPoint,
    Pose,
    WorldPoint,
    denormalize,
    distort,
    normalize,
    project,
    rotation_matrix,
    rotation_x,
    rotation_xz,
    rotation_z,
    undistort,
)

from conftest import axis_angle_matrix

angles = st.floats(min_value=-1.5, max_value=1.5)


# ---------------------------------------------------------------------------
# Domain type validation
# ---------------------------------------------------------------------------


class TestTypeInvariants:
    def test_fx_must_be_positive(self):
        with pytest.raises(ValueError, match="fx"):
            Intrinsics(fx=0.0, fy=1000.0, cx=0.0, cy=0.0)

    def test_fy_must_be_positive(self):
        with pytest.raises(ValueError, match="fy"):
            Intrinsics(fx=1000.0, fy=-2.0, cx=0.0, cy=0.0)

    def test_principal_point_must_be_finite(self):
        with pytest.raises(ValueError, match="cx"):
            Intrinsics(fx=1000.0, fy=1000.0, cx=math.inf, cy=0.0)

    def test_distortion_coefficients_must_be_finite(self):
        with pytest.raises(ValueError, match="k2"):
            DistortionCoefficients(k2=math.nan)

    def test_pixel_point_rejects_nan(self):
        with pytest.raises(ValueError):
            PixelPoint(math.nan, 0.0)

    def test_yaw_slot_is_reserved(self):
        with pytest.raises(ValueError, match="yaw"):
            Orientation(roll=0.0, pitch=0.0, yaw=0.1)

    def test_pose_translation_length(self):
        with pytest.raises(ValueError):
            Pose(Orientation(), translation=(1.0, 2.0))

    def test_zero_distortion_classmethod(self):
        d = DistortionCoefficients.zero()
        assert (d.k1, d.k2, d.k3, d.p1, d.p2) == (0.0, 0.0, 0.0, 0.0, 0.0)

    def test_intrinsic_matrix_layout(self, default_k):
        m = default_k.matrix
        assert m[0, 0] == default_k.fx
        assert m[1, 1] == default_k.fy
        assert m[0, 2] == default_k.cx
        assert m[1, 2] == default_k.cy
        assert m[0, 1] == default_k.skew
        assert np.array_equal(m[2], [0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# normalize / denormalize
# ---------------------------------------------------------------------------


class TestNormalize:
    def test_principal_point_maps_to_origin(self, default_k):
        n = normalize(PixelPoint(default_k.cx, default_k.cy), default_k)
        assert n == NormalizedPoint(0.0, 0.0)

    def test_one_focal_length_offset(self, default_k):
        n = normalize(PixelPoint(default_k.cx + default_k.fx, default_k.cy), default_k)
        assert n == NormalizedPoint(1.0, 0.0)

    def test_hand_computed_values(self):
        k = Intrinsics(fx=1000.0, fy=1100.0, cx=640.0, cy=360.0)
        n = normalize(PixelPoint(940.0, 580.0), k)
        assert n.xn == pytest.approx(0.3, abs=1e-15)
        assert n.yn == pytest.approx(0.2, abs=1e-15)

    @given(
        u=st.floats(min_value=-2000.0, max_value=3000.0),
        v=st.floats(min_value=-2000.0, max_value=3000.0),
        skew=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(deadline=None)
    def test_denormalize_inverts_normalize(self, u, v, skew):
        k = Intrinsics(fx=1000.0, fy=1100.0, cx=640.0, cy=360.0, skew=skew)
        p = PixelPoint(u, v)
        q = denormalize(normalize(p, k), k)
        assert q.u == pytest.approx(p.u, abs=1e-12)
        assert q.v == pytest.approx(p.v, abs=1e-12)


# ---------------------------------------------------------------------------
# distort / undistort
# ---------------------------------------------------------------------------


class TestDistort:
    def test_zero_coefficients_is_identity(self, default_k, zero_d):
        p = PixelPoint(123.25, 987.5)
        assert distort(p, default_k, zero_d) == p

    def test_principal_point_is_fixed(self, default_k):
        d = DistortionCoefficients(k1=1e-6, k2=1e-12, k3=1e-18, p1=1e-7, p2=-1e-7)
        p = PixelPoint(default_k.cx, default_k.cy)
        assert distort(p, default_k, d) == p

    def test_radial_hand_computation(self):
        # r^2 = 100^2, so u -> 100 * (1 + 1e-7 * 1e4) = 100.1
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=0.0, cy=0.0)
        d = DistortionCoefficients(k1=1e-7)
        out = distort(PixelPoint(100.0, 0.0), k, d)
        assert out.u == pytest.approx(100.1, abs=1e-12)
        assert out.v == pytest.approx(0.0, abs=1e-12)

    def test_tangential_hand_computation(self):
        # dx=10, dy=20, r^2=500:
        #   du = p1*(500 + 200) + 2*p2*200 = 7.0e-4 + 8.0e-4 = 1.5e-3
        #   dv = 2*p1*200 + p2*(500 + 800) = 4.0e-4 + 2.6e-3 = 3.0e-3
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=0.0, cy=0.0)
        d = DistortionCoefficients(p1=1e-6, p2=2e-6)
        out = distort(PixelPoint(10.0, 20.0), k, d)
        assert out.u == pytest.approx(10.0015, abs=1e-12)
        assert out.v == pytest.approx(20.003, abs=1e-12)

    @given(
        u=st.floats(min_value=0.0, max_value=1280.0),
        v=st.floats(min_value=0.0, max_value=720.0),
    )
    @settings(deadline=None)
    def test_zero_coefficients_identity_property(self, u, v):
        # Offsets are measured from the principal point, so the identity is
        # exact only up to rounding at the principal-point magnitude.
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        out = distort(PixelPoint(u, v), k, DistortionCoefficients.zero())
        assert out.u == pytest.approx(u, abs=1e-9)
        assert out.v == pytest.approx(v, abs=1e-9)


class TestUndistort:
    def test_identity_lens(self, default_k, zero_d):
        p = PixelPoint(100.5, 642.0)
        assert undistort(p, default_k, zero_d) == p

    def test_round_trip_random_pixels(self, default_k):
        # 1000 random pixels inside the half-image-diagonal radius,
        # mixed moderate coefficients.
        rng = np.random.default_rng(42)
        d = DistortionCoefficients(k1=-8e-8, k2=1e-14, k3=-1e-20, p1=1e-8, p2=-2e-8)
        radius = math.hypot(640.0, 360.0)
        worst = 0.0
        for _ in range(1000):
            r = radius * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            q = PixelPoint(default_k.cx + r * math.cos(phi), default_k.cy + r * math.sin(phi))
            p = distort(q, default_k, d)
            back = undistort(p, default_k, d)
            worst = max(worst, math.hypot(back.u - q.u, back.v - q.v))
        assert worst < 1e-6

    def test_distort_of_undistort_matches_target(self, default_k):
        d = DistortionCoefficients(k1=5e-8, p1=-1e-8)
        p = PixelPoint(1100.0, 650.0)
        q = undistort(p, default_k, d, tol=1e-10)
        p2 = distort(q, default_k, d)
        assert math.hypot(p2.u - p.u, p2.v - p.v) < 1e-9

    @given(
        k1=st.floats(min_value=-5e-7, max_value=5e-7),
        p1=st.floats(min_value=-1e-6, max_value=1e-6),
        p2=st.floats(min_value=-1e-6, max_value=1e-6),
        radius_fraction=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    )
    @settings(deadline=None, max_examples=300)
    def test_round_trip_inside_the_fold(self, k1, p1, p2, radius_fraction, phi):
        # The ideal radius is drawn, not the distorted one: a distorted pixel
        # beyond the lens's reach has no preimage.  For k1 < 0 the radial map
        # folds at 1/sqrt(3|k1|); stay below 0.95 of that.  For k1 >= 0 the
        # map never folds, so stay inside the image half-diagonal.  The
        # negative side is also capped at the image diagonal, where the
        # tangential terms are still small beside the radial fold margin.
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        half_diagonal = math.hypot(640.0, 360.0)
        if k1 < 0.0:
            limit = min(0.95 / math.sqrt(-3.0 * k1), 2.0 * half_diagonal)
        else:
            limit = half_diagonal
        r = radius_fraction * limit
        q = PixelPoint(k.cx + r * math.cos(phi), k.cy + r * math.sin(phi))
        d = DistortionCoefficients(k1=k1, p1=p1, p2=p2)
        back = undistort(distort(q, k, d), k, d, max_iter=10)
        assert math.hypot(back.u - q.u, back.v - q.v) < 1e-6

    @pytest.mark.parametrize("r", [390.0, 500.0, 1e4, 1e6])
    def test_folded_lens_raises(self, r):
        # k1 = -1e-6 folds the radial map at r = sqrt(1/(3e-6)) ~ 577 px with
        # maximum reach (2/3)*577 ~ 385 px; no target beyond it has a
        # preimage.  Far targets do have roots on the folded branch, where
        # the radial factor is negative; those must be rejected too.
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=0.0, cy=0.0)
        d = DistortionCoefficients(k1=-1e-6)
        with pytest.raises(NonConvergent):
            undistort(PixelPoint(r, 0.0), k, d)


# ---------------------------------------------------------------------------
# Rotations
# ---------------------------------------------------------------------------


class TestRotations:
    def test_rotation_x_zero_is_identity(self):
        assert np.allclose(rotation_x(0.0), np.eye(3), atol=1e-15)

    def test_rotation_x_quarter_turn(self):
        expected = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        assert np.allclose(rotation_x(math.pi / 2), expected, atol=1e-15)

    def test_rotation_x_against_axis_angle_oracle(self):
        # The map sends camera directions into world axes, which matches an
        # active rotation by the negated angle.
        got = rotation_x(0.3)
        expected = axis_angle_matrix([1.0, 0.0, 0.0], -0.3)
        assert np.allclose(got, expected, atol=1e-15)

    def test_rotation_xz_identity(self):
        assert np.allclose(rotation_xz(0.0, 0.0), np.eye(3), atol=1e-15)

    def test_rotation_xz_zero_roll_reduces_to_rotation_x(self):
        assert np.allclose(rotation_xz(0.7, 0.0), rotation_x(0.7), atol=1e-15)

    def test_rotation_xz_is_product(self):
        got = rotation_xz(0.2, 0.1)
        expected = rotation_x(0.2) @ rotation_z(0.1)
        assert np.max(np.abs(got - expected)) <= 1e-15

    @given(theta=angles, lam=angles)
    @settings(deadline=None)
    def test_rotation_xz_orthogonal_unit_determinant(self, theta, lam):
        m = rotation_xz(theta, lam)
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12

    @given(roll=angles, pitch=angles)
    @settings(deadline=None)
    def test_rotation_matrix_matches_components(self, roll, pitch):
        m = rotation_matrix(Orientation(roll=roll, pitch=pitch))
        assert np.array_equal(m, rotation_xz(pitch, roll))


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


class TestProject:
    def test_on_axis_point_hits_principal_point(self, default_k, zero_d):
        p = project(WorldPoint(0.0, 0.0, 1.0), default_k, zero_d, Pose.identity())
        assert p == PixelPoint(640.0, 360.0)

    def test_similar_triangles(self, zero_d):
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=0.0, cy=0.0)
        p = project(WorldPoint(0.5, 0.0, 1.0), k, zero_d, Pose.identity())
        assert p == PixelPoint(500.0, 0.0)

    def test_behind_camera_raises(self, default_k, zero_d):
        with pytest.raises(BehindCamera):
            project(WorldPoint(0.0, 0.0, -1.0), default_k, zero_d, Pose.identity())

    def test_zero_depth_raises(self, default_k, zero_d):
        with pytest.raises(BehindCamera):
            project(WorldPoint(1.0, 1.0, 0.0), default_k, zero_d, Pose.identity())

    def test_identity_pose_reduces_to_pinhole(self, zero_d):
        k = Intrinsics(fx=1050.0, fy=995.0, cx=633.0, cy=351.5, skew=0.7)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            z = rng.uniform(0.5, 10.0)
            p = project(WorldPoint(x, y, z), k, zero_d, Pose.identity())
            assert p.u == pytest.approx(k.fx * x / z + k.skew * y / z + k.cx, abs=1e-12)
            assert p.v == pytest.approx(k.fy * y / z + k.cy, abs=1e-12)

    def test_translation_is_applied_in_camera_frame(self, default_k, zero_d):
        pose = Pose(Orientation(), translation=(0.0, 0.0, 1.0))
        p = project(WorldPoint(0.0, 0.0, 1.0), default_k, zero_d, pose)
        assert p == PixelPoint(640.0, 360.0)
