"""Tests for the forward camera model: normalization, distortion, rotations, projection."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camline import (
    DistortionCoefficients,
    Intrinsics,
    NonConvergent,
    Orientation,
    PixelPoint,
    SceneConstraints,
    SyntheticScene,
    rotation_xz,
    undistort,
)
from camline.core_geometry import (
    UNDISTORT_TOL_PX,
    _denormalize_xy,
    _distort_components,
    _distort_jacobian,
    _distort_uv,
    _normalize_uv,
    _project_uv,
    _undistort_uv,
)
from camline.synthetic_rig import _line_pixels, _observe

from conftest import (
    axis_angle_matrix,
    distort_components_full,
    distort_jacobian_full,
    rotation_x,
    rotation_z,
    undistort_no_lens_reference,
    undistort_reference,
)

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

    def test_pixel_point_fields_are_floats(self):
        p = PixelPoint(3, -4)
        assert (p.u, p.v) == (3.0, -4.0)
        assert type(p.u) is float and type(p.v) is float

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_pixel_point_names_the_non_finite_field(self, bad):
        with pytest.raises(ValueError, match=r"^u must be finite"):
            PixelPoint(bad, 0.0)
        with pytest.raises(ValueError, match=r"^v must be finite"):
            PixelPoint(0.0, bad)

    def test_pixel_point_is_frozen(self):
        p = PixelPoint(1.0, 2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.u = 5.0
        with pytest.raises(ValueError, match=r"^v must be finite"):
            dataclasses.replace(p, v=math.inf)

    def test_pixel_point_is_a_value(self):
        p = PixelPoint(1, 2.5)
        assert p == PixelPoint(1.0, 2.5) and hash(p) == hash(PixelPoint(1.0, 2.5))
        assert p != PixelPoint(2.5, 1.0)
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert q == p and type(q.u) is float and type(q.v) is float

    def test_pixel_point_keeps_its_fields_in_slots(self):
        p = PixelPoint(1, 2.5)
        assert not hasattr(p, "__dict__") and PixelPoint.__slots__ == ("u", "v")
        assert repr(p) == "PixelPoint(u=1.0, v=2.5)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.v = 5.0
        # No attribute can be added.  For a name that is not a field, the
        # frozen slots dataclass of CPython 3.11 raises TypeError, not
        # FrozenInstanceError.
        with pytest.raises((AttributeError, TypeError)):
            p.w = 5.0
        assert not hasattr(p, "w")
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert repr(q) == repr(p) and not hasattr(q, "__dict__")

    def test_default_distortion_is_zero(self):
        d = DistortionCoefficients()
        assert (d.k1, d.k2, d.k3, d.p1, d.p2) == (0.0, 0.0, 0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# _normalize_uv / _denormalize_xy
# ---------------------------------------------------------------------------


class TestNormalize:
    def test_principal_point_maps_to_origin(self, default_k):
        n = _normalize_uv(np.array([default_k.cx, default_k.cy]), default_k)
        assert n.tolist() == [0.0, 0.0]

    def test_one_focal_length_offset(self, default_k):
        n = _normalize_uv(np.array([default_k.cx + default_k.fx, default_k.cy]), default_k)
        assert n.tolist() == [1.0, 0.0]

    def test_hand_computed_values(self):
        k = Intrinsics(fx=1000.0, fy=1100.0, cx=640.0, cy=360.0)
        xn, yn = _normalize_uv(np.array([940.0, 580.0]), k)
        assert xn == pytest.approx(0.3, abs=1e-15)
        assert yn == pytest.approx(0.2, abs=1e-15)

    @given(
        u=st.floats(min_value=-2000.0, max_value=3000.0),
        v=st.floats(min_value=-2000.0, max_value=3000.0),
        skew=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(deadline=None)
    def test_denormalize_inverts_normalize(self, u, v, skew):
        k = Intrinsics(fx=1000.0, fy=1100.0, cx=640.0, cy=360.0, skew=skew)
        q = _denormalize_xy(_normalize_uv(np.array([u, v]), k), k)
        assert q[0] == pytest.approx(u, abs=1e-12)
        assert q[1] == pytest.approx(v, abs=1e-12)


# ---------------------------------------------------------------------------
# _distort_uv / undistort
# ---------------------------------------------------------------------------


class TestDistort:
    def test_zero_coefficients_is_identity(self, default_k, zero_d):
        p = np.array([123.25, 987.5])
        assert np.array_equal(_distort_uv(p, default_k, zero_d), p)

    def test_principal_point_is_fixed(self, default_k):
        d = DistortionCoefficients(k1=1e-6, k2=1e-12, k3=1e-18, p1=1e-7, p2=-1e-7)
        p = np.array([default_k.cx, default_k.cy])
        assert np.array_equal(_distort_uv(p, default_k, d), p)

    def test_radial_hand_computation(self):
        # r^2 = 100^2, so u -> 100 * (1 + 1e-7 * 1e4) = 100.1
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=0.0, cy=0.0)
        d = DistortionCoefficients(k1=1e-7)
        u, v = _distort_uv(np.array([100.0, 0.0]), k, d)
        assert u == pytest.approx(100.1, abs=1e-12)
        assert v == pytest.approx(0.0, abs=1e-12)

    def test_tangential_hand_computation(self):
        # dx=10, dy=20, r^2=500:
        #   du = p1*(500 + 200) + 2*p2*200 = 7.0e-4 + 8.0e-4 = 1.5e-3
        #   dv = 2*p1*200 + p2*(500 + 800) = 4.0e-4 + 2.6e-3 = 3.0e-3
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=0.0, cy=0.0)
        d = DistortionCoefficients(p1=1e-6, p2=2e-6)
        u, v = _distort_uv(np.array([10.0, 20.0]), k, d)
        assert u == pytest.approx(10.0015, abs=1e-12)
        assert v == pytest.approx(20.003, abs=1e-12)

    @given(
        u=st.floats(min_value=0.0, max_value=1280.0),
        v=st.floats(min_value=0.0, max_value=720.0),
    )
    @settings(deadline=None)
    def test_zero_coefficients_identity_property(self, u, v):
        # Offsets are measured from the principal point, so the identity is
        # exact only up to rounding at the principal-point magnitude.
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0)
        out = _distort_uv(np.array([u, v]), k, DistortionCoefficients())
        assert out[0] == pytest.approx(u, abs=1e-9)
        assert out[1] == pytest.approx(v, abs=1e-9)

    @pytest.mark.parametrize("mask", range(32))
    def test_kernels_equal_the_full_five_term_map(self, default_k, mask):
        # Each bit of ``mask`` keeps one coefficient non-zero, so every
        # combination of skipped terms runs.  A skipped term is zero on these
        # finite pixels, so map and Jacobian match the full map exactly.
        k = default_k
        rng = np.random.default_rng(mask)
        scales = np.array([6e-7, 1e-12, 1e-18, 2e-6, 2e-6])
        keep = [(mask >> bit) & 1 for bit in range(5)]
        u = np.append(rng.uniform(0.0, 1280.0, size=(8, 64)), k.cx)
        v = np.append(rng.uniform(0.0, 720.0, size=(8, 64)), k.cy)
        for _ in range(8):
            d = DistortionCoefficients(*(rng.uniform(-scales, scales) * keep))
            got = _distort_components(u, v, k, d)
            want = distort_components_full(u, v, k, d)
            got += _distort_jacobian(*got[2:], d)
            # The fold mask, as _undistort_uv and the rig form it.
            got += ((got[5] > 0.0) & (got[9] > 0.0),)
            want += distort_jacobian_full(*want[2:], d)
            assert len(got) == len(want) == 11
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


class TestUndistort:
    def test_identity_lens(self, default_k, zero_d):
        p = PixelPoint(100.5, 642.0)
        assert undistort(p, default_k, zero_d) == p

    @pytest.mark.parametrize("axis", [0, 1], ids=["u", "v"])
    def test_no_lens_fails_only_where_the_map_overflows(self, default_k, zero_d, axis):
        # Without a lens the map is the identity until r^2 + 2*dx^2 overflows,
        # from about 7.7e153 px out along an axis, where it gives NaN; r^2
        # alone would overflow only from 1.3e154 px.
        # Each observation holds pixels on both sides of the principal point.
        fine, overflowing = [1e3, 1e7, 1e15, 1e100, 1e153], [1e154, 1e155, 1e200]
        offsets = fine + overflowing
        batch = np.tile([default_k.cx, default_k.cy + 0.37], (len(offsets), 3, 1))
        batch[:, 0, axis] += offsets
        batch[:, 2, axis] -= offsets
        und, failures = _undistort_uv(batch, default_k, zero_d)
        assert und.tobytes() == batch.tobytes()
        assert not np.shares_memory(und, batch)
        assert failures[: len(fine)] == [None] * len(fine)
        for failure in failures[len(fine):]:
            assert isinstance(failure, NonConvergent)
            assert str(failure).startswith("undistortion diverged")
        for offset in overflowing:
            p = [default_k.cx, default_k.cy]
            p[axis] += offset
            with pytest.raises(NonConvergent, match="^undistortion diverged"):
                undistort(PixelPoint(*p), default_k, zero_d)

    @pytest.mark.parametrize(
        "k",
        [Intrinsics(fx=1000.0, fy=1000.0, cx=640.0, cy=360.0),
         Intrinsics(fx=1000.0, fy=1000.0, cx=1e308, cy=-1e308)],
        ids=["default", "far-principal-point"],
    )
    def test_no_lens_bound_matches_the_per_point_test(self, k, zero_d):
        # A batch whose offsets from the principal point are all within
        # 1e150 px returns at once; any other batch tests each pixel.  Both
        # must give the oracle's pixels and failures, which tests every pixel.
        bound = 1e150
        radii = [0.0, 1e3, 1e149, math.nextafter(bound, 0.0), bound,
                 math.nextafter(bound, math.inf), 1e151,
                 *np.geomspace(7e153, 1.4e154, 15).tolist(), 1e200, 1e300]
        directions = [0.0, math.pi / 2, math.pi, 1.5 * math.pi, math.pi / 4, 0.3, 2.0, 4.0]
        pixels = [(k.cx + r * math.cos(a), k.cy + r * math.sin(a))
                  for r in radii for a in directions]
        pixels += [(math.nan, k.cy), (k.cx, math.nan), (math.inf, k.cy), (-math.inf, k.cy),
                   (k.cx, math.inf), (k.cx, -math.inf), (-1.7e308, 1.7e308), (1.7e308, -1.7e308)]
        # Each pixel alone, as an observation of one and beside two ordinary
        # pixels; random mixed batches; and batches with no observation or
        # no pixel.
        single = np.array(pixels)[:, None, :]
        beside = np.array([[(k.cx + 60.0, k.cy + 40.0), p, (k.cx - 40.0, k.cy + 20.0)]
                           for p in pixels])
        rng = np.random.default_rng(20)
        mixed = np.array(pixels)[rng.integers(len(pixels), size=(50, 4))]
        batches = [*single[:, None], *beside[:, None], single, beside, mixed,
                   *mixed[:, None], np.empty((3, 0, 2)), np.empty((0, 4, 2))]
        for batch in batches:
            und, failures = _undistort_uv(batch, k, zero_d)
            want, want_failures = undistort_no_lens_reference(batch, k)
            assert und.shape == batch.shape
            assert und.tobytes() == want.tobytes()
            assert repr(failures) == repr(want_failures)
            assert not np.shares_memory(und, batch)
        # The sample holds both sides of the bound and both outcomes.
        with np.errstate(over="ignore"):
            offsets = np.abs(single - (k.cx, k.cy)).max(axis=(1, 2))
        assert (offsets <= bound).any() and (offsets > bound).any()
        outcomes = undistort_no_lens_reference(single, k)[1]
        assert None in outcomes and any(f is not None for f in outcomes)

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
            u, v = _distort_uv(np.array([q.u, q.v]), default_k, d)
            back = undistort(PixelPoint(u, v), default_k, d)
            worst = max(worst, math.hypot(back.u - q.u, back.v - q.v))
        assert worst < 1e-6

    def test_distort_of_undistort_matches_target(self, default_k):
        d = DistortionCoefficients(k1=5e-8, p1=-1e-8)
        p = PixelPoint(1100.0, 650.0)
        q = undistort(p, default_k, d)
        u, v = _distort_uv(np.array([q.u, q.v]), default_k, d)
        assert math.hypot(u - p.u, v - p.v) < 1e-9

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
        u, v = _distort_uv(np.array([q.u, q.v]), k, d)
        back = undistort(PixelPoint(u, v), k, d, max_iter=10)
        assert math.hypot(back.u - q.u, back.v - q.v) < 1e-6

    def test_round_trip_five_coefficients(self, default_k):
        # 300 random lenses, each coefficient zero or not.  Each ideal pixel is
        # drawn within 1,500 px, with its whole radial segment on the unfolded
        # branch (radial factor and det J positive).  Where it distorts into
        # the image, undistortion must succeed and distort back onto the
        # target.  The bound is on the distorted residual: in ideal space an
        # ill-conditioned pixel can sit 1e-4 px from its true preimage.
        k = default_k
        rng = np.random.default_rng(7)
        segment = np.linspace(0.0, 1.0, 65)[1:, None]
        n_checked = 0
        for _ in range(300):
            # Each coefficient is zero with probability 1/2, so Newton runs
            # every combination of skipped terms (each at least 4 times).
            keep = rng.uniform(size=5) < 0.5
            d = DistortionCoefficients(
                *(rng.uniform(-1.0, 1.0, size=5) * [6e-7, 1e-12, 1e-18, 2e-6, 2e-6] * keep)
            )
            r = 1500.0 * np.sqrt(rng.uniform(size=384))
            phi = rng.uniform(0.0, 2.0 * math.pi, size=384)
            dx, dy = r * np.cos(phi) * segment, r * np.sin(phi) * segment
            *_, radial = _distort_components(k.cx + dx, k.cy + dy, k, d)
            *_, det = _distort_jacobian(dx, dy, dx * dx + dy * dy, radial, d)
            unfolded = (radial > 0.0) & (det > 0.0)
            ideal = np.stack([k.cx + dx[-1], k.cy + dy[-1]], axis=-1)[unfolded.all(axis=0)]
            target = _distort_uv(ideal, k, d)
            u, v = target[:, 0], target[:, 1]
            target = target[(u >= 0.0) & (u < 1280.0) & (v >= 0.0) & (v < 720.0)]
            und, failures = _undistort_uv(target[:, None, :], k, d)
            assert failures == [None] * len(target)
            back = _distort_uv(und[:, 0], k, d)
            assert np.hypot(*(back - target).T).max(initial=0.0) <= UNDISTORT_TOL_PX
            n_checked += len(target)
        assert n_checked > 12_000

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

    def test_each_observation_converges_on_its_own(self, default_k):
        # Observation 1 holds a pixel just past the lens's reach.  It fails
        # alone; observation 0 (3 rounds) and observation 2 (6 rounds) stop
        # when they converge, so each matches a call on it alone bit for bit.
        d = DistortionCoefficients(k1=-4e-7, p1=1e-6)
        batch = np.array([
            [[600.0, 350.0], [700.0, 380.0]],
            [[45.08, 237.77], [300.0, 300.0]],
            [[100.0, 300.0], [1200.0, 500.0]],
        ])
        und, failures = _undistort_uv(batch, default_k, d)
        assert failures[0] is None and failures[2] is None
        assert isinstance(failures[1], NonConvergent)
        assert "within 50 iterations" in str(failures[1])
        assert np.array_equal(und[1], batch[1])
        for i in (0, 2):
            alone, (failure,) = _undistort_uv(batch[i], default_k, d)
            assert failure is None
            assert np.array_equal(und[i], alone)
            assert not np.array_equal(und[i], batch[i])

    @pytest.mark.parametrize("k1_scale", [0.0, 1.0, 3.0, 4.0])
    def test_in_place_rounds_match_the_allocating_loop_on_sweep_batches(self, default_k, k1_scale):
        # Batches as a sweep builds them: 20 poses, three noise levels, the
        # mild lens with its k1 scaled, every pixel undistorted, visible or not.
        rng = np.random.default_rng(int(k1_scale))
        scene = SyntheticScene(Orientation(), SceneConstraints(c0=2.0, z0=3.0), default_k)
        poses = [
            Orientation(roll=rng.uniform(-0.1, 0.1), pitch=rng.uniform(0.4, 0.8))
            for _ in range(20)
        ]
        ideal = _line_pixels(scene, poses)
        d = DistortionCoefficients(k1=-1e-7 * k1_scale, p1=1e-6)
        uv, _ = _observe(
            scene, ideal, d, rng.standard_normal(ideal.shape), np.array([0.0, 0.5, 1.0])
        )
        batch = uv.reshape(-1, scene.n_points, 2)
        und, failures = _undistort_uv(batch, default_k, d)
        want, want_failures = undistort_reference(batch, default_k, d)
        assert und.tobytes() == want.tobytes()
        assert repr(failures) == repr(want_failures)

    def test_in_place_rounds_match_the_allocating_loop_on_random_lenses(self, default_k):
        # Random lenses, each coefficient zero with probability 0.3, on
        # pixels in and around the image and one observation up to 1e60
        # times as far out, with too few rounds as well as enough.
        # Observations converge, diverge, reach a folded branch or run out of
        # rounds, and must do so bit for bit as the allocating loop does.
        rng = np.random.default_rng(11)
        kinds = {"diverged": 0, "reached": 0, "did": 0}
        for _ in range(200):
            keep = rng.uniform(size=5) < 0.7
            coefficients = rng.uniform(-1.0, 1.0, size=5) * [1e-6, 3e-12, 1e-17, 4e-6, 4e-6]
            if not keep.any():
                continue
            d = DistortionCoefficients(*(coefficients * keep))
            batch = rng.uniform([-300.0, -300.0], [1580.0, 1020.0], size=(4, 3, 2))
            centre = [default_k.cx, default_k.cy]
            batch[3] = centre + (batch[3] - centre) * 10.0 ** rng.uniform(0.0, 60.0)
            for max_iter in (1, 2, 5, 50):
                und, failures = _undistort_uv(batch, default_k, d, max_iter=max_iter)
                want, want_failures = undistort_reference(batch, default_k, d, max_iter=max_iter)
                assert und.tobytes() == want.tobytes()
                assert repr(failures) == repr(want_failures)
                for failure in filter(None, failures):
                    kinds[str(failure).split()[1].rstrip(";")] += 1
        assert min(kinds.values()) > 50

    @pytest.mark.parametrize("shape, expected", [((3, 0, 2), [None] * 3), ((0, 5, 2), [])])
    @pytest.mark.parametrize(
        "d", [DistortionCoefficients(), DistortionCoefficients(k1=-1e-7, p1=1e-6)],
        ids=["no_lens", "mild_lens"],
    )
    def test_an_empty_batch_converges(self, default_k, d, shape, expected):
        # An observation of no pixel has nothing left to invert, with or
        # without a lens.
        und, failures = _undistort_uv(np.empty(shape), default_k, d)
        assert und.shape == shape and failures == expected

    def test_lens_kernels_leave_their_input_alone(self, default_k):
        # Every coefficient is non-zero, so every term is built, and one
        # observation fails.  Inputs are only read, and no output is a view
        # of them.
        d = DistortionCoefficients(k1=-3e-7, k2=1e-13, k3=-1e-19, p1=1e-6, p2=-1e-6)
        batch = np.random.default_rng(3).uniform([0.0, 0.0], [1280.0, 720.0], size=(6, 5, 2))
        batch[0, 0] = [5000.0, 5000.0]
        pixel = batch[1, 1].copy()
        before, pixel_before = batch.tobytes(), pixel.tobytes()
        und, failures = _undistort_uv(batch, default_k, d)
        assert failures[0] is not None and None in failures
        components = _distort_components(batch[..., 0], batch[..., 1], default_k, d)
        terms_before = [a.tobytes() for a in components[2:]]
        jacobian = _distort_jacobian(*components[2:], d)
        outputs = [und, _distort_uv(batch, default_k, d), *components, *jacobian]
        outputs += [_undistort_uv(pixel, default_k, d)[0], _distort_uv(pixel, default_k, d)]
        assert batch.tobytes() == before and pixel.tobytes() == pixel_before
        assert [a.tobytes() for a in components[2:]] == terms_before
        for out in outputs:
            assert not np.shares_memory(out, batch)
            assert not np.shares_memory(out, pixel)
        for a, b in itertools.combinations(components + jacobian, 2):
            assert not np.shares_memory(a, b)


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

    def test_rotation_xz_broadcasts_one_matrix_per_pair(self):
        thetas = np.array([[0.4, -1.1, 2.9]])
        lams = np.array([[0.05], [-0.3]])
        stack = rotation_xz(thetas, lams)
        assert stack.shape == (2, 3, 3, 3)
        for i, lam in enumerate(lams[:, 0].tolist()):
            for j, theta in enumerate(thetas[0].tolist()):
                assert np.array_equal(stack[i, j], rotation_xz(theta, lam))

    @given(theta=angles, lam=angles)
    @settings(deadline=None)
    def test_rotation_xz_orthogonal_unit_determinant(self, theta, lam):
        m = rotation_xz(theta, lam)
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(m) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Projection
# ---------------------------------------------------------------------------


class TestProject:
    """``_project_uv`` on single world points, with no rotation."""

    def test_on_axis_point_hits_principal_point(self, default_k, zero_d):
        p = _project_uv(np.array([0.0, 0.0, 1.0]), default_k, zero_d, rotation_xz(0.0, 0.0))
        assert p.tolist() == [640.0, 360.0]

    def test_similar_triangles(self, zero_d):
        k = Intrinsics(fx=1000.0, fy=1000.0, cx=0.0, cy=0.0)
        p = _project_uv(np.array([0.5, 0.0, 1.0]), k, zero_d, rotation_xz(0.0, 0.0))
        assert p.tolist() == [500.0, 0.0]

    def test_behind_camera_raises(self, default_k, zero_d):
        # The kernel marks the point NaN; ``camline project`` raises BehindCamera.
        p = _project_uv(np.array([0.0, 0.0, -1.0]), default_k, zero_d, rotation_xz(0.0, 0.0))
        assert np.isnan(p).all()

    def test_zero_depth_raises(self, default_k, zero_d):
        p = _project_uv(np.array([1.0, 1.0, 0.0]), default_k, zero_d, rotation_xz(0.0, 0.0))
        assert np.isnan(p).all()

    def test_identity_pose_reduces_to_pinhole(self, zero_d):
        k = Intrinsics(fx=1050.0, fy=995.0, cx=633.0, cy=351.5, skew=0.7)
        rng = np.random.default_rng(7)
        for _ in range(10):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            z = rng.uniform(0.5, 10.0)
            u, v = _project_uv(np.array([x, y, z]), k, zero_d, rotation_xz(0.0, 0.0))
            assert u == pytest.approx(k.fx * x / z + k.skew * y / z + k.cx, abs=1e-12)
            assert v == pytest.approx(k.fy * y / z + k.cy, abs=1e-12)
