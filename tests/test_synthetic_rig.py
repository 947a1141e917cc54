"""Tests for the synthetic rendering rig and Monte-Carlo sweep."""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from camline import (
    ConfigError,
    DistortionCoefficients,
    GeometryError,
    Orientation,
    SceneConstraints,
    SweepConfig,
    SyntheticScene,
    TooFewVisible,
    estimate_orientation,
    render_line,
    rotation_xz,
    sweep,
    write_sweep_csv,
)
from camline.core_geometry import _normalize_uv, _undistort_uv
from camline.synthetic_rig import _observe

from conftest import plane_points


@pytest.fixture
def base_scene(default_k, sc):
    return SyntheticScene(
        ground_truth=Orientation(roll=0.03, pitch=math.atan2(sc.c0, sc.z0)),
        sc=sc,
        k=default_k,
    )


def run_trial(scene):
    """One trial by hand, as the sweep replay runs it: render, then estimate."""
    obs = render_line(scene)
    return obs, estimate_orientation(obs, scene.k, scene.d, scene.sc)


class TestSceneValidation:
    def test_needs_two_points(self, default_k, sc):
        with pytest.raises(ValueError, match="n_points"):
            SyntheticScene(ground_truth=Orientation(), sc=sc, k=default_k, n_points=1)

    def test_rejects_negative_noise(self, default_k, sc):
        with pytest.raises(ValueError, match="noise_sigma"):
            SyntheticScene(ground_truth=Orientation(), sc=sc, k=default_k, noise_sigma=-0.1)

    def test_rejects_non_positive_extent(self, default_k, sc):
        with pytest.raises(ValueError, match="line_x_extent"):
            SyntheticScene(ground_truth=Orientation(), sc=sc, k=default_k, line_x_extent=0.0)

    @pytest.mark.parametrize("field", ["image_width", "image_height"])
    @pytest.mark.parametrize("value", [0, -1, 640.0, True])
    def test_image_size_must_be_a_positive_int(self, default_k, sc, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticScene(ground_truth=Orientation(), sc=sc, k=default_k, **{field: value})

    @pytest.mark.parametrize(
        "field, value", [("n_points", 50.0), ("n_points", True), ("rng_seed", -1),
                         ("rng_seed", 1.5), ("rng_seed", False)],
    )
    def test_counts_must_be_ints_in_range(self, default_k, sc, field, value):
        with pytest.raises(ValueError, match=field):
            SyntheticScene(ground_truth=Orientation(), sc=sc, k=default_k, **{field: value})

    @pytest.mark.parametrize("field", ["line_x_extent", "noise_sigma"])
    @pytest.mark.parametrize("value", ["3", None, True, np.True_])
    def test_lengths_must_be_real_numbers(self, default_k, sc, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
            SyntheticScene(ground_truth=Orientation(), sc=sc, k=default_k, **{field: value})

    def test_line_behind_camera_rejected_by_constraints(self):
        with pytest.raises(ValueError, match="z0"):
            SceneConstraints(c0=2.0, z0=-3.0)


class TestRenderLine:
    def test_aimed_camera_centres_the_line(self, default_k, sc):
        # Pitch aimed exactly at the line: the X=0 point lands on the
        # principal point.
        k = default_k
        scene = SyntheticScene(
            ground_truth=Orientation(roll=0.0, pitch=math.atan2(sc.c0, sc.z0)),
            sc=sc,
            k=k,
            n_points=101,
        )
        obs = render_line(scene)
        uv = obs.uv_array()
        d = np.hypot(uv[:, 0] - k.cx, uv[:, 1] - k.cy)
        assert d.min() < 1e-9

    def test_zero_roll_gives_constant_v(self, base_scene):
        scene = replace(base_scene, ground_truth=Orientation(roll=0.0, pitch=0.55))
        uv = render_line(scene).uv_array()
        assert np.ptp(uv[:, 1]) < 1e-9

    def test_same_seed_is_bit_identical(self, base_scene):
        scene = replace(base_scene, noise_sigma=0.7, rng_seed=123)
        a = render_line(scene).uv_array()
        b = render_line(scene).uv_array()
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, base_scene):
        a = render_line(replace(base_scene, noise_sigma=0.7, rng_seed=1)).uv_array()
        b = render_line(replace(base_scene, noise_sigma=0.7, rng_seed=2)).uv_array()
        assert not np.array_equal(a, b)

    def test_level_camera_sees_nothing(self, base_scene):
        with pytest.raises(TooFewVisible):
            render_line(replace(base_scene, ground_truth=Orientation(roll=0.0, pitch=0.0)))

    def test_a_sigma_near_the_float_limit_leaves_no_point_visible(self, base_scene):
        # sigma * noise overflows, or lands far outside the image, with no numpy warning.
        with pytest.raises(TooFewVisible, match="^only 0 of 101 "):
            render_line(replace(base_scene, noise_sigma=1e308))
        config = SweepConfig(base_scene, (1e308,), (-0.05, 0.05), (0.5, 0.65), seeds_per_cell=2)
        failures = [r.failure for r in sweep(config)]
        assert len(failures) == 2 and all(f.startswith("TooFewVisible: only 0 ") for f in failures)

    def test_an_extent_near_the_float_limit_leaves_too_few_visible(self, base_scene):
        # The line's width overflows in linspace, with no numpy warning.
        with pytest.raises(TooFewVisible):
            render_line(replace(base_scene, line_x_extent=1e308))

    def test_image_size_comes_from_the_scene(self, base_scene):
        full = render_line(base_scene).uv_array()
        narrow = render_line(replace(base_scene, image_width=800)).uv_array()
        assert full[:, 0].max() >= 800.0
        assert narrow[:, 0].max() < 800.0
        assert len(narrow) == np.count_nonzero(full[:, 0] < 800.0)
        with pytest.raises(TooFewVisible, match="1280x1 image"):
            render_line(replace(base_scene, image_height=1))

    def test_render_then_back_project_recovers_world_points(self, default_k, sc):
        # Fully visible, noise-free, distorted scene: inverting the forward
        # model under the ground-truth rotation must reproduce the line.
        k = default_k
        d = DistortionCoefficients(k1=-1e-8)
        scene = SyntheticScene(
            ground_truth=Orientation(roll=0.02, pitch=math.atan2(sc.c0, sc.z0)),
            sc=sc,
            k=k,
            d=d,
            line_x_extent=1.0,
            n_points=21,
        )
        obs = render_line(scene)
        assert len(obs) == scene.n_points
        rot = rotation_xz(scene.ground_truth.pitch, scene.ground_truth.roll)
        xs = np.linspace(-1.0, 1.0, 21)
        for x_true, uv in zip(xs, obs.uv_array()):
            und, (failure,) = _undistort_uv(uv, k, d)
            (x, _, z), missed = plane_points(_normalize_uv(und, k), rot, sc.c0)
            assert failure is None and not missed
            assert x == pytest.approx(x_true, abs=1e-6)
            assert z == pytest.approx(sc.z0, abs=1e-6)

    def test_visible_image_is_half_open(self, base_scene):
        # With no lens and no noise a pixel is observed where it is rendered:
        # the first row and column are inside, the edge at w or h and anything
        # before 0 or NaN are not.
        w, h = base_scene.image_width, base_scene.image_height
        kept = [(0.0, 0.0), (0.0, h - 1e-9), (w - 1e-9, 0.0), (w / 2, h / 2)]
        dropped = [(w, 0.0), (0.0, h), (-1e-9, 0.0), (0.0, -1e-9), (math.nan, 0.0), (0.0, math.nan)]
        ideal = np.array([kept + dropped])
        uv, visible = _observe(base_scene, ideal, DistortionCoefficients(),
                               np.zeros(ideal.shape), np.array([0.0]))
        assert visible.tolist() == [[[True] * len(kept) + [False] * len(dropped)]]
        assert uv[0, 0, :len(kept)].tolist() == [list(p) for p in kept]

    def test_points_past_the_fold_are_dropped(self, default_k, sc):
        # At this pose 4 of the 101 points have an ideal radius beyond the
        # fold radius 1/sqrt(3|k1|) = 913 px; distortion folds them back into
        # the image, where undistortion would return other points.
        scene = SyntheticScene(
            ground_truth=Orientation(roll=0.0033794683234061873, pitch=0.8996420761884567),
            sc=sc,
            k=default_k,
            d=DistortionCoefficients(k1=-4e-7, p1=1e-6),
        )
        obs, est = run_trial(scene)
        assert len(obs) < scene.n_points
        assert abs(est.orientation.roll - scene.ground_truth.roll) < 1e-8
        assert abs(est.orientation.pitch - scene.ground_truth.pitch) < 1e-8


class TestRunTrial:
    def test_zero_noise_is_closed_form_exact(self, base_scene):
        obs, est = run_trial(base_scene)
        gt = base_scene.ground_truth
        assert abs(est.orientation.roll - gt.roll) < 1e-8
        assert abs(est.orientation.pitch - gt.pitch) < 1e-8
        assert est.residual_z_spread < 1e-9
        assert len(obs) <= base_scene.n_points

    def test_reports_are_deterministic(self, base_scene):
        scene = replace(base_scene, noise_sigma=0.4, rng_seed=17)
        assert run_trial(scene) == run_trial(scene)


class TestSweep:
    def _config(self, base_scene, **kwargs):
        defaults = dict(
            base_scene=base_scene,
            noise_sigmas=(0.0, 0.5),
            roll_range=(-0.05, 0.05),
            pitch_range=(0.5, 0.65),
            seeds_per_cell=3,
            base_seed=9,
        )
        defaults.update(kwargs)
        return SweepConfig(**defaults)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("noise_sigmas", (0.5, -0.1)),
            ("noise_sigmas", (math.nan,)),
            ("k1_scales", (1.0, math.inf)),
            ("seeds_per_cell", -1),
            ("roll_range", (-0.1, math.nan)),
            ("pitch_range", (0.4, math.inf)),
            ("seeds_per_cell", 2.0),
            ("seeds_per_cell", True),
            ("base_seed", -1),
            ("base_seed", 1.5),
            ("roll_range", (0.1, 0.0)),
            ("pitch_range", (0.65, 0.5)),
            ("roll_range", (0.1,)),
        ],
    )
    def test_bad_axis_raises(self, base_scene, field, value):
        # The config rejects the value when it is built, before any trial runs.
        with pytest.raises(ValueError, match=field.split("_")[0]):
            sweep(self._config(base_scene, **{field: value}))

    @pytest.mark.parametrize("field", ["noise_sigmas", "k1_scales", "roll_range", "pitch_range"])
    @pytest.mark.parametrize("value", ["0.5", None, False])
    def test_axis_values_must_be_real_numbers(self, base_scene, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number, got {value!r}$"):
            self._config(base_scene, **{field: (0.5, value)})

    @pytest.mark.parametrize("field", ["roll_range", "pitch_range"])
    def test_a_range_of_infinite_width_is_refused(self, base_scene, field):
        # Both ends are finite, but numpy cannot draw from a range this wide.
        with pytest.raises(ConfigError, match=f"^{field} must have a finite width hi - lo, got "):
            self._config(base_scene, **{field: (-1e308, 1e308)})

    def test_a_k1_product_past_the_float_range_is_refused(self, base_scene):
        # Each scale is finite, but the lens k1 that sweep builds from it,
        # base k1 * scale, is not: the config names it before any trial runs.
        scene = replace(base_scene, d=DistortionCoefficients(k1=-10.0))
        with pytest.raises(
            ConfigError, match=r"^k1_scales\[1\] \* base_scene\.d\.k1 must be finite, got -inf$"
        ):
            self._config(scene, k1_scales=(1.0, 1e308))

    def test_empty_grid(self, base_scene):
        assert sweep(self._config(base_scene, noise_sigmas=())) == []
        assert sweep(self._config(base_scene, seeds_per_cell=0)) == []

    def test_cardinality_and_grid_major_order(self, base_scene):
        reports = sweep(self._config(base_scene))
        assert len(reports) == 6
        assert [r.noise_sigma for r in reports] == [0.0, 0.0, 0.0, 0.5, 0.5, 0.5]
        assert [r.seed for r in reports] == [9, 10, 11, 9, 10, 11]

    def test_pose_is_shared_across_cells(self, base_scene):
        reports = sweep(self._config(base_scene))
        for j in range(3):
            assert reports[j].roll_gt == reports[3 + j].roll_gt
            assert reports[j].pitch_gt == reports[3 + j].pitch_gt

    def test_sweep_is_deterministic(self, base_scene):
        config = self._config(base_scene)
        assert sweep(config) == sweep(config)

    def test_failures_are_recorded_not_raised(self, base_scene):
        # Pitch range around zero: the camera never sees the line.
        reports = sweep(self._config(base_scene, pitch_range=(0.0, 0.001), seeds_per_cell=2))
        assert len(reports) == 4
        for r in reports:
            assert r.failure is not None and "TooFewVisible" in r.failure
            assert math.isnan(r.roll_error)

    def test_noise_degrades_pitch_monotonically(self, base_scene):
        config = self._config(
            base_scene, noise_sigmas=(0.0, 0.3, 1.0), seeds_per_cell=60, base_seed=5
        )
        reports = sweep(config)
        medians = []
        for sigma in config.noise_sigmas:
            errs = [abs(r.pitch_error) for r in reports if r.noise_sigma == sigma]
            medians.append(float(np.median(errs)))
        assert medians[0] <= medians[1] <= medians[2]

    def test_trials_render_into_the_scene_image(self, base_scene):
        # A replay of each trial through render_line(scene) sees the same image.
        scene = replace(base_scene, image_width=800, image_height=600)
        reports = sweep(self._config(scene, noise_sigmas=(0.5,)))
        for r in reports:
            gt = Orientation(roll=r.roll_gt, pitch=r.pitch_gt)
            replay = replace(scene, ground_truth=gt, noise_sigma=0.5, rng_seed=r.seed)
            assert r.n_visible == len(render_line(replay))
            assert r.n_visible < len(render_line(replace(replay, image_width=1280)))

    def test_matches_a_per_trial_replay(self, base_scene):
        # Replays every trial through render_line + estimate_orientation,
        # seeded as SweepConfig documents, including a config whose camera
        # never sees the line.  With base seed 2 one noisy trial has a pixel
        # past the reach of the k1 = -4e-7 lens, so the NonConvergent path is
        # compared too.
        scene = replace(base_scene, d=DistortionCoefficients(k1=-1e-7, p1=1e-6))
        seen = self._config(
            scene,
            noise_sigmas=(0.0, 0.5, 1.0),
            roll_range=(-0.1, 0.1),
            pitch_range=(0.4, 0.8),
            seeds_per_cell=40,
            base_seed=2,
            k1_scales=(0.0, 1.0, 3.0, 4.0),
        )
        unseen = self._config(scene, pitch_range=(0.0, 0.001), k1_scales=(1.0, 4.0))
        for config in (seen, unseen):
            reports = sweep(config)
            replayed = []
            for sigma in config.noise_sigmas:
                for k1_scale in config.k1_scales:
                    d = replace(scene.d, k1=scene.d.k1 * k1_scale)
                    for j in range(config.seeds_per_cell):
                        pose_rng = np.random.default_rng((config.base_seed, j))
                        roll = float(pose_rng.uniform(*config.roll_range))
                        pitch = float(pose_rng.uniform(*config.pitch_range))
                        trial = replace(
                            scene,
                            ground_truth=Orientation(roll=roll, pitch=pitch),
                            d=d,
                            noise_sigma=sigma,
                            rng_seed=config.base_seed + j,
                        )
                        try:
                            obs = render_line(trial)
                            est = estimate_orientation(obs, trial.k, d, trial.sc)
                        except GeometryError as exc:
                            replayed.append((trial, 0, f"{type(exc).__name__}: {exc}", None))
                        else:
                            replayed.append((trial, len(obs), None, est))
            assert len(reports) == len(replayed)
            for r, (trial, n_visible, failure, est) in zip(reports, replayed):
                gt = trial.ground_truth
                assert (r.seed, r.noise_sigma, r.roll_gt, r.pitch_gt) == (
                    trial.rng_seed, trial.noise_sigma, gt.roll, gt.pitch
                )
                assert (r.n_visible, r.failure) == (n_visible, failure)
                if est is None:
                    assert math.isnan(r.roll_error) and math.isnan(r.residual_z_spread)
                else:
                    assert abs(r.roll_error - (est.orientation.roll - gt.roll)) <= 1e-12
                    assert abs(r.pitch_error - (est.orientation.pitch - gt.pitch)) <= 1e-12
                    assert abs(r.residual_z_spread - est.residual_z_spread) <= 1e-12
        outcomes = {r.failure.split(":")[0] if r.failure else None for r in sweep(seen)}
        assert outcomes == {None, "NonConvergent"}
        assert {r.failure.split(":")[0] for r in sweep(unseen)} == {"TooFewVisible"}

    def test_reports_share_the_config_objects(self, base_scene):
        # The sweep keeps one object per axis value, seed and pose, as a
        # per-trial loop over the config would, so cached reports stay small.
        config = self._config(base_scene, k1_scales=(1.0, 2.0))
        reports = sweep(config)
        n = config.seeds_per_cell
        for i, r in enumerate(reports):
            assert r.noise_sigma is config.noise_sigmas[i // (2 * n)]
            assert r.k1_scale is config.k1_scales[i // n % 2]
            first = reports[i % n]
            assert r.seed is first.seed and r.roll_gt is first.roll_gt
            assert r.pitch_gt is first.pitch_gt
            assert type(r.n_visible) is int and type(r.roll_error) is float

    def test_k1_scale_axis(self, base_scene):
        scene = replace(base_scene, d=DistortionCoefficients(k1=-1e-8))
        reports = sweep(
            self._config(scene, noise_sigmas=(0.0,), k1_scales=(0.0, 1.0, 2.0), seeds_per_cell=1)
        )
        assert [r.k1_scale for r in reports] == [0.0, 1.0, 2.0]
        for r in reports:
            assert r.failure is None
            assert abs(r.roll_error) < 1e-6

    def test_strong_lens_cells_converge(self, base_scene):
        # At these poses every rendered pixel has an ideal radius of at most
        # about 878 px, inside the fold radius (913 px at scale 4), so every
        # noise-free trial must undistort and be exact.
        scene = replace(base_scene, d=DistortionCoefficients(k1=-1e-7, p1=1e-6))
        reports = sweep(
            self._config(
                scene,
                noise_sigmas=(0.0,),
                k1_scales=(3.0, 4.0),
                roll_range=(-0.1, 0.1),
                pitch_range=(0.4, 0.8),
                seeds_per_cell=20,
            )
        )
        assert len(reports) == 40
        for r in reports:
            assert r.failure is None
            assert abs(r.roll_error) < 1e-8
            assert abs(r.pitch_error) < 1e-8


def test_scaled_standard_normal_is_the_normal_draw():
    # render_line and sweep add sigma * standard_normal(...) where a trial
    # used to add normal(0, sigma, ...); the sweep draws the standard normals
    # once and scales them per noise level, so the two must agree bit for bit.
    uv = np.random.default_rng(0).uniform(0.0, 1280.0, size=(101, 2))
    for seed in range(50):
        for sigma in (0.0, 0.25, 0.5, 1.0, 1.7):
            a = uv + np.random.default_rng(seed).normal(0.0, sigma, size=uv.shape)
            b = uv + sigma * np.random.default_rng(seed).standard_normal(uv.shape)
            assert np.array_equal(a, b)


class TestSweepCsv:
    def test_header_and_round_trip(self, base_scene, tmp_path):
        reports = sweep(
            SweepConfig(
                base_scene=base_scene,
                noise_sigmas=(0.0, 0.25),
                roll_range=(-0.05, 0.05),
                pitch_range=(0.5, 0.65),
                seeds_per_cell=2,
                base_seed=3,
            )
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        text = path.read_text()
        assert text.splitlines()[0] == (
            "seed,noise_sigma,k1_scale,roll_gt,pitch_gt,"
            "roll_error,pitch_error,residual_z_spread,n_visible,failure"
        )
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(reports)
        for row, report in zip(rows, reports):
            assert int(row["seed"]) == report.seed
            assert float(row["noise_sigma"]) == report.noise_sigma
            assert float(row["roll_error"]) == report.roll_error
            assert float(row["pitch_error"]) == report.pitch_error
            assert int(row["n_visible"]) == report.n_visible
            assert row["failure"] == ""

    def test_int_axis_values_write_as_floats(self, base_scene, tmp_path):
        reports = sweep(
            SweepConfig(
                base_scene=base_scene,
                noise_sigmas=(0, 1),
                roll_range=(-0.05, 0.05),
                pitch_range=(0.5, 0.65),
                seeds_per_cell=1,
                k1_scales=(1,),
            )
        )
        # A failed trial writes its axis values the same way.
        reports += sweep(
            SweepConfig(
                base_scene=base_scene,
                noise_sigmas=(0,),
                roll_range=(-0.05, 0.05),
                pitch_range=(0.0, 0.001),
                seeds_per_cell=1,
                k1_scales=(2,),
            )
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["noise_sigma"], row["k1_scale"]) for row in rows] == [
            ("0.0", "1.0"), ("1.0", "1.0"), ("0.0", "2.0")
        ]
        assert rows[-1]["failure"].startswith("TooFewVisible: ")

    def test_failure_round_trips(self, base_scene, tmp_path):
        # Pitch range around zero: the camera never sees the line.
        reports = sweep(
            SweepConfig(
                base_scene=base_scene,
                noise_sigmas=(0.0,),
                roll_range=(-0.05, 0.05),
                pitch_range=(0.0, 0.001),
                seeds_per_cell=2,
            )
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["failure"] for row in rows] == [r.failure for r in reports]
        assert all(row["failure"].startswith("TooFewVisible: ") for row in rows)

    def test_writing_is_deterministic(self, base_scene, tmp_path):
        reports = sweep(
            SweepConfig(
                base_scene=base_scene,
                noise_sigmas=(0.5,),
                roll_range=(-0.05, 0.05),
                pitch_range=(0.5, 0.65),
                seeds_per_cell=2,
            )
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(reports, a)
        write_sweep_csv(reports, b)
        assert a.read_bytes() == b.read_bytes()
