"""Tests for the synthetic rendering rig and Monte-Carlo sweep."""

from __future__ import annotations

import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from camline import (
    DistortionCoefficients,
    Orientation,
    SceneConstraints,
    SweepConfig,
    SyntheticScene,
    TooFewVisible,
    default_intrinsics,
    render_line,
    rotation_matrix,
    run_trial,
    sweep,
    undistort_then_back_project,
    write_sweep_csv,
)
from camline.synthetic_rig import SWEEP_CSV_HEADER


@pytest.fixture
def base_scene(sc):
    return SyntheticScene(
        ground_truth=Orientation(roll=0.03, pitch=math.atan2(sc.c0, sc.z0)),
        sc=sc,
        k=default_intrinsics(),
    )


class TestSceneValidation:
    def test_needs_two_points(self, sc):
        with pytest.raises(ValueError, match="n_points"):
            SyntheticScene(ground_truth=Orientation(), sc=sc, k=default_intrinsics(), n_points=1)

    def test_rejects_negative_noise(self, sc):
        with pytest.raises(ValueError, match="noise_sigma"):
            SyntheticScene(
                ground_truth=Orientation(), sc=sc, k=default_intrinsics(), noise_sigma=-0.1
            )

    def test_rejects_non_positive_extent(self, sc):
        with pytest.raises(ValueError, match="line_x_extent"):
            SyntheticScene(
                ground_truth=Orientation(), sc=sc, k=default_intrinsics(), line_x_extent=0.0
            )

    def test_line_behind_camera_rejected_by_constraints(self):
        with pytest.raises(ValueError, match="z0"):
            SceneConstraints(c0=2.0, z0=-3.0)


class TestRenderLine:
    def test_aimed_camera_centres_the_line(self, sc):
        # Pitch aimed exactly at the line: the X=0 point lands on the
        # principal point.
        k = default_intrinsics()
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

    def test_render_then_back_project_recovers_world_points(self, sc):
        # Fully visible, noise-free, distorted scene: inverting the forward
        # model under the ground-truth rotation must reproduce the line.
        k = default_intrinsics()
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
        rot = rotation_matrix(scene.ground_truth)
        xs = np.linspace(-1.0, 1.0, 21)
        for x_true, pix in zip(xs, obs.pixels):
            p = undistort_then_back_project(pix, k, d, rot, sc.c0)
            assert p.x == pytest.approx(x_true, abs=1e-6)
            assert p.z == pytest.approx(sc.z0, abs=1e-6)


class TestRunTrial:
    def test_zero_noise_is_closed_form_exact(self, base_scene):
        report = run_trial(base_scene)
        assert abs(report.roll_error) < 1e-8
        assert abs(report.pitch_error) < 1e-8
        assert report.residual_z_spread < 1e-9
        assert report.n_visible <= base_scene.n_points
        assert report.seed == base_scene.rng_seed
        assert report.failure is None

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
        assert text.splitlines()[0] == ",".join(SWEEP_CSV_HEADER)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(reports)
        for row, report in zip(rows, reports):
            assert int(row["seed"]) == report.seed
            assert float(row["noise_sigma"]) == report.noise_sigma
            assert float(row["roll_error"]) == report.roll_error
            assert float(row["pitch_error"]) == report.pitch_error
            assert int(row["n_visible"]) == report.n_visible

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
