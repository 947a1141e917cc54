"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from camline import (
    DistortionCoefficients,
    Intrinsics,
    Orientation,
    PixelPoint,
    SceneConstraints,
    SweepConfig,
    SyntheticScene,
    TooFewVisible,
    estimate_orientation,
    render_line,
    residual_z_spread,
    rotation_xz,
    sweep,
    undistort,
)
from camline.cli import main
from camline.core_geometry import _distort_uv, _normalize_uv, _project_uv, _undistort_uv
from camline.orientation_estimator import _fit_line, _pitch

from conftest import plane_points, rotation_x, rotation_z

IMAGE_W, IMAGE_H = 1280, 720


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {name}: {detail}")


def _sample_scenes(rng: np.random.Generator, count: int, k: Intrinsics, d: DistortionCoefficients):
    """Draw scenes from the acceptance pose/geometry ranges, skipping the
    (pose, geometry) combinations whose line falls outside the image."""
    scenes = []
    while len(scenes) < count:
        sc = SceneConstraints(c0=float(rng.uniform(0.5, 5.0)), z0=float(rng.uniform(1.0, 10.0)))
        gt = Orientation(
            roll=float(rng.uniform(math.radians(-15.0), math.radians(15.0))),
            pitch=float(rng.uniform(math.radians(5.0), math.radians(60.0))),
        )
        scene = SyntheticScene(
            ground_truth=gt,
            sc=sc,
            k=k,
            d=d,
            rng_seed=int(rng.integers(2**31)),
            image_width=IMAGE_W,
            image_height=IMAGE_H,
        )
        try:
            obs = render_line(scene)
        except TooFewVisible:
            continue
        scenes.append((scene, obs))
    return scenes


def test_criterion_1_closed_form_exactness(default_k, zero_d):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for scene, obs in _sample_scenes(rng, 500, default_k, zero_d):
        est = estimate_orientation(obs, default_k, zero_d, scene.sc)
        gt = scene.ground_truth
        worst = max(
            worst,
            abs(est.orientation.roll - gt.roll),
            abs(est.orientation.pitch - gt.pitch),
        )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 5.0
    _report(
        1,
        "closed-form exactness over 500 random scenes",
        ok,
        f"max angular error {worst:.3e} rad (limit 1e-8), {elapsed:.2f} s (limit 5 s)",
    )
    assert ok


def test_criterion_2_distortion_round_trip(default_k):
    rng = np.random.default_rng(202)
    radius = math.hypot(IMAGE_W / 2.0, IMAGE_H / 2.0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10):  # 10 random lenses x 100 pixels = 1000 round trips
        d = DistortionCoefficients(k1=float(rng.uniform(-1e-7, 1e-7)))
        for _ in range(100):
            r = radius * math.sqrt(rng.uniform())
            phi = rng.uniform(0.0, 2.0 * math.pi)
            p = PixelPoint(
                default_k.cx + r * math.cos(phi), default_k.cy + r * math.sin(phi)
            )
            q = undistort(p, default_k, d)
            u, v = _distort_uv(np.array([q.u, q.v]), default_k, d)
            worst = max(worst, math.hypot(u - p.u, v - p.v))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 1.0
    _report(
        2,
        "distort/undistort round trip over 1000 pixels",
        ok,
        f"max deviation {worst:.3e} px (limit 1e-6), {elapsed:.2f} s (limit 1 s)",
    )
    assert ok


def test_criterion_3_projection_back_projection_round_trip(default_k):
    rng = np.random.default_rng(303)
    results = {}
    for label, d, tol in (
        ("zero distortion", DistortionCoefficients(), 1e-9),
        ("with distortion", DistortionCoefficients(k1=-1e-8, k2=1e-16, p1=1e-9, p2=-1e-9), 1e-6),
    ):
        worst = 0.0
        n_done = 0
        while n_done < 1000:
            orientation = Orientation(
                roll=float(rng.uniform(math.radians(-15.0), math.radians(15.0))),
                pitch=float(rng.uniform(math.radians(5.0), math.radians(60.0))),
            )
            c0 = float(rng.uniform(0.5, 5.0))
            w = np.array([float(rng.uniform(-3.0, 3.0)), c0, float(rng.uniform(0.5, 10.0))])
            rot = rotation_xz(orientation.pitch, orientation.roll)
            # A point behind the camera projects to NaN and fails the image test.
            u, v = _project_uv(w, default_k, d, rot).tolist()
            if not (0.0 <= u < IMAGE_W and 0.0 <= v < IMAGE_H):
                continue
            und, (failure,) = _undistort_uv(np.array([u, v]), default_k, d)
            (x, _, z), missed = plane_points(_normalize_uv(und, default_k), rot, c0)
            assert failure is None and not missed
            worst = max(worst, abs(x - w[0]), abs(z - w[2]))
            n_done += 1
        results[label] = (worst, tol)
    ok = all(worst < tol for worst, tol in results.values())
    detail = "; ".join(
        f"{label}: max {worst:.3e} m (limit {tol:g})" for label, (worst, tol) in results.items()
    )
    _report(3, "projection/back-projection round trip, 1000 on-plane points each", ok, detail)
    assert ok


def test_criterion_4_analytic_special_cases():
    rng = np.random.default_rng(404)

    worst_pitch = 0.0
    for _ in range(100):
        sc = SceneConstraints(c0=float(rng.uniform(0.5, 5.0)), z0=float(rng.uniform(1.0, 10.0)))
        (pitch,) = _pitch([0.0], sc)
        worst_pitch = max(worst_pitch, abs(pitch - math.atan(sc.c0 / sc.z0)))

    worst_roll = 0.0
    for _ in range(100):
        y = float(rng.uniform(-0.5, 0.5))
        x1, x2 = sorted(rng.uniform(-0.7, 0.7, size=2))
        if x2 - x1 < 1e-3:
            continue
        (roll,), _ = _fit_line(np.array([[x1, y], [x2, y]]), np.ones(2, bool))
        worst_roll = max(worst_roll, abs(roll))

    worst_matrix = 0.0
    for _ in range(100):
        theta = float(rng.uniform(-1.5, 1.5))
        lam = float(rng.uniform(-1.5, 1.5))
        ct, st = math.cos(theta), math.sin(theta)
        cl, sl = math.cos(lam), math.sin(lam)
        explicit = np.array(
            [
                [cl, sl, 0.0],
                [-sl * ct, cl * ct, st],
                [sl * st, -cl * st, ct],
            ]
        )
        worst_matrix = max(worst_matrix, float(np.max(np.abs(rotation_xz(theta, lam) - explicit))))
        worst_matrix = max(
            worst_matrix,
            float(np.max(np.abs(rotation_xz(theta, lam) - rotation_x(theta) @ rotation_z(lam)))),
        )

    ok = worst_pitch <= 1e-12 and worst_roll <= 1e-12 and worst_matrix <= 1e-15
    _report(
        4,
        "analytic special cases",
        ok,
        f"pitch at y'=0: {worst_pitch:.1e} (limit 1e-12); horizontal-line roll: "
        f"{worst_roll:.1e} (limit 1e-12); combined-rotation entries: {worst_matrix:.1e} (limit 1e-15)",
    )
    assert ok


def test_criterion_5_depth_consistency(default_k, zero_d):
    rng = np.random.default_rng(505)
    scenes = _sample_scenes(rng, 100, default_k, zero_d)
    worst_spread = 0.0
    perturbation_always_worse = True
    for scene, obs in scenes:
        est = estimate_orientation(obs, default_k, zero_d, scene.sc)
        spread = est.residual_z_spread
        worst_spread = max(worst_spread, spread)
        for delta in (0.01, -0.01):
            perturbed = Orientation(
                roll=est.orientation.roll + delta, pitch=est.orientation.pitch
            )
            perturbed_spread, _ = residual_z_spread(
                obs, default_k, zero_d, perturbed, scene.sc.c0
            )
            if perturbed_spread <= spread:
                perturbation_always_worse = False
    ok = worst_spread < 1e-9 and perturbation_always_worse
    _report(
        5,
        "same-depth consistency across 100 scenes",
        ok,
        f"max spread at estimate {worst_spread:.3e} m (limit 1e-9); "
        f"roll perturbation +/-0.01 rad strictly increases spread: {perturbation_always_worse}",
    )
    assert ok


def test_criterion_6_cli_closed_loop(tmp_path, capsys):
    config = tmp_path / "camera.json"
    config.write_text(
        json.dumps(
            {
                "intrinsics": {"fx": 1000.0, "fy": 1000.0, "cx": 640.0, "cy": 360.0, "skew": 0.0},
                "distortion": {"k1": 0.0, "k2": 0.0, "p1": 0.0, "p2": 0.0, "k3": 0.0},
                "scene": {"c0": 2.0, "z0": 3.0},
            }
        )
    )
    sim_args = ["--roll", "4.25", "--pitch", "31.0", "--noise", "0", "--seed", "99"]

    line_a, line_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", str(config), str(line_a), *sim_args]) == 0
    assert main(["simulate", str(config), str(line_b), *sim_args]) == 0
    byte_identical = (
        line_a.read_bytes() == line_b.read_bytes()
        and (tmp_path / "a.truth.json").read_bytes() == (tmp_path / "b.truth.json").read_bytes()
    )

    result_path = tmp_path / "result.json"
    assert main(["estimate", str(config), str(line_a), "-o", str(result_path)]) == 0
    result = json.loads(result_path.read_text())
    roll_err = abs(result["roll_deg"] - 4.25)
    pitch_err = abs(result["pitch_deg"] - 31.0)
    capsys.readouterr()

    ok = byte_identical and roll_err < 1e-6 and pitch_err < 1e-6
    _report(
        6,
        "CLI simulate -> estimate closed loop",
        ok,
        f"roll error {roll_err:.3e} deg, pitch error {pitch_err:.3e} deg (limit 1e-6); "
        f"byte-identical reruns: {byte_identical}",
    )
    assert ok


def test_criterion_7_noise_sweep_characterization(default_k, sc):
    base = SyntheticScene(
        ground_truth=Orientation(),  # overwritten per trial
        sc=sc,
        k=default_k,
    )
    aim = math.atan2(sc.c0, sc.z0)
    config = SweepConfig(
        base_scene=base,
        noise_sigmas=(0.0, 0.25, 0.5, 1.0),
        roll_range=(math.radians(-5.0), math.radians(5.0)),
        pitch_range=(aim - math.radians(5.0), aim + math.radians(5.0)),
        seeds_per_cell=500,
        base_seed=7000,
    )
    start = time.perf_counter()
    reports = sweep(config)
    deterministic = reports == sweep(config)
    elapsed = time.perf_counter() - start

    n_failed = sum(1 for r in reports if r.failure is not None)
    medians = []
    for sigma in config.noise_sigmas:
        errs = [abs(r.pitch_error) for r in reports if r.noise_sigma == sigma and r.failure is None]
        medians.append(float(np.median(errs)))
    non_decreasing = all(a <= b for a, b in zip(medians, medians[1:]))

    ok = deterministic and non_decreasing and n_failed == 0 and len(reports) == 2000
    medians_text = ", ".join(f"{m:.2e}" for m in medians)
    _report(
        7,
        "noise sweep (sigma in {0, 0.25, 0.5, 1.0} px x 500 seeds)",
        ok,
        f"median |pitch_error| by sigma: [{medians_text}] rad, non-decreasing: {non_decreasing}; "
        f"deterministic: {deterministic}; failures: {n_failed}; {elapsed:.2f} s for 2x2000 trials",
    )
    assert ok
