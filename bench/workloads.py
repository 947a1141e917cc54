"""The four camline workloads, driven through the public API from outside.

Every workload renders its own inputs from the run's seed, times a closed
loop with one caller, checks each output and counts every failure by
exception name.  In a traced run the loop alternates untraced and traced
passes (their difference is the tracing overhead), and a census then
measures every module on the workload's own inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from camline import (
    CameraConfig,
    DistortionCoefficients,
    GeometryError,
    NonConvergent,
    Orientation,
    PixelPoint,
    ReferenceLineObservation,
    SweepConfig,
    SyntheticScene,
    TrialReport,
    central_pixel,
    estimate_orientation,
    load_camera_config,
    render_line,
    residual_z_spread,
    sweep,
    undistort,
    write_sweep_csv,
)
from camline.cli import main as cli_main

from harness import CorrectnessError, OpStats, Tracer, check_exact, check_same

# The scene every workload shares: a 1280x720 camera 2 m above the ground
# plane, looking at a line 3 m ahead.
INTRINSICS = {"fx": 1000.0, "fy": 1000.0, "cx": 640.0, "cy": 360.0, "skew": 0.0}
SCENE = {"c0": 2.0, "z0": 3.0}
LENSES = {
    "none": {"k1": 0.0, "k2": 0.0, "p1": 0.0, "p2": 0.0, "k3": 0.0},
    # About 14 undistortion iterations.
    "mild": {"k1": -1e-7, "k2": 0.0, "p1": 1e-6, "p2": 0.0, "k3": 0.0},
    # Up to about 44 iterations; some observations fail with NonConvergent.
    "strong": {"k1": -3e-7, "k2": 0.0, "p1": 1e-6, "p2": 0.0, "k3": 0.0},
}
ROLL_RANGE = (-0.1, 0.1)
PITCH_RANGE = (0.4, 0.8)
NOISE_SIGMAS = (0.0, 0.5, 1.0)
N_POINTS = SyntheticScene.__dataclass_fields__["n_points"].default

# Poses sit on a jittered POSE_GRID x POSE_GRID roll/pitch grid, so every
# seed covers the pose range evenly and the failure and accuracy ratios vary
# little from seed to seed.
POSE_GRID = 14

# sweep_grid scales the mild lens's k1 by these factors.  Scale 4
# (k1 = -4e-7) fails every trial today although the image lies inside the
# fold radius; it stays in on purpose.
SWEEP_K1_SCALES = (0.0, 1.0, 3.0, 4.0)
SWEEP_SEEDS_PER_CALL = 10
# Calls go to fresh seeds rather than repeating a few: the share of failing
# trials, and with it the cost per trial, depends on the poses drawn, and a
# run of about 70 calls averages it over 700 poses.
SWEEP_CALLS = 400  # more than any run makes
SWEEP_CENSUS_CALLS = 10

# cli_estimate line files; more than any run gets through.
CLI_FILES = 150

# Exception names a failed op can carry; each gets a per-layer count.
FAIL_NAMES = (
    "NonConvergent",
    "DegenerateLine",
    "DegenerateGeometry",
    "NoHorizonIntersection",
    "TooFewVisible",
)

# What the ``camline`` console script runs, so a child process uses the
# checkout's sources without an installed package.
CLI_STUB = "import sys; from camline.cli import main; sys.exit(main())"

CENSUS_ITEMS = 24  # observations whose undistortion iterations are counted
CENSUS_REPS = 5
MAX_ITER = 50  # undistort's default iteration cap


class NullTracer(Tracer):
    """A tracer that records nothing: the untraced side of every loop."""

    def begin(self, name: str, parent: int = 0) -> int:
        return 0

    def end(self, span_id: int, status: str = "ok") -> None:
        pass

    def call(self, name: str, fn, *args, parent: int = 0, **kwargs):
        return fn(*args, **kwargs)


UNTRACED = NullTracer()


@dataclass(frozen=True)
class Item:
    """One rendered observation with the scene that produced it."""

    uv: np.ndarray
    roll: float
    pitch: float
    sigma: float
    d: DistortionCoefficients


@dataclass
class Context:
    """Per-run state: where to write, the seed, and the set-up tracer."""

    root: Path
    work: Path
    seed: int
    tracer: Tracer
    visible: list[int]


def crashed(stats: OpStats, exc: Exception, ops: int = 1) -> None:
    """Count ``ops`` ops that raised ``exc``, which is not a camline
    ``GeometryError``; print its traceback the first time it occurs."""
    name = type(exc).__name__
    if not stats.crashes[name]:
        traceback.print_exception(exc)
    stats.fail(name, ops)


def write_config(path: Path, distortion: dict) -> Path:
    doc = {"intrinsics": INTRINSICS, "distortion": distortion, "scene": SCENE}
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def jittered_poses(seed: int) -> list[tuple[float, float]]:
    """POSE_GRID**2 (roll, pitch) pairs, one per grid cell, in random order."""
    rng = np.random.default_rng((seed, 1))
    jitter = rng.uniform(size=(POSE_GRID, POSE_GRID, 2))
    poses = []
    for i in range(POSE_GRID):
        for j in range(POSE_GRID):
            u = (i + jitter[i, j, 0]) / POSE_GRID
            v = (j + jitter[i, j, 1]) / POSE_GRID
            poses.append(
                (
                    ROLL_RANGE[0] + u * (ROLL_RANGE[1] - ROLL_RANGE[0]),
                    PITCH_RANGE[0] + v * (PITCH_RANGE[1] - PITCH_RANGE[0]),
                )
            )
    return [poses[i] for i in rng.permutation(len(poses))]


def render_corpus(ctx: Context, configs: dict[str, CameraConfig], n_poses: int) -> list[Item]:
    """Each pose at every noise level through every lens, interleaved.

    The lenses of one pose and noise level share a noise seed, so they see
    the same scene; the noise levels draw independently.
    """
    items = []
    for i, (roll, pitch) in enumerate(jittered_poses(ctx.seed)[:n_poses]):
        for s, sigma in enumerate(NOISE_SIGMAS):
            for cfg in configs.values():
                scene = SyntheticScene(
                    ground_truth=Orientation(roll=roll, pitch=pitch),
                    sc=cfg.scene,
                    k=cfg.intrinsics,
                    d=cfg.distortion,
                    noise_sigma=sigma,
                    rng_seed=ctx.seed * 100_000 + i * len(NOISE_SIGMAS) + s,
                )
                obs = ctx.tracer.call("synthetic_rig.render_line", render_line, scene)
                ctx.visible.append(len(obs))
                items.append(Item(obs.uv_array(), roll, pitch, sigma, cfg.distortion))
    return items


class Workload:
    """A closed loop over one workload's ops.

    ``setup`` builds the inputs from the seed; ``run_pass`` runs the next
    ops, checks them and records them; ``rewind`` makes the next pass start
    from the first input again.  ``items`` are the observations the
    per-layer census probes.
    """

    name = ""
    lenses: tuple[str, ...] = ()

    def setup(self, ctx: Context) -> None:
        self.config_paths = {
            lens: write_config(ctx.work / f"camera-{lens}.json", LENSES[lens])
            for lens in self.lenses
        }
        self.configs = {
            lens: ctx.tracer.call("config.load_camera_config", load_camera_config, path)
            for lens, path in self.config_paths.items()
        }
        cfg = next(iter(self.configs.values()))
        self.k, self.sc = cfg.intrinsics, cfg.scene

    def run_pass(self, tracer: Tracer, stats: OpStats) -> None:
        raise NotImplementedError

    def rewind(self) -> None:
        self.next_index = 0

    def items(self) -> list[Item]:
        raise NotImplementedError

    def latency_groups(self, samples: list[float]) -> list[list[float]]:
        """The latency samples the end-to-end percentiles are taken over, in
        groups in the order they were taken (see ``harness.latency_summary``).
        Here a group is one sample: one op, or one timed batch of ops."""
        return [[s] for s in samples]


class EstimateWorkload(Workload):
    """``from_array`` + ``estimate_orientation`` over a rendered corpus."""

    def __init__(self, name: str, lenses: tuple[str, ...]) -> None:
        self.name = name
        self.lenses = lenses

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        self.corpus = render_corpus(ctx, self.configs, POSE_GRID * POSE_GRID)
        self.first: list = [None] * len(self.corpus)

    def items(self) -> list[Item]:
        return self.corpus

    def latency_groups(self, samples: list[float]) -> list[list[float]]:
        """One group with one sample per scene: the mean latency of the
        scene's observations over the run's passes and over its lenses.

        A pass times every observation once, and the passes interleave in
        time, so a change of the host's speed moves every scene's mean
        alike, while a single stall adds to one scene a share of it only.
        The lenses are averaged because the mild and strong lens give two
        equal clusters of latencies, whose median would fall in the gap
        between them.
        """
        per_pass = np.reshape(samples, (-1, len(self.corpus) // len(self.lenses), len(self.lenses)))
        return [per_pass.mean(axis=(0, 2)).tolist()]

    def run_pass(self, tracer: Tracer, stats: OpStats) -> None:
        k, sc = self.k, self.sc
        for index, item in enumerate(self.corpus):
            t0 = perf_counter()
            root = tracer.begin(f"{self.name}.op")
            try:
                obs = tracer.call(
                    "orientation_estimator.from_array",
                    ReferenceLineObservation.from_array,
                    item.uv,
                    parent=root,
                )
                outcome = tracer.call(
                    "orientation_estimator.estimate_orientation",
                    estimate_orientation,
                    obs,
                    k,
                    item.d,
                    sc,
                    parent=root,
                )
            except GeometryError as exc:
                tracer.end(root, type(exc).__name__)
                outcome = type(exc).__name__
            except Exception as exc:
                tracer.end(root, type(exc).__name__)
                stats.add_time(perf_counter() - t0)
                crashed(stats, exc)
                continue
            else:
                tracer.end(root)
            stats.add_time(perf_counter() - t0)

            if isinstance(outcome, str):
                stats.record(outcome, math.nan, math.nan)
            else:
                roll_error = outcome.orientation.roll - item.roll
                pitch_error = outcome.orientation.pitch - item.pitch
                check_exact(roll_error, pitch_error, item.sigma, f"{self.name} item {index}")
                stats.record(None, roll_error, pitch_error)
            if self.first[index] is None:
                self.first[index] = outcome
            else:
                check_same(self.first[index], outcome, f"{self.name} item {index} repeated")


def report_key(r: TrialReport) -> tuple:
    """A report's inputs and outcome, with the failure cut to its exception name."""
    failure = r.failure.split(":", 1)[0] if r.failure else None
    return (r.seed, r.noise_sigma, r.k1_scale, r.roll_gt, r.pitch_gt, r.n_visible, failure)


def sweep_configs(seed: int, base: SyntheticScene, k1_scales, seeds: int, calls: int):
    return [
        SweepConfig(
            base_scene=base,
            noise_sigmas=NOISE_SIGMAS,
            roll_range=ROLL_RANGE,
            pitch_range=PITCH_RANGE,
            seeds_per_cell=seeds,
            base_seed=seed * 100_000 + c * seeds,
            k1_scales=k1_scales,
        )
        for c in range(calls)
    ]


def run_sweep(cfg: SweepConfig, tracer: Tracer, stats: OpStats, csv_path: Path) -> list | None:
    """One timed ``sweep`` + ``write_sweep_csv`` call, counted per trial.

    Returns None when the call raised, which fails all of its trials.
    """
    trials = len(cfg.noise_sigmas) * len(cfg.k1_scales) * cfg.seeds_per_cell
    t0 = perf_counter()
    try:
        reports = tracer.call("synthetic_rig.sweep", sweep, cfg)
        tracer.call("synthetic_rig.write_sweep_csv", write_sweep_csv, reports, csv_path)
    except Exception as exc:
        stats.add_time(perf_counter() - t0, trials)
        crashed(stats, exc, trials)
        return None
    stats.add_time(perf_counter() - t0, len(reports))
    for r in reports:
        if r.failure is None:
            check_exact(r.roll_error, r.pitch_error, r.noise_sigma, f"sweep trial seed {r.seed}")
            stats.record(None, r.roll_error, r.pitch_error)
        else:
            stats.record(r.failure.split(":", 1)[0], math.nan, math.nan)
    return reports


def replay_sweep(cfg: SweepConfig, tracer: Tracer, csv_path: Path, items: list, visible: list):
    """Re-run one sweep config as traced ``render_line`` + ``estimate_orientation``.

    Follows the seeding ``SweepConfig`` documents: trial ``j`` draws its pose
    from ``default_rng((base_seed, j))`` and its noise from seed
    ``base_seed + j``.  Returns the reports ``sweep`` must agree with and
    adds every rendered observation to ``items``.
    """
    base = cfg.base_scene
    reports = []
    for sigma in cfg.noise_sigmas:
        for k1_scale in cfg.k1_scales:
            d = replace(base.d, k1=base.d.k1 * k1_scale)
            for j in range(cfg.seeds_per_cell):
                pose_rng = np.random.default_rng((cfg.base_seed, j))
                roll = float(pose_rng.uniform(*cfg.roll_range))
                pitch = float(pose_rng.uniform(*cfg.pitch_range))
                seed = cfg.base_seed + j
                scene = replace(
                    base,
                    ground_truth=Orientation(roll=roll, pitch=pitch),
                    d=d,
                    noise_sigma=sigma,
                    rng_seed=seed,
                )
                root = tracer.begin("sweep.trial")
                n_visible = 0
                try:
                    obs = tracer.call(
                        "synthetic_rig.render_line", render_line, scene, parent=root
                    )
                    n_visible = len(obs)
                    items.append(Item(obs.uv_array(), roll, pitch, sigma, d))
                    est = tracer.call(
                        "orientation_estimator.estimate_orientation",
                        estimate_orientation,
                        obs,
                        scene.k,
                        d,
                        scene.sc,
                        parent=root,
                    )
                except GeometryError as exc:
                    tracer.end(root, type(exc).__name__)
                    nan = math.nan
                    report = TrialReport(
                        seed, sigma, k1_scale, roll, pitch, nan, nan, nan, 0,
                        failure=f"{type(exc).__name__}: {exc}",
                    )
                else:
                    tracer.end(root)
                    report = TrialReport(
                        seed, sigma, k1_scale, roll, pitch,
                        est.orientation.roll - roll,
                        est.orientation.pitch - pitch,
                        est.residual_z_spread,
                        n_visible,
                    )
                visible.append(n_visible)
                reports.append(report)
    tracer.call("synthetic_rig.write_sweep_csv", write_sweep_csv, reports, csv_path)
    return reports


def check_replay(swept: list[TrialReport], replayed: list[TrialReport], what: str) -> None:
    """``sweep`` must agree with its replay: same trials, same outcomes."""
    check_same([report_key(r) for r in swept], [report_key(r) for r in replayed], what)
    for a, b in zip(swept, replayed):
        for field in ("roll_error", "pitch_error", "residual_z_spread"):
            x, y = getattr(a, field), getattr(b, field)
            if not (abs(x - y) <= 1e-9 or (math.isnan(x) and math.isnan(y))):
                raise CorrectnessError(f"{what}: seed {a.seed} {field} {x!r} != replay {y!r}")


class SweepWorkload(Workload):
    """``sweep`` + ``write_sweep_csv`` over noise x k1-scale cells, per trial.

    A pass is one call of SWEEP_SEEDS_PER_CALL seeds per cell.  After the
    warm-up the run starts again from the first call, so the warm-up's
    reports are the reference the repeats must match exactly.
    """

    name = "sweep_grid"
    lenses = ("mild",)

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        cfg = self.configs["mild"]
        base = SyntheticScene(
            ground_truth=Orientation(), sc=cfg.scene, k=cfg.intrinsics, d=cfg.distortion
        )
        self.sweeps = sweep_configs(
            ctx.seed, base, SWEEP_K1_SCALES, SWEEP_SEEDS_PER_CALL, SWEEP_CALLS
        )
        self.first: list = [None] * len(self.sweeps)
        self.csv_path = ctx.work / "sweep.csv"
        self.replayed: list[Item] = []
        self.rewind()

    def items(self) -> list[Item]:
        return self.replayed

    def run_pass(self, tracer: Tracer, stats: OpStats) -> None:
        index = self.next_index
        self.next_index = (index + 1) % len(self.sweeps)
        reports = run_sweep(self.sweeps[index], tracer, stats, self.csv_path)
        # Two runs of one config must give identical reports; repr keeps
        # every digit and compares NaN equal to NaN.
        if reports is None:
            return
        if self.first[index] is None:
            self.first[index] = reports
        else:
            check_same(
                [repr(r) for r in self.first[index]],
                [repr(r) for r in reports],
                f"sweep config {index} repeated",
            )


class CliWorkload(Workload):
    """``camline estimate CONFIG LINE.csv -o OUT`` as fresh processes.

    Each op is one process and runs alone; its JSON must equal the
    in-process estimate of the same file.  A pass is a single op, so a run
    overshoots its time by at most one process.  After the warm-up the run
    starts again from the first file.
    """

    name = "cli_estimate"
    lenses = ("mild",)

    def setup(self, ctx: Context) -> None:
        super().setup(ctx)
        self.files = []
        for index, item in enumerate(render_corpus(ctx, self.configs, CLI_FILES // 3)):
            path = ctx.work / f"line-{index:03d}.csv"
            write_line_csv(path, item.uv)
            self.files.append((path, item))
        self.out = ctx.work / "estimate.json"
        self.env = child_env(ctx.root)
        self.rewind()

    def items(self) -> list[Item]:
        return [item for _, item in self.files]

    def expected(self, path: Path) -> dict | str:
        """The in-process result for a line file, as the CLI writes it."""
        try:
            est = estimate_orientation(
                ReferenceLineObservation.from_array(read_line_csv(path)),
                self.k,
                self.configs["mild"].distortion,
                self.sc,
            )
        except GeometryError as exc:
            return type(exc).__name__
        o = est.orientation
        return {
            "roll_deg": math.degrees(o.roll),
            "pitch_deg": math.degrees(o.pitch),
            "roll_rad": o.roll,
            "pitch_rad": o.pitch,
            "residual_z_spread_m": est.residual_z_spread,
            "residual_z_bias_m": est.residual_z_bias,
            "warnings": list(est.warnings),
        }

    def run_pass(self, tracer: Tracer, stats: OpStats) -> None:
        index = self.next_index
        self.next_index = (index + 1) % len(self.files)
        path, item = self.files[index]
        self.out.unlink(missing_ok=True)
        cmd = [
            sys.executable, "-c", CLI_STUB, "estimate",
            str(self.config_paths["mild"]), str(path), "-o", str(self.out),
        ]
        t0 = perf_counter()
        span = tracer.begin("cli.process")
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        tracer.end(span, f"exit {proc.returncode}")
        stats.add_time(perf_counter() - t0)

        expected = self.expected(path)
        what = f"camline estimate {path.name}"
        if proc.returncode == 0:
            outcome = json.loads(self.out.read_text())
            check_same(expected, outcome, what)
            roll_error = outcome["roll_rad"] - item.roll
            pitch_error = outcome["pitch_rad"] - item.pitch
            check_exact(roll_error, pitch_error, item.sigma, what)
            stats.record(None, roll_error, pitch_error)
        elif proc.returncode == 2 and proc.stderr.startswith("error: "):
            # A reported error; it must name the exception the in-process
            # estimate raises.
            check_same(expected, proc.stderr[len("error: "):].split(":", 1)[0], what)
            stats.record(expected, math.nan, math.nan)
        else:
            name = f"exit {proc.returncode}"
            if not stats.crashes[name]:
                print(proc.stderr, file=sys.stderr)
            stats.fail(name)


WORKLOADS = {
    # No lens: undistortion stops after one check, so observation
    # construction is a large share of each op.
    "estimate_nolens": lambda: EstimateWorkload("estimate_nolens", ("none",)),
    # Mild and strong lens interleaved: undistortion dominates, and the
    # strong lens's NonConvergent failures are counted, not filtered.
    "estimate_lens": lambda: EstimateWorkload("estimate_lens", ("mild", "strong")),
    # The forward model, the inverse model, the per-trial loop and the
    # failure path together; the k1 = -4e-7 cell fails entirely today.
    "sweep_grid": SweepWorkload,
    # The only path through cli and config; dominated by process start-up.
    "cli_estimate": CliWorkload,
}


def write_line_csv(path: Path, uv: np.ndarray) -> None:
    lines = ["u,v"] + [f"{u!r},{v!r}" for u, v in uv.tolist()]
    path.write_text("\n".join(lines) + "\n")


def read_line_csv(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return np.array([[float(u), float(v)] for u, v in rows[1:]])


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


# ---------------------------------------------------------------------------
# The traced run's census: every module, on the workload's own inputs
# ---------------------------------------------------------------------------


def undistort_iterations(uv: np.ndarray, k, d, tracer: Tracer) -> int | None:
    """Undistortion iterations an observation needs, found from outside.

    For each pixel, the smallest ``max_iter`` for which the public
    ``undistort`` succeeds; the observation needs the maximum over its
    pixels, because the iteration is independent per point.  None when a
    pixel does not converge within ``MAX_ITER``.  The search starts from the
    previous pixel's count, which neighbouring pixels nearly share.
    """

    def converges(p: PixelPoint, m: int) -> bool:
        try:
            tracer.call("core_geometry.undistort", undistort, p, k, d, max_iter=m)
        except NonConvergent:
            return False
        return True

    worst, m = 0, 1
    for u, v in uv.tolist():
        p = PixelPoint(u, v)
        if converges(p, m):
            while m > 1 and converges(p, m - 1):
                m -= 1
        else:
            while True:
                m += 1
                if m > MAX_ITER:
                    return None
                if converges(p, m):
                    break
        worst = max(worst, m)
    return worst


def census_sample(items: list[Item], seed: int) -> list[Item]:
    rng = np.random.default_rng((seed, 2))
    picks = rng.choice(len(items), size=min(CENSUS_ITEMS, len(items)), replace=False)
    return [items[i] for i in sorted(picks)]


def sweep_census(workload: Workload, ctx: Context, tracer: Tracer) -> float:
    """Per-trial time of ``sweep``'s own loop, in microseconds.

    Each sweep call is followed by its traced replay, so their difference
    per trial is what the sweep adds to ``render_line`` and
    ``estimate_orientation``.  sweep_grid replays its first calls; the other
    workloads sweep one small grid over their own lenses and noise levels,
    several times.
    """
    if isinstance(workload, SweepWorkload):
        configs = workload.sweeps[:SWEEP_CENSUS_CALLS]
        items = workload.replayed
    else:
        base = SyntheticScene(
            ground_truth=Orientation(), sc=workload.sc, k=workload.k,
            d=workload.configs[workload.lenses[0]].distortion,
        )
        scales = (1.0, 3.0) if "strong" in workload.lenses else (1.0,)
        configs = sweep_configs(ctx.seed, base, scales, 4, 1) * CENSUS_REPS
        items = []
    sweep_us = render_us = estimate_us = 0.0
    n_trials = 0
    for index, cfg in enumerate(configs):
        mark = len(tracer.spans)
        reports = run_sweep(cfg, tracer, OpStats(), ctx.work / "census-sweep.csv")
        if reports is None:
            raise CorrectnessError(f"sweep config {index} raised in the census")
        replayed = replay_sweep(cfg, tracer, ctx.work / "census-replay.csv", items, ctx.visible)
        check_replay(reports, replayed, f"sweep config {index} replay")
        sweep_us += sum(tracer.durations_us("synthetic_rig.sweep", mark))
        render_us += sum(tracer.durations_us("synthetic_rig.render_line", mark))
        estimate_us += sum(tracer.durations_us("orientation_estimator.estimate_orientation", mark))
        n_trials += len(reports)
    return (sweep_us - render_us - estimate_us) / n_trials


def estimator_census(workload: Workload, tracer: Tracer) -> float:
    """Trace each estimator entry point on every observation of the workload.

    Returns the plane back-projection time in microseconds: the median over
    observations of ``residual_z_spread`` minus ``central_pixel``, since the
    first repeats the second's undistort and normalise and then
    back-projects.
    """
    k, sc = workload.k, workload.sc

    def last_us() -> float:
        span = tracer.spans[-1]
        return (span[5] - span[4]) / 1e3

    depths = []
    for item in workload.items():
        obs = tracer.call(
            "orientation_estimator.from_array", ReferenceLineObservation.from_array, item.uv
        )
        orientation = Orientation(roll=item.roll, pitch=item.pitch)
        with contextlib.suppress(GeometryError):
            est = tracer.call(
                "orientation_estimator.estimate_orientation",
                estimate_orientation, obs, k, item.d, sc,
            )
            orientation = est.orientation
        with contextlib.suppress(GeometryError):
            tracer.call("orientation_estimator.central_pixel", central_pixel, obs, k, item.d)
            central = last_us()
            tracer.call(
                "orientation_estimator.residual_z_spread",
                residual_z_spread, obs, k, item.d, orientation, sc.c0,
            )
            depths.append(last_us() - central)
    return statistics.median(depths)


def cli_census(ctx: Context, tracer: Tracer, sample: list[Item]) -> tuple[float, float]:
    """Trace in-process ``main`` on a few observations; time fresh processes.

    Returns ``(interpreter_ms, import_ms)``: a bare interpreter, and a fresh
    ``import camline`` minus that floor.
    """
    for index, item in enumerate(sample[:4]):
        line = ctx.work / f"census-line-{index}.csv"
        write_line_csv(line, item.uv)
        camera = write_config(ctx.work / f"census-camera-{index}.json", asdict(item.d))
        argv = ["estimate", str(camera), str(line), "-o", str(ctx.work / "census.json")]
        for _ in range(CENSUS_REPS):
            with contextlib.redirect_stderr(io.StringIO()):
                tracer.call("cli.main", cli_main, argv)
    env = child_env(ctx.root)
    bare, imported = [], []
    for _ in range(CENSUS_REPS):
        for code, times in (("pass", bare), ("import camline", imported)):
            t0 = perf_counter()
            span = tracer.begin(f"cli.python -c {code!r}")
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
            tracer.end(span)
            times.append(perf_counter() - t0)
    interpreter_ms = statistics.median(bare) * 1e3
    return interpreter_ms, statistics.median(imported) * 1e3 - interpreter_ms


def layer_metrics(workload: Workload, ctx: Context, tracer: Tracer, stats: OpStats,
                  overhead: float) -> dict:
    """Run the census and return every per-layer metric as ``{name: (value, unit)}``."""
    sweep_overhead_us = sweep_census(workload, ctx, tracer)
    depths_us = estimator_census(workload, tracer)
    sample = census_sample(workload.items(), ctx.seed)
    iterations = [undistort_iterations(item.uv, workload.k, item.d, tracer) for item in sample]
    path = next(iter(workload.config_paths.values()))
    for _ in range(CENSUS_REPS * 4):
        tracer.call("config.load_camera_config", load_camera_config, path)
    interpreter_ms, import_ms = cli_census(ctx, tracer, sample)

    converged = [n for n in iterations if n is not None]
    # With no converged observation both counts read one past the cap.
    p50 = tracer.p50_us
    metrics = {
        "orientation_estimator.from_array_us": (p50("orientation_estimator.from_array"), "us"),
        "orientation_estimator.estimate_orientation_us": (
            p50("orientation_estimator.estimate_orientation"), "us"),
        "orientation_estimator.central_pixel_us": (
            p50("orientation_estimator.central_pixel"), "us"),
        "orientation_estimator.residual_z_spread_us": (
            p50("orientation_estimator.residual_z_spread"), "us"),
    }
    for name in FAIL_NAMES:
        metrics[f"orientation_estimator.fail.{name}"] = (stats.geometry_errors[name], "count")
    metrics["fail_ratio"] = (1.0 - stats.ok_ratio, "ratio")
    metrics.update({
        "core_geometry.undistort_iters_p50": (
            statistics.median_low(converged) if converged else MAX_ITER + 1, "count"),
        "core_geometry.undistort_iters_max": (
            max(converged) if converged else MAX_ITER + 1, "count"),
        "core_geometry.undistort_converged_ratio": (
            len(converged) / len(iterations), "ratio"),
        "plane_backprojection.depths_us": (depths_us, "us"),
        "synthetic_rig.render_line_us": (p50("synthetic_rig.render_line"), "us"),
        "synthetic_rig.sweep_overhead_us": (sweep_overhead_us, "us"),
        "synthetic_rig.visible_ratio": (
            sum(ctx.visible) / (N_POINTS * len(ctx.visible)), "ratio"),
        "synthetic_rig.write_sweep_csv_ms": (
            p50("synthetic_rig.write_sweep_csv") / 1e3, "ms"),
        "config.load_camera_config_us": (p50("config.load_camera_config"), "us"),
        "cli.main_us": (p50("cli.main"), "us"),
        "cli.import_ms": (import_ms, "ms"),
        "cli.interpreter_ms": (interpreter_ms, "ms"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return metrics
