"""camline benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout::

    python3 bench/run.py --workload sweep_grid --seed 1 --seconds 55 --trace 0

Workloads: estimate_nolens, estimate_lens, sweep_grid, cli_estimate (see
``workloads.py``); ``BENCHMARK.json`` declares estimate_nolens and
sweep_grid, the other two run by hand.  The run renders its inputs from
``--seed``, sets up, warms up, then runs a closed loop with one caller for
``--seconds``, setting up again at intervals to time set-up.  Every output
is checked; a wrong one ends the run with exit code 1 and
``"correct": false``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, runs the per-layer census and reports the
per-layer metrics, including the tracing overhead.  Both print a readable
report, then one JSON line last; the full result (and, traced, every span)
goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads, here and in child processes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"

SETUP_REPS = 11
WARMUP_S = 2.0


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric names and units BENCHMARK.json declares for this kind of run."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("estimate_nolens", "estimate_lens", "sweep_grid", "cli_estimate"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "camline" / "__init__.py").is_file():
        print(f"error: no camline sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import camline  # noqa: F401  (timed: set-up pays for it)
    import_s = perf_counter() - t0

    import numpy as np

    import workloads as wl
    from harness import (
        P50_BLOCK, TAIL_BEYOND, CorrectnessError, OpStats, Tracer, environment,
        latency_summary,
    )

    env = environment(ROOT, np)
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR))
    tracer = Tracer() if args.trace else wl.UNTRACED
    stats = OpStats()
    try:
        workload = wl.WORKLOADS[args.workload]()
        ctx = wl.Context(ROOT, work, args.seed, tracer, [])
        t0 = perf_counter()
        workload.setup(ctx)
        setup_times = [perf_counter() - t0]

        def time_setup() -> None:
            """Set up a fresh copy of the workload, in its own directory."""
            own = work / f"setup-{len(setup_times)}"
            own.mkdir()
            t0 = perf_counter()
            wl.WORKLOADS[args.workload]().setup(wl.Context(ROOT, own, args.seed, wl.UNTRACED, []))
            setup_times.append(perf_counter() - t0)

        warm_end = perf_counter() + WARMUP_S
        while True:
            workload.run_pass(wl.UNTRACED, OpStats())
            if perf_counter() >= warm_end:
                break
        workload.rewind()

        # Traced runs alternate untraced and traced passes, so drift hits
        # both sides alike and their ratio is the tracing overhead.
        traced = OpStats()
        start = perf_counter()
        end = start + args.seconds
        # Untraced runs set up again at even intervals over the measuring
        # time, between passes: the host's speed changes for seconds at a
        # time, and set-ups made back to back would all see one speed.
        setup_every = args.seconds / SETUP_REPS
        passes = 0
        # A run also goes on until its tail percentile has enough samples.
        while perf_counter() < end or len(stats.samples) <= TAIL_BEYOND:
            if (not args.trace and len(setup_times) < SETUP_REPS
                    and perf_counter() >= start + len(setup_times) * setup_every):
                time_setup()
            side = traced if args.trace and passes % 2 else stats
            workload.run_pass(tracer if side is traced else wl.UNTRACED, side)
            passes += 1

        if args.trace:
            overhead = stats.ops_per_s / traced.ops_per_s - 1
            stats.merge(traced)
            metrics = wl.layer_metrics(workload, ctx, tracer, stats, overhead)
        else:
            latency = latency_summary(workload.latency_groups(stats.samples))
            usage = resource.RUSAGE_CHILDREN if args.workload == "cli_estimate" else resource.RUSAGE_SELF
            values = {
                "ops_per_s": stats.ops_per_s,
                "op_p50_us": latency["p50"] * 1e6,
                "op_tail_us": latency["tail"] * 1e6,
                "ok_ratio": stats.ok_ratio,
                "accurate_ratio": stats.accurate_ratio,
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024,
            }
            metrics = {name: (values[name], unit) for name, unit in declared_metrics(0).items()}
    except CorrectnessError as exc:
        print(f"INCORRECT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(stats.attempted, 1),
                          "failed": stats.failed, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reported = {name: unit for name, (_, unit) in metrics.items()}
    if reported != declared_metrics(args.trace):
        print(f"error: reported metrics {reported} differ from BENCHMARK.json", file=sys.stderr)
        return 3

    notes = {
        "op_tail_us": (
            f"mean over {len(latency['tail_percentiles'])} blocks of the percentile with "
            f"{TAIL_BEYOND} samples beyond it: p{min(latency['tail_percentiles']):.3f}"
            f" of {max(latency['tail_block_sizes'])} samples or more"
        ) if not args.trace else None,
        "op_p50_us": (
            f"mean over {latency['p50_blocks']} blocks of {P50_BLOCK} or more samples "
            "of the block median"
        ) if not args.trace else None,
        "plane_backprojection.depths_us":
            "derived: p50 of residual_z_spread - central_pixel on one observation",
        "synthetic_rig.sweep_overhead_us":
            "derived: mean sweep time per trial - render_line - estimate_orientation",
    }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "crashes": dict(stats.crashes),
        "fail_ratio": 1.0 - stats.ok_ratio,
        "geometry_errors": dict(stats.geometry_errors),
        "samples": len(stats.samples),
        "setup_runs_s": setup_times,
        "import_s": import_s,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "notes": {k: v for k, v in notes.items() if v and k in metrics},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    if args.trace:
        tracer.write(OUT_DIR / f"{stem}-spans.json")

    print(f"camline benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"attempted={stats.attempted} failed={stats.failed} "
          f"fail_ratio={details['fail_ratio']:.6g} geometry_errors={dict(stats.geometry_errors)}")
    for name, (value, unit) in metrics.items():
        note = details["notes"].get(name)
        print(f"  {name:48s} {value:14.6g} {unit}" + (f"   ({note})" if note else ""))
    print(json.dumps({
        "correct": True,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": details["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
