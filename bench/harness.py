"""Measurement helpers for the camline benchmark: statistics, spans, gates.

Nothing here imports camline or numpy.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# An estimate is accurate when both angle errors are within 1 mrad.
ACCURACY_RAD = 1e-3
# Noise-free estimates must match ground truth this closely (acceptance
# criterion 1 of the test suite).
EXACT_RAD = 1e-8
# The tail percentile is the highest one with at least this many samples
# beyond it.
TAIL_BEYOND = 10


class CorrectnessError(Exception):
    """The program produced a wrong output; the run is invalid, not slow."""


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """Return ``(percentile, value, n)`` for the highest percentile of
    ``samples`` that has at least :data:`TAIL_BEYOND` samples above it.

    The value is the nearest-rank order statistic with exactly
    ``TAIL_BEYOND`` samples beyond it, and the percentile is the share of
    samples at or below it.  Needs more than ``TAIL_BEYOND`` samples.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, sorted(samples)[rank - 1], n


def is_accurate(roll_error: float, pitch_error: float) -> bool:
    """Both errors within :data:`ACCURACY_RAD`; NaN (a failed op) is a miss."""
    return abs(roll_error) <= ACCURACY_RAD and abs(pitch_error) <= ACCURACY_RAD


def check_exact(roll_error: float, pitch_error: float, noise_sigma: float, what: str) -> None:
    """Correctness gate: a successful noise-free estimate must be exact.

    Raises :class:`CorrectnessError` when ``noise_sigma`` is 0 and either
    error exceeds :data:`EXACT_RAD` or is not a number.
    """
    if noise_sigma != 0.0:
        return
    if not (abs(roll_error) <= EXACT_RAD and abs(pitch_error) <= EXACT_RAD):
        raise CorrectnessError(
            f"{what}: noise-free estimate is off by roll {roll_error:.3e} rad, "
            f"pitch {pitch_error:.3e} rad (limit {EXACT_RAD:g})"
        )


def check_same(first: object, again: object, what: str) -> None:
    """Correctness gate: two computations of the same input must agree exactly."""
    if first != again:
        raise CorrectnessError(f"{what}: {again!r} differs from {first!r}")


class OpStats:
    """Outcome counts and latency samples of a closed-loop run.

    A sample is the latency of one op, or the per-op latency of a batch of
    ops timed together.  Every op ends one of three ways, counted by
    ``record`` or ``fail``:

    - an estimate, with its roll and pitch errors;
    - a camline ``GeometryError``, camline's documented answer for an input
      it cannot estimate from (the strong lens's ``NonConvergent``, say).
      It is counted by exception name in ``geometry_errors`` and as a miss
      for accuracy, and the gates check it repeats like any other outcome;
    - any other exception: the op failed, and it counts in ``failed``.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.accurate = 0
        self.busy_s = 0.0
        self.geometry_errors: Counter[str] = Counter()
        self.crashes: Counter[str] = Counter()
        self.samples: list[float] = []

    def add_time(self, seconds: float, ops: int = 1) -> None:
        """One latency sample: ``ops`` ops that together took ``seconds``."""
        self.busy_s += seconds
        self.samples.append(seconds / ops)

    def record(self, error: str | None, roll_error: float, pitch_error: float) -> None:
        """Count an op that returned an estimate, or raised the ``GeometryError``
        named ``error``."""
        self.attempted += 1
        if error is not None:
            self.geometry_errors[error] += 1
        elif is_accurate(roll_error, pitch_error):
            self.accurate += 1

    def fail(self, error: str, ops: int = 1) -> None:
        """Count ``ops`` ops that raised ``error``, an exception that is not a
        camline ``GeometryError``."""
        self.attempted += ops
        self.failed += ops
        self.crashes[error] += ops

    def merge(self, other: "OpStats") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.accurate += other.accurate
        self.busy_s += other.busy_s
        self.geometry_errors.update(other.geometry_errors)
        self.crashes.update(other.crashes)
        self.samples += other.samples

    @property
    def ops_per_s(self) -> float:
        return self.attempted / self.busy_s

    @property
    def accurate_ratio(self) -> float:
        return self.accurate / self.attempted

    @property
    def ok_ratio(self) -> float:
        """Ops that returned an estimate / ops attempted."""
        not_ok = sum(self.geometry_errors.values()) + self.failed
        return (self.attempted - not_ok) / self.attempted


def blocks(groups: list[list[float]], min_size: int) -> list[list[float]]:
    """Consecutive groups of samples joined into blocks of at least
    ``min_size`` samples.

    A short remainder at the end joins the block before it.
    """
    out: list[list[float]] = []
    for samples in groups:
        if out and len(out[-1]) < min_size:
            out[-1].extend(samples)
        else:
            out.append(list(samples))
    if len(out) > 1 and len(out[-1]) < min_size:
        out[-2].extend(out.pop())
    return out


# Latency percentiles are taken within blocks of consecutive samples and
# averaged over the run's blocks.  The host's speed changes for seconds at a
# time; a percentile pooled over a whole run jumps between the fast and the
# slow speed with the share of time spent in each, while the mean of block
# percentiles moves in proportion to it.
P50_BLOCK = 10
TAIL_BLOCK = 100


def latency_summary(groups: list[list[float]]) -> dict:
    """Median and tail latency of a run, from its groups of latency samples.

    ``p50`` is the mean over blocks of :data:`P50_BLOCK` or more samples of
    each block's median; ``tail`` the mean over blocks of
    :data:`TAIL_BLOCK` or more of each block's :func:`tail_percentile`.
    Blocks join whole groups, so a single group is a single block.
    """
    p50_blocks = blocks(groups, P50_BLOCK)
    tails = [tail_percentile(b) for b in blocks(groups, TAIL_BLOCK)]
    return {
        "p50": statistics.fmean(statistics.median(b) for b in p50_blocks),
        "p50_blocks": len(p50_blocks),
        "tail": statistics.fmean(value for _, value, _ in tails),
        "tail_percentiles": [pct for pct, _, _ in tails],
        "tail_block_sizes": [n for _, _, n in tails],
    }


class Tracer:
    """In-memory spans around the benchmark's calls into camline.

    A span is ``(id, parent_id, op_id, name, start_ns, end_ns, status)``;
    ``status`` is ``"ok"`` or the name of the exception the call raised.
    Spans of one op share ``op_id``; id 0 means no parent.
    """

    FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns", "status")

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._open: dict[int, tuple] = {}
        self._next_id = 1

    def begin(self, name: str, parent: int = 0) -> int:
        """Open a span; without a parent it starts a new op."""
        span_id = self._next_id
        self._next_id += 1
        op = self._open[parent][1] if parent else span_id
        self._open[span_id] = (parent, op, name, perf_counter_ns())
        return span_id

    def end(self, span_id: int, status: str = "ok") -> None:
        end = perf_counter_ns()
        parent, op, name, start = self._open.pop(span_id)
        self.spans.append((span_id, parent, op, name, start, end, status))

    def call(self, name: str, fn, *args, parent: int = 0, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span_id = self.begin(name, parent)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.end(span_id, type(exc).__name__)
            raise
        self.end(span_id)
        return result

    def durations_us(self, name: str, since: int = 0) -> list[float]:
        """Durations of the spans named ``name`` among ``spans[since:]``."""
        return [(s[5] - s[4]) / 1e3 for s in self.spans[since:] if s[3] == name]

    def p50_us(self, name: str, since: int = 0) -> float:
        durations = self.durations_us(name, since)
        if not durations:
            raise ValueError(f"no span named {name!r} was recorded")
        return statistics.median(durations)

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": self.FIELDS, "spans": self.spans}, fh, separators=(",", ":"))


def git_commit(root: Path) -> str:
    """Commit of the checkout, read from ``.git`` without leaving ``root``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: Path, numpy_module) -> dict:
    """What the numbers depend on besides the code: machine and library versions."""
    blas = "unknown"
    try:
        deps = numpy_module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps['name']} {deps['version']}"
    except (TypeError, KeyError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy_module.__version__,
        "blas": blas,
        "blas_threads": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": git_commit(root),
    }

