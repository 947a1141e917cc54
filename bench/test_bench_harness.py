"""Tests of the benchmark's own rules: the tail percentile, block
percentiles, accuracy and failure counting, and the correctness gate."""

from __future__ import annotations

import dataclasses
import math

import pytest

import workloads
from harness import (
    TAIL_BEYOND,
    CorrectnessError,
    OpStats,
    Tracer,
    blocks,
    check_exact,
    check_same,
    latency_summary,
    tail_percentile,
)


def test_tail_has_exactly_ten_samples_beyond_it():
    samples = [float(x) for x in range(100, 0, -1)]
    pct, value, n = tail_percentile(samples)
    assert (pct, value, n) == (90.0, 90.0, 100)
    assert sum(s > value for s in samples) == TAIL_BEYOND


def test_tail_percentile_rises_with_the_sample_count():
    pct, value, n = tail_percentile([float(x) for x in range(1, 10_001)])
    assert (pct, value, n) == (99.9, 9990.0, 10_000)
    assert tail_percentile([1.0] * 11) == (100.0 / 11, 1.0, 11)


def test_tail_needs_more_samples_than_it_leaves_beyond():
    with pytest.raises(ValueError):
        tail_percentile([1.0] * TAIL_BEYOND)


def test_failures_count_as_inaccurate():
    stats = OpStats()
    stats.record(None, 1e-4, -1e-4)  # accurate
    stats.record(None, 2e-3, 0.0)  # succeeded, roll off by 2 mrad
    stats.record("NonConvergent", math.nan, math.nan)
    stats.record(None, 0.0, 1e-3)  # on the limit: accurate
    assert stats.accurate_ratio == 0.5
    assert stats.ok_ratio == 0.75
    assert dict(stats.geometry_errors) == {"NonConvergent": 1}
    assert stats.failed == 0


def test_an_unexpected_exception_fails_the_op_and_misses():
    stats = OpStats()
    stats.record(None, 0.0, 0.0)
    stats.record("NonConvergent", math.nan, math.nan)
    stats.fail("ValueError", ops=2)
    assert (stats.attempted, stats.failed) == (4, 2)
    assert dict(stats.crashes) == {"ValueError": 2}
    assert stats.ok_ratio == 0.25
    assert stats.accurate_ratio == 0.25


def test_throughput_counts_batched_ops():
    stats = OpStats()
    stats.add_time(0.5, ops=10)
    stats.add_time(0.5, ops=10)
    for _ in range(20):
        stats.record(None, 0.0, 0.0)
    assert stats.samples == [0.05, 0.05]
    assert stats.ops_per_s == 20.0


def test_blocks_join_passes_and_fold_a_short_remainder():
    passes = [[1.0] * 4, [2.0] * 4, [3.0] * 4, [4.0] * 3]
    assert [len(b) for b in blocks(passes, 5)] == [8, 7]
    assert blocks(passes, 5)[1] == [3.0] * 4 + [4.0] * 3
    assert [len(b) for b in blocks(passes, 1)] == [4, 4, 4, 3]
    assert blocks([[1.0, 2.0]], 10) == [[1.0, 2.0]]


def test_latency_summary_averages_block_percentiles():
    # Two speeds for half of the run each: the block medians average to
    # the middle, where a pooled median would pick one speed.
    fast, slow = [[1.0]] * 200, [[3.0]] * 200
    summary = latency_summary(fast + slow)
    assert summary["p50"] == 2.0
    assert summary["tail"] == 2.0
    assert summary["tail_block_sizes"] == [100] * 4


def test_nan_error_on_a_success_is_inaccurate():
    stats = OpStats()
    stats.record(None, math.nan, 0.0)
    assert stats.accurate_ratio == 0.0


def test_gate_rejects_an_inexact_noise_free_estimate():
    check_exact(1e-9, -1e-9, 0.0, "exact")
    check_exact(1e-3, 1e-3, 0.5, "noisy input is not held to 1e-8")
    with pytest.raises(CorrectnessError):
        check_exact(2e-8, 0.0, 0.0, "roll off")
    with pytest.raises(CorrectnessError):
        check_exact(0.0, math.nan, 0.0, "pitch missing")


def test_gate_rejects_a_changed_repeat():
    check_same({"roll_rad": 0.1}, {"roll_rad": 0.1}, "same")
    with pytest.raises(CorrectnessError):
        check_same({"roll_rad": 0.1}, {"roll_rad": 0.1 + 1e-15}, "changed")


def test_spans_of_one_op_share_its_id():
    tracer = Tracer()
    root = tracer.begin("op")
    assert tracer.call("child", lambda x: x + 1, 1, parent=root) == 2
    with pytest.raises(ZeroDivisionError):
        tracer.call("failing", lambda: 1 / 0, parent=root)
    tracer.end(root)
    by_name = {span[3]: span for span in tracer.spans}
    assert by_name["child"][1:3] == (root, root)
    assert by_name["failing"][6] == "ZeroDivisionError"
    assert by_name["op"][1:3] == (0, root)


@pytest.fixture
def nolens(tmp_path):
    workload = workloads.EstimateWorkload("estimate_nolens", ("none",))
    ctx = workloads.Context(tmp_path, tmp_path, 3, workloads.UNTRACED, [])
    workload.setup(ctx)
    return workload


def test_estimate_workload_passes_on_the_real_estimator(nolens):
    stats = OpStats()
    nolens.run_pass(workloads.UNTRACED, stats)
    nolens.run_pass(workloads.UNTRACED, stats)
    assert stats.attempted == 2 * len(nolens.corpus)
    assert stats.failed == 0
    groups = nolens.latency_groups(stats.samples)
    assert [len(g) for g in groups] == [len(nolens.corpus)]
    first, second = stats.samples[: len(nolens.corpus)], stats.samples[len(nolens.corpus):]
    assert groups[0][5] == pytest.approx((first[5] + second[5]) / 2)


def test_estimate_workload_fails_a_deliberately_wrong_estimate(nolens, monkeypatch):
    real = workloads.estimate_orientation

    def off_by_a_microradian(*args):
        est = real(*args)
        o = est.orientation
        return dataclasses.replace(est, orientation=dataclasses.replace(o, roll=o.roll + 1e-6))

    monkeypatch.setattr(workloads, "estimate_orientation", off_by_a_microradian)
    with pytest.raises(CorrectnessError, match="noise-free"):
        nolens.run_pass(workloads.UNTRACED, OpStats())


def test_estimate_workload_counts_an_unexpected_exception_as_failed(nolens, monkeypatch):
    def broken(*args):
        raise ValueError("broken estimator")

    monkeypatch.setattr(workloads, "estimate_orientation", broken)
    stats = OpStats()
    nolens.run_pass(workloads.UNTRACED, stats)
    assert stats.failed == stats.attempted == len(nolens.corpus)
    assert dict(stats.crashes) == {"ValueError": len(nolens.corpus)}
    assert stats.ok_ratio == 0.0
