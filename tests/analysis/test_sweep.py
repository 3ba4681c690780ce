"""Tests for the load/latency and routing sweeps.

These double as simulator-behaviour regression tests: the sweeps must show
the canonical NoC shapes (monotone latency growth with load, saturation at
high load, throughput tracking offered load below saturation).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.sweep import (
    LoadLatencyPoint,
    load_latency_sweep,
    routing_throughput_sweep,
)
from repro.noc.network import SimulatorConfig

CONFIG = SimulatorConfig(width=4)
SWEEP_KWARGS = dict(warmup_cycles=200, measure_cycles=600, seed=1)


@pytest.fixture(scope="module")
def uniform_sweep() -> list[LoadLatencyPoint]:
    return load_latency_sweep(CONFIG, [0.05, 0.20, 0.60], pattern="uniform", **SWEEP_KWARGS)


class TestLoadLatencySweep:
    def test_validation(self):
        with pytest.raises(ValueError):
            load_latency_sweep(CONFIG, [])
        with pytest.raises(ValueError):
            load_latency_sweep(CONFIG, [-0.1])

    def test_takes_no_jobs_keyword(self):
        # A serial helper: parallel sweeps go through run_suite's sweep units.
        # A stray ``jobs`` falls through to the traffic pattern, which rejects it.
        with pytest.raises(TypeError, match="jobs"):
            load_latency_sweep(CONFIG, [0.05], jobs=2, **SWEEP_KWARGS)

    def test_one_point_per_rate(self, uniform_sweep):
        assert [point.injection_rate for point in uniform_sweep] == [0.05, 0.20, 0.60]

    def test_latency_increases_with_load(self, uniform_sweep):
        latencies = [point.average_latency for point in uniform_sweep]
        assert latencies[0] < latencies[1] < latencies[2]

    def test_low_load_latency_is_near_zero_load_bound(self, uniform_sweep):
        # ~3 hops + 3 cycles serialisation on a 4x4 mesh at 4-flit packets.
        assert uniform_sweep[0].average_latency < 12.0

    def test_throughput_tracks_offered_load_below_saturation(self, uniform_sweep):
        low = uniform_sweep[0]
        assert low.throughput == pytest.approx(low.offered_load, abs=0.03)
        assert not low.saturated

    def test_extreme_load_saturates(self):
        points = load_latency_sweep(CONFIG, [0.9], pattern="transpose", **SWEEP_KWARGS)
        assert points[0].saturated
        assert points[0].throughput < points[0].offered_load

    def test_dvfs_level_shifts_the_curve(self):
        fast = load_latency_sweep(CONFIG, [0.10], dvfs_level=0, **SWEEP_KWARGS)
        slow = load_latency_sweep(CONFIG, [0.10], dvfs_level=3, **SWEEP_KWARGS)
        assert slow[0].average_latency > fast[0].average_latency
        assert slow[0].energy_per_flit_pj < fast[0].energy_per_flit_pj

    def test_event_engine_sweeps_identically(self, uniform_sweep):
        event_points = load_latency_sweep(
            CONFIG, [0.05, 0.20, 0.60], pattern="uniform", engine="event", **SWEEP_KWARGS
        )
        assert event_points == uniform_sweep  # wall fields excluded (compare=False)


class TestRoutingThroughputSweep:
    def test_validation(self):
        with pytest.raises(ValueError):
            routing_throughput_sweep(CONFIG, [], ["xy"])
        with pytest.raises(ValueError):
            routing_throughput_sweep(CONFIG, [-0.1], ["xy"])

    def test_takes_no_jobs_keyword(self):
        with pytest.raises(TypeError, match="jobs"):
            routing_throughput_sweep(CONFIG, [0.05], ["xy"], jobs=2, **SWEEP_KWARGS)

    def test_sweeps_each_algorithm(self):
        results = routing_throughput_sweep(
            CONFIG, [0.05, 0.3], ["xy", "odd_even"], pattern="transpose", **SWEEP_KWARGS
        )
        assert set(results) == {"xy", "odd_even"}
        assert all(len(points) == 2 for points in results.values())

    def test_event_engine_sweeps_identically(self):
        kwargs = dict(warmup_cycles=100, measure_cycles=300, seed=1)
        cycle_results = routing_throughput_sweep(
            CONFIG, [0.1], ["xy", "odd_even"], pattern="transpose", **kwargs
        )
        event_results = routing_throughput_sweep(
            CONFIG, [0.1], ["xy", "odd_even"], pattern="transpose", engine="event", **kwargs
        )
        assert event_results == cycle_results

    def test_adaptive_routing_not_worse_at_low_load(self):
        results = routing_throughput_sweep(
            CONFIG, [0.05], ["xy", "odd_even"], pattern="transpose", **SWEEP_KWARGS
        )
        xy_latency = results["xy"][0].average_latency
        oe_latency = results["odd_even"][0].average_latency
        # Low-load latency should be comparable (within a few cycles).
        assert abs(xy_latency - oe_latency) < 5.0


def test_analysis_does_not_import_the_experiment_layer():
    # repro.exp builds on repro.analysis, never the other way round; a fresh
    # interpreter shows what importing the analysis package really pulls in.
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import sys, repro.analysis, repro.analysis.sweep; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.exp')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "[]"
