"""Serial-vs-parallel wall-clock for the Figure-1 load/latency sweep.

Runs the same sweep through the experiment engine once with ``jobs=1`` and
once with ``jobs=N`` (``REPRO_BENCH_JOBS``, default CPU count), verifies the
two result sequences are identical, and records the speedup to
``benchmarks/results/parallel_sweep.json``.

The ≥2x speedup assertion only applies on machines with at least four
cores; on smaller hosts the artefact is still written but the check is
informational (a process pool cannot beat serial execution on one core).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.analysis.sweep import load_latency_sweep
from repro.exp.suites import RESULTS_SCHEMA, perf_record
from repro.noc import SimulatorConfig

RATES = [0.02, 0.08, 0.15, 0.25, 0.40, 0.60]
# Two trials per rate, expensive (high-load) points first: high loads cost
# ~15x the cheapest, so a single copy of the rate list caps the achievable
# speedup near 2x via load imbalance alone; doubling the list and packing
# heavy trials first keeps the pool busy and amortises worker startup.
SWEEP_RATES = sorted(RATES * 2, reverse=True)
SWEEP_KWARGS = dict(pattern="uniform", warmup_cycles=400, measure_cycles=1_200, seed=3)


@pytest.mark.bench
def test_parallel_sweep_speedup(report, results_dir, bench_jobs):
    config = SimulatorConfig(width=4)

    start = time.perf_counter()
    serial_points = load_latency_sweep(config, SWEEP_RATES, jobs=1, **SWEEP_KWARGS)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel_points = load_latency_sweep(
        config, SWEEP_RATES, jobs=bench_jobs, **SWEEP_KWARGS
    )
    parallel_seconds = time.perf_counter() - start

    assert serial_points == parallel_points, "parallel sweep diverged from serial"

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    cpu_count = os.cpu_count() or 1
    total_cycles = len(SWEEP_RATES) * (
        SWEEP_KWARGS["warmup_cycles"] + SWEEP_KWARGS["measure_cycles"]
    )
    artefact = {
        "trials": len(SWEEP_RATES),
        "jobs": bench_jobs,
        "cpu_count": cpu_count,
        "serial_seconds": serial_seconds,
        "parallel_seconds": parallel_seconds,
        "speedup": speedup,
        "schema": list(RESULTS_SCHEMA),
        "runs": [
            perf_record("fig1-load-latency", total_cycles, serial_seconds, engine="serial", jobs=1),
            perf_record("fig1-load-latency", total_cycles, parallel_seconds, engine="parallel", jobs=bench_jobs),
        ],
    }
    (results_dir / "parallel_sweep.json").write_text(json.dumps(artefact, indent=2))
    report(
        "Parallel sweep — serial vs process-pool wall-clock (fig1 workload)",
        json.dumps(artefact, indent=2),
    )

    if cpu_count >= 4 and bench_jobs >= 4:
        assert speedup >= 2.0, f"expected >=2x speedup on {cpu_count} cores, got {speedup:.2f}x"
