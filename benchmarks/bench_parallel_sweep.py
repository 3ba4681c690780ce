"""Serial-vs-parallel wall-clock for the Figure-1 load/latency sweep.

Runs the same ad-hoc sweep suite through :func:`repro.exp.suites.run_suite`
once with ``jobs=1`` and once with ``jobs=N`` (``REPRO_BENCH_JOBS``, default
CPU count), verifies the two deterministic payloads are identical, and
records the speedup to ``benchmarks/results/parallel_sweep.json``.

The ≥2x speedup assertion only applies on machines with at least four
cores; on smaller hosts the artefact is still written but the check is
informational (a process pool cannot beat serial execution on one core).
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.exp.execution import ExecutionConfig
from repro.exp.suites import RESULTS_SCHEMA, SuiteSpec, SuiteUnit, perf_record, run_suite

RATES = [0.02, 0.08, 0.15, 0.25, 0.40, 0.60]
# Two trials per rate, expensive (high-load) points first: high loads cost
# ~15x the cheapest, so a single copy of the rate list caps the achievable
# speedup near 2x via load imbalance alone; doubling the list and packing
# heavy trials first keeps the pool busy and amortises worker startup.
SWEEP_RATES = sorted(RATES * 2, reverse=True)
SWEEP_PARAMS = dict(
    width=4, pattern="uniform", warmup_cycles=400, measure_cycles=1_200, seed=3
)
SPEC = SuiteSpec(
    name="parallel-sweep",
    description="fig1's load/latency sweep, every rate twice",
    units=(SuiteUnit("sweep", "sweep", {**SWEEP_PARAMS, "rates": SWEEP_RATES}),),
)


@pytest.mark.bench
def test_parallel_sweep_speedup(report, results_dir, bench_jobs):
    start = time.perf_counter()
    serial = run_suite(SPEC, config=ExecutionConfig(jobs=1))
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_suite(SPEC, config=ExecutionConfig(jobs=bench_jobs))
    parallel_seconds = time.perf_counter() - start

    assert (
        serial.deterministic_payload() == parallel.deterministic_payload()
    ), "parallel sweep diverged from serial"

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    cpu_count = os.cpu_count() or 1
    total_cycles = len(SWEEP_RATES) * (
        SWEEP_PARAMS["warmup_cycles"] + SWEEP_PARAMS["measure_cycles"]
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
