"""Serial-vs-sharded wall-clock for DQN training (the fig3 training path).

Trains the same controller twice through the sharded engine — once with
``jobs=1`` (the serial reference path) and once with ``jobs=N``
(``REPRO_BENCH_TRAIN_JOBS`` if set past 1, else min(4, CPU count)) — and
records both runs to ``benchmarks/results/train_scaling.json`` in the
shared perf schema (``cycles`` counts *simulated* cycles:
episodes x epochs x cycles-per-epoch), plus the episodes/sec throughput of
each and their ratio.

Two checks ride along:

* the sharded run must land in the same smoothed-return band as the serial
  run (the actor/learner split changes rollout RNG streams, not learning
  quality);
* on hosts with at least four usable cores and ``jobs >= 2`` the sharded
  run must beat serial episodes/sec (>1x).  On smaller hosts the artefact
  is still written but the speedup is informational — actor processes
  cannot outrun the learner on one core.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core import ExperimentConfig
from repro.exp.suites import RESULTS_SCHEMA, perf_record
from repro.exp.execution import ExecutionConfig
from repro.exp.training import train_dqn_sharded

EPISODES = int(os.environ.get("REPRO_BENCH_SCALING_EPISODES", "12"))
SMOOTH_WINDOW = 3


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


@pytest.mark.bench
def test_train_scaling(report, results_dir):
    experiment = ExperimentConfig.small()
    cores = _usable_cores()
    jobs = int(os.environ.get("REPRO_BENCH_TRAIN_JOBS", "0")) or min(4, cores)
    jobs = max(jobs, 2)
    train_kwargs = dict(episodes=EPISODES, epsilon_decay_steps=EPISODES * 5, seed=1)

    serial = train_dqn_sharded(
        experiment, config=ExecutionConfig(train_jobs=1), **train_kwargs
    )
    sharded = train_dqn_sharded(
        experiment, config=ExecutionConfig(train_jobs=jobs), **train_kwargs
    )

    simulated_cycles = EPISODES * experiment.episode_epochs * experiment.epoch_cycles
    speedup = (
        sharded.episodes_per_second / serial.episodes_per_second
        if serial.episodes_per_second and sharded.episodes_per_second
        else 0.0
    )
    serial_smoothed = serial.smoothed_returns(SMOOTH_WINDOW)
    sharded_smoothed = sharded.smoothed_returns(SMOOTH_WINDOW)
    # The band the serial curve spans, padded so shot noise on short runs
    # does not flap the check.
    band = max(3.0, max(serial_smoothed) - min(serial_smoothed))

    artefact = {
        "episodes": EPISODES,
        "jobs": jobs,
        "cpu_count": cores,
        "schema": list(RESULTS_SCHEMA),
        "runs": [
            perf_record(
                "dqn-train",
                simulated_cycles,
                serial.wall_time_s,
                engine="serial",
                jobs=1,
                episodes_per_second=serial.episodes_per_second,
            ),
            perf_record(
                "dqn-train",
                simulated_cycles,
                sharded.wall_time_s,
                engine="sharded",
                jobs=jobs,
                episodes_per_second=sharded.episodes_per_second,
            ),
        ],
        "episodes_per_second": {
            "serial": serial.episodes_per_second,
            "sharded": sharded.episodes_per_second,
        },
        "speedup": speedup,
        "final_smoothed_return": {
            "serial": serial_smoothed[-1],
            "sharded": sharded_smoothed[-1],
        },
        "smoothed_return_band": band,
    }
    (results_dir / "train_scaling.json").write_text(json.dumps(artefact, indent=2))
    report(
        "Training scaling — serial vs sharded actor rollouts (episodes/sec)",
        json.dumps(artefact, indent=2),
    )

    assert abs(serial_smoothed[-1] - sharded_smoothed[-1]) <= band, (
        "sharded training left the serial smoothed-return band: "
        f"{sharded_smoothed[-1]:.2f} vs {serial_smoothed[-1]:.2f} (band {band:.2f})"
    )
    if cores >= 4 and jobs >= 2:
        assert speedup > 1.0, (
            f"expected sharded training to beat serial episodes/sec on {cores} cores, "
            f"got {speedup:.2f}x"
        )
