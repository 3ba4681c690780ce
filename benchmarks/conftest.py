"""Shared fixtures for the benchmark harness.

Every paper figure/table is a registered suite (:mod:`repro.exp.suites`);
the ``bench_fig*`` / ``bench_table*`` modules are thin wrappers that run
their suite through the declarative engine (``suite_runner``) and assert
the paper's reproduction checks over the returned rows.  Each suite run
writes its JSON artefact to ``benchmarks/results/<suite>.json``; the
modules also print the regenerated rows/series and append them to
``benchmarks/results/report.txt`` plus a CSV per experiment, so a full
``pytest benchmarks/`` run leaves the complete reconstructed evaluation
behind as plain-text artefacts.

The DRL controller training is memoized inside :mod:`repro.exp.suites`
(keyed on the training spec), so the fig3 curve and every suite that
deploys the ``drl`` policy share one training per session — exactly as the
old session-scoped fixture did.

Environment knobs (all optional):

* ``REPRO_BENCH_EPISODES`` — training episodes for the main DQN controller
  (default 22);
* ``REPRO_BENCH_ABLATION_EPISODES`` — training episodes per ablation variant
  (default 12);
* ``REPRO_BENCH_JOBS`` — worker processes for the suites' subtrials
  (default: the machine's CPU count);
* ``REPRO_BENCH_TRAIN_JOBS`` — actor processes for DQN training (default 1:
  the serial reference path, bit-identical to the pre-sharding trainer).
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro.exp import suites
from repro.exp.execution import ExecutionConfig

RESULTS_DIR = Path(__file__).parent / "results"
TRAIN_EPISODES = int(os.environ.get("REPRO_BENCH_EPISODES", "22"))
EPSILON_DECAY_STEPS = int(os.environ.get("REPRO_BENCH_EPS_DECAY", "400"))
ABLATION_EPISODES = int(os.environ.get("REPRO_BENCH_ABLATION_EPISODES", "12"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "0")) or (os.cpu_count() or 1)
TRAIN_JOBS = int(os.environ.get("REPRO_BENCH_TRAIN_JOBS", "1"))

#: The registered main training with the env-knob sizes applied (a no-op
#: unless the knobs are set).
MAIN_TRAINING = {
    **suites.MAIN_TRAINING,
    "episodes": TRAIN_EPISODES,
    "epsilon_decay_steps": EPSILON_DECAY_STEPS,
}


def bench_suite_spec(name: str) -> suites.SuiteSpec:
    """The registered suite, resized by the harness's environment knobs."""
    spec = suites.get_suite(name)
    if spec.training == suites.MAIN_TRAINING and MAIN_TRAINING != suites.MAIN_TRAINING:
        spec = replace(spec, training=dict(MAIN_TRAINING))
    if name == "table3" and ABLATION_EPISODES != 12:
        spec = replace(
            spec,
            units=tuple(
                replace(unit, params={**unit.params, "episodes": ABLATION_EPISODES})
                if unit.kind == "train-eval"
                else unit
                for unit in spec.units
            ),
        )
    return spec


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def bench_jobs() -> int:
    """Process-pool width for the suites' subtrials."""
    return BENCH_JOBS


@pytest.fixture(scope="session")
def report(results_dir):
    """Print a report block and append it to benchmarks/results/report.txt."""
    report_path = results_dir / "report.txt"

    def _report(title: str, body: str) -> None:
        block = f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n"
        print(block)
        with report_path.open("a", encoding="utf-8") as handle:
            handle.write(block)

    return _report


@pytest.fixture(scope="session")
def suite_runner(results_dir, bench_jobs):
    """Run (and cache) one registered suite per session: name -> outcome."""
    outcomes: dict[str, suites.SuiteOutcome] = {}

    def _run(name: str) -> suites.SuiteOutcome:
        if name not in outcomes:
            outcomes[name] = suites.run_suite(
                bench_suite_spec(name),
                config=ExecutionConfig(jobs=bench_jobs, train_jobs=TRAIN_JOBS),
                # fig4/fig5/table1/table2 deploy the same phased policies; the
                # subtrial store under results_dir computes each one once.
                out_dir=results_dir,
            )
        return outcomes[name]

    return _run


@pytest.fixture(scope="session")
def training_result():
    """The shared DQN controller — the same memoized training the suites'
    ``drl`` evaluations deploy."""
    return suites.train_controller(MAIN_TRAINING, jobs=TRAIN_JOBS)
