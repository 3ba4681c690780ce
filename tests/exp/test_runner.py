"""Tests for the supervised process pool: ordering, determinism, picklability."""

import pickle

import pytest

from repro.analysis.sweep import SweepTrial, measure_sweep_point
from repro.exp.chaos import ChaosPolicy, ChaosRule
from repro.exp.execution import ExecutionConfig, SupervisionPolicy
from repro.exp.runner import (
    SupervisedTrialPool,
    TrialExecutionError,
    TrialFailure,
    trial_seed,
)
from repro.exp.scenarios import run_scenario
from repro.exp.suites import SuiteSpec, SuiteUnit, run_suite
from repro.noc import SimulatorConfig

CONFIG = SimulatorConfig(width=4)


class TestTrialSeed:
    def test_trial_seed_is_stable_and_spread(self):
        assert trial_seed(3, 5) == trial_seed(3, 5)
        seeds = {trial_seed(0, index) for index in range(100)}
        assert len(seeds) == 100
        with pytest.raises(ValueError):
            trial_seed(0, -1)


class TestPoolLifecycle:
    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            SupervisedTrialPool(0)

    def test_serial_path_preserves_order(self):
        trials = [
            SweepTrial(CONFIG, "uniform", rate, 50, 100, seed=1, dvfs_level=0)
            for rate in (0.05, 0.10, 0.15)
        ]
        with SupervisedTrialPool(1) as pool:
            points = pool.run(measure_sweep_point, trials)
        assert [point.injection_rate for point in points] == [0.05, 0.10, 0.15]

    def test_serial_pool_runs_in_process(self):
        with SupervisedTrialPool(1) as pool:
            trials = [
                SweepTrial(CONFIG, "uniform", rate, 50, 100, seed=1, dvfs_level=0)
                for rate in (0.05, 0.10)
            ]
            points = pool.run(measure_sweep_point, trials)
        assert [point.injection_rate for point in points] == [0.05, 0.10]

    def test_close_is_idempotent(self):
        pool = SupervisedTrialPool(1)
        pool.run(measure_sweep_point, [])
        pool.close()
        pool.close()

    @pytest.mark.slow
    def test_pool_reuse_across_rounds_matches_serial(self):
        trials = [
            SweepTrial(CONFIG, "uniform", rate, 50, 100, seed=1, dvfs_level=0)
            for rate in (0.05, 0.10, 0.15, 0.20)
        ]
        serial = [measure_sweep_point(trial) for trial in trials]
        with SupervisedTrialPool(2) as pool:
            first_round = pool.run(measure_sweep_point, trials[:2])
            second_round = pool.run(measure_sweep_point, trials[2:])
        assert first_round + second_round == serial


class TestPicklability:
    def test_sweep_trials_and_results_round_trip(self):
        trial = SweepTrial(
            CONFIG, "hotspot", 0.1, 50, 100, seed=2, dvfs_level=1,
            pattern_kwargs={"hotspot_fraction": 0.3},
        )
        assert pickle.loads(pickle.dumps(trial)) == trial
        point = measure_sweep_point(trial)
        assert pickle.loads(pickle.dumps(point)) == point

    def test_scenario_results_round_trip(self):
        result = run_scenario("uniform", epochs=1, epoch_cycles=100)
        assert pickle.loads(pickle.dumps(result)) == result


def _adhoc_suite(*units: SuiteUnit) -> SuiteSpec:
    return SuiteSpec(name="adhoc", description="ad-hoc test suite", units=units)


def _scenario_unit(name: str, **params) -> SuiteUnit:
    return SuiteUnit(name, "scenario", {"scenario": name, **params})


SWEEP_SPEC = _adhoc_suite(
    SuiteUnit(
        "sweep",
        "sweep",
        {"rates": [0.05, 0.15, 0.30, 0.50], "warmup_cycles": 150, "measure_cycles": 300,
         "seed": 1},
    )
)


@pytest.mark.slow
class TestParallelEquivalence:
    """jobs=1 and jobs=4 must produce identical suite payloads."""

    def test_sweep_suite_parallel_matches_serial(self):
        serial = run_suite(SWEEP_SPEC, config=ExecutionConfig(jobs=1))
        parallel = run_suite(SWEEP_SPEC, config=ExecutionConfig(jobs=4))
        assert serial.deterministic_payload() == parallel.deterministic_payload()
        assert [row["rate"] for row in parallel.rows("sweep")] == [0.05, 0.15, 0.30, 0.50]

    def test_scenario_suite_parallel_matches_serial(self):
        names = ["uniform", "hotspot", "transpose"]
        spec = _adhoc_suite(
            *(_scenario_unit(name, epochs=1, epoch_cycles=150) for name in names)
        )
        serial = run_suite(spec, config=ExecutionConfig(jobs=1))
        parallel = run_suite(spec, config=ExecutionConfig(jobs=4))
        assert serial.deterministic_payload() == parallel.deterministic_payload()
        assert [row["scenario"] for unit in parallel.units for row in unit["rows"]] == names

    def test_repeats_use_derived_seeds(self):
        spec = _adhoc_suite(
            _scenario_unit("uniform", seed=5, repeats=2, epochs=1, epoch_cycles=150)
        )
        first, second = run_suite(spec, config=ExecutionConfig(jobs=2)).rows("uniform")
        assert [first["seed"], second["seed"]] == [trial_seed(5, 0), trial_seed(5, 1)]
        # Different seeds, different simulations — not one run relabelled.
        del first["seed"], second["seed"]
        assert first != second


# Module-level so they pickle into pool workers.
def _double(x):
    return x * 2


def _fail_below(x):
    if x < 0:
        raise ValueError(f"bad trial {x}")
    return x * 2


class TestSupervisionPolicy:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="timeout_s"):
            SupervisionPolicy(timeout_s=0)
        with pytest.raises(ValueError, match="max_retries"):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            SupervisionPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="max_rebuilds"):
            SupervisionPolicy(max_rebuilds=-1)

    def test_backoff_grows_exponentially(self):
        policy = SupervisionPolicy(backoff_s=0.1, backoff_factor=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)


class TestSupervisedTrialPool:
    def test_serial_happy_path_matches_plain_loop(self):
        with SupervisedTrialPool(1) as pool:
            assert pool.run(_double, [1, 2, 3]) == [2, 4, 6]
            assert pool.last_attempts == [1, 1, 1]

    def test_serial_exceptions_propagate_raw_without_chaos(self):
        # jobs=1 is the reference path: no retry wrapping, today's semantics.
        with SupervisedTrialPool(1) as pool:
            with pytest.raises(ValueError, match="bad trial"):
                pool.run(_fail_below, [1, -1, 2])

    def test_labels_must_match_trials(self):
        with SupervisedTrialPool(1) as pool:
            with pytest.raises(ValueError, match="labels"):
                pool.run(_double, [1, 2], labels=["only-one"])

    def test_on_failure_mode_validated(self):
        with SupervisedTrialPool(1) as pool:
            with pytest.raises(ValueError, match="on_failure"):
                pool.run(_double, [1], on_failure="ignore")

    def test_on_result_fires_with_attempt_counts(self):
        seen = []
        with SupervisedTrialPool(1) as pool:
            pool.run(
                _double,
                [5, 6],
                on_result=lambda index, result, attempts: seen.append(
                    (index, result, attempts)
                ),
            )
        assert seen == [(0, 10, 1), (1, 12, 1)]

    def test_poison_trial_is_quarantined_after_siblings(self):
        chaos = ChaosPolicy(
            rules=tuple(ChaosRule("raise", 1, attempt) for attempt in range(3))
        )
        with SupervisedTrialPool(
            1, policy=SupervisionPolicy(max_retries=2, backoff_s=0.0), chaos=chaos
        ) as pool:
            with pytest.raises(TrialExecutionError) as excinfo:
                pool.run(_double, [1, 2, 3], labels=["a", "b", "c"])
        error = excinfo.value
        assert [failure.label for failure in error.failures] == ["b"]
        assert error.failures[0].kind == "exception"
        assert error.failures[0].attempts == 3
        # Every sibling's result survives alongside the failure report.
        assert error.results == [2, None, 6]

    def test_on_failure_return_leaves_failures_in_slots(self):
        chaos = ChaosPolicy(rules=(ChaosRule("raise", 0),))
        with SupervisedTrialPool(
            1, policy=SupervisionPolicy(max_retries=0, backoff_s=0.0), chaos=chaos
        ) as pool:
            results = pool.run(_double, [1, 2], on_failure="return")
        assert isinstance(results[0], TrialFailure)
        assert results[1] == 4

    @pytest.mark.slow
    def test_lost_worker_rebuilds_pool_and_recovers(self):
        chaos = ChaosPolicy(rules=(ChaosRule("kill", 1),))
        with SupervisedTrialPool(
            2, policy=SupervisionPolicy(backoff_s=0.01), chaos=chaos
        ) as pool:
            results = pool.run(_double, list(range(6)))
        assert results == [x * 2 for x in range(6)]
        assert pool.rebuilds >= 1
        assert pool.last_attempts[1] >= 2

    @pytest.mark.slow
    def test_stalled_trial_times_out_and_retries(self):
        chaos = ChaosPolicy(rules=(ChaosRule("stall", 2, stall_s=60.0),))
        with SupervisedTrialPool(
            2,
            policy=SupervisionPolicy(timeout_s=2.0, backoff_s=0.01),
            chaos=chaos,
        ) as pool:
            results = pool.run(_double, list(range(4)))
        assert results == [0, 2, 4, 6]
        assert pool.last_attempts[2] >= 2

    @pytest.mark.slow
    def test_trial_that_stalls_every_attempt_is_quarantined_as_a_timeout(self):
        chaos = ChaosPolicy(
            rules=tuple(ChaosRule("stall", 1, attempt, stall_s=60.0) for attempt in range(2))
        )
        with SupervisedTrialPool(
            2,
            policy=SupervisionPolicy(timeout_s=1.0, max_retries=1, backoff_s=0.01),
            chaos=chaos,
        ) as pool:
            with pytest.raises(TrialExecutionError) as excinfo:
                pool.run(_double, [1, 2, 3], labels=["a", "b", "c"])
        [failure] = excinfo.value.failures
        assert (failure.label, failure.kind, failure.attempts) == ("b", "timeout", 2)
        assert excinfo.value.results == [2, None, 6]

    @pytest.mark.slow
    def test_irrecoverable_pool_degrades_to_serial(self):
        # Kill trial 0's first four attempts: three rebuilds exhaust
        # max_rebuilds=2, the pool falls back in-process (kill degrades to
        # raise there) and the fifth attempt finally succeeds.
        chaos = ChaosPolicy(
            rules=tuple(ChaosRule("kill", 0, attempt) for attempt in range(4))
        )
        with SupervisedTrialPool(
            2,
            policy=SupervisionPolicy(max_retries=8, backoff_s=0.01, max_rebuilds=2),
            chaos=chaos,
        ) as pool:
            results = pool.run(_double, list(range(4)))
        assert results == [0, 2, 4, 6]
        assert pool.rebuilds == 3

    @pytest.mark.slow
    def test_parallel_chaos_matches_clean_run(self):
        trials = [
            SweepTrial(CONFIG, "uniform", rate, 50, 100, seed=1, dvfs_level=0)
            for rate in (0.05, 0.10, 0.15)
        ]
        clean = [measure_sweep_point(trial) for trial in trials]
        chaos = ChaosPolicy(rules=(ChaosRule("kill", 0), ChaosRule("raise", 2),))
        with SupervisedTrialPool(
            2, policy=SupervisionPolicy(backoff_s=0.01), chaos=chaos
        ) as pool:
            assert pool.run(measure_sweep_point, trials) == clean


class TestPoolShutdownSemantics:
    def test_close_cancels_queued_futures(self):
        pool = SupervisedTrialPool(2)
        pool.run(_double, [1, 2, 3])
        captured = {}
        inner = pool._pool
        original = inner.shutdown

        def recording_shutdown(*args, **kwargs):
            captured.update(kwargs)
            return original(*args, **kwargs)

        inner.shutdown = recording_shutdown
        pool.close()
        # An exception mid-suite must not block close() on queued trials.
        assert captured.get("cancel_futures") is True
