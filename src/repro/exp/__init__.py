"""Experiment engine: named scenarios, suites and one supervised pool.

This is the substrate the benchmarks and CLI fan out through — see
:mod:`repro.exp.scenarios` for the scenario registry,
:mod:`repro.exp.suites` for the suite registry (paper figures/tables as
pure data) and :func:`run_suite`, the one fan-out path (the CLI's ``sweep``
and ``scenarios run`` are ad-hoc suites through it),
:mod:`repro.exp.runner` for the supervised process pool
(timeouts, bounded retries, pool rebuilds, poison-trial quarantine),
:mod:`repro.exp.chaos` for the deterministic fault-injection harness,
:mod:`repro.exp.training` for the sharded DQN training engine,
:mod:`repro.exp.execution` for the frozen :class:`ExecutionConfig` that
every entry point shares,
:mod:`repro.exp.wire` for the subtrial frame codec the perf ledger probes
and :mod:`repro.exp.telemetry` for the live CSV/JSONL telemetry tap.  Speed is
measured by the perf ledger (``benchmarks/ledger/``), not by this package.
"""

from repro.exp.chaos import (
    ChaosError,
    ChaosPolicy,
    ChaosRule,
    execute_chaos_action,
    parse_chaos_spec,
)
from repro.exp.execution import DEFAULT_ENGINE, ExecutionConfig, SupervisionPolicy
from repro.exp.runner import (
    SupervisedTrialPool,
    TrialExecutionError,
    TrialFailure,
    trial_seed,
)
from repro.exp.scenarios import (
    FaultEvent,
    ScenarioResult,
    ScenarioSpec,
    ScenarioWorkload,
    TrafficPhase,
    all_scenarios,
    get_scenario,
    register_scenario,
    run_scenario,
    scenario_names,
)
from repro.exp.telemetry import (
    NONDETERMINISTIC_FIELDS,
    SCHEDULING_FIELDS,
    TELEMETRY_FIELDS,
    WALL_CLOCK_FIELDS,
    TelemetrySink,
    read_telemetry,
)
from repro.exp.suites import (
    DIFF_IGNORED_KEYS,
    MAIN_TRAINING,
    RESULTS_SCHEMA,
    SuiteJournal,
    SuiteOutcome,
    SuiteSpec,
    SuiteUnit,
    Subtrial,
    all_suites,
    derive_smoke_suite,
    diff_payloads,
    get_suite,
    paper_suites,
    perf_record,
    register_suite,
    run_suite,
    suite_names,
    train_controller,
)
from repro.exp.training import (
    ActorBatchTask,
    ActorRollout,
    default_experiment_dqn_config,
    run_actor_batch,
    train_dqn_sharded,
)

__all__ = [
    "ActorBatchTask",
    "ActorRollout",
    "ChaosError",
    "ChaosPolicy",
    "ChaosRule",
    "DEFAULT_ENGINE",
    "DIFF_IGNORED_KEYS",
    "ExecutionConfig",
    "FaultEvent",
    "MAIN_TRAINING",
    "NONDETERMINISTIC_FIELDS",
    "RESULTS_SCHEMA",
    "SCHEDULING_FIELDS",
    "ScenarioResult",
    "ScenarioSpec",
    "ScenarioWorkload",
    "Subtrial",
    "SuiteJournal",
    "SuiteOutcome",
    "SuiteSpec",
    "SuiteUnit",
    "SupervisedTrialPool",
    "SupervisionPolicy",
    "TELEMETRY_FIELDS",
    "TelemetrySink",
    "TrafficPhase",
    "TrialExecutionError",
    "TrialFailure",
    "WALL_CLOCK_FIELDS",
    "all_scenarios",
    "all_suites",
    "default_experiment_dqn_config",
    "derive_smoke_suite",
    "diff_payloads",
    "execute_chaos_action",
    "get_scenario",
    "get_suite",
    "paper_suites",
    "parse_chaos_spec",
    "perf_record",
    "read_telemetry",
    "register_scenario",
    "register_suite",
    "run_actor_batch",
    "run_scenario",
    "run_suite",
    "scenario_names",
    "suite_names",
    "train_controller",
    "train_dqn_sharded",
    "trial_seed",
]
