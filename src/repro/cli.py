"""Command-line interface.

Installed as the ``repro-noc`` console script (or invoked as
``python -m repro.cli``).  Eight subcommands cover the everyday workflows:

* ``sweep``     — load/latency characterisation of a mesh (no learning);
  ``--jobs N`` fans the sweep points out over a process pool;
* ``scenarios`` — list the named experiment scenarios or run a selection of
  them (``scenarios list`` / ``scenarios run NAME... --jobs N``);
* ``suite``     — list, describe, run or diff the registered benchmark
  suites (one per paper figure/table, plus CI-sized ``-smoke`` variants);
  with ``--check --baseline FILE`` a run doubles as the perf-regression
  guard over the suite's records; ``suite diff A.json B.json`` compares two
  stored artefacts row by row (all fields, wall clocks excluded) and exits
  nonzero on any mismatch; ``suite run`` is fault tolerant (``--timeout``
  / ``--retries`` tune the supervised pool, exit 4 = subtrials failed every
  attempt) and resumable (``--resume`` skips subtrials journaled under
  ``--out`` by a previous, possibly killed, run; Ctrl-C exits 130 with the
  journal flushed);
* ``bench``     — hot-path engine microbenchmark: cycles/sec of an
  optimised engine (``--engine cycle`` = activity-tracked loop, ``event`` =
  calendar queue) vs the naive scan-everything loop; with ``--check
  --baseline FILE`` it doubles as the perf-regression guard and exits
  nonzero when throughput falls past ``--tolerance``;
* ``train``     — train the DQN self-configuration controller (``--jobs N``
  shards actor rollouts over a process pool; ``--resume`` continues from a
  checkpoint) and optionally save a checkpoint;
* ``evaluate``  — deploy a trained checkpoint or a named baseline on a
  held-out workload and print its summary;
* ``compare``   — evaluate the baselines (and optionally a checkpoint) side
  by side, Table-I style;
* ``perf``      — consume the stored perf telemetry: ``perf report`` turns
  every artefact under ``benchmarks/results/`` (plus ``--baseline`` files,
  e.g. restored CI caches) into a per-(scenario, engine) trend table,
  engine win/loss matrix and advisory regression check.

Two more subcommands host the distributed suite service
(:mod:`repro.exp.service`):

* ``serve``     — run a broker: workers connect and pull subtrial leases,
  clients submit whole suites; ``--once`` exits after the first job (CI);
* ``worker``    — join a broker's fleet (``worker --connect tcp://HOST:PORT``)
  and execute leased subtrials until the broker shuts down.

``suite run --workers tcp://HOST:PORT`` is the matching client: the suite
executes on the fleet and the artefact is byte-identical to a local run.

Execution flags are shared: ``sweep``, ``scenarios run``, ``suite run``,
``train``, ``serve`` and ``worker`` all accept the same
``--jobs/--train-jobs/--engine/--timeout/--retries/--telemetry`` group
(one argparse parent), mapping 1:1 onto
:class:`repro.exp.execution.ExecutionConfig` via
:func:`execution_config_from_args`.  ``--engine cycle|event`` selects the
pluggable execution backends of :mod:`repro.engines`; simulated outcomes
are byte-identical across engines, so the flag is purely a perf choice.
``--engine auto`` defers that choice to the measured telemetry (the
:class:`repro.exp.telemetry.EnginePolicy` over the stored artefacts),
logging which measurement decided.  ``--telemetry PATH`` streams live rows
(CSV when the path ends in ``.csv``, JSONL otherwise).
"""

from __future__ import annotations

import argparse
import difflib
import json
import logging
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.analysis import format_series, format_table, summarize_trace
from repro.analysis.sweep import load_latency_sweep
from repro.baselines import (
    RandomPolicy,
    ThresholdDvfsPolicy,
    static_max_performance,
    static_min_energy,
)
from repro.core import ExperimentConfig, checkpoint, evaluate_controller
from repro.exp import (
    HOTPATH_SCENARIOS,
    TrialExecutionError,
    all_scenarios,
    all_suites,
    default_experiment_dqn_config,
    get_scenario,
    get_suite,
    paper_suites,
    parse_chaos_spec,
    run_hotpath_benchmark,
    run_scenarios,
    run_suite,
    scenario_names,
    suite_names,
    train_dqn_sharded,
)
from repro.engines import (
    AUTO_ENGINE,
    DEFAULT_ENGINE,
    engine_infos,
    resolve_engine_name,
    selectable_engine_names,
)
from repro.exp.bench import BENCH_ENGINE_VARIANTS, RESULTS_SCHEMA
from repro.exp.execution import ExecutionConfig, SupervisionPolicy
from repro.exp.perfguard import (
    DEFAULT_TOLERANCE,
    check_against_baseline,
    format_regressions,
)
from repro.exp.service import (
    ServiceError,
    ServiceWorker,
    SuiteBroker,
    parse_workers_url,
)
from repro.exp.suites import (
    APPROX_DIFF_IGNORED_KEYS,
    APPROX_DIFF_TOLERANCES,
    DIFF_IGNORED_KEYS,
    JournalMismatchError,
    diff_payloads,
)
from repro.exp.telemetry import (
    DEFAULT_RESULTS_DIR,
    EnginePolicy,
    TelemetrySink,
    build_trend_report,
)
from repro.noc import SimulatorConfig

BASELINE_NAMES = ("static-max", "static-min", "heuristic", "random")


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value!r}")
    return number


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value!r}"
        )
    return number


def _unknown_names_error(kind: str, unknown: Sequence[str], known: Sequence[str]) -> None:
    """Print an unknown-name diagnostic with a did-you-mean suggestion."""
    message = f"unknown {kind}{'s' if len(unknown) > 1 else ''}: {', '.join(unknown)}"
    suggestions = []
    for name in unknown:
        close = difflib.get_close_matches(name, known, n=1, cutoff=0.5)
        if close and close[0] not in suggestions:
            suggestions.append(close[0])
    if suggestions:
        message += f"; did you mean: {', '.join(suggestions)}?"
    message += f" (known: {', '.join(known)})"
    print(message, file=sys.stderr)


def _check_names(kind: str, names: Sequence[str], known: Sequence[str]) -> bool:
    """True when every name is known; otherwise print the diagnostic."""
    unknown = [name for name in names if name not in known]
    if unknown:
        _unknown_names_error(kind, unknown, known)
        return False
    return True


def _write_json(path: str, payload) -> None:
    """Write a JSON artefact, creating parent directories as needed.

    Dict payloads gain a top-level ``generated_at`` stamp (unix seconds) so
    ``perf report`` can order artefacts by production time even on a fresh
    checkout, where every committed file shares one mtime.  The stamp is a
    wall-clock field (see :data:`repro.exp.telemetry.WALL_CLOCK_FIELDS`),
    so parity diffing ignores it.
    """
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(payload, dict) and "generated_at" not in payload:
        payload = {**payload, "generated_at": time.time()}
    with target.open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)


def _execution_parent() -> argparse.ArgumentParser:
    """The shared execution-flag group (argparse parent).

    ``sweep``, ``scenarios run``, ``suite run``, ``train``, ``serve`` and
    ``worker`` all inherit these six flags, so execution knobs parse
    identically everywhere and map 1:1 onto
    :class:`~repro.exp.execution.ExecutionConfig` (see
    :func:`execution_config_from_args`).  Defaults are ``None`` so commands
    can tell "left alone" from "explicitly set" (e.g. ``train`` treats
    ``--jobs`` as a synonym for ``--train-jobs``).
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group(
        "execution", "shared flags, mapping 1:1 onto ExecutionConfig"
    )
    group.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help="worker processes for the simulation trials (default 1 = "
        "in-process serial)",
    )
    group.add_argument(
        "--train-jobs",
        type=_positive_int,
        default=None,
        help="actor processes for controller training (default 1)",
    )
    group.add_argument(
        "--engine",
        default=None,
        help="simulation engine (cycle|event, or auto to pick the "
        "measured best; see `engines list`; simulated results are "
        "engine-agnostic)",
    )
    group.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per supervised attempt; a stalled worker is "
        "terminated and the trial retried (default: no limit)",
    )
    group.add_argument(
        "--retries",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="retries per failed trial before it is quarantined (default 2)",
    )
    group.add_argument(
        "--telemetry",
        metavar="PATH",
        help="stream perf telemetry rows to this file (.csv = CSV, else JSONL)",
    )
    return parent


def execution_config_from_args(
    args: argparse.Namespace,
    *,
    engine: str | None = ...,  # type: ignore[assignment]
    perf_repeats: int = 1,
    reuse_evals: bool = False,
    chaos=None,
) -> ExecutionConfig:
    """Map the shared execution flags 1:1 onto an :class:`ExecutionConfig`.

    ``engine`` overrides ``args.engine`` when the command has already
    resolved it (e.g. ``auto`` → per-suite choice; ``None`` explicitly
    defers to the spec's own engine); the remaining keywords carry knobs
    that live outside the shared flag group.
    """
    supervision_knobs: dict = {}
    if args.timeout is not None:
        supervision_knobs["timeout_s"] = args.timeout
    if args.retries is not None:
        supervision_knobs["max_retries"] = args.retries
    return ExecutionConfig(
        jobs=args.jobs or 1,
        train_jobs=args.train_jobs or 1,
        engine=args.engine if engine is ... else engine,
        perf_repeats=perf_repeats,
        reuse_evals=reuse_evals,
        supervision=SupervisionPolicy(**supervision_knobs),
        chaos=chaos,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-noc",
        description="DRL self-configurable NoC: sweeps, training, evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    execution = _execution_parent()

    sweep = subparsers.add_parser(
        "sweep", help="load/latency sweep of a mesh", parents=[execution]
    )
    sweep.add_argument("--width", type=int, default=4, help="mesh width (and height)")
    sweep.add_argument("--pattern", default="uniform", help="traffic pattern name")
    sweep.add_argument("--routing", default="xy", help="routing algorithm name")
    sweep.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=[0.05, 0.15, 0.25, 0.40],
        help="offered loads to sweep (flits/node/cycle)",
    )
    sweep.add_argument("--cycles", type=int, default=1200, help="measured cycles per point")
    sweep.add_argument("--dvfs-level", type=int, default=0, help="static DVFS level index")

    scenarios = subparsers.add_parser(
        "scenarios", help="list or run the named experiment scenarios"
    )
    scenarios_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)
    scenarios_sub.add_parser("list", help="show every registered scenario")
    scenarios_run = scenarios_sub.add_parser(
        "run",
        help="run one or more scenarios (optionally in parallel)",
        parents=[execution],
    )
    scenarios_run.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="scenario names (default: every registered scenario)",
    )
    scenarios_run.add_argument("--seed", type=int, default=0, help="base trial seed")
    scenarios_run.add_argument(
        "--repeats", type=_positive_int, default=1, help="independent seeds per scenario"
    )
    scenarios_run.add_argument(
        "--epochs", type=_positive_int, default=None, help="override the spec's epoch count"
    )
    scenarios_run.add_argument(
        "--epoch-cycles", type=_positive_int, default=None, help="override cycles per epoch"
    )
    scenarios_run.add_argument(
        "--json", dest="json_path", help="also write full per-epoch results to this file"
    )

    suite = subparsers.add_parser(
        "suite", help="list, describe or run the registered benchmark suites"
    )
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)
    suite_sub.add_parser("list", help="show every registered suite")
    suite_describe = suite_sub.add_parser(
        "describe", help="print one suite's full spec as JSON"
    )
    suite_describe.add_argument("name", help="suite name (see `suite list`)")
    suite_run = suite_sub.add_parser(
        "run",
        help="run one or more suites through the bench engine",
        parents=[execution],
    )
    suite_run.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="suite names (default with --all: every paper suite)",
    )
    suite_run.add_argument(
        "--all",
        action="store_true",
        dest="run_all",
        help="run every registered paper suite (fig1–fig5, table1–table4)",
    )
    suite_run.add_argument(
        "--smoke",
        action="store_true",
        help="run the CI-sized -smoke variant of each named suite",
    )
    suite_run.add_argument(
        "--workers",
        metavar="tcp://HOST:PORT",
        help="run the suites on the broker's worker fleet at this address "
        "instead of in-process (see `serve` / `worker`); the artefact is "
        "byte-identical to a local run",
    )
    suite_run.add_argument(
        "--repeats",
        type=_positive_int,
        default=1,
        help="perf samples per subtrial; the best wall time is kept (rows are "
        "identical across repeats)",
    )
    suite_run.add_argument(
        "--out",
        dest="out_dir",
        help="directory for per-suite JSON artefacts plus a combined suites.json",
    )
    suite_run.add_argument(
        "--check",
        action="store_true",
        help="compare against --baseline and exit nonzero on a perf regression",
    )
    suite_run.add_argument(
        "--baseline",
        help="stored suites.json artefact to compare cycles_per_s against",
    )
    suite_run.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fraction of baseline throughput that must be retained (default 0.75)",
    )
    suite_run.add_argument(
        "--resume",
        action="store_true",
        help="skip subtrials already journaled under --out from a previous "
        "(possibly killed) run of the same suite",
    )
    # Deterministic fault injection for tests and CI only — deliberately
    # undocumented in --help (see repro.exp.chaos.parse_chaos_spec).
    suite_run.add_argument("--chaos", default=None, help=argparse.SUPPRESS)
    suite_diff = suite_sub.add_parser(
        "diff",
        help="compare two stored suite artefacts row by row (all fields)",
    )
    suite_diff.add_argument("artifact_a", metavar="A.json", help="first stored artefact")
    suite_diff.add_argument("artifact_b", metavar="B.json", help="second stored artefact")
    suite_diff.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="KEY",
        help="additionally ignore this field everywhere (repeatable); "
        "wall-clock fields are always ignored",
    )
    suite_diff.add_argument(
        "--tolerance",
        dest="tolerances",
        action="append",
        default=[],
        metavar="FIELD=EPS",
        help="allow FIELD to differ by a relative epsilon "
        "(|a-b| <= eps*max(|a|,|b|,1)) instead of byte parity (repeatable; "
        "overrides the --approx preset for that field)",
    )
    suite_diff.add_argument(
        "--approx",
        action="store_true",
        help="compare an approximate engine's artefact against an exact "
        "one: preset per-field tolerances, engine/percentile fields ignored",
    )

    engines = subparsers.add_parser(
        "engines", help="inspect the registered simulation engines"
    )
    engines_sub = engines.add_subparsers(dest="engines_command", required=True)
    engines_sub.add_parser(
        "list", help="show every registered engine and its capabilities"
    )

    bench = subparsers.add_parser(
        "bench", help="hot-path engine microbenchmark (cycles/sec, both engines)"
    )
    bench.add_argument(
        "--scenarios",
        nargs="+",
        metavar="NAME",
        default=list(HOTPATH_SCENARIOS),
        help=f"scenarios to measure (default: {' '.join(HOTPATH_SCENARIOS)})",
    )
    bench.add_argument("--seed", type=int, default=0, help="trial seed")
    bench.add_argument(
        "--repeats",
        type=_positive_int,
        default=3,
        help="runs per (scenario, engine); the best wall time is kept",
    )
    bench.add_argument(
        "--epochs", type=_positive_int, default=None, help="override the spec's epoch count"
    )
    bench.add_argument(
        "--epoch-cycles", type=_positive_int, default=None, help="override cycles per epoch"
    )
    bench.add_argument(
        "--json", dest="json_path", help="also write the full payload to this file"
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="compare against --baseline and exit nonzero on a perf regression",
    )
    bench.add_argument(
        "--baseline",
        help="stored benchmarks/results artefact to compare cycles_per_s against",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fraction of baseline throughput that must be retained (default 0.75)",
    )
    bench.add_argument(
        "--engine",
        default="cycle",
        help="optimised engine to pit against the naive loop "
        "(cycle|event; see `engines list`)",
    )

    train = subparsers.add_parser(
        "train", help="train the DQN controller", parents=[execution]
    )
    train.add_argument("--episodes", type=_positive_int, default=20)
    train.add_argument("--preset", choices=("default", "small", "joint"), default="default")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint", help="directory to save the trained controller to")
    train.add_argument(
        "--sync-interval",
        type=_positive_int,
        default=1,
        help="actor rounds between policy-weight broadcasts (jobs > 1 only)",
    )
    train.add_argument(
        "--episodes-per-task",
        type=_positive_int,
        default=1,
        help="episodes batched onto each actor task (jobs > 1 only; amortises "
        "the per-task weight broadcast, default 1)",
    )
    train.add_argument(
        "--resume",
        help="checkpoint directory to resume training from (see --checkpoint)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="host a suite broker: workers pull subtrial leases, clients "
        "submit suites (see `worker` and `suite run --workers`)",
        parents=[execution],
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=_non_negative_int,
        default=7077,
        help="listen port (default 7077; 0 = pick a free port)",
    )
    serve.add_argument(
        "--out",
        dest="out_dir",
        help="directory for per-suite JSON artefacts and journals (clients "
        "resume against journals written here)",
    )
    serve.add_argument(
        "--lease-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="heartbeat deadline per lease; an expired lease is re-queued to "
        "another worker (default 30)",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="shut down after the first submitted suite job completes (CI)",
    )

    worker = subparsers.add_parser(
        "worker",
        help="join a broker's fleet and execute leased subtrials",
        parents=[execution],
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="tcp://HOST:PORT",
        help="broker address to pull leases from (see `serve`)",
    )
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable identity reported in leases and telemetry "
        "(default: HOSTNAME-PID)",
    )
    worker.add_argument(
        "--max-leases",
        type=_positive_int,
        default=None,
        help="exit after executing this many leases (default: serve until "
        "the broker shuts down)",
    )
    # Deterministic connection-fault injection for tests and CI only —
    # deliberately undocumented in --help (kill|stall:N.N|raise rules over
    # dispatch index / label, see repro.exp.chaos.parse_chaos_spec).
    worker.add_argument("--chaos", default=None, help=argparse.SUPPRESS)

    evaluate = subparsers.add_parser(
        "evaluate", help="evaluate a checkpoint or a named baseline"
    )
    evaluate.add_argument(
        "controller",
        help=f"checkpoint directory or one of: {', '.join(BASELINE_NAMES)}",
    )
    evaluate.add_argument("--preset", choices=("default", "small", "joint"), default="default")
    evaluate.add_argument("--epochs", type=int, default=None)

    compare = subparsers.add_parser("compare", help="compare baselines (and a checkpoint)")
    compare.add_argument("--checkpoint", help="optional trained controller to include")
    compare.add_argument("--preset", choices=("default", "small", "joint"), default="default")
    compare.add_argument("--epochs", type=int, default=None)

    perf = subparsers.add_parser(
        "perf", help="consume the stored perf telemetry (trend report, engine wins)"
    )
    perf_sub = perf.add_subparsers(dest="perf_command", required=True)
    perf_report = perf_sub.add_parser(
        "report",
        help="trend table, engine win/loss matrix and advisory regression "
        "check over stored perf artefacts",
    )
    perf_report.add_argument(
        "--results",
        default=str(DEFAULT_RESULTS_DIR),
        help="artefact directory to ingest (default: benchmarks/results)",
    )
    perf_report.add_argument(
        "--baseline",
        action="append",
        dest="baselines",
        default=[],
        metavar="PATH",
        help="extra artefact file or directory ingested as the oldest samples "
        "(repeatable; e.g. a restored CI baseline cache)",
    )
    perf_report.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format on stdout (default: text)",
    )
    perf_report.add_argument(
        "--json", dest="json_path", help="also write the JSON report to this file"
    )
    perf_report.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="fraction of the best prior throughput the newest sample must "
        "retain (default 0.75); the check is advisory — the report never "
        "fails the run",
    )

    return parser


def _experiment_from_preset(preset: str) -> ExperimentConfig:
    if preset == "small":
        return ExperimentConfig.small()
    if preset == "joint":
        return ExperimentConfig.joint_configuration()
    return ExperimentConfig.default()


def _baseline_policy(name: str, experiment: ExperimentConfig):
    num_levels = len(experiment.simulator.dvfs_levels)
    policies = {
        "static-max": static_max_performance,
        "static-min": lambda: static_min_energy(num_levels),
        "heuristic": lambda: ThresholdDvfsPolicy(num_levels),
        "random": lambda: RandomPolicy(experiment.build_action_space().size),
    }
    return policies[name]()


def _resolve_policy(controller: str, experiment: ExperimentConfig):
    if controller in BASELINE_NAMES:
        return _baseline_policy(controller, experiment)
    restored = checkpoint.load_dqn_checkpoint(controller)
    return restored.to_policy(name=f"drl[{controller}]")


def cmd_sweep(args: argparse.Namespace) -> int:
    engine = args.engine or "cycle"
    if not _check_names("engine", [engine], selectable_engine_names()):
        return 2
    if engine == AUTO_ENGINE:
        engine, reason = resolve_engine_name(
            engine, chooser=EnginePolicy.from_results().overall
        )
        print(f"engine auto: sweep -> {engine} ({reason})")
    exec_config = execution_config_from_args(args, engine=engine)
    config = SimulatorConfig(width=args.width, routing=args.routing)
    points = load_latency_sweep(
        config,
        list(args.rates),
        pattern=args.pattern,
        measure_cycles=args.cycles,
        dvfs_level=args.dvfs_level,
        jobs=exec_config.jobs,
        engine=exec_config.resolved_engine(),
    )
    if args.telemetry:
        with TelemetrySink(args.telemetry) as sink:
            for point in points:
                sink.emit(
                    {
                        "source": "perf",
                        "scenario": f"sweep/{args.pattern}",
                        "engine": engine,
                        "rate": point.injection_rate,
                        "average_latency": point.average_latency,
                        "packets_delivered": point.delivered_packets,
                        "wall_s": point.wall_time_s,
                        "cycles_per_s": point.cycles_per_second,
                    }
                )
            print(f"telemetry: {sink.rows_written} row(s) -> {sink.path}")
    print(
        format_series(
            "offered_load",
            [point.injection_rate for point in points],
            {
                "latency": [point.average_latency for point in points],
                "throughput": [point.throughput for point in points],
                "energy_per_flit_pj": [point.energy_per_flit_pj for point in points],
            },
            title=f"Load sweep — {args.width}x{args.width} mesh, {args.pattern}, {args.routing}",
        )
    )
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    if args.scenarios_command == "list":
        rows = [
            {
                "scenario": spec.name,
                "phases": len(spec.phases),
                "faults": len(spec.faults),
                "mesh": f"{spec.width}x{spec.height or spec.width}"
                + (" torus" if spec.torus else ""),
                "routing": spec.routing,
                "dvfs": spec.dvfs_policy,
                "description": spec.description,
            }
            for spec in all_scenarios()
        ]
        print(format_table(rows, title="Registered scenarios"))
        return 0

    names = list(args.names) or list(scenario_names())
    if not _check_names("scenario", names, scenario_names()):
        return 2
    if args.engine is not None and not _check_names(
        "engine", [args.engine], selectable_engine_names()
    ):
        return 2
    engine = args.engine
    engine_overrides: dict[str, str] | None = None
    if engine == AUTO_ENGINE:
        policy = EnginePolicy.from_results()
        engine = None
        engine_overrides = {}
        for name in names:
            resolved, reason = resolve_engine_name(
                AUTO_ENGINE, chooser=lambda name=name: policy.choose(name)
            )
            engine_overrides[name] = resolved
            print(f"engine auto: scenario {name} -> {resolved} ({reason})")
    config = execution_config_from_args(args, engine=engine)
    sink = TelemetrySink(args.telemetry) if args.telemetry else None
    if sink is not None and config.jobs > 1:
        # Workers forward rows through a manager queue to a parent-side
        # drainer (see run_scenarios), so the tap works at any --jobs;
        # only the interleaving across scenarios is nondeterministic.
        print("telemetry: parallel run — per-epoch row order is nondeterministic")
    try:
        results = run_scenarios(
            names,
            config=config,
            seed=args.seed,
            repeats=args.repeats,
            epochs=args.epochs,
            epoch_cycles=args.epoch_cycles,
            engine_overrides=engine_overrides,
            telemetry=sink,
        )
        if sink is not None:
            for result in results:
                override = (engine_overrides or {}).get(result.scenario, config.engine)
                spec = get_scenario(result.scenario)
                sink.emit(
                    {
                        "source": "perf",
                        "scenario": result.scenario,
                        "engine": override or spec.engine or "cycle",
                        "n_nodes": spec.width * (spec.height or spec.width),
                        "seed": result.seed,
                        "cycles": result.cycles,
                        "packets_delivered": result.packets_delivered,
                        "average_latency": result.average_latency,
                        "energy_total_pj": result.energy_total_pj,
                        "wall_s": result.wall_time_s,
                        "cycles_per_s": result.cycles_per_second,
                    }
                )
    finally:
        if sink is not None:
            sink.close()
    print(format_table([result.summary() for result in results], title="Scenario runs"))
    if sink is not None:
        print(f"telemetry: {sink.rows_written} row(s) -> {sink.path}")
    if args.json_path:
        _write_json(args.json_path, [result.to_dict() for result in results])
        print(f"full results written to {args.json_path}")
    return 0


def _parse_tolerance_specs(specs: list[str]) -> dict[str, float]:
    """Parse repeated ``FIELD=EPS`` flags into a tolerance mapping."""
    tolerances: dict[str, float] = {}
    for spec in specs:
        field, separator, raw = spec.partition("=")
        if not separator or not field:
            raise ValueError(f"expected FIELD=EPS, got {spec!r}")
        try:
            eps = float(raw)
        except ValueError:
            raise ValueError(f"bad epsilon in {spec!r}: {raw!r} is not a number")
        if eps < 0:
            raise ValueError(f"epsilon must be non-negative in {spec!r}")
        tolerances[field] = eps
    return tolerances


def _suite_diff(args: argparse.Namespace) -> int:
    """``suite diff A.json B.json``: row-by-row comparison, all fields."""
    payloads = []
    for path in (args.artifact_a, args.artifact_b):
        target = Path(path)
        if not target.exists():
            print(f"no such artefact: {target}", file=sys.stderr)
            return 2
        payloads.append(json.loads(target.read_text(encoding="utf-8")))
    ignore = DIFF_IGNORED_KEYS | set(args.ignore)
    # --approx seeds the tolerance set for exact-vs-approximate engine
    # comparisons; explicit --tolerance FIELD=EPS entries win over it.
    # With neither flag, tolerances stay None and every field compares
    # byte-exact — the default diff contract is unchanged.
    tolerances: dict[str, float] | None = None
    if args.approx:
        tolerances = dict(APPROX_DIFF_TOLERANCES)
        ignore = ignore | APPROX_DIFF_IGNORED_KEYS
    if args.tolerances:
        try:
            overrides = _parse_tolerance_specs(args.tolerances)
        except ValueError as error:
            print(f"bad --tolerance: {error}", file=sys.stderr)
            return 2
        tolerances = {**(tolerances or {}), **overrides}
    differences = diff_payloads(
        payloads[0], payloads[1], ignore=ignore, tolerances=tolerances
    )
    mode = (
        " within tolerances" if tolerances else " (wall-clock fields ignored)"
    )
    if not differences:
        print(
            f"suite diff: {args.artifact_a} and {args.artifact_b} are "
            f"identical{mode}"
        )
        return 0
    print(f"suite diff: {len(differences)} difference(s)")
    for line in differences:
        print(f"  {line}")
    return 1


def cmd_suite(args: argparse.Namespace) -> int:
    if args.suite_command == "list":
        rows = [
            {
                "suite": spec.name,
                "artifact": spec.artifact or "-",
                "units": len(spec.units),
                "trains": "yes" if spec.needs_training() else "no",
                "description": spec.description,
            }
            for spec in all_suites()
        ]
        print(format_table(rows, title="Registered suites"))
        return 0

    if args.suite_command == "describe":
        if not _check_names("suite", [args.name], suite_names()):
            return 2
        print(get_suite(args.name).to_json(indent=2))
        return 0

    if args.suite_command == "diff":
        return _suite_diff(args)

    if args.run_all:
        names = [spec.name for spec in paper_suites()]
    else:
        names = list(args.names)
    if not names:
        print("name at least one suite (or pass --all)", file=sys.stderr)
        return 2
    if args.smoke:
        names = [
            name if name.endswith("-smoke") else f"{name}-smoke" for name in names
        ]
    if not _check_names("suite", names, suite_names()):
        return 2
    engine = args.engine or "cycle"
    if not _check_names("engine", [engine], selectable_engine_names()):
        return 2
    if args.check and not args.baseline:
        print("--check requires --baseline", file=sys.stderr)
        return 2
    if args.resume and not args.out_dir and not args.workers:
        print(
            "--resume requires --out (the journal lives beside the artefact; "
            "with --workers it lives under the broker's --out)",
            file=sys.stderr,
        )
        return 2
    if args.workers:
        try:
            parse_workers_url(args.workers)
        except ValueError as error:
            print(f"bad --workers address: {error}", file=sys.stderr)
            return 2
    chaos = None
    if args.chaos:
        try:
            chaos = parse_chaos_spec(args.chaos)
        except ValueError as error:
            print(f"bad --chaos spec: {error}", file=sys.stderr)
            return 2

    engine_by_suite: dict[str, str] = {}
    if engine == AUTO_ENGINE:
        policy = EnginePolicy.from_results()
        for name in names:
            # A smoke variant with no telemetry of its own inherits its full
            # suite's measurements before falling back to the default engine.
            smoke_of = get_suite(name).smoke_of
            fallback = (smoke_of,) if smoke_of else ()
            resolved, reason = resolve_engine_name(
                AUTO_ENGINE,
                chooser=lambda name=name, fallback=fallback: policy.choose_for_suite(
                    name, fallback=fallback
                ),
            )
            engine_by_suite[name] = resolved
            print(f"engine auto: suite {name} -> {resolved} ({reason})")

    sink = TelemetrySink(args.telemetry) if args.telemetry else None
    all_records: list[dict] = []
    try:
        for name in names:
            config = execution_config_from_args(
                args,
                engine=engine_by_suite.get(name, engine),
                perf_repeats=args.repeats,
                chaos=chaos,
            )
            outcome = run_suite(
                name,
                config=config,
                out_dir=args.out_dir,
                telemetry=sink,
                resume=args.resume,
                workers=args.workers,
            )
            all_records.extend(outcome.records)
            if outcome.resumed_subtrials:
                print(
                    f"suite {name}: resumed {outcome.resumed_subtrials} "
                    "journaled subtrial(s)"
                )
            print(format_table(outcome.records, title=f"Suite {name}"))
    except TrialExecutionError as error:
        # Siblings settled and the journal holds every completed subtrial;
        # report the quarantined ones and hand back a distinct exit code.
        print(f"suite {name}: {len(error.failures)} subtrial(s) failed "
              "every attempt:", file=sys.stderr)
        for failure in error.failures:
            print(f"  {failure.describe()}", file=sys.stderr)
        if args.out_dir:
            print(
                "completed subtrials are journaled; rerun with --resume to "
                "retry only the failed ones",
                file=sys.stderr,
            )
        return 4
    except JournalMismatchError as error:
        print(f"suite {name}: {error}", file=sys.stderr)
        print(
            "the journal under --out was written by a different suite "
            "revision; drop --resume (or point --out elsewhere) to start over",
            file=sys.stderr,
        )
        return 2
    except ServiceError as error:
        print(f"suite {name}: broker at {args.workers}: {error}", file=sys.stderr)
        return 2
    except ConnectionRefusedError:
        print(
            f"suite {name}: no broker listening at {args.workers} "
            "(start one with `repro-noc serve`)",
            file=sys.stderr,
        )
        return 2
    except KeyboardInterrupt:
        if args.out_dir:
            print(
                f"\nsuite {name}: interrupted; the journal holds every "
                "completed subtrial — rerun with --resume to continue",
                file=sys.stderr,
            )
        else:
            print(f"\nsuite {name}: interrupted", file=sys.stderr)
        return 130
    finally:
        if sink is not None:
            sink.close()
    if sink is not None:
        print(f"telemetry: {sink.rows_written} row(s) -> {sink.path}")
    combined = {
        "schema": list(RESULTS_SCHEMA),
        "suites": names,
        "runs": all_records,
        "generated_at": time.time(),
    }
    if args.out_dir:
        combined_path = Path(args.out_dir) / "suites.json"
        combined_path.write_text(json.dumps(combined, indent=2), encoding="utf-8")
        print(f"combined records written to {combined_path}")
    if args.check or args.baseline:
        regressions = check_against_baseline(combined, args.baseline, args.tolerance)
        print(format_regressions(regressions))
        if regressions:
            return 3
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    if not _check_names("scenario", args.scenarios, scenario_names()):
        return 2
    if not _check_names("engine", [args.engine], tuple(sorted(BENCH_ENGINE_VARIANTS))):
        return 2
    payload = run_hotpath_benchmark(
        args.scenarios,
        seed=args.seed,
        epochs=args.epochs,
        epoch_cycles=args.epoch_cycles,
        repeats=args.repeats,
        engine=args.engine,
    )
    optimised = BENCH_ENGINE_VARIANTS[args.engine]
    print(format_table(payload["runs"], title="Hot-path engine benchmark (best of runs)"))
    for scenario, speedup in payload["speedups"].items():
        equivalent = "ok" if payload["telemetry_equivalent"][scenario] else "DIVERGED"
        print(
            f"  {scenario}: {speedup:.2f}x {optimised} vs naive "
            f"(telemetry {equivalent})"
        )
    if args.json_path:
        _write_json(args.json_path, payload)
        print(f"full payload written to {args.json_path}")
    exit_code = 0 if all(payload["telemetry_equivalent"].values()) else 1
    if args.check or args.baseline:
        if not args.baseline:
            print("--check requires --baseline", file=sys.stderr)
            return 2
        regressions = check_against_baseline(payload, args.baseline, args.tolerance)
        print(format_regressions(regressions))
        if regressions and not exit_code:
            exit_code = 3
    return exit_code


def cmd_train(args: argparse.Namespace) -> int:
    from dataclasses import replace

    experiment = _experiment_from_preset(args.preset)
    engine = args.engine
    if engine is not None:
        if not _check_names("engine", [engine], selectable_engine_names()):
            return 2
        if engine == AUTO_ENGINE:
            engine, reason = resolve_engine_name(
                engine, chooser=EnginePolicy.from_results().overall
            )
            print(f"engine auto: train -> {engine} ({reason})")
        experiment = replace(
            experiment, simulator=replace(experiment.simulator, engine=engine)
        )
    # --jobs is a synonym for --train-jobs here: train's processes ARE the
    # actor shards (an explicit --train-jobs wins when both are given).
    train_jobs = args.train_jobs or args.jobs or 1
    supervision_knobs: dict = {}
    if args.timeout is not None:
        supervision_knobs["timeout_s"] = args.timeout
    if args.retries is not None:
        supervision_knobs["max_retries"] = args.retries
    exec_config = ExecutionConfig(
        train_jobs=train_jobs, supervision=SupervisionPolicy(**supervision_knobs)
    )
    if args.resume:
        restored = checkpoint.load_dqn_checkpoint(args.resume)
        expected = default_experiment_dqn_config(experiment)
        config = restored.agent.config
        if (config.observation_dim, config.num_actions) != (
            expected.observation_dim,
            expected.num_actions,
        ):
            print(
                f"checkpoint {args.resume} does not fit preset '{args.preset}': it was "
                f"trained with observation_dim={config.observation_dim}, "
                f"num_actions={config.num_actions} but the preset needs "
                f"observation_dim={expected.observation_dim}, "
                f"num_actions={expected.num_actions}",
                file=sys.stderr,
            )
            return 2
        print(
            f"Resuming DQN training from {args.resume} ({restored.episodes} episodes "
            f"trained) to {args.episodes} episodes with jobs={train_jobs} ..."
        )
        print(
            "  (hyperparameters, including the epsilon schedule, come from the "
            "checkpoint; --seed and fresh-train defaults are ignored)"
        )
        result = train_dqn_sharded(
            experiment,
            episodes=args.episodes,
            config=exec_config,
            sync_interval=args.sync_interval,
            episodes_per_task=args.episodes_per_task,
            resume_from=restored,
        )
    else:
        print(
            f"Training DQN controller: {args.episodes} episodes on preset "
            f"'{args.preset}' with jobs={train_jobs} ..."
        )
        result = train_dqn_sharded(
            experiment,
            episodes=args.episodes,
            config=exec_config,
            sync_interval=args.sync_interval,
            episodes_per_task=args.episodes_per_task,
            epsilon_decay_steps=max(args.episodes * experiment.episode_epochs // 2, 50),
            seed=args.seed,
        )
    print(f"  first episode return: {result.episode_returns[0]:.1f}")
    print(f"  final episode return: {result.final_return:.1f}")
    episodes_per_s = (
        f"{result.episodes_per_second:.2f}"
        if result.episodes_per_second is not None
        else "unmeasurable"
    )
    print(f"  wall time: {result.wall_time_s:.1f}s ({episodes_per_s} episodes/s)")
    if args.checkpoint:
        path = checkpoint.save_dqn_checkpoint(result, args.checkpoint)
        print(f"  checkpoint saved to {path}")
    trace = evaluate_controller(experiment, result.to_policy())
    print(format_table([summarize_trace(trace)], title="Held-out evaluation"))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: host a :class:`SuiteBroker` until interrupted.

    The execution flags form the broker's *default* config — applied when a
    client submits without one; ``suite run --workers`` clients always send
    their own, which wins.
    """
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s: %(message)s"
    )
    engine = args.engine
    if engine is not None:
        if not _check_names("engine", [engine], selectable_engine_names()):
            return 2
        if engine == AUTO_ENGINE:
            engine, reason = resolve_engine_name(
                engine, chooser=EnginePolicy.from_results().overall
            )
            print(f"engine auto: serve -> {engine} ({reason})")
    config = execution_config_from_args(args, engine=engine)
    try:
        broker = SuiteBroker(
            host=args.host,
            port=args.port,
            out_dir=args.out_dir,
            config=config,
            lease_timeout_s=args.lease_timeout,
            once=args.once,
        )
    except OSError as error:
        print(f"cannot bind {args.host}:{args.port}: {error}", file=sys.stderr)
        return 2
    with broker:
        print(
            f"broker listening on {broker.address}"
            + (" (exiting after one job)" if args.once else "")
        )
        print(f"  workers join with:  repro-noc worker --connect {broker.address}")
        print(f"  clients submit via: repro-noc suite run ... --workers {broker.address}")
        try:
            broker.serve_forever()
        except KeyboardInterrupt:
            print("\nbroker interrupted; draining connections", file=sys.stderr)
            return 130
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """``worker``: pull and execute subtrial leases until the broker stops.

    The shared execution flags are accepted for CLI symmetry but ignored:
    every lease carries the submitting client's :class:`ExecutionConfig`.
    """
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s: %(message)s"
    )
    try:
        parse_workers_url(args.connect)
    except ValueError as error:
        print(f"bad --connect address: {error}", file=sys.stderr)
        return 2
    chaos = None
    if args.chaos:
        try:
            chaos = parse_chaos_spec(args.chaos)
        except ValueError as error:
            print(f"bad --chaos spec: {error}", file=sys.stderr)
            return 2
    # CLI workers are disposable processes, so chaos `kill` may genuinely
    # hard-exit them (the broker re-queues the abandoned leases).
    worker = ServiceWorker(
        args.connect,
        worker_id=args.worker_id,
        chaos=chaos,
        allow_kill=True,
        max_leases=args.max_leases,
    )
    print(f"worker {worker.worker_id} pulling leases from {args.connect}")
    try:
        leases = worker.run()
    except ConnectionRefusedError:
        print(
            f"no broker listening at {args.connect} "
            "(start one with `repro-noc serve`)",
            file=sys.stderr,
        )
        return 2
    except ServiceError as error:
        print(f"broker at {args.connect}: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print(f"\nworker {worker.worker_id} interrupted", file=sys.stderr)
        return 130
    print(f"worker {worker.worker_id} done: {leases} lease(s) executed")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    experiment = _experiment_from_preset(args.preset)
    policy = _resolve_policy(args.controller, experiment)
    trace = evaluate_controller(experiment, policy, num_epochs=args.epochs)
    print(format_table([summarize_trace(trace)], title=f"Evaluation — {policy.name}"))
    print(f"DVFS level trace: {trace.dvfs_level_trace}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    experiment = _experiment_from_preset(args.preset)
    policies = [_baseline_policy(name, experiment) for name in BASELINE_NAMES]
    if args.checkpoint:
        policies.insert(0, _resolve_policy(args.checkpoint, experiment))
    rows = []
    for policy in policies:
        trace = evaluate_controller(experiment, policy, num_epochs=args.epochs)
        rows.append(summarize_trace(trace))
    print(format_table(rows, title="Controller comparison"))
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """``perf report``: the trend table over every stored perf artefact.

    Always exits 0 — the report is advisory observability; the enforcing
    gate stays with ``bench --check`` / ``suite run --check``.
    """
    report = build_trend_report(args.results, args.baselines)
    payload = report.to_payload(tolerance=args.tolerance)
    # Stamp here, not only in _write_json, so the printed JSON and the
    # --json file stay byte-identical payloads.
    payload["generated_at"] = time.time()
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(report.format_text(tolerance=args.tolerance))
    if args.json_path:
        _write_json(args.json_path, payload)
        # Keep stdout machine-readable under --format json.
        note_stream = sys.stderr if args.format == "json" else sys.stdout
        print(f"full report written to {args.json_path}", file=note_stream)
    return 0


def cmd_engines(args: argparse.Namespace) -> int:
    """``engines list``: every registry entry with its capability flags.

    ``selectable`` engines are valid ``--engine`` values (plus ``auto``).
    ``approximate`` engines synthesize telemetry instead of simulating it
    exactly; compare their artefacts with ``suite diff --approx``, never
    byte parity, and the auto policy never picks them either.
    """
    del args
    rows = [
        {
            "engine": info.name
            + (" (default)" if info.name == DEFAULT_ENGINE else ""),
            "selectable": "yes" if info.selectable else "no",
            "approximate": "yes" if info.approximate else "no",
        }
        for info in engine_infos()
    ]
    print(format_table(rows, title="Registered engines"))
    print(
        f"--engine accepts: {', '.join(selectable_engine_names())}; "
        "'approximate: yes' engines need suite diff --approx for comparison"
    )
    return 0


_COMMANDS = {
    "sweep": cmd_sweep,
    "scenarios": cmd_scenarios,
    "suite": cmd_suite,
    "engines": cmd_engines,
    "bench": cmd_bench,
    "train": cmd_train,
    "serve": cmd_serve,
    "worker": cmd_worker,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
    "perf": cmd_perf,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
