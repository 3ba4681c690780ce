"""Command-line interface (the ``repro-noc`` script, or ``python -m repro.cli``).

Every command that simulates runs a suite through
:func:`repro.exp.run_suite`: ``suite run`` a registered one, the others an
ad-hoc :class:`~repro.exp.suites.SuiteSpec` they build from their flags.

* ``sweep``     — load/latency sweep of a mesh, one subtrial per rate;
* ``scenarios`` — ``list`` the named scenarios, or ``run NAME...``;
* ``suite``     — ``list``, ``describe``, ``run`` or ``diff`` the registered
  suites (one per paper figure/table, plus CI-sized ``-smoke`` variants).
  ``suite diff A.json B.json`` compares two artefacts row by row (wall
  clocks excluded) and exits 1 on any mismatch.  ``suite run`` exits 4
  when a subtrial fails every attempt and, with ``--out``, reuses every
  subtrial journaled there by an earlier run on the same code, so
  rerunning a killed run's command continues it (Ctrl-C exits 130);
* ``train``     — train the DQN controller (``--resume`` continues from a
  checkpoint), then evaluate it on held-out traffic as one ``eval`` unit;
* ``evaluate``  — one ``eval`` unit: a checkpoint directory (shown as
  ``drl[<path>]``) or a named baseline;
* ``compare``   — one ``eval`` unit per baseline (and optional checkpoint),
  Table-I style;
* ``engines``   — list the registered simulation engines.

All but ``engines`` and ``suite list/describe/diff`` share one argparse
parent, ``--jobs/--engine/--timeout/--retries/--telemetry``, mapping 1:1
onto :class:`repro.exp.execution.ExecutionConfig` via
:func:`execution_config_from_args`; ``suite run`` and ``train`` add
``--train-jobs`` (``train`` reads ``--jobs`` as its synonym).  Simulated
outcomes are byte-identical across ``--jobs`` values and exact engines
(``--engine flow`` is approximate; see ``engines list``).  ``--telemetry
PATH`` streams the suite engine's ``subtrial`` and ``perf`` rows (CSV for
``.csv``, else JSONL); ``scenarios run``, ``evaluate`` and ``compare``
take ``--json PATH`` for the suite artefact.  Speed is measured by the
perf ledger (``benchmarks/ledger/``), not by this CLI.
"""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from repro.analysis import format_series, format_table
from repro.core import checkpoint
from repro.exp import (
    TrialExecutionError,
    all_scenarios,
    all_suites,
    default_experiment_dqn_config,
    get_scenario,
    get_suite,
    paper_suites,
    parse_chaos_spec,
    run_suite,
    scenario_names,
    suite_names,
    train_dqn_sharded,
)
from repro.engines import DEFAULT_ENGINE, engine_infos, selectable_engine_names
from repro.exp.execution import ExecutionConfig, SupervisionPolicy
from repro.exp.suites import (
    APPROX_DIFF_IGNORED_KEYS,
    APPROX_DIFF_TOLERANCES,
    BASELINE_POLICIES,
    DIFF_IGNORED_KEYS,
    SuiteOutcome,
    SuiteSpec,
    SuiteUnit,
    agent_payload_of,
    build_experiment,
    diff_payloads,
)
from repro.exp.telemetry import TelemetrySink

PRESETS = ("default", "small", "joint")


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


def _non_negative_float(value: str) -> float:
    number = float(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value!r}")
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


def _check_engine(args: argparse.Namespace) -> bool:
    """True when ``--engine`` is unset or a selectable engine."""
    return args.engine is None or _check_names(
        "engine", [args.engine], selectable_engine_names()
    )


def _execution_parent(*, train_jobs: bool) -> argparse.ArgumentParser:
    """The shared execution-flag group (argparse parent).

    Every simulating command inherits these flags, so execution knobs parse
    identically everywhere and map 1:1 onto
    :class:`~repro.exp.execution.ExecutionConfig` (see
    :func:`execution_config_from_args`).  ``train_jobs`` adds
    ``--train-jobs`` for the commands that train a controller.  Defaults
    are ``None`` so commands can tell "left alone" from "explicitly set"
    (``train`` treats ``--jobs`` as a synonym for ``--train-jobs``).
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
    if train_jobs:
        group.add_argument(
            "--train-jobs",
            type=_positive_int,
            default=None,
            help="actor processes for controller training (default 1)",
        )
    group.add_argument(
        "--engine",
        default=None,
        help="simulation engine (cycle|event|flow; see `engines list`; "
        "simulated results are identical on the exact engines)",
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
    args: argparse.Namespace, *, chaos=None
) -> ExecutionConfig:
    """Map the shared execution flags 1:1 onto an :class:`ExecutionConfig`.

    ``chaos`` carries ``suite run``'s hidden fault script, which lives
    outside the shared flag group.
    """
    supervision_knobs: dict = {}
    if args.timeout is not None:
        supervision_knobs["timeout_s"] = args.timeout
    if args.retries is not None:
        supervision_knobs["max_retries"] = args.retries
    return ExecutionConfig(
        jobs=args.jobs or 1,
        train_jobs=getattr(args, "train_jobs", None) or 1,
        engine=args.engine,
        supervision=SupervisionPolicy(**supervision_knobs),
        chaos=chaos,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-noc",
        description="DRL self-configurable NoC: sweeps, training, evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    execution = _execution_parent(train_jobs=False)
    training_execution = _execution_parent(train_jobs=True)
    artefact = argparse.ArgumentParser(add_help=False)
    artefact.add_argument(
        "--json",
        dest="json_path",
        help="also write the run's suite artefact to this file (compare two with `suite diff`)",
    )
    evaluation = argparse.ArgumentParser(add_help=False, parents=[execution, artefact])
    evaluation.add_argument("--preset", choices=PRESETS, default="default")
    evaluation.add_argument(
        "--epochs", type=_positive_int, help="epochs to evaluate (default: one episode)"
    )

    sweep = subparsers.add_parser(
        "sweep", help="load/latency sweep of a mesh", parents=[execution]
    )
    sweep.add_argument("--width", type=int, default=4, help="mesh width (and height)")
    sweep.add_argument("--pattern", default="uniform", help="traffic pattern name")
    sweep.add_argument("--routing", default="xy", help="routing algorithm name")
    sweep.add_argument(
        "--rates",
        type=_non_negative_float,
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
        parents=[execution, artefact],
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
        parents=[training_execution],
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
        "--out",
        dest="out_dir",
        help="directory for the per-suite JSON artefacts and journals; "
        "subtrials already journaled there are reused",
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

    train = subparsers.add_parser(
        "train", help="train the DQN controller", parents=[training_execution]
    )
    train.add_argument("--episodes", type=_positive_int, default=20)
    train.add_argument("--preset", choices=PRESETS, default="default")
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

    evaluate = subparsers.add_parser(
        "evaluate",
        help="evaluate a checkpoint or a named baseline",
        parents=[evaluation],
    )
    evaluate.add_argument(
        "controller",
        help=f"checkpoint directory or one of: {', '.join(BASELINE_POLICIES)}",
    )

    compare = subparsers.add_parser(
        "compare", help="compare baselines (and a checkpoint)", parents=[evaluation]
    )
    compare.add_argument("--checkpoint", help="optional trained controller to include")

    return parser


def _run_adhoc_suite(
    name: str,
    units: Sequence[SuiteUnit],
    args: argparse.Namespace,
    config: ExecutionConfig | None = None,
) -> SuiteOutcome:
    """Run ``units`` as an in-memory suite under the shared execution flags.

    Every simulating command but ``suite run`` goes through
    :func:`run_suite` exactly like a registered suite, so ``--telemetry``
    streams its ``subtrial`` and ``perf`` rows and ``--json`` (where the
    command has it) writes its suite artefact.
    """
    spec = SuiteSpec(name=name, description=f"ad-hoc {name}", units=tuple(units))
    config = config or execution_config_from_args(args)
    if not args.telemetry:
        outcome = run_suite(spec, config=config)
    else:
        with TelemetrySink(args.telemetry) as sink:
            outcome = run_suite(spec, config=config, telemetry=sink)
        print(f"telemetry: {sink.rows_written} row(s) -> {sink.path}")
    json_path = getattr(args, "json_path", None)
    if json_path:
        Path(json_path).parent.mkdir(parents=True, exist_ok=True)
        Path(json_path).write_text(json.dumps(outcome.to_payload(), indent=2), encoding="utf-8")
        print(f"suite artefact written to {json_path}")
    return outcome


def _controller_units(
    controllers: Sequence[str], args: argparse.Namespace
) -> list[SuiteUnit] | None:
    """One ``eval`` unit per controller: a baseline by name, else a checkpoint
    directory deployed as ``drl[<path>]`` with its weights in the unit.

    ``None``, after the did-you-mean diagnostic, for a name that is neither
    (or an unknown ``--engine``).
    """
    unknown = [c for c in controllers if c not in BASELINE_POLICIES and not Path(c).is_dir()]
    if not _check_engine(args) or not _check_names("controller", unknown, BASELINE_POLICIES):
        return None
    units = []
    for name in controllers:
        params = {"preset": args.preset, "num_epochs": args.epochs, "policy": name}
        if name not in BASELINE_POLICIES:
            restored = checkpoint.load_dqn_checkpoint(name)
            params.update(policy="drl", agent=agent_payload_of(restored))
            name = f"drl[{name}]"
        units.append(SuiteUnit(name, "eval", params))
    return units


def _summary_rows(outcome: SuiteOutcome) -> list[dict]:
    """One row per ``eval`` unit, its ``policy`` the unit name (``drl[<path>]``
    for a checkpoint)."""
    return [{**unit["summary"], "policy": unit["unit"]} for unit in outcome.units]


def cmd_sweep(args: argparse.Namespace) -> int:
    if not _check_engine(args):
        return 2
    params = {
        "width": args.width,
        "pattern": args.pattern,
        "routing": args.routing,
        "rates": list(args.rates),
        "measure_cycles": args.cycles,
        "dvfs_level": args.dvfs_level,
    }
    rows = _run_adhoc_suite("sweep", [SuiteUnit("sweep", "sweep", params)], args).rows("sweep")
    print(
        format_series(
            "offered_load",
            [row["rate"] for row in rows],
            {
                "latency": [row["average_latency"] for row in rows],
                "throughput": [row["throughput"] for row in rows],
                "energy_per_flit_pj": [row["energy_per_flit_pj"] for row in rows],
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

    # Suite unit names must be unique; a repeated name re-ran the same seeds.
    names = list(dict.fromkeys(args.names)) or list(scenario_names())
    if not _check_names("scenario", names, scenario_names()) or not _check_engine(args):
        return 2
    units = [
        SuiteUnit(
            name,
            "scenario",
            {
                "scenario": name,
                "seed": args.seed,
                "repeats": args.repeats,
                "epochs": args.epochs,
                "epoch_cycles": args.epoch_cycles,
                # A spec's own engine applies unless --engine is given.
                "engine": args.engine or get_scenario(name).engine,
            },
        )
        for name in names
    ]
    outcome = _run_adhoc_suite("scenarios", units, args)
    rows = [row for unit in outcome.units for row in unit["rows"]]
    print(format_table(rows, title="Scenario runs"))
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
    if not _check_names("suite", names, suite_names()) or not _check_engine(args):
        return 2
    chaos = None
    if args.chaos:
        try:
            chaos = parse_chaos_spec(args.chaos)
        except ValueError as error:
            print(f"bad --chaos spec: {error}", file=sys.stderr)
            return 2

    config = execution_config_from_args(args, chaos=chaos)
    sink = TelemetrySink(args.telemetry) if args.telemetry else None
    try:
        for name in names:
            outcome = run_suite(
                name, config=config, out_dir=args.out_dir, telemetry=sink
            )
            if outcome.reused_subtrials:
                print(
                    f"suite {name}: reused {outcome.reused_subtrials} "
                    "stored subtrial(s)"
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
                "completed subtrials are journaled; rerun the same command "
                "to retry only the failed ones",
                file=sys.stderr,
            )
        return 4
    except KeyboardInterrupt:
        if args.out_dir:
            print(
                f"\nsuite {name}: interrupted; the journal holds every "
                "completed subtrial — rerun the same command to continue",
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
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    if not _check_engine(args):
        return 2
    experiment = build_experiment({"preset": args.preset, "engine": args.engine})
    # --jobs is a synonym for --train-jobs here: train's processes ARE the
    # actor shards (an explicit --train-jobs wins when both are given).
    jobs = args.train_jobs or args.jobs or 1
    exec_config = replace(execution_config_from_args(args), train_jobs=jobs)
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
            f"trained) to {args.episodes} episodes with jobs={jobs} ..."
        )
        print(
            "  (hyperparameters, including the epsilon schedule, come from the "
            "checkpoint; --seed and fresh-train defaults are ignored)"
        )
        start = {"resume_from": restored}
    else:
        print(
            f"Training DQN controller: {args.episodes} episodes on preset "
            f"'{args.preset}' with jobs={jobs} ..."
        )
        start = {
            "epsilon_decay_steps": max(args.episodes * experiment.episode_epochs // 2, 50),
            "seed": args.seed,
        }
    result = train_dqn_sharded(
        experiment,
        episodes=args.episodes,
        config=exec_config,
        sync_interval=args.sync_interval,
        episodes_per_task=args.episodes_per_task,
        **start,
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
    held_out = {"policy": "drl", "preset": args.preset, "agent": agent_payload_of(result)}
    outcome = _run_adhoc_suite("train", [SuiteUnit("drl", "eval", held_out)], args, exec_config)
    print(format_table(_summary_rows(outcome), title="Held-out evaluation"))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    units = _controller_units([args.controller], args)
    if units is None:
        return 2
    outcome = _run_adhoc_suite("evaluate", units, args)
    [row] = _summary_rows(outcome)
    print(format_table([row], title=f"Evaluation — {row['policy']}"))
    levels = [epoch["dvfs_level"] for epoch in outcome.units[0]["rows"]]
    print(f"DVFS level trace: {levels}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    checkpoints = [args.checkpoint] if args.checkpoint else []
    units = _controller_units([*checkpoints, *BASELINE_POLICIES], args)
    if units is None:
        return 2
    outcome = _run_adhoc_suite("compare", units, args)
    print(format_table(_summary_rows(outcome), title="Controller comparison"))
    return 0


def cmd_engines(args: argparse.Namespace) -> int:
    """``engines list``: every registry entry with its capability flags.

    ``selectable`` engines are valid ``--engine`` values.  ``approximate``
    engines synthesize telemetry instead of simulating it exactly; compare
    their artefacts with ``suite diff --approx``, never byte parity.
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
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "compare": cmd_compare,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
