"""Tests for the repro-noc command-line interface."""

import pytest

from repro import cli
from repro.analysis import format_table, summarize_trace
from repro.core import ExperimentConfig, TrafficSpec, checkpoint, evaluate_controller
from repro.core.training import train_dqn_controller
from repro.exp.suites import build_experiment, build_policy


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args([])

    def test_sweep_defaults(self):
        args = cli.build_parser().parse_args(["sweep"])
        assert args.command == "sweep"
        assert args.width == 4
        assert args.pattern == "uniform"

    def test_train_arguments(self):
        args = cli.build_parser().parse_args(
            ["train", "--episodes", "3", "--preset", "small", "--checkpoint", "/tmp/x"]
        )
        assert args.episodes == 3
        assert args.preset == "small"
        assert args.checkpoint == "/tmp/x"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["fly"])

    def test_sweep_jobs_flag(self):
        args = cli.build_parser().parse_args(["sweep", "--jobs", "4"])
        assert args.jobs == 4

    def test_scenarios_requires_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["scenarios"])

    def test_scenarios_run_arguments(self):
        args = cli.build_parser().parse_args(
            ["scenarios", "run", "uniform", "hotspot", "--jobs", "2", "--seed", "9"]
        )
        assert args.scenarios_command == "run"
        assert args.names == ["uniform", "hotspot"]
        assert args.jobs == 2
        assert args.seed == 9

    def test_engine_flags_parse_everywhere(self):
        parser = cli.build_parser()
        assert parser.parse_args(["sweep", "--engine", "event"]).engine == "event"
        # The shared execution parent leaves --engine unset; each command
        # resolves None to its default ("cycle" for sweep/suite run).
        assert parser.parse_args(["sweep"]).engine is None
        assert (
            parser.parse_args(["scenarios", "run", "--engine", "event"]).engine
            == "event"
        )
        assert parser.parse_args(["scenarios", "run"]).engine is None
        assert (
            parser.parse_args(["suite", "run", "fig1", "--engine", "event"]).engine
            == "event"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--rates", "0.05", "--cycles", "100"],
            ["scenarios", "run", "uniform", "--epochs", "1", "--epoch-cycles", "50"],
            ["train", "--preset", "small", "--episodes", "1"],
        ],
    )
    def test_engine_auto_is_rejected_on_every_runner(self, argv, capsys):
        assert cli.main([*argv, "--engine", "auto"]) == 2
        err = capsys.readouterr().err
        assert "unknown engine: auto" in err
        assert "known: cycle, event, flow)" in err

    def test_telemetry_flags_parse_everywhere(self):
        parser = cli.build_parser()
        assert parser.parse_args(["sweep"]).telemetry is None
        assert (
            parser.parse_args(["sweep", "--telemetry", "tap.csv"]).telemetry
            == "tap.csv"
        )
        assert (
            parser.parse_args(
                ["scenarios", "run", "uniform", "--telemetry", "tap.jsonl"]
            ).telemetry
            == "tap.jsonl"
        )
        assert (
            parser.parse_args(
                ["suite", "run", "fig1", "--telemetry", "tap.csv"]
            ).telemetry
            == "tap.csv"
        )

class TestSweepCommand:
    def test_prints_series(self, capsys):
        exit_code = cli.main(
            ["sweep", "--rates", "0.05", "0.2", "--cycles", "300", "--width", "4"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Load sweep" in output
        assert "latency" in output and "throughput" in output
        assert "0.05" in output


class TestScenariosCommand:
    def test_list_prints_every_scenario(self, capsys):
        exit_code = cli.main(["scenarios", "list"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("uniform", "bursty", "link-failure-storm", "diurnal-ramp"):
            assert name in output

    def test_run_prints_summaries_and_writes_json(self, capsys, tmp_path):
        json_path = tmp_path / "results.json"
        exit_code = cli.main(
            [
                "scenarios", "run", "uniform", "hotspot",
                "--epochs", "1", "--epoch-cycles", "120",
                "--json", str(json_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "uniform" in output and "hotspot" in output
        assert f"suite artefact written to {json_path}" in output
        import json

        payload = json.loads(json_path.read_text())
        # The suite artefact shape, so `suite diff` compares two of them.
        assert payload["suite"] == "scenarios"
        assert [unit["unit"] for unit in payload["units"]] == ["uniform", "hotspot"]
        assert [run["scenario"] for run in payload["runs"]] == ["uniform", "hotspot"]
        [row] = payload["units"][0]["rows"]
        assert (row["scenario"], row["seed"], row["cycles"]) == ("uniform", 0, 120)

    def test_run_rejects_unknown_scenario(self, capsys):
        exit_code = cli.main(["scenarios", "run", "no-such-scenario"])
        assert exit_code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_suggests_the_closest_scenario_name(self, capsys):
        exit_code = cli.main(["scenarios", "run", "unifrm"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "did you mean: uniform?" in err

    def test_run_rejects_unknown_engine_with_suggestion(self, capsys):
        exit_code = cli.main(["scenarios", "run", "uniform", "--engine", "evnt"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "unknown engine" in err and "did you mean: event?" in err

    def test_run_on_the_event_engine_matches_the_cycle_engine(self, capsys, tmp_path):
        import json

        from repro.exp.suites import DIFF_IGNORED_KEYS, diff_payloads

        payloads = []
        for engine in ("cycle", "event"):
            json_path = tmp_path / f"{engine}.json"
            exit_code = cli.main(
                [
                    "scenarios", "run", "uniform",
                    "--epochs", "1", "--epoch-cycles", "120",
                    "--engine", engine, "--json", str(json_path),
                ]
            )
            assert exit_code == 0
            payloads.append(json.loads(json_path.read_text()))
        assert diff_payloads(*payloads, ignore=DIFF_IGNORED_KEYS | {"engine"}) == []
        assert [run["engine"] for payload in payloads for run in payload["runs"]] == [
            "cycle",
            "event",
        ]


class TestSuiteCommand:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["suite"])

    def test_run_arguments(self):
        args = cli.build_parser().parse_args(
            ["suite", "run", "fig1", "--smoke", "--jobs", "2", "--out", "/tmp/x"]
        )
        assert args.suite_command == "run"
        assert args.names == ["fig1"]
        assert args.smoke is True
        assert args.jobs == 2
        assert args.out_dir == "/tmp/x"

    def test_list_prints_every_paper_suite(self, capsys):
        assert cli.main(["suite", "list"]) == 0
        output = capsys.readouterr().out
        for name in ("fig1", "fig5-smoke", "table4", "hotpath"):
            assert name in output

    def test_describe_prints_the_spec_json(self, capsys):
        import json

        assert cli.main(["suite", "describe", "fig2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "fig2"
        unit_names = [unit["name"] for unit in payload["units"]]
        assert unit_names == ["xy", "odd_even", "west_first"]

    def test_describe_unknown_suite_rejected(self, capsys):
        assert cli.main(["suite", "describe", "fig99"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_run_requires_names_or_all(self, capsys):
        assert cli.main(["suite", "run"]) == 2
        assert "--all" in capsys.readouterr().err

    def test_run_unknown_suite_rejected(self, capsys):
        assert cli.main(["suite", "run", "fig99"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_run_suggests_the_closest_suite_name(self, capsys):
        assert cli.main(["suite", "run", "fig1-smok"]) == 2
        assert "did you mean: fig1-smoke?" in capsys.readouterr().err

    def test_diff_identical_artifacts_exits_zero(self, capsys, tmp_path):
        import json

        payload = {
            "suite": "fig1-smoke",
            "units": [{"unit": "turbo", "rows": [{"rate": 0.1, "latency": 9.25}]}],
            "runs": [{"scenario": "turbo", "cycles": 100, "wall_s": 0.5}],
        }
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(payload))
        # Wall-clock fields may differ without failing the diff.
        payload["runs"][0]["wall_s"] = 0.9
        b.write_text(json.dumps(payload))
        assert cli.main(["suite", "diff", str(a), str(b)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_diff_reports_every_field_mismatch_and_exits_nonzero(
        self, capsys, tmp_path
    ):
        import json

        base = {
            "suite": "fig1-smoke",
            "units": [{"unit": "turbo", "rows": [{"rate": 0.1, "latency": 9.25}]}],
            "runs": [{"scenario": "turbo", "cycles": 100, "engine": "cycle"}],
        }
        changed = json.loads(json.dumps(base))
        changed["units"][0]["rows"][0]["latency"] = 9.5  # not just cycles_per_s
        changed["runs"][0]["engine"] = "event"
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(changed))
        assert cli.main(["suite", "diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "latency" in out and "engine" in out
        # --ignore drops the engine tag (CI's cross-engine parity check).
        assert cli.main(["suite", "diff", str(a), str(b), "--ignore", "engine"]) == 1
        assert "engine" not in capsys.readouterr().out

    def test_diff_missing_artifact_exits_two(self, capsys, tmp_path):
        import json

        a = tmp_path / "a.json"
        a.write_text(json.dumps({"runs": []}))
        assert cli.main(["suite", "diff", str(a), str(tmp_path / "nope.json")]) == 2
        assert "no such artefact" in capsys.readouterr().err

    def test_run_smoke_writes_artifacts(self, capsys, tmp_path):
        import json

        out_dir = tmp_path / "results"
        code = cli.main(["suite", "run", "fig1", "--smoke", "--out", str(out_dir)])
        assert code == 0
        output = capsys.readouterr().out
        assert "fig1-smoke" in output
        payload = json.loads((out_dir / "fig1-smoke.json").read_text())
        assert payload["suite"] == "fig1-smoke"
        assert payload["runs"]  # perf records ride along as information
        assert not (out_dir / "suites.json").exists()

class TestEvaluateAndCompareCommands:
    def test_evaluate_named_baseline(self, capsys, monkeypatch):
        monkeypatch.setattr(
            ExperimentConfig,
            "default",
            classmethod(lambda cls, **kw: ExperimentConfig.small(
                traffic=TrafficSpec.synthetic("uniform", 0.1), epoch_cycles=150
            )),
        )
        exit_code = cli.main(["evaluate", "static-max", "--epochs", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "static-max" in output
        assert "DVFS level trace" in output

    def test_evaluate_checkpoint(self, capsys, tmp_path):
        experiment = ExperimentConfig.small(
            traffic=TrafficSpec.synthetic("uniform", 0.1),
            epoch_cycles=150,
            episode_epochs=3,
        )
        result = train_dqn_controller(
            experiment.build_environment(),
            episodes=1,
            min_buffer_size=32,
            batch_size=32,
            hidden_sizes=(8,),
        )
        path = checkpoint.save_dqn_checkpoint(result, tmp_path / "ckpt")
        exit_code = cli.main(
            ["evaluate", str(path), "--preset", "small", "--epochs", "2"]
        )
        assert exit_code == 0
        assert "drl[" in capsys.readouterr().out

    def test_evaluate_random_is_the_suites_random_controller(self, capsys):
        # evaluate/compare build baselines and presets through the suite
        # registry, so their random row is table1's seeded random controller.
        # Four epochs: seeds 0 and 7 draw the same first three of 4 actions.
        experiment = build_experiment({"preset": "small"})
        policy = build_policy("random", experiment)
        expected = summarize_trace(evaluate_controller(experiment, policy, 4))
        assert cli.main(["evaluate", "random", "--preset", "small", "--epochs", "4"]) == 0
        table = format_table([expected], title=f"Evaluation — {policy.name}")
        assert table in capsys.readouterr().out

    def test_compare_lists_all_baselines(self, capsys, monkeypatch):
        monkeypatch.setattr(
            ExperimentConfig,
            "default",
            classmethod(lambda cls, **kw: ExperimentConfig.small(
                traffic=TrafficSpec.synthetic("uniform", 0.1), epoch_cycles=150
            )),
        )
        exit_code = cli.main(["compare", "--epochs", "2"])
        assert exit_code == 0
        output = capsys.readouterr().out
        for name in ("static-max", "static-min", "heuristic", "random"):
            assert name in output


class TestTrainCommand:
    def test_train_small_and_checkpoint(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            ExperimentConfig,
            "small",
            classmethod(lambda cls, **kw: ExperimentConfig(
                traffic=TrafficSpec.synthetic("uniform", 0.1),
                epoch_cycles=150,
                episode_epochs=3,
            )),
        )
        exit_code = cli.main(
            [
                "train",
                "--preset",
                "small",
                "--episodes",
                "1",
                "--checkpoint",
                str(tmp_path / "ckpt"),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "checkpoint saved" in output
        assert (tmp_path / "ckpt" / "manifest.json").exists()

    def test_train_resume_continues_from_checkpoint(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            ExperimentConfig,
            "small",
            classmethod(lambda cls, **kw: ExperimentConfig(
                traffic=TrafficSpec.synthetic("uniform", 0.1),
                epoch_cycles=150,
                episode_epochs=3,
            )),
        )
        ckpt = str(tmp_path / "ckpt")
        assert cli.main(
            ["train", "--preset", "small", "--episodes", "1", "--checkpoint", ckpt]
        ) == 0
        capsys.readouterr()
        exit_code = cli.main(
            ["train", "--preset", "small", "--episodes", "2", "--resume", ckpt]
        )
        assert exit_code == 0
        assert "Resuming" in capsys.readouterr().out

    def test_train_resume_rejects_mismatched_preset(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(
            ExperimentConfig,
            "small",
            classmethod(lambda cls, **kw: ExperimentConfig(
                traffic=TrafficSpec.synthetic("uniform", 0.1),
                epoch_cycles=150,
                episode_epochs=3,
            )),
        )
        ckpt = str(tmp_path / "ckpt")
        assert cli.main(
            ["train", "--preset", "small", "--episodes", "1", "--checkpoint", ckpt]
        ) == 0
        capsys.readouterr()
        # The joint preset has a different action space than the checkpoint.
        exit_code = cli.main(
            ["train", "--preset", "joint", "--episodes", "2", "--resume", ckpt]
        )
        assert exit_code == 2
        assert "does not fit preset" in capsys.readouterr().err


class TestTelemetryFlag:
    def test_scenarios_run_streams_subtrial_and_perf_rows(self, capsys, tmp_path):
        from repro.exp.telemetry import read_telemetry

        tap = tmp_path / "tap.csv"
        code = cli.main(
            [
                "scenarios", "run", "uniform",
                "--epochs", "2", "--epoch-cycles", "120",
                "--telemetry", str(tap),
            ]
        )
        assert code == 0
        assert "telemetry: 2 row(s)" in capsys.readouterr().out
        rows = read_telemetry(tap)
        assert [row["source"] for row in rows] == ["subtrial", "perf"]
        assert all(row["scenario"] == "uniform" for row in rows)
        assert [row["cycles"] for row in rows] == [240, 240]

    def test_scenarios_run_subtrial_rows_carry_repeat_seeds(self, tmp_path):
        from repro.exp.runner import trial_seed
        from repro.exp.telemetry import read_telemetry

        tap = tmp_path / "tap.jsonl"
        code = cli.main(
            [
                "scenarios", "run", "uniform", "--repeats", "2", "--seed", "5",
                "--epochs", "1", "--epoch-cycles", "100", "--telemetry", str(tap),
            ]
        )
        assert code == 0
        seeds = [row["seed"] for row in read_telemetry(tap) if row["source"] == "subtrial"]
        assert seeds == [trial_seed(5, 0), trial_seed(5, 1)]

    def test_scenario_rows_report_the_scenario_mesh(self, tmp_path):
        from dataclasses import replace

        from repro.exp import scenarios
        from repro.exp.telemetry import read_telemetry

        saved = dict(scenarios._REGISTRY)
        wide = replace(scenarios.get_scenario("uniform"), name="uniform-6x6", width=6)
        tap = tmp_path / "tap.jsonl"
        try:
            scenarios.register_scenario(wide, replace_existing=True)
            code = cli.main(
                [
                    "scenarios", "run", "uniform-6x6",
                    "--epochs", "1", "--epoch-cycles", "100", "--telemetry", str(tap),
                ]
            )
        finally:
            scenarios._REGISTRY.clear()
            scenarios._REGISTRY.update(saved)
        assert code == 0
        rows = read_telemetry(tap)
        assert [row["source"] for row in rows] == ["subtrial", "perf"]
        assert [row["n_nodes"] for row in rows] == [36, 36]

    def test_suite_run_streams_subtrial_and_perf_rows(self, capsys, tmp_path):
        from repro.exp.telemetry import read_telemetry

        tap = tmp_path / "tap.jsonl"
        assert cli.main(["suite", "run", "fig1-smoke", "--telemetry", str(tap)]) == 0
        assert "telemetry:" in capsys.readouterr().out
        rows = read_telemetry(tap)
        assert {row["source"] for row in rows} == {"subtrial", "perf"}
        assert all(row["suite"] == "fig1-smoke" for row in rows)

    def test_sweep_streams_one_subtrial_row_per_rate(self, capsys, tmp_path):
        from repro.exp.telemetry import read_telemetry

        tap = tmp_path / "sweep.jsonl"
        code = cli.main(
            [
                "sweep", "--rates", "0.05", "0.2", "--cycles", "300",
                "--width", "4", "--telemetry", str(tap),
            ]
        )
        assert code == 0
        rows = read_telemetry(tap)
        assert [row["source"] for row in rows] == ["subtrial", "subtrial", "perf"]
        subtrials = rows[:2]
        assert {row["injection_rate"] for row in subtrials} == {0.05, 0.2}
        assert all(row["n_nodes"] == 16 for row in subtrials)
        assert rows[2]["injection_rate"] is None  # the unit sweeps many rates


class TestSweepAndScenariosExecution:
    """``sweep`` and ``scenarios run`` are ad-hoc suites through run_suite."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--train-jobs", "2"],
            ["scenarios", "run", "uniform", "--train-jobs", "2"],
            ["sweep", "--rates", "-0.1"],
        ],
    )
    def test_rejected_flags_exit_two(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2

    def test_sweep_honours_the_supervision_flags(self, capsys, monkeypatch):
        from repro.exp.execution import ExecutionConfig, SupervisionPolicy

        seen = {}
        real_run_suite = cli.run_suite

        def recording_run_suite(spec, *, config, **kwargs):
            seen["config"] = config
            return real_run_suite(spec, config=ExecutionConfig(), **kwargs)

        monkeypatch.setattr(cli, "run_suite", recording_run_suite)
        argv = ["sweep", "--rates", "0.05", "--cycles", "100"]
        assert cli.main([*argv, "--jobs", "2", "--timeout", "7", "--retries", "1"]) == 0
        assert seen["config"] == ExecutionConfig(
            jobs=2, supervision=SupervisionPolicy(timeout_s=7, max_retries=1)
        )

    def test_duplicate_scenario_names_run_once(self, capsys):
        code = cli.main(
            ["scenarios", "run", "uniform", "uniform", "--epochs", "1", "--epoch-cycles", "100"]
        )
        assert code == 0
        assert capsys.readouterr().out.count("uniform ") == 1


class TestRemovedSurfaces:
    """Entry points of the deleted perf stack and TCP broker/worker fleet
    fail with argparse's exit 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench"],
            ["bench", "--scenarios", "powersave-idle", "--repeats", "1"],
            ["perf", "report"],
            ["suite", "run", "fig1-smoke", "--check"],
            ["suite", "run", "fig1-smoke", "--baseline", "suites.json"],
            ["suite", "run", "fig1-smoke", "--tolerance", "0.5"],
            ["suite", "run", "fig1-smoke", "--repeats", "3"],
            ["serve"],
            ["worker", "--connect", "tcp://127.0.0.1:1"],
            ["suite", "run", "fig1-smoke", "--workers", "tcp://127.0.0.1:1"],
            ["suite", "run", "fig1-smoke", "--resume", "--out", "/tmp/x"],
        ],
    )
    def test_removed_commands_and_flags_exit_two(self, argv):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(argv)
        assert exit_info.value.code == 2


class TestSuiteFaultTolerance:
    def test_fault_tolerance_flags_parse(self):
        args = cli.build_parser().parse_args(
            ["suite", "run", "fig1-smoke", "--out", "/tmp/x",
             "--timeout", "10", "--retries", "1", "--chaos", "kill:0@0"]
        )
        assert args.out_dir == "/tmp/x"
        assert args.timeout == 10.0
        assert args.retries == 1
        assert args.chaos == "kill:0@0"

    def test_train_episodes_per_task_flag_parses(self):
        args = cli.build_parser().parse_args(["train", "--episodes-per-task", "3"])
        assert args.episodes_per_task == 3
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["train", "--episodes-per-task", "0"])

    def test_rerun_on_another_engine_reuses_nothing(self, capsys, tmp_path):
        cycle_dir, out = tmp_path / "cycle", tmp_path / "out"
        assert cli.main(["suite", "run", "fig1-smoke", "--out", str(cycle_dir)]) == 0
        assert cli.main(["suite", "run", "fig1-smoke", "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(
            ["suite", "run", "fig1-smoke", "--engine", "event", "--out", str(out)]
        ) == 0
        assert "reused" not in capsys.readouterr().out
        assert cli.main(
            ["suite", "diff", str(cycle_dir / "fig1-smoke.json"),
             str(out / "fig1-smoke.json"), "--ignore", "engine"]
        ) == 0

    def test_rerun_under_another_jobs_count_reuses_all(self, capsys, tmp_path):
        out = str(tmp_path)
        assert cli.main(["suite", "run", "fig1-smoke", "--out", out]) == 0
        assert "reused" not in capsys.readouterr().out
        assert cli.main(
            ["suite", "run", "fig1-smoke", "--jobs", "2", "--out", out]
        ) == 0
        assert "suite fig1-smoke: reused 6 stored subtrial(s)" in capsys.readouterr().out

    def test_bad_chaos_spec_rejected(self, capsys):
        assert cli.main(["suite", "run", "fig1-smoke", "--chaos", "explode:0"]) == 2
        assert "bad --chaos spec" in capsys.readouterr().err

    def test_poison_chaos_exits_four_with_rerun_hint(self, capsys, tmp_path):
        code = cli.main(
            ["suite", "run", "fig1-smoke", "--out", str(tmp_path),
             "--retries", "0", "--chaos", "raise:2@0"]
        )
        assert code == 4
        assert "rerun the same command" in capsys.readouterr().err

    def test_chaos_run_reruns_to_a_clean_artifact(self, capsys, tmp_path):
        clean_dir, chaos_dir = tmp_path / "clean", tmp_path / "chaos"
        assert cli.main(["suite", "run", "fig1-smoke", "--out", str(clean_dir)]) == 0
        assert cli.main(
            ["suite", "run", "fig1-smoke", "--out", str(chaos_dir),
             "--retries", "0", "--chaos", "raise:2@0"]
        ) == 4
        assert cli.main(["suite", "run", "fig1-smoke", "--out", str(chaos_dir)]) == 0
        assert "reused 5 stored subtrial(s)" in capsys.readouterr().out
        # The recovered artefact is indistinguishable from the clean one.
        assert cli.main(
            ["suite", "diff", str(clean_dir / "fig1-smoke.json"),
             str(chaos_dir / "fig1-smoke.json")]
        ) == 0
