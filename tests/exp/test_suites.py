"""Tests for the suite registry and the declarative bench engine."""

import dataclasses
import importlib.util
import io
import json
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.sweep import load_latency_sweep
from repro.exp import suites
from repro.exp.chaos import ChaosPolicy, ChaosRule
from repro.exp.execution import ExecutionConfig, SupervisionPolicy
from repro.exp.runner import TrialExecutionError, trial_seed
from repro.exp.scenarios import run_scenario, scenario_names
from repro.exp.suites import (
    RESULTS_SCHEMA,
    SuiteJournal,
    SuiteSpec,
    SuiteUnit,
    Subtrial,
    derive_smoke_suite,
    expand_unit,
    get_suite,
    paper_suites,
    perf_record,
    run_suite,
    run_suite_subtrial,
)
from repro.exp.wire import encode_frame, recv_frame
from repro.noc.network import SimulatorConfig

BENCH_DIR = Path(__file__).resolve().parents[2] / "benchmarks"
PAPER_ARTIFACTS = (
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "table1",
    "table2",
    "table3",
    "table4",
)


def sweep_unit(name="points", **overrides):
    params = {"rates": [0.05], "warmup_cycles": 10, "measure_cycles": 40, "seed": 0}
    params.update(overrides)
    return SuiteUnit(name, "sweep", params)


class TestSpecValidation:
    def test_rejects_empty_units(self):
        with pytest.raises(ValueError, match="at least one unit"):
            SuiteSpec(name="x", description="", units=())

    def test_rejects_duplicate_unit_names(self):
        with pytest.raises(ValueError, match="duplicate unit names"):
            SuiteSpec(name="x", description="", units=(sweep_unit(), sweep_unit()))

    def test_rejects_unknown_unit_kind(self):
        with pytest.raises(ValueError, match="unknown unit kind"):
            SuiteUnit("x", "teleport", {})

    def test_sweep_unit_needs_rates(self):
        with pytest.raises(ValueError, match="rates"):
            SuiteUnit("x", "sweep", {})
        with pytest.raises(ValueError, match="negative rate"):
            SuiteUnit("x", "sweep", {"rates": [0.1, -0.1]})

    def test_eval_unit_needs_policy(self):
        with pytest.raises(ValueError, match="policy"):
            SuiteUnit("x", "eval", {})

    def test_scenario_unit_needs_scenario(self):
        with pytest.raises(ValueError, match="scenario"):
            SuiteUnit("x", "scenario", {})

    def test_scenario_unit_rejects_zero_repeats(self):
        with pytest.raises(ValueError, match="repeat"):
            SuiteUnit("x", "scenario", {"scenario": "bursty", "repeats": 0})

    def test_train_eval_unit_needs_known_agent(self):
        with pytest.raises(ValueError, match="agent"):
            SuiteUnit("x", "train-eval", {"agent": "sarsa"})

    def test_drl_eval_without_training_spec_rejected(self):
        with pytest.raises(ValueError, match="training"):
            SuiteSpec(
                name="x",
                description="",
                units=(SuiteUnit("e", "eval", {"policy": "drl"}),),
            )


class TestSerialization:
    def test_every_registered_suite_round_trips_through_json(self):
        for spec in suites.all_suites():
            assert SuiteSpec.from_json(spec.to_json()) == spec

    def test_unit_dicts_rebuild_as_units(self):
        spec = get_suite("table1")
        payload = json.loads(spec.to_json())
        rebuilt = SuiteSpec.from_dict(payload)
        assert all(isinstance(unit, SuiteUnit) for unit in rebuilt.units)


class TestRegistryCompleteness:
    def test_all_nine_paper_artifacts_are_registered(self):
        assert {spec.artifact for spec in paper_suites()} >= set(PAPER_ARTIFACTS)

    def test_every_paper_bench_script_maps_to_a_registered_suite(self):
        scripts = sorted(BENCH_DIR.glob("bench_*.py"))
        assert scripts, "benchmarks/ directory not found"
        artifacts = {spec.artifact for spec in paper_suites()}
        for path in scripts:
            match = re.match(r"bench_((?:fig|table)\d+)_", path.name)
            if match:
                assert match.group(1) in artifacts, (
                    f"{path.name} has no registered suite for {match.group(1)}"
                )

    def test_every_suite_scenario_ref_exists_in_scenario_registry(self):
        for spec in suites.all_suites():
            for unit in spec.units:
                if unit.kind == "scenario":
                    assert unit.params["scenario"] in scenario_names(), (
                        f"suite {spec.name} references unknown scenario "
                        f"{unit.params['scenario']!r}"
                    )

    def test_every_full_suite_has_a_smoke_variant(self):
        for spec in suites.all_suites():
            if spec.is_smoke():
                continue
            smoke = get_suite(f"{spec.name}-smoke")
            assert smoke.smoke_of == spec.name
            assert [unit.name for unit in smoke.units] == [
                unit.name for unit in spec.units
            ]

    def test_get_unknown_suite_raises_with_known_names(self):
        with pytest.raises(KeyError, match="known:"):
            get_suite("no-such-suite")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            suites.register_suite(get_suite("fig1"))


class TestSmokeDerivation:
    def test_sweep_sizes_are_capped_and_rates_truncated(self):
        full = get_suite("fig1")
        smoke = get_suite("fig1-smoke")
        for unit in smoke.units:
            assert unit.params["warmup_cycles"] <= 100
            assert unit.params["measure_cycles"] <= 240
            assert len(unit.params["rates"]) <= suites.SMOKE_MAX_RATES
        full_rates = full.units[0].params["rates"]
        smoke_rates = smoke.units[0].params["rates"]
        # The smoke sweep keeps the endpoints, so it still crosses saturation.
        assert smoke_rates[0] == full_rates[0]
        assert smoke_rates[-1] == full_rates[-1]

    def test_training_and_eval_sizes_are_capped(self):
        smoke = get_suite("table4-smoke")
        assert smoke.training["episodes"] <= 2
        assert smoke.training["epoch_cycles"] <= 150
        for unit in smoke.units:
            assert unit.params["num_epochs"] <= 3

    def test_train_eval_episodes_are_capped(self):
        smoke = get_suite("table3-smoke")
        for unit in smoke.units:
            if unit.kind == "train-eval":
                assert unit.params["episodes"] <= 2

    def test_caps_never_grow_small_suites(self):
        tiny = SuiteSpec(
            name="tiny",
            description="",
            units=(sweep_unit(warmup_cycles=5, measure_cycles=20),),
        )
        smoke = derive_smoke_suite(tiny)
        assert smoke.units[0].params["warmup_cycles"] == 5
        assert smoke.units[0].params["measure_cycles"] == 20
        assert smoke.name == "tiny-smoke"
        assert smoke.smoke_of == "tiny"


class TestPerfRecord:
    def test_shared_schema_fields(self):
        record = perf_record("uniform", 4_000, 2.0)
        assert set(RESULTS_SCHEMA) <= set(record)
        assert record["cycles_per_s"] == pytest.approx(2_000.0)

    def test_zero_wall_time_is_safe(self):
        # A run under timer resolution is unmeasurable, not infinitely slow:
        # the rate must be null (0.0 would read as a catastrophic regression).
        record = perf_record("uniform", 100, 0.0)
        assert record["wall_s"] == 0.0
        assert record["cycles_per_s"] is None

    def test_extra_keys_pass_through(self):
        assert perf_record("uniform", 1, 1.0, engine="event")["engine"] == "event"

    def test_engine_defaults_to_cycle(self):
        assert perf_record("uniform", 1, 1.0)["engine"] == "cycle"

    @pytest.mark.parametrize("bench", ["bench_parallel_sweep", "bench_train_scaling"])
    def test_scale_out_benches_import_the_shared_schema(self, bench):
        spec = importlib.util.spec_from_file_location(bench, BENCH_DIR / f"{bench}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.perf_record is perf_record
        assert module.RESULTS_SCHEMA is RESULTS_SCHEMA


class TestRunSuite:
    def test_fig1_smoke_is_deterministic_and_writes_the_artifact(self, tmp_path):
        first = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1), out_dir=tmp_path)
        second = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1))
        assert json.dumps(first.deterministic_payload(), sort_keys=True) == json.dumps(
            second.deterministic_payload(), sort_keys=True
        )
        payload = json.loads((tmp_path / "fig1-smoke.json").read_text())
        assert payload["suite"] == "fig1-smoke"
        assert payload["schema"] == ["scenario", "cycles", "wall_s", "cycles_per_s"]
        assert [unit["unit"] for unit in payload["units"]] == ["turbo", "powersave"]
        assert all(record["suite"] == "fig1-smoke" for record in payload["runs"])
        assert all(record["cycles_per_s"] > 0 for record in payload["runs"])

    def test_sweep_unit_rows_match_load_latency_sweep(self):
        # `repro sweep` prints these rows, so they must be the serial helper's
        # points for the same parameters and defaults (warmup 500, seed 0).
        spec = SuiteSpec(
            name="adhoc",
            description="",
            units=(
                SuiteUnit(
                    "sweep",
                    "sweep",
                    {"rates": [0.05, 0.2], "routing": "odd_even", "measure_cycles": 200,
                     "dvfs_level": 1},
                ),
            ),
        )
        rows = run_suite(spec, config=ExecutionConfig(jobs=1)).rows("sweep")
        points = load_latency_sweep(
            SimulatorConfig(width=4, routing="odd_even"),
            [0.05, 0.2],
            measure_cycles=200,
            dvfs_level=1,
        )
        assert [row["rate"] for row in rows] == [0.05, 0.2]
        for row, point in zip(rows, points):
            assert row["average_latency"] == point.average_latency
            assert row["throughput"] == point.throughput
            assert row["energy_per_flit_pj"] == point.energy_per_flit_pj
            assert row["delivered_packets"] == point.delivered_packets

    def test_scenario_unit_rows_match_run_scenario(self):
        # `repro scenarios run` prints these rows: one run_scenario summary per
        # repeat, each at the repeat's derived seed.
        spec = SuiteSpec(
            name="adhoc",
            description="",
            units=(
                SuiteUnit(
                    "bursty",
                    "scenario",
                    {"scenario": "bursty", "seed": 4, "repeats": 2, "epochs": 1,
                     "epoch_cycles": 120},
                ),
            ),
        )
        rows = run_suite(spec, config=ExecutionConfig(jobs=1)).rows("bursty")
        expected = [
            run_scenario("bursty", seed=trial_seed(4, repeat), epochs=1, epoch_cycles=120)
            .summary()
            for repeat in range(2)
        ]
        assert rows == expected

    def test_scenario_suite_reports_scenario_summaries(self):
        outcome = run_suite("hotpath-smoke", config=ExecutionConfig(jobs=1))
        rows = outcome.rows("powersave-idle")
        assert rows[0]["scenario"] == "powersave-idle"
        assert rows[0]["cycles"] == 2 * 150  # smoke caps: 2 epochs x 150 cycles

    def test_training_suite_shares_the_memoized_controller(self):
        smoke = get_suite("fig3-smoke")
        outcome = run_suite(smoke, config=ExecutionConfig(jobs=1))
        rows = outcome.rows("dqn-train")
        assert len(rows) == smoke.training["episodes"]
        assert outcome.training is suites.train_controller(smoke.training, jobs=1)

    def test_eval_suite_deploys_drl_and_baselines(self):
        # The 64x64 flow units dominate table4-smoke's wall clock and are
        # never asserted on here; the ledger's flow_scaleout covers them.
        smoke = get_suite("table4-smoke")
        spec = dataclasses.replace(
            smoke,
            units=tuple(unit for unit in smoke.units if unit.params["width"] <= 32),
        )
        outcome = run_suite(spec, config=ExecutionConfig())
        for unit in ("4x4/drl", "8x8/static-max"):
            summary = outcome.summary(unit)
            assert summary["epochs"] == 3  # the smoke num_epochs cap
            assert summary["energy_per_flit_pj"] > 0
        assert len(outcome.rows("6x6/heuristic")) == 3

    def test_store_shares_identical_evaluations_across_suites(self, tmp_path):
        rows = []
        tap = SimpleNamespace(emit=rows.append)
        config = ExecutionConfig(jobs=1)
        first = run_suite("table2-smoke", config=config, out_dir=tmp_path)
        assert first.reused_subtrials == 0
        # fig5-smoke shares table2-smoke's five phased policies (same smoke
        # eval params, same weights) and adds the two static mid levels.
        second = run_suite("fig5-smoke", config=config, out_dir=tmp_path, telemetry=tap)
        dispatched = [
            row["unit"] for row in rows if row["source"] == "subtrial" and row["attempts"] > 0
        ]
        assert sorted(dispatched) == ["phased/static-L1", "phased/static-L2"]
        # Reused subtrials cost this run nothing, so the subtrial walls still
        # fit inside the suite's own wall.
        subtrial_rows = [row for row in rows if row["source"] == "subtrial"]
        assert [row["wall_s"] for row in subtrial_rows if row["attempts"] == 0] == [0.0] * 5
        assert sum(row["wall_s"] for row in subtrial_rows) <= second.wall_s
        assert second.reused_subtrials == len(first.units) == 5
        for unit in ("phased/drl", "phased/static-min"):
            assert second.unit(unit)["rows"] == first.unit(unit)["rows"]
        # Reused rows are journaled too (attempts=0): each journal stands alone.
        journal = [
            json.loads(line)
            for line in (tmp_path / "fig5-smoke.journal.jsonl").read_text().splitlines()
        ]
        assert sorted(row["attempts"] for row in journal) == [0] * 5 + [1, 1]

    def test_outcome_lookup_errors_name_the_known_units(self):
        outcome = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1))
        with pytest.raises(KeyError, match="turbo"):
            outcome.unit("no-such-unit")
        with pytest.raises(KeyError, match="no summary"):
            outcome.summary("turbo")

    def test_unit_level_engine_override_wins_and_tags_its_record(self):
        spec = SuiteSpec(
            name="adhoc-engines",
            description="one unit pinned to the event engine",
            units=(sweep_unit("pinned", engine="event"), sweep_unit("default")),
        )
        outcome = run_suite(spec, config=ExecutionConfig(jobs=1))
        by_name = {record["scenario"]: record["engine"] for record in outcome.records}
        assert by_name == {"pinned": "event", "default": "cycle"}

    def test_event_engine_yields_identical_outcomes_with_tagged_records(self):
        cycle_outcome = run_suite("hotpath-smoke", config=ExecutionConfig(jobs=1))
        event_outcome = run_suite(
            "hotpath-smoke", config=ExecutionConfig(jobs=1, engine="event")
        )
        assert json.dumps(
            cycle_outcome.deterministic_payload(), sort_keys=True
        ) == json.dumps(event_outcome.deterministic_payload(), sort_keys=True)
        assert all(record["engine"] == "cycle" for record in cycle_outcome.records)
        assert all(record["engine"] == "event" for record in event_outcome.records)

    @pytest.mark.slow
    def test_pool_fanout_matches_serial_outcomes(self):
        serial = run_suite("fig2-smoke", config=ExecutionConfig(jobs=1))
        parallel = run_suite("fig2-smoke", config=ExecutionConfig(jobs=2))
        assert json.dumps(serial.deterministic_payload(), sort_keys=True) == json.dumps(
            parallel.deterministic_payload(), sort_keys=True
        )


class TestDiffPayloads:
    def test_identical_payloads_have_no_differences(self):
        payload = {"units": [{"rows": [{"rate": 0.1, "latency": 3.5}]}], "wall_s": 1.0}
        other = json.loads(json.dumps(payload))
        other["wall_s"] = 9.0  # wall clocks are ignored by default
        assert suites.diff_payloads(payload, other) == []

    def test_every_field_is_compared_not_just_throughput(self):
        a = {"runs": [{"scenario": "turbo", "cycles": 100, "cycles_per_s": 1.0}]}
        b = {"runs": [{"scenario": "turbo", "cycles": 120, "cycles_per_s": 2.0}]}
        differences = suites.diff_payloads(a, b)
        assert differences == ["runs[0].cycles: A=100 vs B=120"]

    def test_missing_keys_and_length_mismatches_are_reported(self):
        differences = suites.diff_payloads(
            {"units": [1, 2], "only_a": True}, {"units": [1]}
        )
        assert any("only in A" in line for line in differences)
        assert any("row(s)" in line for line in differences)

    def test_extra_ignores_drop_fields_everywhere(self):
        a = {"runs": [{"engine": "cycle", "cycles": 5}]}
        b = {"runs": [{"engine": "event", "cycles": 5}]}
        assert suites.diff_payloads(a, b) != []
        ignore = suites.DIFF_IGNORED_KEYS | {"engine"}
        assert suites.diff_payloads(a, b, ignore=ignore) == []

    def test_training_payloads_differing_only_in_timing_fields_match(self):
        # Regression test for the episodes_per_second leak: the ignore set
        # once missed training's rate field, so two byte-identical training
        # runs diffed as nondeterministic purely on wall-clock jitter.
        payload = {
            "suite": "fig3",
            "units": [
                {
                    "unit": "dqn-train",
                    "kind": "train",
                    "rows": [{"episode": 0, "mean_reward": 1.25}],
                    "cycles": 4_000,
                    "wall_s": 1.0,
                    "wall_time_s": 1.0,
                    "episodes_per_second": 4.0,
                }
            ],
            "records": [
                {"scenario": "dqn-train", "cycles_per_s": 4_000.0, "wall_s": 1.0}
            ],
            "wall_s_total": 1.0,
            "generated_at": 1_000.0,
        }
        other = json.loads(json.dumps(payload))
        for unit in other["units"]:
            unit["wall_s"] = 2.0
            unit["wall_time_s"] = 2.0
            unit["episodes_per_second"] = 0.5
        other["records"][0].update({"cycles_per_s": 2_000.0, "wall_s": 2.0})
        other["wall_s_total"] = 2.0
        other["generated_at"] = 2_000.0
        assert suites.diff_payloads(payload, other) == []
        # Simulated fields still diff as before.
        other["units"][0]["rows"][0]["mean_reward"] = 9.0
        assert suites.diff_payloads(payload, other) != []

    def test_ignored_keys_come_from_the_telemetry_registry(self):
        from repro.exp.telemetry import NONDETERMINISTIC_FIELDS, WALL_CLOCK_FIELDS

        assert suites.DIFF_IGNORED_KEYS == NONDETERMINISTIC_FIELDS
        assert WALL_CLOCK_FIELDS <= suites.DIFF_IGNORED_KEYS
        assert "episodes_per_second" in suites.DIFF_IGNORED_KEYS
        # Scheduling metadata (retry accounting) is nondeterministic too.
        assert {"attempts", "retries"} <= suites.DIFF_IGNORED_KEYS


class TestTrainController:
    TINY = {
        "preset": "small",
        "episodes": 1,
        "seed": 5,
        "epoch_cycles": 120,
        "episode_epochs": 3,
    }

    def test_memoized_per_spec_and_jobs(self):
        first = suites.train_controller(dict(self.TINY), jobs=1)
        second = suites.train_controller(dict(self.TINY), jobs=1)
        assert first is second
        assert first.episodes == 1

    def test_agent_payload_rebuilds_the_greedy_policy(self):
        result = suites.train_controller(dict(self.TINY), jobs=1)
        experiment = suites.build_experiment(self.TINY)
        policy = suites.build_policy(
            "drl", experiment, suites.agent_payload_of(result)
        )
        import numpy as np

        observation = np.zeros(experiment.build_feature_extractor().dim)
        action = policy.select_action(observation, None)
        assert action == result.to_policy().select_action(observation, None)

    def test_a_drl_unit_carrying_its_agent_needs_no_training(self):
        # evaluate/compare/train ship a checkpoint's or a fresh training's
        # weights in the unit; the suite's shared agent only fills the gap.
        agent = suites.agent_payload_of(suites.train_controller(dict(self.TINY), jobs=1))
        unit = SuiteUnit("drl[ckpt]", "eval", {"policy": "drl", "agent": agent})
        spec = SuiteSpec(name="x", description="", units=(unit,))
        assert not spec.needs_training()
        [own] = expand_unit(unit, {"dqn_config": None, "state": None})
        assert own.params["agent"] is agent
        [shared] = expand_unit(SuiteUnit("drl", "eval", {"policy": "drl"}), agent)
        assert shared.params["agent"] is agent


class TestBuildPolicy:
    def test_static_ladder_and_baselines(self):
        experiment = suites.build_experiment({})
        for name in ("static-max", "static-min", "heuristic", "random", "static-L2"):
            policy = suites.build_policy(name, experiment)
            assert hasattr(policy, "select_action")

    def test_drl_without_payload_rejected(self):
        with pytest.raises(ValueError, match="agent payload"):
            suites.build_policy("drl", suites.build_experiment({}))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown policy"):
            suites.build_policy("oracle", suites.build_experiment({}))


class TestBuildExperiment:
    def test_presets_and_overrides(self):
        experiment = suites.build_experiment(
            {"preset": "small", "width": 6, "epoch_cycles": 99}
        )
        assert experiment.simulator.width == 6
        assert experiment.epoch_cycles == 99

    def test_traffic_override(self):
        experiment = suites.build_experiment(
            {"traffic": {"pattern": "hotspot", "rate": 0.2,
                         "kwargs": {"hotspot_fraction": 0.15}}}
        )
        assert experiment.traffic.kind == "synthetic"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment preset"):
            suites.build_experiment({"preset": "enormous"})


def _reframe(subtrial: Subtrial) -> list:
    """``subtrial.to_wire()`` through one encode/decode frame trip."""
    frame = encode_frame({"subtrial": subtrial.to_wire()})
    return recv_frame(SimpleNamespace(recv=io.BytesIO(frame).read))["subtrial"]


class TestSubtrial:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown subtrial kind 'warp'"):
            Subtrial("warp", {})

    def test_params_are_copied_from_the_caller(self):
        source = {"policy": "random"}
        subtrial = Subtrial("eval", source)
        source["policy"] = "mutated"
        assert subtrial.params == {"policy": "random"}

    def test_to_wire_frames_back_to_an_equal_subtrial(self):
        subtrial = Subtrial("sweep", {"rate": 0.1, "pattern": "uniform"})
        kind, params = _reframe(subtrial)
        assert Subtrial(kind, params) == subtrial
        assert Subtrial(kind, params).key == subtrial.key

    @pytest.mark.parametrize(
        "name", ["fig1-smoke", "fig2-smoke", "hotpath-smoke", "table3-smoke"]
    )
    def test_every_suite_subtrial_survives_the_frame_codec(self, name):
        # The ledger's suite_fanout probe frames exactly these shapes; the
        # content key (what the journal is keyed on) must survive the trip.
        spec = get_suite(name)
        assert not spec.needs_training()
        subtrials = [
            subtrial
            for unit in spec.units
            if unit.kind != "train"
            for subtrial in expand_unit(unit)
        ]
        assert subtrials
        for subtrial in subtrials:
            kind, params = _reframe(subtrial)
            assert kind == subtrial.kind
            assert Subtrial(kind, params).key == subtrial.key

    def test_key_is_stable_and_agent_fingerprinted(self):
        a = Subtrial("eval", {"policy": "random", "seed": 1})
        b = Subtrial("eval", {"seed": 1, "policy": "random"})
        assert a.key == b.key
        assert a.key != Subtrial("eval", {"policy": "random", "seed": 2}).key

    def test_run_suite_subtrial_runs_a_typed_subtrial(self):
        spec = SuiteUnit(
            name="point",
            kind="sweep",
            params={"rates": [0.05], "warmup_cycles": 20, "measure_cycles": 40},
        )
        (subtrial,) = expand_unit(spec)
        assert isinstance(subtrial, Subtrial)
        payload = run_suite_subtrial(subtrial)
        assert [row["rate"] for row in payload["rows"]] == [0.05]
        assert run_suite_subtrial(subtrial)["rows"] == payload["rows"]


class TestSubtrialKey:
    def test_key_is_stable_and_order_insensitive(self):
        a = Subtrial("sweep", {"rates": [0.05], "seed": 0})
        b = Subtrial("sweep", {"seed": 0, "rates": [0.05]})
        assert a.key == b.key

    def test_key_separates_kind_and_params(self):
        base = Subtrial("sweep", {"rates": [0.05], "seed": 0}).key
        assert Subtrial("eval", {"rates": [0.05], "seed": 0}).key != base
        assert Subtrial("sweep", {"rates": [0.05], "seed": 1}).key != base

    def test_agent_kind_string_is_hashed_as_plain_data(self):
        # A train-eval subtrial names its agent *kind*; only an eval's
        # weights payload (a mapping) goes through the fingerprint.
        dqn = Subtrial("train-eval", {"agent": "dqn", "episodes": 2, "seed": 3})
        tabular = Subtrial("train-eval", {"agent": "tabular-q", "episodes": 2, "seed": 3})
        assert dqn.key == Subtrial("train-eval", dict(dqn.params)).key
        assert dqn.key != tabular.key

    def test_agent_weights_payload_is_fingerprinted(self):
        params = {"policy": "drl", "seed": 0}
        weights = {"dqn_config": {"hidden": 8}, "state": {"w": [1.0, 2.0]}}
        other = {"dqn_config": {"hidden": 8}, "state": {"w": [1.0, 2.5]}}
        bare = Subtrial("eval", params).key
        assert Subtrial("eval", {**params, "agent": None}).key == bare
        assert Subtrial("eval", {**params, "agent": weights}).key != bare
        assert (
            Subtrial("eval", {**params, "agent": weights}).key
            != Subtrial("eval", {**params, "agent": other}).key
        )


class TestSuiteJournal:
    def test_append_and_load_round_trip(self, tmp_path):
        journal = SuiteJournal(tmp_path / "x.journal.jsonl")
        journal.append("k1", unit="u", kind="sweep", attempts=1, payload={"rows": [1]})
        journal.append("k2", unit="u", kind="sweep", attempts=2, payload={"rows": [2]})
        journal.close()
        assert SuiteJournal(journal.path).load() == {
            "k1": {"rows": [1]},
            "k2": {"rows": [2]},
        }

    def test_append_is_idempotent_per_key(self, tmp_path):
        journal = SuiteJournal(tmp_path / "x.journal.jsonl")
        journal.append("k", unit="u", kind="sweep", attempts=1, payload={})
        journal.append("k", unit="u", kind="sweep", attempts=5, payload={"other": 1})
        journal.close()
        assert len(journal.path.read_text().splitlines()) == 1

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = tmp_path / "x.journal.jsonl"
        journal = SuiteJournal(path)
        journal.append("k1", unit="u", kind="sweep", attempts=1, payload={"ok": True})
        journal.close()
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "k2", "payload": {"ok"')  # killed mid-write
        assert SuiteJournal(path).load() == {"k1": {"ok": True}}
        # The next run's append starts a fresh line instead of gluing its
        # row onto the torn fragment (which would lose that row too).
        journal = SuiteJournal(path)
        journal.append("k3", unit="u", kind="sweep", attempts=1, payload={"ok": 3})
        journal.close()
        assert SuiteJournal(path).load() == {"k1": {"ok": True}, "k3": {"ok": 3}}

    def test_missing_file_loads_empty(self, tmp_path):
        assert SuiteJournal(tmp_path / "none.jsonl").load() == {}


def _journal_rows(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestSubtrialStore:
    def test_rerun_satisfies_everything_from_the_store(self, tmp_path):
        clean = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1), out_dir=tmp_path)
        journal_path = tmp_path / "fig1-smoke.journal.jsonl"
        rows = _journal_rows(journal_path)
        rerun = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1), out_dir=tmp_path)
        assert clean.reused_subtrials == 0
        assert rows and all(row["attempts"] == 1 for row in rows)
        assert rerun.reused_subtrials == len(rows)
        # Stored rows are not journaled a second time.
        assert _journal_rows(journal_path) == rows
        assert suites.diff_payloads(
            clean.deterministic_payload(), rerun.deterministic_payload()
        ) == []

    def test_journaled_table3_smoke_runs_and_reruns(self, tmp_path):
        # table3's ablation units are train-eval subtrials, whose ``agent``
        # is a kind string: journaling one used to die in Subtrial.key.
        config = ExecutionConfig(jobs=1)
        clean = run_suite("table3-smoke", config=config, out_dir=tmp_path)
        keyed = _journal_rows(tmp_path / "table3-smoke.journal.jsonl")
        assert {row["kind"] for row in keyed} >= {"train-eval", "eval"}
        rerun = run_suite("table3-smoke", config=config, out_dir=tmp_path)
        assert rerun.reused_subtrials == len(keyed)
        assert suites.diff_payloads(
            clean.deterministic_payload(), rerun.deterministic_payload()
        ) == []

    def test_a_row_under_a_foreign_key_is_never_read(self, tmp_path):
        reference = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1))
        path = tmp_path / "fig1-smoke.journal.jsonl"
        path.write_text('{"key": "stale", "payload": {}}\n', encoding="utf-8")
        outcome = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1), out_dir=tmp_path)
        assert outcome.reused_subtrials == 0
        rows = _journal_rows(path)
        assert rows[0]["key"] == "stale"  # append-only: nothing is rewritten
        assert len(rows) == 1 + 6  # the foreign row, then fig1-smoke's six
        assert suites.diff_payloads(
            reference.deterministic_payload(), outcome.deterministic_payload()
        ) == []

    def test_a_source_change_misses_every_key(self, tmp_path, monkeypatch):
        config = ExecutionConfig(jobs=1)
        clean = run_suite("fig1-smoke", config=config, out_dir=tmp_path)
        journal_path = tmp_path / "fig1-smoke.journal.jsonl"
        old_keys = {row["key"] for row in _journal_rows(journal_path)}
        monkeypatch.setattr(suites, "_source_digest", lambda: "edited")
        edited = run_suite("fig1-smoke", config=config, out_dir=tmp_path)
        assert edited.reused_subtrials == 0
        new_keys = {row["key"] for row in _journal_rows(journal_path)} - old_keys
        assert len(new_keys) == len(old_keys)
        assert suites.diff_payloads(
            clean.deterministic_payload(), edited.deterministic_payload()
        ) == []

    def test_source_digest_is_computed_once_per_process(self):
        digest = suites._source_digest()
        assert re.fullmatch(r"[0-9a-f]{40}", digest)
        assert suites._source_digest() is digest

    @pytest.mark.parametrize(
        "config",
        [ExecutionConfig(engine="event"), ExecutionConfig(engine="flow")],
        ids=["event-engine", "flow-engine"],
    )
    def test_an_engine_change_reuses_nothing(self, tmp_path, config):
        journal_path = tmp_path / "fig1-smoke.journal.jsonl"
        run_suite("fig1-smoke", out_dir=tmp_path)
        before = journal_path.read_bytes()
        switched = run_suite("fig1-smoke", config=config, out_dir=tmp_path)
        assert switched.reused_subtrials == 0
        assert journal_path.read_bytes().startswith(before)
        fresh = run_suite("fig1-smoke", config=config)
        assert suites.diff_payloads(
            fresh.deterministic_payload(), switched.deterministic_payload()
        ) == []

    def test_a_train_jobs_change_reuses_no_drl_eval(self, tmp_path):
        smoke = get_suite("table2-smoke")
        # Long enough for the replay buffer to fill and the weights to move;
        # the smoke training stops before its first learner step, so its
        # weights (and the eval's key) do not depend on train_jobs at all.
        spec = dataclasses.replace(
            smoke,
            units=tuple(u for u in smoke.units if u.params["policy"] == "drl"),
            training={**smoke.training, "episodes": 8, "episode_epochs": 8},
        )
        run_suite(spec, out_dir=tmp_path)
        sharded = ExecutionConfig(train_jobs=2)
        switched = run_suite(spec, config=sharded, out_dir=tmp_path)
        assert switched.reused_subtrials == 0
        fresh = run_suite(spec, config=sharded)
        assert suites.diff_payloads(
            fresh.deterministic_payload(), switched.deterministic_payload()
        ) == []

    def test_a_spec_param_change_reuses_nothing(self, tmp_path):
        smoke = get_suite("fig1-smoke")
        reseeded = dataclasses.replace(
            smoke,
            units=tuple(
                dataclasses.replace(unit, params={**unit.params, "seed": 99})
                for unit in smoke.units
            ),
        )
        run_suite(smoke, out_dir=tmp_path)
        switched = run_suite(reseeded, out_dir=tmp_path)
        assert switched.reused_subtrials == 0
        fresh = run_suite(reseeded)
        assert suites.diff_payloads(
            fresh.deterministic_payload(), switched.deterministic_payload()
        ) == []

    @pytest.mark.parametrize(
        "config",
        [
            ExecutionConfig(jobs=2),
            ExecutionConfig(supervision=SupervisionPolicy(max_retries=0)),
            ExecutionConfig(chaos=ChaosPolicy(rules=(ChaosRule("raise", 0),))),
            ExecutionConfig(engine="cycle"),
        ],
        ids=["jobs", "supervision", "chaos", "explicit-default-engine"],
    )
    def test_a_config_that_only_reschedules_reuses_all(self, tmp_path, config):
        clean = run_suite("fig1-smoke", out_dir=tmp_path)
        # Drop the last journaled subtrial so the rerun dispatches real
        # work under the new config, not just store reads.
        journal_path = tmp_path / "fig1-smoke.journal.jsonl"
        lines = journal_path.read_text(encoding="utf-8").splitlines(keepends=True)
        journal_path.write_text("".join(lines[:-1]), encoding="utf-8")
        keyed = len(SuiteJournal(journal_path).load())
        rerun = run_suite("fig1-smoke", config=config, out_dir=tmp_path)
        assert rerun.reused_subtrials == keyed == len(lines) - 1
        assert suites.diff_payloads(
            clean.deterministic_payload(), rerun.deterministic_payload()
        ) == []

    def test_telemetry_rows_carry_attempt_accounting(self):
        rows = []

        class Sink:
            def emit(self, row):
                rows.append(row)

        run_suite("fig1-smoke", config=ExecutionConfig(jobs=1), telemetry=Sink())
        subtrial_rows = [row for row in rows if row["source"] == "subtrial"]
        assert subtrial_rows
        assert all(
            row["attempts"] >= 1 and row["retries"] == row["attempts"] - 1
            for row in subtrial_rows
        )


def _eval_suite(name="eval-dispatch-test"):
    policies = ("static-max", "static-min", "heuristic", "random")
    return SuiteSpec(
        name=name,
        description="per-subtrial dispatch fixture",
        units=tuple(
            SuiteUnit(
                name=f"eval-{policy}",
                kind="eval",
                params={"policy": policy, "preset": "small", "num_epochs": 3},
            )
            for policy in policies
        ),
    )


class _RecordingPool:
    """Stands in for ``SupervisedTrialPool``: runs tasks in-process, records them."""

    def __init__(self, jobs, *, policy, chaos):
        self.tasks = []
        self.labels = []

    def run(self, worker, tasks, *, labels=None, on_result=None):
        self.tasks = list(tasks)
        self.labels = list(labels or ())
        results = []
        for index, task in enumerate(self.tasks):
            results.append(worker(task))
            if on_result is not None:
                on_result(index, results[-1], 1)
        return results

    def close(self):
        pass


class TestSubtrialDispatch:
    def test_each_subtrial_is_dispatched_as_its_own_task(self, monkeypatch):
        spec = _eval_suite()
        reference = run_suite(spec, config=ExecutionConfig())
        pools = []

        def recording_pool(jobs, *, policy, chaos):
            pools.append(_RecordingPool(jobs, policy=policy, chaos=chaos))
            return pools[-1]

        monkeypatch.setattr(suites, "SupervisedTrialPool", recording_pool)
        outcome = run_suite(spec, config=ExecutionConfig())
        (dispatch,) = pools
        expected = [subtrial for unit in spec.units for subtrial in expand_unit(unit)]
        assert dispatch.tasks == expected
        assert all(isinstance(task, Subtrial) for task in dispatch.tasks)
        assert dispatch.labels == [
            f"{unit.name}[{position}]" for position, unit in enumerate(spec.units)
        ]
        assert suites.diff_payloads(
            reference.deterministic_payload(), outcome.deterministic_payload()
        ) == []

    def test_event_engine_eval_suite_matches_cycle_reference(self):
        reference = run_suite(_eval_suite(), config=ExecutionConfig(engine="cycle"))
        event = run_suite(_eval_suite(), config=ExecutionConfig(engine="event"))
        assert suites.diff_payloads(
            reference.deterministic_payload(),
            event.deterministic_payload(),
            ignore={"engine"},
        ) == []

    def test_journal_rows_are_one_per_subtrial_and_rerun(self, tmp_path):
        config = ExecutionConfig(engine="event")
        clean = run_suite(_eval_suite(), config=config, out_dir=tmp_path)
        rows = _journal_rows(tmp_path / "eval-dispatch-test.journal.jsonl")
        assert len(rows) == 4
        assert all(row["kind"] == "eval" for row in rows)
        rerun = run_suite(_eval_suite(), config=config, out_dir=tmp_path)
        assert rerun.reused_subtrials == 4
        assert suites.diff_payloads(
            clean.deterministic_payload(), rerun.deterministic_payload()
        ) == []


class TestSuiteChaos:
    def test_chaos_run_matches_clean_run(self):
        clean = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1))
        chaos = ChaosPolicy(rules=(ChaosRule("raise", 0), ChaosRule("raise", 3)))
        perturbed = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1, chaos=chaos))
        assert suites.diff_payloads(
            clean.deterministic_payload(), perturbed.deterministic_payload()
        ) == []

    @pytest.mark.slow
    def test_parallel_killed_worker_matches_clean_run(self):
        clean = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1))
        chaos = ChaosPolicy(rules=(ChaosRule("kill", 0),))
        killed = run_suite(
            "fig1-smoke",
            config=ExecutionConfig(
                jobs=2, supervision=SupervisionPolicy(backoff_s=0.01), chaos=chaos
            ),
        )
        assert suites.diff_payloads(
            clean.deterministic_payload(), killed.deterministic_payload()
        ) == []

    @pytest.mark.slow
    def test_parallel_stalled_subtrial_times_out_and_matches_clean_run(self):
        clean = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1))
        chaos = ChaosPolicy(rules=(ChaosRule("stall", 2, stall_s=60.0),))
        rows = []
        stalled = run_suite(
            "fig1-smoke",
            config=ExecutionConfig(
                jobs=2,
                supervision=SupervisionPolicy(timeout_s=3.0, backoff_s=0.01),
                chaos=chaos,
            ),
            telemetry=SimpleNamespace(emit=rows.append),
        )
        assert suites.diff_payloads(
            clean.deterministic_payload(), stalled.deterministic_payload()
        ) == []
        subtrial_rows = [row for row in rows if row["source"] == "subtrial"]
        assert subtrial_rows[2]["attempts"] >= 2

    def test_poison_subtrial_quarantines_then_rerun_completes(self, tmp_path):
        clean = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1))
        poison = ChaosPolicy(rules=(ChaosRule("raise", 2),))
        with pytest.raises(TrialExecutionError):
            run_suite(
                "fig1-smoke",
                config=ExecutionConfig(
                    jobs=1, supervision=SupervisionPolicy(max_retries=0), chaos=poison
                ),
                out_dir=tmp_path,
            )
        journal = SuiteJournal(tmp_path / "fig1-smoke.journal.jsonl").load()
        assert journal  # the siblings landed before the quarantine surfaced
        rerun = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1), out_dir=tmp_path)
        assert rerun.reused_subtrials == len(journal)
        assert suites.diff_payloads(
            clean.deterministic_payload(), rerun.deterministic_payload()
        ) == []
