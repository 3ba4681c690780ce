"""Tests for the live telemetry tap: sink, read-back and field registry."""

import io
import json
from types import SimpleNamespace

import pytest

from repro.exp.chaos import ChaosPolicy, ChaosRule
from repro.exp.execution import ExecutionConfig
from repro.exp.scenarios import run_scenario
from repro.exp.suites import (
    DIFF_IGNORED_KEYS,
    diff_payloads,
    expand_unit,
    get_suite,
    run_suite,
)
from repro.exp.telemetry import (
    SCHEDULING_FIELDS,
    TELEMETRY_FIELDS,
    TELEMETRY_SOURCES,
    WALL_CLOCK_FIELDS,
    TelemetrySink,
    read_telemetry,
)

ROWS = [
    {
        "source": "epoch",
        "scenario": "uniform",
        "engine": "cycle",
        "epoch": 0,
        "cycles": 100,
        "wall_s": 0.25,
        "cycles_per_s": 400.0,
    },
    {
        "source": "epoch",
        "scenario": "uniform",
        "engine": "cycle",
        "epoch": 1,
        "cycles": 100,
        "wall_s": 0.0,
        "cycles_per_s": None,
    },
    {
        "source": "perf",
        "scenario": "uniform",
        "engine": "cycle",
        "cycles": 200,
        "wall_s": 0.25,
        "cycles_per_s": 800.0,
    },
]


class TestTelemetrySink:
    def test_csv_and_jsonl_round_trip_identically(self, tmp_path):
        csv_path = tmp_path / "tap.csv"
        jsonl_path = tmp_path / "tap.jsonl"
        for target in (csv_path, jsonl_path):
            with TelemetrySink(target) as sink:
                for row in ROWS:
                    sink.emit(row)
            assert sink.rows_written == len(ROWS)
        csv_rows = read_telemetry(csv_path)
        jsonl_rows = read_telemetry(jsonl_path)
        assert csv_rows == jsonl_rows
        # Every row is normalized to the full schema; absent fields are null.
        assert all(set(row) == set(TELEMETRY_FIELDS) for row in csv_rows)
        assert csv_rows[0]["cycles_per_s"] == 400.0
        assert csv_rows[1]["cycles_per_s"] is None

    def test_format_follows_suffix(self, tmp_path):
        with TelemetrySink(tmp_path / "x.csv") as sink:
            assert sink.format == "csv"
        with TelemetrySink(tmp_path / "x.jsonl") as sink:
            assert sink.format == "jsonl"
        with TelemetrySink(tmp_path / "x.log") as sink:
            assert sink.format == "jsonl"

    def test_streams_to_an_open_handle_without_closing_it(self):
        handle = io.StringIO()
        sink = TelemetrySink(handle)
        sink.emit(ROWS[0])
        sink.close()
        assert not handle.closed
        rows = read_telemetry(io.StringIO(handle.getvalue()))
        assert rows[0]["scenario"] == "uniform"

    def test_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown telemetry format"):
            TelemetrySink(tmp_path / "x.jsonl", format="xml")
        # Validation happens before the target is opened: a bad format must
        # not leave a created-but-empty file (or its directories) behind.
        assert not (tmp_path / "x.jsonl").exists()
        with pytest.raises(ValueError, match="unknown telemetry format"):
            TelemetrySink(tmp_path / "deep" / "x.jsonl", format="xml")
        assert not (tmp_path / "deep").exists()

    def test_creates_parent_directories(self, tmp_path):
        sink = TelemetrySink(tmp_path / "deep" / "nested" / "tap.csv")
        sink.emit(ROWS[0])
        sink.close()
        assert (tmp_path / "deep" / "nested" / "tap.csv").exists()

    def test_unknown_row_fields_are_dropped(self, tmp_path):
        path = tmp_path / "tap.jsonl"
        with TelemetrySink(path) as sink:
            sink.emit({"scenario": "uniform", "source": "perf", "bogus": 1})
        assert "bogus" not in read_telemetry(path)[0]


class TestLiveTaps:
    def test_scenario_epoch_rows_are_deterministic_sans_wall_clock(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            with TelemetrySink(path) as sink:
                run_scenario(
                    "powersave-idle",
                    epochs=2,
                    epoch_cycles=150,
                    telemetry=sink,
                )
        rows_a, rows_b = (read_telemetry(path) for path in paths)
        assert len(rows_a) == 2
        assert all(row["source"] == "epoch" for row in rows_a)
        assert diff_payloads(rows_a, rows_b, ignore=WALL_CLOCK_FIELDS) == []

    def test_suite_tap_perf_rows_match_the_outcome_records(self, tmp_path):
        tap = tmp_path / "suite.jsonl"
        with TelemetrySink(tap) as sink:
            outcome = run_suite("fig1-smoke", telemetry=sink)
        rows = read_telemetry(tap)
        assert {row["source"] for row in rows} == {"subtrial", "perf"}
        # One perf row per unit record, and every field the tap schema
        # carries round-trips bit for bit.
        perf_rows = [row for row in rows if row["source"] == "perf"]
        assert len(perf_rows) == len(outcome.records)
        for row, record in zip(perf_rows, outcome.records):
            assert {key: row[key] for key in record if key in TELEMETRY_FIELDS} == {
                key: value for key, value in record.items() if key in TELEMETRY_FIELDS
            }

    def test_suite_rows_carry_only_registered_sources_and_fields(self):
        spec = get_suite("fig1-smoke")
        rows = []
        run_suite(spec, telemetry=SimpleNamespace(emit=rows.append))
        subtrials = sum(len(expand_unit(unit)) for unit in spec.units)
        # Raw rows, before any sink normalizes them: one "subtrial" row per
        # subtrial, then one "perf" row per unit, and no unregistered field.
        assert [row["source"] for row in rows] == (
            ["subtrial"] * subtrials + ["perf"] * len(spec.units)
        )
        assert {row["source"] for row in rows} <= set(TELEMETRY_SOURCES)
        assert all(set(row) <= set(TELEMETRY_FIELDS) for row in rows)

    def test_attempt_accounting_lands_in_telemetry_not_in_the_artifact(self, tmp_path):
        rows = []
        chaos = ChaosPolicy(rules=(ChaosRule("raise", 0),))
        run_suite(
            "fig1-smoke",
            config=ExecutionConfig(chaos=chaos),
            out_dir=tmp_path,
            telemetry=SimpleNamespace(emit=rows.append),
        )
        subtrial_rows = [row for row in rows if row["source"] == "subtrial"]
        assert (subtrial_rows[0]["attempts"], subtrial_rows[0]["retries"]) == (2, 1)
        journal = (tmp_path / "fig1-smoke.journal.jsonl").read_text(encoding="utf-8")
        keyed = [row for row in map(json.loads, journal.splitlines()) if "key" in row]
        assert max(row["attempts"] for row in keyed) == 2
        artifact = (tmp_path / "fig1-smoke.json").read_text(encoding="utf-8")
        assert not any(f'"{field}"' in artifact for field in SCHEDULING_FIELDS)

    def test_suite_tap_csv_matches_jsonl_rows(self, tmp_path):
        source = tmp_path / "tap.jsonl"
        mirrored = tmp_path / "tap.csv"
        with TelemetrySink(source) as sink:
            run_suite("fig1-smoke", telemetry=sink)
        rows = read_telemetry(source)
        with TelemetrySink(mirrored) as sink:
            for row in rows:
                sink.emit(row)
        assert read_telemetry(mirrored) == rows


class TestWallClockFieldRegistry:
    def test_diff_ignored_keys_is_the_telemetry_registry(self):
        from repro.exp.telemetry import NONDETERMINISTIC_FIELDS, SCHEDULING_FIELDS

        assert DIFF_IGNORED_KEYS == NONDETERMINISTIC_FIELDS
        assert NONDETERMINISTIC_FIELDS == WALL_CLOCK_FIELDS | SCHEDULING_FIELDS
        assert "episodes_per_second" in DIFF_IGNORED_KEYS
        assert "attempts" in DIFF_IGNORED_KEYS

    def test_scheduling_fields_are_streamed_tap_columns(self):
        # Outside the journal, attempt accounting is visible only in the
        # tap: every scheduling field must be a column, none a wall clock.
        assert SCHEDULING_FIELDS <= set(TELEMETRY_FIELDS)
        assert not SCHEDULING_FIELDS & WALL_CLOCK_FIELDS
