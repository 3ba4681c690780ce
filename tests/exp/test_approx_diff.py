"""Tolerance-aware artefact diffing, mesh-shape telemetry and the suite
engine's telemetry tap across jobs — the observability surface the
approximate flow engine plugs into."""

import json

from repro.cli import main
from repro.exp.execution import ExecutionConfig
from repro.exp.suites import (
    APPROX_DIFF_TOLERANCES,
    SuiteSpec,
    SuiteUnit,
    diff_payloads,
    run_suite,
    unit_shape,
    _within_tolerance,
)
from repro.exp.telemetry import (
    NONDETERMINISTIC_FIELDS,
    TELEMETRY_FIELDS,
    TelemetrySink,
    read_telemetry,
)


class TestToleranceDiff:
    def test_default_diff_stays_byte_exact(self):
        a = {"rows": [{"throughput": 0.1500}]}
        b = {"rows": [{"throughput": 0.1501}]}
        assert diff_payloads(a, b) != []
        assert diff_payloads(a, a) == []

    def test_tolerance_relaxes_named_numeric_fields_only(self):
        a = {"rows": [{"throughput": 0.150, "seed": 3}]}
        b = {"rows": [{"throughput": 0.151, "seed": 4}]}
        differences = diff_payloads(a, b, tolerances={"throughput": 0.05})
        # throughput passes within eps; seed still compares exactly.
        assert len(differences) == 1
        assert "seed" in differences[0]

    def test_beyond_epsilon_still_fails_and_names_the_epsilon(self):
        a = {"throughput": 0.10}
        b = {"throughput": 0.20}
        differences = diff_payloads(a, b, tolerances={"throughput": 0.05})
        assert len(differences) == 1
        assert "eps=0.05" in differences[0]

    def test_relative_with_absolute_floor(self):
        # Near-zero pairs compare against the 1.0 floor, not relatively.
        assert _within_tolerance(0.0, 0.004, 0.01)
        assert not _within_tolerance(0.0, 0.5, 0.01)
        assert _within_tolerance(100.0, 105.0, 0.05)
        assert not _within_tolerance(100.0, 110.0, 0.05)

    def test_booleans_never_compare_tolerantly(self):
        a = {"converged": True}
        b = {"converged": False}
        assert diff_payloads(a, b, tolerances={"converged": 1.0}) != []

    def test_tolerances_recurse_into_rows_and_lists(self):
        a = {"units": [{"rows": [{"average_latency": 10.0}]}]}
        b = {"units": [{"rows": [{"average_latency": 12.0}]}]}
        assert diff_payloads(a, b, tolerances={"average_latency": 0.5}) == []
        assert diff_payloads(a, b) != []

    def test_approx_preset_covers_the_flow_engines_deviating_fields(self):
        for field in ("throughput", "average_total_latency", "energy_total_pj"):
            assert field in APPROX_DIFF_TOLERANCES


class TestSuiteDiffCli:
    def _write(self, path, payload):
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    def test_cli_tolerance_flag(self, tmp_path, capsys):
        a = self._write(tmp_path / "a.json", {"rows": [{"throughput": 0.150}]})
        b = self._write(tmp_path / "b.json", {"rows": [{"throughput": 0.152}]})
        assert main(["suite", "diff", a, b]) == 1
        assert main(["suite", "diff", a, b, "--tolerance", "throughput=0.05"]) == 0
        out = capsys.readouterr().out
        assert "within tolerances" in out

    def test_cli_approx_preset(self, tmp_path):
        a = self._write(
            tmp_path / "cycle.json",
            {"rows": [{"average_latency": 10.0, "engine": "cycle"}]},
        )
        b = self._write(
            tmp_path / "flow.json",
            {"rows": [{"average_latency": 13.0, "engine": "flow"}]},
        )
        # Exact diff: latency and engine both differ.
        assert main(["suite", "diff", a, b]) == 1
        # --approx: latency within the preset eps, engine ignored.
        assert main(["suite", "diff", a, b, "--approx"]) == 0

    def test_cli_explicit_tolerance_overrides_approx_preset(self, tmp_path):
        a = self._write(tmp_path / "a.json", {"average_latency": 10.0})
        b = self._write(tmp_path / "b.json", {"average_latency": 13.0})
        assert main(["suite", "diff", a, b, "--approx"]) == 0
        assert (
            main(
                ["suite", "diff", a, b, "--approx", "--tolerance", "average_latency=0.01"]
            )
            == 1
        )

    def test_cli_rejects_malformed_tolerance(self, tmp_path, capsys):
        a = self._write(tmp_path / "a.json", {})
        assert main(["suite", "diff", a, a, "--tolerance", "nonsense"]) == 2
        assert "FIELD=EPS" in capsys.readouterr().err


class TestMeshShapeTelemetry:
    def test_telemetry_schema_carries_mesh_shape(self):
        assert "n_nodes" in TELEMETRY_FIELDS
        assert "injection_rate" in TELEMETRY_FIELDS

    def test_unit_shape_defaults_and_overrides(self):
        assert unit_shape({}) == (16, None)
        assert unit_shape({"width": 8}) == (64, None)
        assert unit_shape({"width": 64, "traffic": {"pattern": "transpose", "rate": 0.02}}) == (
            4096,
            0.02,
        )
        assert unit_shape({"rate": 0.15}) == (16, 0.15)
        # Scenarios report their own mesh: shipped spec first, else registry.
        assert unit_shape({"scenario_spec": {"width": 6, "height": 3}}) == (18, None)
        assert unit_shape({"scenario": "uniform"}) == (16, None)

    def test_perf_records_round_trip_mesh_shape(self, tmp_path):
        row = {
            "source": "perf",
            "scenario": "8x8/static-max",
            "engine": "flow",
            "n_nodes": 64,
            "injection_rate": 0.02,
            "cycles": 1000,
            "wall_s": 0.5,
            "cycles_per_s": 2000.0,
        }
        for name in ("tap.jsonl", "tap.csv"):
            with TelemetrySink(tmp_path / name) as sink:
                sink.emit(row)
            (read_back,) = read_telemetry(tmp_path / name)
            assert read_back["n_nodes"] == 64
            assert read_back["injection_rate"] == 0.02


class TestParallelTelemetry:
    def test_scenario_subtrial_rows_match_across_jobs(self, tmp_path):
        spec = SuiteSpec(
            name="tap",
            description="two scenarios, two repeats each",
            units=tuple(
                SuiteUnit(
                    name,
                    "scenario",
                    {"scenario": name, "repeats": 2, "epochs": 2, "epoch_cycles": 150},
                )
                for name in ("powersave-idle", "diurnal-ramp")
            ),
        )
        taps = {}
        for jobs in (1, 2):
            path = tmp_path / f"jobs{jobs}.jsonl"
            with TelemetrySink(path) as sink:
                run_suite(spec, config=ExecutionConfig(jobs=jobs), telemetry=sink)
            rows = [
                {key: value for key, value in row.items() if key not in NONDETERMINISTIC_FIELDS}
                for row in read_telemetry(path)
                if row["source"] == "subtrial"
            ]
            taps[jobs] = sorted(rows, key=lambda row: (row["unit"], row["seed"]))
        assert len(taps[1]) == 4
        assert taps[1] == taps[2]
