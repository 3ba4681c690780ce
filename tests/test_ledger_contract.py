"""The perf ledger's contract with the package.

``benchmarks/ledger/`` imports suites, engines and model internals by name
and is frozen between benchmark changes, so a rename or deletion in
``src/`` breaks every ledger run without failing a unit test.  This guard
builds every workload ``BENCHMARK.json`` declares, which resolves each
name the ledger imports and each suite it looks up, and checks each name
on its own so a failure says which one went missing.
"""

import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

from repro.engines import CycleEngine, engine_infos, register_engine
from repro.exp.suites import get_suite, run_suite
from repro.noc.model import NoCModel, SimulatorConfig

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "benchmarks" / "ledger"
WORKLOADS = [
    entry["name"]
    for entry in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[
        "workloads"
    ]
]


def _ledger_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(LEDGER.glob("*.py"))]


def _package_imports() -> list[str]:
    """``module:name`` for each ``repro`` name the ledger imports."""
    found = set()
    for tree in _ledger_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                found.update(f"{node.module}:{alias.name}" for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update(
                    f"{alias.name}:" for alias in node.names if alias.name.startswith("repro")
                )
    return sorted(found)


def _model_members() -> list[str]:
    """Each attribute the ledger reads, sets or calls on a ``model``."""
    found = set()
    for tree in _ledger_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "model") or (
                isinstance(owner, ast.Attribute) and owner.attr == "model"
            ):
                found.add(node.attr)
    return sorted(found)


def _fanout_suites() -> list[str]:
    """The suites the ``suite_fanout`` workload runs, at full and small scale."""
    for tree in _ledger_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "SuiteFanout":
                names = []
                for statement in node.body:
                    if isinstance(statement, ast.Assign) and statement.targets[0].id in (
                        "SUITES",
                        "SMALL_SUITES",
                    ):
                        names.extend(ast.literal_eval(statement.value))
                return sorted(set(names))
    raise AssertionError("the ledger defines no SuiteFanout workload")


@pytest.fixture(scope="module")
def ledger():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(LEDGER))
        importlib.import_module("tracing")
        yield importlib.import_module("workloads")


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_workload_builds(ledger, name):
    workload = ledger.build(name, 0, 1.0)
    assert callable(workload.setup) and callable(workload.run)


@pytest.mark.parametrize("target", _package_imports())
def test_every_imported_name_resolves(target):
    module_name, _, name = target.partition(":")
    module = importlib.import_module(module_name)
    if name:
        assert hasattr(module, name), f"{module_name} no longer exports {name}"


@pytest.mark.parametrize("member", _model_members())
def test_every_model_member_the_ledger_touches_exists(member):
    model = NoCModel(SimulatorConfig(width=4))
    assert hasattr(model, member), f"NoCModel has no {member!r}"


@pytest.mark.parametrize("suite", _fanout_suites())
def test_every_fanout_suite_is_registered(suite):
    assert get_suite(suite).units


def test_the_phase_stepper_can_register_as_an_internal_engine():
    parameters = inspect.signature(register_engine).parameters
    assert list(parameters)[:2] == ["name", "factory"]
    for keyword in ("selectable", "replace_existing"):
        assert parameters[keyword].kind is inspect.Parameter.KEYWORD_ONLY
    model = NoCModel(SimulatorConfig(width=4))
    assert model.activity_tracking and model.idle_fast_path
    CycleEngine(model).run(3)
    assert model.cycle == 3


def test_engine_rows_find_exact_and_approximate_engines():
    infos = {info.name: info for info in engine_infos()}
    exact = [name for name, info in infos.items() if info.selectable and not info.approximate]
    assert exact == ["cycle", "event"]
    assert infos["flow"].approximate


def test_run_suite_feeds_the_fanout_workload(tmp_path):
    parameters = inspect.signature(run_suite).parameters
    for keyword in ("config", "out_dir", "telemetry"):
        assert parameters[keyword].kind is inspect.Parameter.KEYWORD_ONLY
    rows = []

    class Tap:
        emit = rows.append

    outcome = run_suite("hotpath-smoke", out_dir=tmp_path, telemetry=Tap())
    subtrials = [row for row in rows if row["source"] == "subtrial"]
    assert subtrials and all(row["wall_s"] >= 0 for row in subtrials)
    assert all(record["cycles"] > 0 for record in outcome.records)
    assert json.dumps(outcome.deterministic_payload(), sort_keys=True)
