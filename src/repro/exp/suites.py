"""Suite registry: every paper figure/table as pure data, one bench engine.

A :class:`SuiteSpec` names a paper artifact (fig1–fig5, table1–table4, or an
auxiliary workload set like ``hotpath``) and lists its work as
:class:`SuiteUnit` entries — load/latency sweeps, registered scenarios,
controller trainings and controller evaluations — all plain JSON data.  One
engine, :func:`run_suite`, expands every unit into picklable subtrials, fans
the whole suite through one :class:`repro.exp.runner.SupervisedTrialPool`
(one process pool across *all* units, not one pool per sweep) and
reassembles per-unit rows plus perf records in the shared
``benchmarks/results`` schema (``scenario``, ``cycles``, ``wall_s``,
``cycles_per_s``, see :func:`perf_record`) tagged with their ``suite``.  The records are
information only: diffing ignores their wall-clock fields, and speed
claims come from the perf ledger (``benchmarks/ledger/``).

The ``benchmarks/bench_fig*.py`` / ``bench_table*.py`` files are thin
wrappers: they look up their suite by name, run it, and assert the paper's
reproduction checks over the returned rows.  The CLI exposes the same
catalogue as ``repro-noc suite list|describe|run``; its ``sweep`` and
``scenarios run`` commands build an ad-hoc, unregistered :class:`SuiteSpec`
and run it through the same engine.

Every registered suite also gets a CI-sized smoke variant
(:func:`derive_smoke_suite`, registered as ``<name>-smoke``) that shrinks
cycles/episodes but walks the same code paths — those are what CI runs.

Determinism: suite results depend only on the spec (all seeds are part of
the data) and on ``train_jobs`` (the sharded trainer's documented RNG
contract), never on ``jobs`` — the pool only reorders wall-clock, not
outcomes — so ``run_suite`` twice over the same spec yields byte-identical
deterministic payloads (wall-clock perf records excluded).
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Mapping

from repro.analysis.metrics import summarize_trace
from repro.analysis.sweep import SweepTrial, measure_sweep_point
from repro.baselines import (
    RandomPolicy,
    StaticPolicy,
    ThresholdDvfsPolicy,
    static_max_performance,
    static_min_energy,
)
from repro.core import ExperimentConfig, TrafficSpec, evaluate_controller
from repro.core.controller import DRLControllerPolicy
from repro.core.training import (
    TrainingResult,
    train_dqn_controller,
    train_tabular_controller,
)
from repro.exp.execution import ExecutionConfig
from repro.exp.runner import SupervisedTrialPool, trial_seed
from repro.exp.telemetry import NONDETERMINISTIC_FIELDS
from repro.exp.scenarios import ScenarioSpec, get_scenario, run_scenario
from repro.exp.training import train_dqn_sharded
from repro.noc import SimulatorConfig
from repro.rl.dqn import DQNAgent

UNIT_KINDS = ("sweep", "scenario", "train", "train-eval", "eval")

#: Field names of the shared perf-record schema.
RESULTS_SCHEMA = ("scenario", "cycles", "wall_s", "cycles_per_s")


def perf_record(scenario: str, cycles: int, wall_s: float, **extra) -> dict:
    """A perf sample in the shared ``benchmarks/results`` schema.

    A run faster than the timer's resolution has no measurable throughput:
    its rate is recorded as ``None`` (JSON null), never ``0.0``, which
    would read as "infinitely slow".  ``extra`` keys ride along; the
    ``engine`` defaults to ``"cycle"``.
    """
    record = {
        "scenario": scenario,
        "cycles": int(cycles),
        "wall_s": float(wall_s),
        "cycles_per_s": float(cycles) / wall_s if wall_s > 0 else None,
    }
    record.update(extra)
    record.setdefault("engine", "cycle")
    return record


#: Ablation agent variants a ``train-eval`` unit may name.
TRAIN_EVAL_AGENTS = ("dqn", "double-dqn", "dueling-dqn", "tabular-q")

#: The one controller training shared by every figure/table that deploys the
#: DRL policy (fig3 curve, fig4/fig5 traces, table1/table2/table4 rows) —
#: the same hyperparameters the benchmark harness has always used.
MAIN_TRAINING = {
    "preset": "default",
    "episodes": 22,
    "seed": 1,
    "epsilon_decay_steps": 400,
}


@dataclass(frozen=True)
class SuiteUnit:
    """One named piece of a suite's work, as plain data.

    ``name`` doubles as the perf-record scenario name (namespaced by the
    suite), ``kind`` selects the worker, and ``params`` is a JSON-able dict
    the worker interprets:

    * ``sweep`` — ``rates`` (list), ``pattern``, ``routing``, ``width``,
      ``warmup_cycles``, ``measure_cycles``, ``seed``, ``dvfs_level``,
      ``pattern_kwargs``; one subtrial per rate.
    * ``scenario`` — ``scenario`` (registered name), ``seed``, ``repeats``,
      ``epochs``/``epoch_cycles`` overrides; one subtrial per repeat.
    * ``train`` — the suite's shared controller training; runs in the parent
      (memoized across suites) and reports the episode curve.
    * ``train-eval`` — ``agent`` (ablation variant), ``episodes``, ``seed``;
      trains that variant in a worker and evaluates it.
    * ``eval`` — ``policy`` (``drl``, ``static-max``, ``static-min``,
      ``heuristic``, ``random`` or ``static-L<n>``), optional ``traffic``
      (``{"pattern", "rate", "kwargs"}``), ``width``, ``num_epochs``;
      deploys the policy on a fresh experiment in a worker.
    """

    name: str
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("suite units need a non-empty name")
        if self.kind not in UNIT_KINDS:
            raise ValueError(
                f"unknown unit kind {self.kind!r}; known: {', '.join(UNIT_KINDS)}"
            )
        if self.kind == "sweep":
            rates = self.params.get("rates")
            if not rates:
                raise ValueError(f"sweep unit {self.name!r} needs a non-empty 'rates' list")
            if any(rate < 0 for rate in rates):
                raise ValueError(f"sweep unit {self.name!r} has a negative rate")
        if self.kind == "scenario":
            if not self.params.get("scenario"):
                raise ValueError(f"scenario unit {self.name!r} needs a 'scenario' name")
            if int(self.params.get("repeats", 1)) < 1:
                raise ValueError(
                    f"scenario unit {self.name!r} needs at least one repeat"
                )
        if self.kind == "eval" and not self.params.get("policy"):
            raise ValueError(f"eval unit {self.name!r} needs a 'policy' name")
        if self.kind == "train-eval":
            if self.params.get("agent") not in TRAIN_EVAL_AGENTS:
                raise ValueError(
                    f"train-eval unit {self.name!r} needs an agent from "
                    f"{', '.join(TRAIN_EVAL_AGENTS)}"
                )


@dataclass(frozen=True)
class SuiteSpec:
    """A named, self-contained description of one benchmark suite."""

    name: str
    description: str
    units: tuple[SuiteUnit, ...]
    #: Which paper artifact this regenerates ("fig1".."table4"), or "" for
    #: auxiliary suites (hotpath).
    artifact: str = ""
    #: Shared controller-training parameters for ``train`` units and
    #: ``eval`` units deploying the ``drl`` policy.
    training: dict | None = None
    #: Set on derived smoke variants: the full suite they shrink.
    smoke_of: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("suites need a non-empty name")
        if not self.units:
            raise ValueError(f"suite {self.name!r} needs at least one unit")
        names = [unit.name for unit in self.units]
        if len(set(names)) != len(names):
            raise ValueError(f"suite {self.name!r} has duplicate unit names")
        if self.needs_training() and self.training is None:
            raise ValueError(
                f"suite {self.name!r} has train/drl units but no training spec"
            )

    def needs_training(self) -> bool:
        return any(
            unit.kind == "train"
            or (unit.kind == "eval" and unit.params.get("policy") == "drl")
            for unit in self.units
        )

    def is_smoke(self) -> bool:
        return bool(self.smoke_of)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "SuiteSpec":
        payload = dict(payload)
        payload["units"] = tuple(SuiteUnit(**unit) for unit in payload.get("units", ()))
        return cls(**payload)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "SuiteSpec":
        return cls.from_dict(json.loads(payload))


# ---------------------------------------------------------------------------
# experiment / policy construction (shared by parent and pool workers)
# ---------------------------------------------------------------------------


def build_experiment(params: Mapping) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from plain unit/training params."""
    preset = params.get("preset", "default")
    if preset == "small":
        experiment = ExperimentConfig.small()
    elif preset == "joint":
        experiment = ExperimentConfig.joint_configuration()
    elif preset == "default":
        experiment = ExperimentConfig.default()
    else:
        raise ValueError(f"unknown experiment preset {preset!r}")
    traffic = params.get("traffic")
    if traffic:
        experiment = replace(
            experiment,
            traffic=TrafficSpec.synthetic(
                traffic["pattern"], traffic["rate"], **traffic.get("kwargs", {})
            ),
        )
    width = params.get("width")
    if width:
        experiment = replace(
            experiment,
            simulator=replace(experiment.simulator, width=width, height=width),
        )
    overrides = {
        key: int(params[key])
        for key in ("epoch_cycles", "episode_epochs")
        if params.get(key)
    }
    if overrides:
        experiment = replace(experiment, **overrides)
    engine = params.get("engine")
    if engine:
        experiment = replace(
            experiment, simulator=replace(experiment.simulator, engine=engine)
        )
    return experiment


def build_policy(
    name: str, experiment: ExperimentConfig, agent_payload: Mapping | None = None
):
    """Build a controller policy by name (workers rebuild these from data)."""
    if name == "drl":
        if agent_payload is None:
            raise ValueError("the drl policy needs a trained agent payload")
        agent = DQNAgent(agent_payload["dqn_config"])
        agent.set_state(agent_payload["state"])
        return DRLControllerPolicy(agent)
    num_levels = len(experiment.simulator.dvfs_levels)
    if name == "static-max":
        return static_max_performance()
    if name == "static-min":
        return static_min_energy(num_levels)
    if name == "heuristic":
        return ThresholdDvfsPolicy(num_levels)
    if name == "random":
        return RandomPolicy(experiment.build_action_space().size, seed=7)
    if name.startswith("static-L"):
        return StaticPolicy(int(name[len("static-L") :]), name=name)
    raise ValueError(f"unknown policy {name!r}")


# ---------------------------------------------------------------------------
# the shared controller training (memoized per process)
# ---------------------------------------------------------------------------

_TRAINING_CACHE: dict[tuple[str, int], TrainingResult] = {}


def train_controller(training: Mapping, *, jobs: int = 1) -> TrainingResult:
    """Train (or fetch the cached) shared DRL controller for ``training``.

    Memoized on the plain-data spec plus ``jobs`` (the sharded trainer's
    results depend on the actor count for ``jobs >= 2``), so every suite —
    and the benchmark harness's own fixtures — share one training per
    configuration per process.
    """
    key = (json.dumps(dict(training), sort_keys=True), jobs)
    if key not in _TRAINING_CACHE:
        _TRAINING_CACHE[key] = train_dqn_sharded(
            build_experiment(training),
            episodes=int(training.get("episodes", 22)),
            config=ExecutionConfig(train_jobs=jobs),
            epsilon_decay_steps=int(training.get("epsilon_decay_steps", 400)),
            seed=int(training.get("seed", 0)),
        )
    return _TRAINING_CACHE[key]


def _agent_payload(result: TrainingResult) -> dict:
    """The picklable snapshot eval workers rebuild the greedy policy from."""
    agent = result.agent
    return {"dqn_config": agent.config, "state": agent.get_state()}


def _weights_digest(agent_payload: Mapping | None) -> str:
    if agent_payload is None:
        return ""
    blob = pickle.dumps((agent_payload["dqn_config"], agent_payload["state"]))
    return hashlib.sha1(blob).hexdigest()


@functools.cache
def _source_digest() -> str:
    """sha1 of every ``*.py`` file of the ``repro`` package (once per process).

    Part of every :attr:`Subtrial.key`, so a code change misses every row
    stored by the previous code — no hand-bumped store version to forget.
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha1()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the subtrial store (per-suite journals under out_dir)
# ---------------------------------------------------------------------------


#: Subtrial kinds :func:`run_suite_subtrial` can execute.
SUBTRIAL_KINDS = ("sweep", "scenario", "eval", "train-eval")


@dataclass(frozen=True)
class Subtrial:
    """One expanded, picklable unit of suite work: a kind plus its params.

    It is what the supervised pool ships to :func:`run_suite_subtrial`,
    and what each journal row is keyed on.

    ``key`` is the subtrial's content address: a hash of everything its
    outcome depends on — its kind and params, with any embedded agent
    payload replaced by its weight fingerprint (raw network state is
    neither JSON-able nor key-stable), plus the package source digest.
    Two subtrials with the same key produce bit-identical payloads — the
    determinism contract — which is what makes a stored result safe to
    reuse across suites and process restarts.
    """

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in SUBTRIAL_KINDS:
            raise ValueError(
                f"unknown subtrial kind {self.kind!r}; "
                f"known: {', '.join(SUBTRIAL_KINDS)}"
            )
        # Params stay a plain dict (picklable, wire-framable); the copy
        # keeps the frozen value insulated from caller-side mutation.
        object.__setattr__(self, "params", dict(self.params))

    @property
    def key(self) -> str:
        """Stable content address (see the class docstring)."""
        # An eval's ``agent`` is a weights payload, hashed by fingerprint; a
        # train-eval's is the agent *kind* string, plain data like the rest.
        agent = self.params.get("agent")
        weights = agent if isinstance(agent, Mapping) else None
        reduced = {
            key: value
            for key, value in self.params.items()
            if key != "agent" or isinstance(value, str)
        }
        blob = json.dumps([self.kind, reduced], sort_keys=True, default=str)
        return hashlib.sha1(
            f"{blob}|{_weights_digest(weights)}|{_source_digest()}".encode()
        ).hexdigest()

    def to_wire(self) -> list:
        """The JSON-framable ``[kind, params]`` shape (the frame codec's probe)."""
        return [self.kind, self.params]


class SuiteJournal:
    """Append-only completion log: one JSONL row per finished subtrial.

    Lives at ``<out_dir>/<suite>.journal.jsonl`` next to the artefact; the
    journals under one ``out_dir`` together are the subtrial store
    :func:`run_suite` reads.  Every row carries the subtrial's content key
    (:attr:`Subtrial.key`), its unit/kind, the supervised pool's attempt
    count (0 for a row reused from the store), a ``generated_at`` stamp
    and the full payload — and is flushed the moment the subtrial lands,
    so a killed run (OOM, SIGKILL, Ctrl-C) loses at most the in-flight
    subtrials.  A truncated final line (the kill arriving mid-write) is
    skipped on load and simply re-run; the next append starts a fresh line.

    Determinism makes this safe: a key identifies the subtrial's entire
    input, so the journaled payload *is* what a rerun would produce —
    only its wall-clock fields are stale (ignored by ``suite diff`` like
    every other timing field).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = None
        self._written: set[str] = set()

    def load(self) -> dict[str, dict]:
        """Journaled payloads by subtrial key (tolerates a truncated tail)."""
        completed: dict[str, dict] = {}
        if not self.path.exists():
            return completed
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                continue  # the killed run died mid-write; rerun that subtrial
            key = row.get("key")
            if key and "payload" in row:
                completed[key] = row["payload"]
                self._written.add(key)
        return completed

    def append(
        self, key: str, *, unit: str, kind: str, attempts: int, payload: Mapping
    ) -> None:
        """Journal one completed subtrial (idempotent per key, flushed)."""
        if key in self._written:
            return
        self._written.add(key)
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._file = self.path.open("a", encoding="utf-8")
            if self._file.tell():
                with self.path.open("rb") as handle:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        # A killed writer left a torn row: start a fresh line
                        # rather than glue this row onto the fragment.
                        self._file.write("\n")
        self._file.write(
            json.dumps(
                {
                    "key": key,
                    "unit": unit,
                    "kind": kind,
                    "attempts": attempts,
                    "generated_at": time.time(),
                    "payload": payload,
                },
                sort_keys=True,
            )
            + "\n"
        )
        self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


# ---------------------------------------------------------------------------
# subtrial workers (module-level: picklable into the pool)
# ---------------------------------------------------------------------------


def _run_sweep_point(params: Mapping) -> dict:
    config = SimulatorConfig(
        width=int(params.get("width", 4)),
        routing=params.get("routing", "xy"),
        engine=params.get("engine", "cycle"),
    )
    warmup = int(params.get("warmup_cycles", 500))
    measure = int(params.get("measure_cycles", 1_500))
    point = measure_sweep_point(
        SweepTrial(
            simulator_config=config,
            pattern=params.get("pattern", "uniform"),
            rate=float(params["rate"]),
            warmup_cycles=warmup,
            measure_cycles=measure,
            seed=int(params.get("seed", 0)),
            dvfs_level=int(params.get("dvfs_level", 0)),
            pattern_kwargs=dict(params.get("pattern_kwargs", {})),
        )
    )
    row = {
        "rate": point.injection_rate,
        "average_latency": point.average_latency,
        "average_network_latency": point.average_network_latency,
        "throughput": point.throughput,
        "offered_load": point.offered_load,
        "energy_per_flit_pj": point.energy_per_flit_pj,
        "delivered_packets": point.delivered_packets,
    }
    return {"rows": [row], "cycles": warmup + measure, "wall_s": point.wall_time_s}


def _run_scenario_subtrial(params: Mapping) -> dict:
    result = run_scenario(
        ScenarioSpec.from_dict(params["scenario_spec"]),
        seed=int(params.get("seed", 0)),
        epochs=params.get("epochs"),
        epoch_cycles=params.get("epoch_cycles"),
        engine=params.get("engine"),
    )
    return {
        "rows": [result.summary()],
        "cycles": result.cycles,
        "wall_s": result.wall_time_s,
    }


def _eval_payload(trace, wall_s: float) -> dict:
    rows = [
        {
            "epoch": record.epoch,
            "offered_load": record.telemetry.offered_load_flits_per_node_cycle,
            "dvfs_level": record.telemetry.dvfs_level_index,
            "latency": record.telemetry.average_total_latency,
            "energy_per_flit_pj": record.telemetry.energy_per_flit_pj,
            "reward": record.reward,
        }
        for record in trace.records
    ]
    return {
        "rows": rows,
        "summary": summarize_trace(trace),
        "cycles": trace.total_cycles,
        "wall_s": wall_s,
    }


def _run_eval(params: Mapping) -> dict:
    experiment = build_experiment(params)
    policy = build_policy(params["policy"], experiment, params.get("agent"))
    num_epochs = params.get("num_epochs")
    start = time.perf_counter()
    trace = evaluate_controller(
        experiment, policy, num_epochs=int(num_epochs) if num_epochs else None
    )
    return _eval_payload(trace, time.perf_counter() - start)


def _run_train_eval(params: Mapping) -> dict:
    experiment = build_experiment(params)
    env = experiment.build_environment()
    agent_kind = params["agent"]
    episodes = int(params.get("episodes", 12))
    seed = int(params.get("seed", 0))
    start = time.perf_counter()
    if agent_kind == "tabular-q":
        training = train_tabular_controller(
            env,
            episodes=episodes,
            bins_per_feature=int(params.get("bins_per_feature", 3)),
            seed=seed,
        )
    else:
        training = train_dqn_controller(
            env,
            episodes=episodes,
            epsilon_decay_steps=int(params.get("epsilon_decay_steps", episodes * 18)),
            seed=seed,
            double=agent_kind == "double-dqn",
            dueling=agent_kind == "dueling-dqn",
        )
    trace = evaluate_controller(experiment, training.to_policy(agent_kind))
    wall_s = time.perf_counter() - start
    summary = summarize_trace(trace)
    row = {
        "agent": agent_kind,
        "final_training_return": training.final_return,
        "best_training_return": training.best_return,
        "eval_mean_reward": summary["mean_reward"],
        "eval_latency": summary["average_latency"],
        "eval_energy_per_flit_pj": summary["energy_per_flit_pj"],
        "eval_edp": summary["edp"],
    }
    train_cycles = episodes * experiment.episode_epochs * experiment.epoch_cycles
    return {
        "rows": [row],
        "summary": summary,
        "cycles": train_cycles + trace.total_cycles,
        "wall_s": wall_s,
    }


_SUBTRIAL_WORKERS = {
    "sweep": _run_sweep_point,
    "scenario": _run_scenario_subtrial,
    "eval": _run_eval,
    "train-eval": _run_train_eval,
}


def run_suite_subtrial(subtrial: Subtrial) -> dict:
    """Dispatch one expanded subtrial (module-level so it pickles)."""
    return _SUBTRIAL_WORKERS[subtrial.kind](subtrial.params)


def unit_shape(params: Mapping) -> tuple[int, float | None]:
    """(n_nodes, injection_rate) the unit's or subtrial's params describe.

    A scenario's mesh comes from its spec — the shipped ``scenario_spec``
    of a subtrial, else the registered ``scenario`` name; anything else
    reads ``width``, defaulting to the 4x4 experiment mesh every preset
    uses.  The rate is the fixed injection rate when there is one (an
    explicit ``rate``, as on each sweep point, or a synthetic ``traffic``
    override) and ``None`` when it varies — sweep units sweep many rates,
    phased workloads ramp through several.  These ride every perf record
    and telemetry row, so a 4x4 sample is never read as comparable to a
    64x64 one.
    """
    shipped = params.get("scenario_spec")
    if shipped is not None:
        width, height = shipped["width"], shipped.get("height")
    elif params.get("scenario"):
        registered = get_scenario(params["scenario"])
        width, height = registered.width, registered.height
    else:
        width, height = params.get("width") or 4, None
    n_nodes = int(width) * int(height or width)
    rate = params.get("rate")
    traffic = params.get("traffic")
    if rate is None and isinstance(traffic, Mapping):
        rate = traffic.get("rate")
    return n_nodes, (float(rate) if rate is not None else None)


def expand_unit(
    unit: SuiteUnit, agent_payload: Mapping | None = None, engine: str = "cycle"
) -> list[Subtrial]:
    """Expand a unit into :class:`Subtrial` work items for the pool.

    ``engine`` is stamped into every subtrial's params (unit params naming
    their own ``engine`` win) so whole suites can run on any registered
    execution engine; simulated outcomes are engine-agnostic.
    """
    params = dict(unit.params)
    params.setdefault("engine", engine)
    if unit.kind == "sweep":
        rates = params.pop("rates")
        return [Subtrial("sweep", {**params, "rate": rate}) for rate in rates]
    if unit.kind == "scenario":
        # Ship the full spec, not just the name: a spawn-started worker
        # re-imports the registry, which only holds the built-in scenarios.
        spec = get_scenario(params["scenario"])
        repeats = int(params.get("repeats", 1))
        base_seed = int(params.get("seed", 0))
        return [
            Subtrial(
                "scenario",
                {
                    "scenario_spec": spec.to_dict(),
                    "seed": base_seed if repeats == 1 else trial_seed(base_seed, repeat),
                    "epochs": params.get("epochs"),
                    "epoch_cycles": params.get("epoch_cycles"),
                    "engine": params.get("engine"),
                },
            )
            for repeat in range(repeats)
        ]
    if unit.kind == "eval":
        if params.get("policy") == "drl":
            params["agent"] = agent_payload
        return [Subtrial("eval", params)]
    if unit.kind == "train-eval":
        return [Subtrial("train-eval", params)]
    raise ValueError(f"unit kind {unit.kind!r} does not expand into subtrials")


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


@dataclass
class SuiteOutcome:
    """Everything one suite run produced, as plain data plus helpers."""

    suite: str
    artifact: str
    units: list[dict]
    records: list[dict]
    wall_s: float
    training: TrainingResult | None = None
    #: Subtrials satisfied from the store under ``out_dir`` (their payloads
    #: are bit-identical to a fresh run; only wall clock is stale).
    reused_subtrials: int = 0

    def unit(self, name: str) -> dict:
        for payload in self.units:
            if payload["unit"] == name:
                return payload
        known = ", ".join(payload["unit"] for payload in self.units)
        raise KeyError(f"no unit {name!r} in suite {self.suite!r}; known: {known}")

    def rows(self, name: str) -> list[dict]:
        return self.unit(name)["rows"]

    def summary(self, name: str) -> dict:
        summary = self.unit(name).get("summary")
        if summary is None:
            raise KeyError(f"unit {name!r} of suite {self.suite!r} has no summary")
        return summary

    def deterministic_payload(self) -> dict:
        """The simulated outcomes only — byte-identical across reruns."""
        return {"suite": self.suite, "artifact": self.artifact, "units": self.units}

    def to_payload(self) -> dict:
        return {
            "suite": self.suite,
            "artifact": self.artifact,
            "schema": list(RESULTS_SCHEMA),
            "units": self.units,
            "runs": self.records,
            "wall_s_total": self.wall_s,
            # Production timestamp; wall-clock, so diff_payloads ignores it
            # like every other timing field.
            "generated_at": time.time(),
        }


def _train_unit_payload(
    unit: SuiteUnit, spec: SuiteSpec, result: TrainingResult
) -> tuple[dict, float]:
    smoothed = result.smoothed_returns(window=3)
    rows = [
        {
            "episode": episode,
            "episode_return": result.episode_returns[episode],
            "smoothed_return": smoothed[episode],
            "mean_latency": result.episode_mean_latency[episode],
            "mean_energy_per_flit": result.episode_mean_energy_per_flit[episode],
        }
        for episode in range(result.episodes)
    ]
    experiment = build_experiment(spec.training)
    cycles = result.episodes * experiment.episode_epochs * experiment.epoch_cycles
    payload = {"unit": unit.name, "kind": unit.kind, "rows": rows, "cycles": cycles}
    return payload, result.wall_time_s


def run_suite(
    spec: SuiteSpec | str,
    *,
    config: ExecutionConfig | None = None,
    out_dir: str | Path | None = None,
    telemetry=None,
) -> SuiteOutcome:
    """Run every unit of ``spec``, fanning subtrials over one process pool.

    ``config`` is the unified :class:`~repro.exp.execution.ExecutionConfig`
    — every knob that shapes *execution* in one frozen value, and the only
    way to pass one.  What stays a keyword is the environment —
    ``out_dir`` and ``telemetry`` describe where the run happens, not what
    it computes.

    ``config.jobs`` parallelises the suite's subtrials (simulated outcomes
    are identical for any value); ``config.train_jobs`` is handed to the
    sharded DQN trainer for the suite's shared controller (1 = the serial
    reference path).  ``config.engine`` runs the whole suite — subtrials
    and the shared training — on the named execution engine (simulated
    outcomes are engine-agnostic; every perf record is tagged with the
    engine that ran it).  With ``out_dir`` the outcome is also written to
    ``<out_dir>/<suite>.json`` in the shared artefact shape.

    Every expanded subtrial — a typed :class:`Subtrial` — is its own pool
    task and journal row.

    ``telemetry`` is an optional live tap (anything with ``emit(row)``,
    typically a :class:`repro.exp.telemetry.TelemetrySink`): one
    ``source="subtrial"`` row per subtrial, describing that subtrial (its
    own ``seed``, mesh size and injection rate), then one ``source="perf"``
    row per unit perf record.  Rows are emitted parent-side in unit order
    — never from pool workers, where an open sink would not pickle — so
    the stream is deterministic for any ``jobs`` (wall-clock fields
    aside), same as the payloads themselves.
    Subtrial rows also carry the supervised pool's ``attempts``/``retries``
    accounting (scheduling metadata — diff-ignored like wall clock).

    Fault tolerance: subtrials fan out through a
    :class:`repro.exp.runner.SupervisedTrialPool`, so a lost worker (OOM,
    segfault, SIGKILL) rebuilds the pool and retries only the unfinished
    subtrials, and a poison subtrial is quarantined into a
    :class:`repro.exp.runner.TrialExecutionError` after its siblings
    settle.  ``config.supervision.timeout_s`` bounds one subtrial
    attempt's wall clock and ``config.supervision.max_retries`` sets the
    retry budget (default 2).  ``config.chaos`` injects a deterministic
    fault script (tests/CI only) — by the determinism contract a
    chaos-ridden run's artefact is identical to a clean run's.

    The store: with ``out_dir``, every ``*.journal.jsonl`` under it is
    read first, and any subtrial whose :attr:`Subtrial.key` it holds — from
    any suite — is satisfied without dispatching (and counts 0 s in this
    run's telemetry and perf records).  Every subtrial of the suite,
    reused or fresh, is then journaled to ``<out_dir>/<suite>.journal.jsonl``
    (flushed row by row, as it lands), so each journal is self-contained.  Rerunning a killed run
    into the same ``out_dir`` continues where it died and — because stored
    payloads are bit-identical to fresh ones — yields the identical
    combined artefact; suites sharing subtrials (fig4/fig5/table1/table2
    deploy the same phased policies) compute each once.  The keys cover
    the spec, the engine, the deployed weights and the package source, so
    a changed input or code edit recomputes.  A ``KeyboardInterrupt``
    leaves the journal flushed and consistent.
    """
    config = config or ExecutionConfig()
    if isinstance(spec, str):
        spec = get_suite(spec)
    engine_name = config.resolved_engine()
    if engine_name != "cycle" and spec.training is not None:
        # The engine becomes part of the training spec (and thus the memo
        # key): a suite run on another backend trains on that backend too.
        spec = replace(spec, training={**spec.training, "engine": engine_name})
    start = time.perf_counter()
    training_result = None
    agent_payload = None
    if spec.needs_training():
        training_result = train_controller(spec.training, jobs=config.train_jobs)
        agent_payload = _agent_payload(training_result)

    parent_payloads: dict[int, tuple[dict, float]] = {}
    tagged: list[tuple[int, Subtrial]] = []  # (unit index, subtrial)
    for index, unit in enumerate(spec.units):
        if unit.kind == "train":
            parent_payloads[index] = _train_unit_payload(unit, spec, training_result)
            continue
        subtrials = expand_unit(unit, agent_payload, engine=engine_name)
        tagged.extend((index, subtrial) for subtrial in subtrials)

    # The store: every journal under out_dir.  This suite's own is read
    # through the appending journal, so its rows are not written twice.
    journal: SuiteJournal | None = None
    stored: dict[str, dict] = {}
    if out_dir is not None:
        journal = SuiteJournal(Path(out_dir) / f"{spec.name}.journal.jsonl")
        for path in sorted(Path(out_dir).glob("*.journal.jsonl")):
            reader = journal if path == journal.path else SuiteJournal(path)
            stored.update(reader.load())

    # Satisfy what we can from the store; dispatch the rest as one
    # supervised batch.  A reused subtrial costs this run nothing: its
    # ``attempts`` stays 0 and its telemetry row and perf record count 0 s
    # (the journal keeps the wall it was measured with).
    payloads: list[dict | None] = [None] * len(tagged)
    attempts_by_position = [0] * len(tagged)
    reused = 0
    dispatch: list[tuple[int, str | None, Subtrial]] = []
    for position, (index, subtrial) in enumerate(tagged):
        key = subtrial.key if journal is not None else None
        if key is not None and key in stored:
            payloads[position] = {**stored[key], "wall_s": 0.0}
            reused += 1
            unit = spec.units[index]
            journal.append(
                key, unit=unit.name, kind=unit.kind, attempts=0, payload=stored[key]
            )
        else:
            dispatch.append((position, key, subtrial))

    def _on_task(task_index: int, payload: dict, attempts: int) -> None:
        # Fires parent-side the moment a subtrial's result lands (completion
        # order): journal it immediately so a kill right after loses nothing.
        position, key, _ = dispatch[task_index]
        attempts_by_position[position] = attempts
        if journal is not None:
            unit = spec.units[tagged[position][0]]
            journal.append(
                key, unit=unit.name, kind=unit.kind, attempts=attempts, payload=payload
            )

    # Chaos rules address subtrials by dispatch index or by this label.
    labels = [
        f"{spec.units[tagged[position][0]].name}[{position}]"
        for position, _, _ in dispatch
    ]
    pool = SupervisedTrialPool(
        config.jobs, policy=config.supervision, chaos=config.chaos
    )
    try:
        results = pool.run(
            run_suite_subtrial,
            [subtrial for _, _, subtrial in dispatch],
            labels=labels,
            on_result=_on_task,
        )
    finally:
        # Interrupt/quarantine included: the journal is already flushed row
        # by row, so whatever completed survives for the rerun.
        pool.close()
        if journal is not None:
            journal.close()
    for (position, _, _), payload in zip(dispatch, results):
        payloads[position] = payload

    grouped: dict[int, list[dict]] = {}
    for position, ((index, subtrial), payload) in enumerate(zip(tagged, payloads)):
        grouped.setdefault(index, []).append(payload)
        if telemetry is not None:
            unit = spec.units[index]
            wall_s = payload.get("wall_s", 0.0)
            attempts = attempts_by_position[position]
            n_nodes, injection_rate = unit_shape(subtrial.params)
            telemetry.emit(
                {
                    "source": "subtrial",
                    "suite": spec.name,
                    "scenario": unit.name,
                    "unit": unit.name,
                    "kind": unit.kind,
                    "engine": subtrial.params.get("engine") or engine_name,
                    "seed": subtrial.params.get("seed"),
                    "n_nodes": n_nodes,
                    "injection_rate": injection_rate,
                    "rows": len(payload.get("rows", ())),
                    "cycles": payload.get("cycles"),
                    "wall_s": wall_s,
                    "cycles_per_s": (
                        payload["cycles"] / wall_s
                        if wall_s > 0 and payload.get("cycles")
                        else None
                    ),
                    "attempts": attempts,
                    "retries": max(attempts - 1, 0),
                }
            )

    units: list[dict] = []
    records: list[dict] = []
    for index, unit in enumerate(spec.units):
        if index in parent_payloads:
            payload, unit_wall_s = parent_payloads[index]
        else:
            parts = grouped[index]
            payload = {
                "unit": unit.name,
                "kind": unit.kind,
                "rows": [row for part in parts for row in part["rows"]],
                "cycles": sum(part["cycles"] for part in parts),
            }
            if len(parts) == 1 and "summary" in parts[0]:
                payload["summary"] = parts[0]["summary"]
            unit_wall_s = sum(part["wall_s"] for part in parts)
        units.append(payload)
        n_nodes, injection_rate = unit_shape(unit.params)
        records.append(
            perf_record(
                unit.name,
                payload["cycles"],
                unit_wall_s,
                suite=spec.name,
                kind=unit.kind,
                # A unit naming its own engine wins over the suite-level
                # argument (mirroring expand_unit), so the record always
                # names the engine that actually ran.
                engine=unit.params.get("engine") or engine_name,
                n_nodes=n_nodes,
                injection_rate=injection_rate,
            )
        )

    if telemetry is not None:
        for record in records:
            telemetry.emit({"source": "perf", **record})

    outcome = SuiteOutcome(
        suite=spec.name,
        artifact=spec.artifact,
        units=units,
        records=records,
        wall_s=time.perf_counter() - start,
        training=training_result,
        reused_subtrials=reused,
    )
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{spec.name}.json").write_text(
            json.dumps(outcome.to_payload(), indent=2), encoding="utf-8"
        )
    return outcome


# ---------------------------------------------------------------------------
# artefact diffing
# ---------------------------------------------------------------------------

#: Keys :func:`diff_payloads` skips by default: wall-clock measurements and
#: the supervised pool's scheduling metadata (``attempts``/``retries``) are
#: not deterministic, so two runs of the same suite legitimately differ in
#: them while every simulated field must match exactly.  The set is the
#: telemetry module's canonical nondeterministic-field registry — one list,
#: so a new timing/scheduling field added there is automatically excluded
#: from parity checks here (``episodes_per_second`` once leaked through a
#: second copy of this set and flagged training suites as
#: nondeterministic).
DIFF_IGNORED_KEYS = NONDETERMINISTIC_FIELDS

#: Per-field relative tolerances for comparing an *approximate* engine's
#: artefact against an exact one (``suite diff --approx``).  A numeric field
#: named here passes when ``|a - b| <= eps * max(|a|, |b|, 1.0)``; every
#: other field still compares exactly.  The epsilons come from
#: cross-validating the flow engine against the cycle engine on small
#: meshes below saturation: throughput-like quantities track within a few
#: percent, while latency and occupancy are analytical (M/D/1 + Little's
#: law) and deviate more — especially in short smoke runs where backlog
#: wait is charged as it accrues rather than at delivery.
APPROX_DIFF_TOLERANCES: dict[str, float] = {
    # throughput-like: tight
    "throughput": 0.25,
    "offered_load": 0.25,
    "accepted_ratio": 0.25,
    # Packet counts are large enough that the 1.0 absolute floor never
    # applies, so *saturated* sweep points show their full fluid-model
    # optimism here (~0.35 relative on a dvfs-3 sweep past the knee —
    # the cycle engine loses throughput to tree saturation the rate
    # model cannot express).
    "delivered_packets": 0.45,
    "packets_delivered": 0.45,
    "link_utilization": 0.25,
    "average_hops": 0.25,
    "energy_total_pj": 0.25,
    "energy_per_flit_pj": 0.25,
    "cycles": 0.0,  # spans are exact whichever engine leaps them
    # latency/occupancy-like: analytical, loose
    "latency": 0.85,
    "average_latency": 0.85,
    "average_total_latency": 0.85,
    "average_network_latency": 0.85,
    "average_buffer_occupancy": 0.85,
    "average_source_queue_flits": 0.9,
    "reward": 0.9,
    "mean_reward": 0.9,
    "edp": 0.95,
}

#: Keys ``--approx`` additionally ignores: the two artefacts were produced
#: by different engines on purpose, percentile fields are unavailable
#: from synthesized telemetry (the flow engine keeps no per-packet samples),
#: and ``idle_cycles`` counts the cycles an engine served through its idle
#: fast path — engine observability, which the flow engine (it never steps
#: a cycle) legitimately reports differently.  Exact diffs still compare it.
APPROX_DIFF_IGNORED_KEYS = frozenset(
    {"engine", "p95_latency", "p99_latency", "idle_cycles"}
)


def _within_tolerance(a, b, eps: float) -> bool:
    """Relative closeness with an absolute floor of 1.0 (so near-zero pairs
    compare absolutely rather than blowing up the relative error)."""
    return abs(a - b) <= eps * max(abs(a), abs(b), 1.0)


def diff_payloads(
    a,
    b,
    *,
    ignore: frozenset[str] | set[str] = DIFF_IGNORED_KEYS,
    tolerances: Mapping[str, float] | None = None,
    path: str = "",
) -> list[str]:
    """Row-by-row, field-by-field differences between two stored artefacts.

    Compares every field of two suite payloads (or any JSON-shaped values)
    except the keys in ``ignore``, returning one human-readable line per
    difference (empty list = identical).  Dict entries compare by key, lists
    element-by-element, scalars exactly — suite outcomes are deterministic,
    so float fields must match to the last bit.  ``repro-noc suite diff``
    wraps this; CI's engine-parity check runs it over a suite executed on
    the cycle and event engines with ``engine`` added to ``ignore``.

    ``tolerances`` relaxes named numeric fields to relative closeness
    (``|a - b| <= eps * max(|a|, |b|, 1.0)``) for comparing approximate
    engines against exact ones; with the default ``None`` every comparison
    stays byte-exact, so existing parity checks are unchanged.
    """
    differences: list[str] = []
    label = path or "$"
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        for key in sorted(set(a) | set(b), key=str):
            if key in ignore:
                continue
            entry = f"{path}.{key}" if path else str(key)
            if key not in a:
                differences.append(f"{entry}: only in B ({b[key]!r})")
            elif key not in b:
                differences.append(f"{entry}: only in A ({a[key]!r})")
            else:
                value_a, value_b = a[key], b[key]
                eps = None if tolerances is None else tolerances.get(key)
                if (
                    eps is not None
                    and isinstance(value_a, (int, float))
                    and isinstance(value_b, (int, float))
                    and not isinstance(value_a, bool)
                    and not isinstance(value_b, bool)
                ):
                    if not _within_tolerance(value_a, value_b, eps):
                        differences.append(
                            f"{entry}: A={value_a!r} vs B={value_b!r} "
                            f"(beyond eps={eps})"
                        )
                    continue
                differences.extend(
                    diff_payloads(
                        value_a,
                        value_b,
                        ignore=ignore,
                        tolerances=tolerances,
                        path=entry,
                    )
                )
        return differences
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            differences.append(f"{label}: {len(a)} row(s) in A vs {len(b)} in B")
        for index, (item_a, item_b) in enumerate(zip(a, b)):
            differences.extend(
                diff_payloads(
                    item_a,
                    item_b,
                    ignore=ignore,
                    tolerances=tolerances,
                    path=f"{label}[{index}]",
                )
            )
        return differences
    if a != b:
        differences.append(f"{label}: A={a!r} vs B={b!r}")
    return differences


# ---------------------------------------------------------------------------
# smoke variants
# ---------------------------------------------------------------------------

#: Per-kind parameter caps for CI-sized smoke variants.  Keys not present in
#: a unit's params are *injected* (e.g. an eval unit that normally runs the
#: experiment's full episode length gets an explicit small ``num_epochs``),
#: so smoke runs are bounded regardless of the full suite's defaults.
SMOKE_UNIT_CAPS: dict[str, dict[str, int]] = {
    "sweep": {"warmup_cycles": 100, "measure_cycles": 240},
    "scenario": {"epochs": 2, "epoch_cycles": 150, "repeats": 1},
    "eval": {"num_epochs": 3, "epoch_cycles": 150},
    "train-eval": {"episodes": 2, "epoch_cycles": 150, "episode_epochs": 4},
}
SMOKE_TRAINING_CAPS: dict[str, int] = {
    "episodes": 2,
    "epoch_cycles": 150,
    "episode_epochs": 4,
}
#: Smoke sweeps keep at most this many rates (first, middle, last).
SMOKE_MAX_RATES = 3


def _cap_params(params: dict, caps: Mapping[str, int]) -> dict:
    capped = dict(params)
    for key, cap in caps.items():
        current = capped.get(key)
        capped[key] = cap if current is None else min(int(current), cap)
    rates = capped.get("rates")
    if rates and len(rates) > SMOKE_MAX_RATES:
        capped["rates"] = [rates[0], rates[len(rates) // 2], rates[-1]]
    return capped


def derive_smoke_suite(spec: SuiteSpec) -> SuiteSpec:
    """A CI-sized variant of ``spec``: same units and code paths, tiny sizes."""
    units = tuple(
        replace(unit, params=_cap_params(unit.params, SMOKE_UNIT_CAPS.get(unit.kind, {})))
        for unit in spec.units
    )
    training = (
        _cap_params(spec.training, SMOKE_TRAINING_CAPS) if spec.training else None
    )
    return SuiteSpec(
        name=f"{spec.name}-smoke",
        description=f"CI-sized smoke variant of {spec.name}: {spec.description}",
        units=units,
        artifact=spec.artifact,
        training=training,
        smoke_of=spec.name,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, SuiteSpec] = {}


def register_suite(
    spec: SuiteSpec, *, smoke: bool = True, replace_existing: bool = False
) -> SuiteSpec:
    """Add ``spec`` (and, by default, its derived smoke variant) to the registry."""
    if spec.name in _REGISTRY and not replace_existing:
        raise ValueError(f"suite {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    if smoke and not spec.is_smoke():
        smoke_spec = derive_smoke_suite(spec)
        if smoke_spec.name not in _REGISTRY or replace_existing:
            _REGISTRY[smoke_spec.name] = smoke_spec
    return spec


def get_suite(name: str) -> SuiteSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(suite_names())
        raise KeyError(f"unknown suite {name!r}; known: {known}") from None


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def all_suites() -> tuple[SuiteSpec, ...]:
    return tuple(_REGISTRY[name] for name in suite_names())


def paper_suites() -> tuple[SuiteSpec, ...]:
    """The full (non-smoke) suites that regenerate a paper artifact."""
    return tuple(
        spec for spec in all_suites() if spec.artifact and not spec.is_smoke()
    )


# ---------------------------------------------------------------------------
# the paper's catalogue
# ---------------------------------------------------------------------------


def _phased_eval_units(policies: tuple[str, ...], **params) -> tuple[SuiteUnit, ...]:
    return tuple(
        SuiteUnit(f"phased/{policy}", "eval", {"policy": policy, **params})
        for policy in policies
    )


def _seed_registry() -> None:
    fig1_sweep = {
        "width": 4,
        "pattern": "uniform",
        "routing": "xy",
        "rates": [0.02, 0.08, 0.15, 0.25, 0.40, 0.60],
        "warmup_cycles": 400,
        "measure_cycles": 1_200,
        "seed": 3,
    }
    register_suite(
        SuiteSpec(
            name="fig1",
            artifact="fig1",
            description=(
                "Load/latency curve: latency & accepted throughput vs offered "
                "load at the fastest and slowest DVFS level (4x4, uniform, XY)"
            ),
            units=(
                SuiteUnit("turbo", "sweep", {**fig1_sweep, "dvfs_level": 0}),
                SuiteUnit("powersave", "sweep", {**fig1_sweep, "dvfs_level": 3}),
            ),
        )
    )

    fig2_sweep = {
        "width": 4,
        "pattern": "transpose",
        "rates": [0.05, 0.15, 0.25, 0.35, 0.45],
        "warmup_cycles": 400,
        "measure_cycles": 1_200,
        "seed": 5,
        "dvfs_level": 0,
    }
    register_suite(
        SuiteSpec(
            name="fig2",
            artifact="fig2",
            description=(
                "Routing throughput: accepted throughput vs offered load for "
                "XY and turn-model adaptive routing under transpose traffic"
            ),
            units=tuple(
                SuiteUnit(routing, "sweep", {**fig2_sweep, "routing": routing})
                for routing in ("xy", "odd_even", "west_first")
            ),
        )
    )

    register_suite(
        SuiteSpec(
            name="fig3",
            artifact="fig3",
            description="DQN training convergence: episode return vs training episode",
            units=(SuiteUnit("dqn-train", "train"),),
            training=dict(MAIN_TRAINING),
        )
    )

    register_suite(
        SuiteSpec(
            name="fig4",
            artifact="fig4",
            description=(
                "Runtime adaptation: DVFS level and latency over the phased "
                "workload, DRL vs static-max vs heuristic"
            ),
            units=_phased_eval_units(("drl", "static-max", "heuristic")),
            training=dict(MAIN_TRAINING),
        )
    )

    register_suite(
        SuiteSpec(
            name="fig5",
            artifact="fig5",
            description=(
                "Latency/energy trade-off: where each controller (plus the "
                "static DVFS ladder) lands in the latency-energy plane"
            ),
            units=_phased_eval_units(
                (
                    "drl",
                    "static-max",
                    "static-min",
                    "heuristic",
                    "random",
                    "static-L1",
                    "static-L2",
                )
            ),
            training=dict(MAIN_TRAINING),
        )
    )

    table1_patterns = {
        "uniform-0.15": {"pattern": "uniform", "rate": 0.15},
        "transpose-0.20": {"pattern": "transpose", "rate": 0.20},
        "hotspot-0.20": {
            "pattern": "hotspot",
            "rate": 0.20,
            "kwargs": {"hotspot_fraction": 0.15},
        },
    }
    table1_policies = ("drl", "static-max", "static-min", "heuristic", "random")
    register_suite(
        SuiteSpec(
            name="table1",
            artifact="table1",
            description=(
                "Controller comparison: latency, energy/flit, EDP and mean "
                "reward on the phased workload and three synthetic patterns"
            ),
            units=_phased_eval_units(table1_policies)
            + tuple(
                SuiteUnit(
                    f"{workload}/{policy}",
                    "eval",
                    {"policy": policy, "traffic": traffic, "num_epochs": 8},
                )
                for workload, traffic in table1_patterns.items()
                for policy in table1_policies
            ),
            training=dict(MAIN_TRAINING),
        )
    )

    register_suite(
        SuiteSpec(
            name="table2",
            artifact="table2",
            description=(
                "Energy savings and latency overhead of the adaptive "
                "controllers relative to always-max-frequency"
            ),
            units=_phased_eval_units(
                ("drl", "static-max", "static-min", "heuristic", "random")
            ),
            training=dict(MAIN_TRAINING),
        )
    )

    register_suite(
        SuiteSpec(
            name="table3",
            artifact="table3",
            description=(
                "Agent ablation: DQN vs Double-DQN vs Dueling-DQN vs tabular "
                "Q-learning vs the untrained threshold heuristic"
            ),
            units=tuple(
                SuiteUnit(
                    agent,
                    "train-eval",
                    {"agent": agent, "episodes": 12, "seed": 3},
                )
                for agent in TRAIN_EVAL_AGENTS
            )
            + (SuiteUnit("heuristic", "eval", {"policy": "heuristic"}),),
        )
    )

    register_suite(
        SuiteSpec(
            name="table4",
            artifact="table4",
            description=(
                "Scalability: the 4x4-trained controller deployed unchanged "
                "on 6x6 and 8x8 meshes (exact engines), then on 32x32 and "
                "64x64 meshes via the approximate flow engine"
            ),
            units=tuple(
                SuiteUnit(
                    f"{width}x{width}/{policy}",
                    "eval",
                    {"policy": policy, "width": width, "num_epochs": 12},
                )
                for width in (4, 6, 8)
                for policy in ("drl", "static-max", "heuristic")
            )
            # Large-mesh scale-out rows: only the flow engine finishes these
            # in reasonable time, so the units pin it (unit params win over
            # the suite-level --engine argument).  Transpose traffic keeps
            # the flow expansion at N flows — the phased default's uniform
            # phases would blow FLOW_EXPANSION_BUDGET past 16x16.
            + tuple(
                SuiteUnit(
                    f"{width}x{width}/{policy}",
                    "eval",
                    {
                        "policy": policy,
                        "width": width,
                        "num_epochs": 12,
                        "engine": "flow",
                        # Below the transpose saturation point (~2/width
                        # flits/node/cycle) even at 64x64, so latencies are
                        # load latencies, not unbounded backlog growth.
                        "traffic": {"pattern": "transpose", "rate": 0.02},
                    },
                )
                for width in (32, 64)
                for policy in ("drl", "static-max", "heuristic")
            ),
            training=dict(MAIN_TRAINING),
        )
    )

    register_suite(
        SuiteSpec(
            name="hotpath",
            description=(
                "The hot-path engine's scenario set (idle-heavy, ramp, bursty) "
                "through the default activity-tracked engine"
            ),
            units=tuple(
                SuiteUnit(name, "scenario", {"scenario": name, "seed": 0})
                for name in ("powersave-idle", "diurnal-ramp", "bursty")
            ),
        )
    )


_seed_registry()
