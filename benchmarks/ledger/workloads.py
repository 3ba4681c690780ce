"""The six ledger workloads.

Each workload turns ``(seed, scale)`` into generated specs (the program only
ever sees those), then exposes

``setup(workdir, engine=None, recorder=None)``
    everything before the timed region: building simulators, environments
    and specs.  ``engine`` overrides the execution engine (the traced pass
    hands in the phase stepper, the head-to-head rows every exact engine);
    with a ``recorder`` the public collaborators are wrapped in
    :class:`tracing.Timed` proxies.
``run()``
    the timed region, returning an :class:`Outcome` whose ``payload`` is the
    deterministic simulated result (hashed against ``golden.json``).
``verify()``
    untimed extra checks folded into the hashed payload.
``extras(recorder, workdir)``
    traced pass only: direct timings of single layer calls.
``rows()``
    a reduced-size twin for the engine head-to-head rows, or ``None``.

``scale`` shrinks the work (1.0 = the shape ``golden.json`` was recorded at,
0.25 = head-to-head rows, 0.05 = ``--self-test``); why each workload has the
shape it has is recorded in ``README.md`` and ``BENCHMARK.json``.  All
workloads are closed loops: the next epoch starts when the previous returns.
"""

from __future__ import annotations

import io
import pickle
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

from repro.core.config import ExperimentConfig, TrafficSpec
from repro.core.controller import SelfConfigController
from repro.core.training import (
    default_dqn_config,
    run_training_episode,
    train_dqn_controller,
)
from repro.exp import wire
from repro.exp.execution import ExecutionConfig
from repro.exp.scenarios import ScenarioSpec, TrafficPhase, run_scenario
from repro.exp.suites import (
    MAIN_TRAINING,
    SuiteJournal,
    build_experiment,
    build_policy,
    expand_unit,
    get_suite,
    run_suite,
    train_controller,
)
from repro.noc.model import NoCModel, SimulatorConfig
from repro.noc.routing import DEADLOCK_FREE_ALGORITHMS
from repro.rl.dqn import DQNAgent

from tracing import STEPPER, Recorder, Timed, timed_call

_NO_SPAN = nullcontext()


@dataclass
class Outcome:
    """What one timed run did: simulated cycles, operations, hashed result."""

    cycles: int
    ops: int
    payload: object
    #: Per-operation wall time where the workload's own records carry it.
    op_ms: list[float] | None = None


def _scaled(count: int, scale: float) -> int:
    return max(2, round(count * scale))


def _median_us(call, items) -> float:
    samples = []
    for item in items:
        start = time.perf_counter_ns()
        call(item)
        samples.append((time.perf_counter_ns() - start) / 1e3)
    return statistics.median(samples)


def _decks(rng: random.Random, values):
    """``values`` in seeded order, reshuffled each time the deck runs out."""
    while True:
        yield from rng.sample(list(values), len(values))


class Workload:
    """Defaults shared by the six workloads."""

    name = ""
    #: Span whose instances are this workload's operations (``ops.ms_*``).
    op_span = "engines.run"
    #: Whether ``run`` goes through the phase stepper when traced.
    stepped = True

    def verify(self) -> dict:
        return {}

    def extras(self, recorder: Recorder, workdir: Path) -> dict:
        return {}

    def rows(self) -> "Workload | None":
        return None


class ScenarioWorkload(Workload):
    """``pipeline_loaded`` / ``sparse_traffic``: one spec through ``run_scenario``."""

    def __init__(self, name: str, seed: int, scale: float, **shape) -> None:
        self.name = name
        self.seed = seed
        self.scale = scale
        self.shape = shape
        self.spec = ScenarioSpec(
            name=name,
            description=f"ledger workload {name}",
            phases=(TrafficPhase(2_000, "uniform", shape["rate"]),),
            width=shape["width"],
            dvfs_level=shape["dvfs_level"],
            epochs=_scaled(shape["epochs"], scale),
            epoch_cycles=shape["epoch_cycles"],
        )
        self.engine = None

    def setup(self, workdir, engine=None, recorder=None) -> None:
        # run_scenario builds its own simulator inside the timed region, so
        # the traced pass times one stand-alone model build beside it.
        self.engine = engine
        if recorder is not None:
            with recorder.span("noc.model_build"):
                NoCModel(self.spec.build_simulator_config(seed=self.seed))

    def run(self) -> Outcome:
        result = run_scenario(self.spec, seed=self.seed, engine=self.engine)
        return Outcome(result.cycles, len(result.epochs), result.to_dict())

    def rows(self):
        return ScenarioWorkload(self.name, self.seed, self.scale * 0.25, **self.shape)


class ReconfigChurn(Workload):
    """``reconfig_churn``: one seeded reconfiguration before every epoch."""

    name = "reconfig_churn"
    WIDTH = 8
    EPOCHS = 240
    EPOCH_CYCLES = 50

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale
        config = SimulatorConfig(width=self.WIDTH, height=self.WIDTH)
        rng = random.Random(seed)
        levels = len(config.dvfs_levels)
        nodes = self.WIDTH * self.WIDTH
        # Stratified draws: every round of four epochs applies each kind once
        # in a seeded order, and every argument walks a reshuffled deck of
        # its values.  Independent draws made the simulated work (and so
        # wall_s) swing ~15% from seed to seed with how long a slow level
        # happened to sit under a busy traffic phase.
        global_level, node_level, routing, vcs = (
            _decks(rng, values)
            for values in (
                range(levels),
                range(levels),
                DEADLOCK_FREE_ALGORITHMS,
                range(1, config.num_vcs + 1),
            )
        )
        epochs = _scaled(self.EPOCHS, scale)
        self.script = []
        while len(self.script) < epochs:
            calls = [
                ("set_global_dvfs_level", (next(global_level),)),
                ("set_dvfs_level", (rng.randrange(nodes), next(node_level))),
                ("set_routing_algorithm", (next(routing),)),
                ("set_enabled_vcs", (next(vcs),)),
            ]
            rng.shuffle(calls)
            self.script.extend(calls)
        del self.script[epochs:]
        self.config = config
        self.simulator = None
        self.recorder = None

    def setup(self, workdir, engine=None, recorder=None) -> None:
        experiment = ExperimentConfig(
            simulator=replace(self.config, engine=engine or self.config.engine),
            traffic=TrafficSpec.phased(),
            epoch_cycles=self.EPOCH_CYCLES,
            seed=self.seed,
        )
        build = experiment.build_simulator
        if recorder is not None:
            build = timed_call(build, recorder, "noc.model_build")
        self.simulator = build()
        self.recorder = recorder

    def run(self) -> Outcome:
        simulator = self.simulator
        recorder = self.recorder
        epochs = []
        for method, args in self.script:
            with recorder.span("noc.reconfig") if recorder else _NO_SPAN:
                getattr(simulator, method)(*args)
            epochs.append(simulator.run_epoch(self.EPOCH_CYCLES).as_dict())
        payload = {"epochs": epochs, "idle_cycles": simulator.idle_cycles}
        return Outcome(simulator.model.cycle, len(epochs), payload)

    def rows(self):
        return ReconfigChurn(self.seed, self.scale * 0.25)


class DrlTrain(Workload):
    """``drl_train``: the paper's DQN controller trained on the main experiment.

    ``scale`` shortens the control epoch and keeps episodes x epochs, so the
    ``rl`` layer sees the same number of transitions at every size.
    """

    name = "drl_train"
    op_span = "core.env_step"
    EPISODES = 6

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        experiment = build_experiment(MAIN_TRAINING)
        self.experiment = replace(
            experiment,
            seed=seed,
            epoch_cycles=max(25, round(experiment.epoch_cycles * scale)),
        )
        self.dqn = {
            "epsilon_decay_steps": MAIN_TRAINING["epsilon_decay_steps"],
            "seed": seed,
        }
        self.env = None
        self.recorder = None
        self.agent = None

    def setup(self, workdir, engine=None, recorder=None) -> None:
        experiment = self.experiment
        if engine is not None:
            experiment = replace(
                experiment, simulator=replace(experiment.simulator, engine=engine)
            )
        env = experiment.build_environment()
        if recorder is not None:
            env.simulator_factory = timed_call(
                env.simulator_factory, recorder, "noc.model_build"
            )
            env.action_space = Timed(env.action_space, recorder, {"apply": "core.action_apply"})
            env.feature_extractor = Timed(
                env.feature_extractor, recorder, {"extract": "core.features"}
            )
            env.reward_spec = Timed(env.reward_spec, recorder, {"compute": "core.reward"})
        self.env = env
        self.recorder = recorder

    def run(self) -> Outcome:
        env = self.env
        if self.recorder is None:
            result = train_dqn_controller(env, episodes=self.EPISODES, **self.dqn)
            self.agent = result.agent
            episodes = list(
                zip(
                    result.episode_returns,
                    result.episode_mean_latency,
                    result.episode_mean_energy_per_flit,
                )
            )
        else:
            # train_dqn_controller's body, with the environment and the agent
            # behind timing proxies.
            self.agent = DQNAgent(default_dqn_config(env, **self.dqn))
            timed_env = Timed(
                env, self.recorder, {"reset": "core.env_reset", "step": "core.env_step"}
            )
            timed_agent = Timed(
                self.agent, self.recorder, {"act": "rl.act", "observe": "rl.observe"}
            )
            episodes = [
                run_training_episode(timed_env, timed_agent) for _ in range(self.EPISODES)
            ]
        steps = self.EPISODES * env.episode_epochs
        cycles = (steps + self.EPISODES * max(env.warmup_epochs, 1)) * env.epoch_cycles
        return Outcome(cycles, steps, {"episodes": [list(row) for row in episodes]})

    def extras(self, recorder, workdir) -> dict:
        agent = self.agent
        with recorder.span("rl.train_step_probe"):
            step_ms = _median_us(lambda _: agent.train_step(), range(200)) / 1e3
        return {"rl.train_steps": agent.train_steps - 200, "rl.train_step_ms": step_ms}


class SuiteFanout(Workload):
    """``suite_fanout``: five registered suites through ``run_suite`` at jobs=2.

    The seed shifts every seed the suite specs expose: sweep and scenario
    units and the shared controller training.  Traced, the same suites run
    at ``jobs=1`` with a telemetry tap, which is what ``exp.overhead_s`` and
    ``exp.parallel_speedup`` are defined against.
    """

    name = "suite_fanout"
    stepped = False
    op_span = None
    SUITES = ("fig1", "fig2", "hotpath", "fig5-smoke", "table1-smoke")
    SMALL_SUITES = ("fig1-smoke", "fig5-smoke")
    JOBS = 2

    def __init__(self, seed: int, scale: float) -> None:
        names = self.SUITES if scale >= 1 else self.SMALL_SUITES
        self.specs = [self._seeded(get_suite(name), seed) for name in names]
        self.out_dir = None
        self.jobs = self.JOBS
        self.tap = None
        self.recorder = None
        self.wall_s = 0.0

    @staticmethod
    def _seeded(spec, seed: int):
        units = tuple(
            replace(unit, params={**unit.params, "seed": unit.params["seed"] + seed})
            if "seed" in unit.params
            else unit
            for unit in spec.units
        )
        training = spec.training
        if training is not None:
            training = {**training, "seed": training.get("seed", 0) + seed}
        return replace(spec, units=units, training=training)

    def setup(self, workdir, engine=None, recorder=None) -> None:
        self.out_dir = Path(workdir) / "suites"
        self.recorder = recorder
        if recorder is not None:
            self.jobs = 1
            self.tap = SimpleNamespace(rows=[])
            self.tap.emit = self.tap.rows.append

    def _subtrial_wall_s(self, since: int = 0) -> float:
        return sum(
            row["wall_s"] for row in self.tap.rows[since:] if row["source"] == "subtrial"
        )

    def run(self) -> Outcome:
        config = ExecutionConfig(jobs=self.jobs)
        recorder = self.recorder
        outcomes = []
        start = time.perf_counter()
        for spec in self.specs:
            with recorder.span("exp.run_suite") if recorder else _NO_SPAN:
                suite_start_ns = time.perf_counter_ns()
                seen = len(self.tap.rows) if recorder else 0
                outcomes.append(
                    run_suite(spec, config=config, out_dir=self.out_dir, telemetry=self.tap)
                )
                if recorder:
                    recorder.add(
                        "exp.subtrials", suite_start_ns, round(self._subtrial_wall_s(seen) * 1e9)
                    )
        self.wall_s = time.perf_counter() - start
        records = [record for outcome in outcomes for record in outcome.records]
        return Outcome(
            sum(record["cycles"] for record in records),
            len(records),
            [outcome.deterministic_payload() for outcome in outcomes],
            op_ms=[record["wall_s"] * 1e3 for record in records],
        )

    def extras(self, recorder, workdir) -> dict:
        subtrial_rows = [row for row in self.tap.rows if row["source"] == "subtrial"]
        subtrial_wall_s = self._subtrial_wall_s()
        expand_start = time.perf_counter()
        with recorder.span("exp.expand"):
            subtrials = []
            for spec in self.specs:
                agent = None
                if spec.needs_training():
                    trained = train_controller(spec.training).agent  # memoized by run()
                    agent = {"dqn_config": trained.config, "state": trained.get_state()}
                for unit in spec.units:
                    if unit.kind != "train":
                        subtrials.extend(expand_unit(unit, agent))
        expand_s = time.perf_counter() - expand_start
        # The journals the run just wrote hold every subtrial's real payload.
        payloads = {}
        for spec in self.specs:
            payloads.update(SuiteJournal(self.out_dir / f"{spec.name}.journal.jsonl").load())
        pairs = [(subtrial, payloads[subtrial.key]) for subtrial in subtrials]
        frames = [
            wire.encode_frame({"subtrial": subtrial.to_wire(), "payload": payload})
            for subtrial, payload in pairs
        ]
        journal = SuiteJournal(Path(workdir) / "probe.journal.jsonl")
        try:
            with recorder.span("exp.probes"):
                timings = {
                    "exp.subtrial_key_us": _median_us(lambda pair: pair[0].key, pairs),
                    "exp.pickle_us": _median_us(
                        lambda pair: (pickle.dumps(pair[0]), pickle.dumps(pair[1])), pairs
                    ),
                    "exp.journal.append_us": _median_us(
                        lambda item: journal.append(
                            f"probe-{item[0]}",
                            unit="probe",
                            kind=item[1][0].kind,
                            attempts=1,
                            payload=item[1][1],
                        ),
                        list(enumerate(pairs)),
                    ),
                    "exp.wire.encode_us": _median_us(
                        lambda pair: wire.encode_frame(
                            {"subtrial": pair[0].to_wire(), "payload": pair[1]}
                        ),
                        pairs,
                    ),
                    "exp.wire.decode_us": _median_us(
                        lambda frame: wire.recv_frame(
                            SimpleNamespace(recv=io.BytesIO(frame).read)
                        ),
                        frames,
                    ),
                }
        finally:
            journal.close()
        overhead_s = self.wall_s - subtrial_wall_s
        return {
            **timings,
            "exp.expand_s": expand_s,
            "exp.wire.frame_bytes": statistics.median(len(frame) for frame in frames),
            "exp.subtrials": len(subtrial_rows),
            "exp.subtrial_wall_s": subtrial_wall_s,
            "exp.overhead_s": overhead_s,
            "exp.overhead_frac": overhead_s / self.wall_s,
            "exp.retries": sum(row["retries"] for row in subtrial_rows),
        }


class ControllerEval(Workload):
    """The heuristic controller on transpose 0.02 — ``evaluate_controller``'s
    body, split so the simulator build lands in set-up."""

    op_span = "engines.flow.run_epoch"
    stepped = False
    EPOCHS = 3
    EPOCH_CYCLES = 150

    def __init__(self, seed: int, width: int, engine: str) -> None:
        self.seed = seed
        self.width = width
        self.engine = engine
        self.controller = None

    def setup(self, workdir, engine=None, recorder=None) -> None:
        experiment = replace(
            build_experiment(
                {
                    "width": self.width,
                    "engine": engine or self.engine,
                    "traffic": {"pattern": "transpose", "rate": 0.02},
                    "epoch_cycles": self.EPOCH_CYCLES,
                }
            ),
            seed=self.seed,
        )
        build = experiment.build_simulator
        parts = {
            "action_space": (experiment.build_action_space(), {"apply": "core.action_apply"}),
            "feature_extractor": (
                experiment.build_feature_extractor(),
                {"extract": "core.features"},
            ),
            "policy": (
                build_policy("heuristic", experiment),
                {"select_action": "baselines.select_action"},
            ),
            "reward_spec": (experiment.reward, {"compute": "core.reward"}),
        }
        if recorder is not None:
            build = timed_call(build, recorder, "noc.model_build")
        simulator = build(seed_offset=10_000)
        if recorder is not None and (engine or self.engine) != STEPPER:
            simulator = Timed(simulator, recorder, {"run_epoch": self.op_span})
        self.controller = SelfConfigController(
            simulator=simulator,
            epoch_cycles=experiment.epoch_cycles,
            **{
                key: Timed(part, recorder, spans) if recorder is not None else part
                for key, (part, spans) in parts.items()
            },
        )

    def run(self) -> Outcome:
        trace = self.controller.run(self.EPOCHS)
        payload = {
            "summary": trace.summary(),
            "epochs": [record.telemetry.as_dict() for record in trace.records],
            "actions": [record.action_index for record in trace.records],
        }
        return Outcome(self.controller.simulator.model.cycle, len(trace.records), payload)


class FlowScaleout(ControllerEval):
    """``flow_scaleout``: table4-smoke's 64x64 heuristic unit on the flow engine.

    The flow engine is analytic, so the seed reaches only its 8x8 exact twin
    (``approx_rel_err``); the 64x64 result is the same for every seed.
    """

    name = "flow_scaleout"
    TWIN_WIDTH = 8
    #: ``suite diff --approx`` accepts throughput and energy/flit within this.
    APPROX_LIMIT = 0.25

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, 64 if scale >= 1 else 16, "flow")

    def setup(self, workdir, engine=None, recorder=None) -> None:
        super().setup(workdir, engine=None, recorder=recorder)

    def rows(self):
        return ControllerEval(self.seed, self.TWIN_WIDTH, "cycle")

    def _twin(self, engine: str, recorder=None) -> dict:
        twin = self.rows()
        twin.setup(None, engine=engine, recorder=recorder)
        return twin.run().payload

    def verify(self) -> dict:
        exact = self._twin("cycle")["summary"]
        flow = self._twin("flow")["summary"]
        error = max(
            abs(flow[key] - exact[key]) / abs(exact[key])
            for key in ("average_throughput", "energy_per_flit_pj")
        )
        if error > self.APPROX_LIMIT:
            raise AssertionError(
                f"flow engine off by {error:.3f} on the 8x8 twin (limit {self.APPROX_LIMIT})"
            )
        return {"approx_rel_err": error}

    def extras(self, recorder, workdir) -> dict:
        simulator = self.controller.simulator
        levels = len(simulator.dvfs_levels)
        samples = {False: [], True: []}
        with recorder.span("engines.flow.probe"):
            for retune in (False, False, True, False, True):
                if retune:
                    simulator.set_global_dvfs_level((simulator.dvfs_level_index + 1) % levels)
                start = time.perf_counter_ns()
                simulator.run_epoch(self.EPOCH_CYCLES)
                samples[retune].append((time.perf_counter_ns() - start) / 1e6)
        stepped = self._twin(STEPPER, recorder)
        return {
            "engines.flow.retune_epoch_ms": statistics.median(samples[True]),
            "engines.flow.steady_epoch_ms": statistics.median(samples[False]),
            "twin_stepper_parity": stepped == self._twin("cycle"),
        }


def build(name: str, seed: int, scale: float = 1.0) -> Workload:
    """The workload registered under ``name`` for ``seed`` at ``scale``."""
    if name == "pipeline_loaded":
        return ScenarioWorkload(
            name, seed, scale, width=16, rate=0.12, dvfs_level=0, epochs=40, epoch_cycles=50
        )
    if name == "sparse_traffic":
        return ScenarioWorkload(
            name, seed, scale, width=8, rate=0.0004, dvfs_level=3, epochs=100,
            epoch_cycles=3_000,
        )
    factories = {
        cls.name: cls for cls in (ReconfigChurn, DrlTrain, SuiteFanout, FlowScaleout)
    }
    return factories[name](seed, scale)
