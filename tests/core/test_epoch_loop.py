"""The shared epoch loop against the three loops it replaced.

Differential oracles: the ``reference_*`` functions below are verbatim
copies of ``SelfConfigController.run``, ``run_scenario`` and the sharded
actor's ``_rollout_episode`` as they were written before
:func:`repro.core.environment.rollout` became the one loop.  Controller
traces, evaluation traces, scenario results, live epoch rows and actor
transitions must equal theirs with ``==`` — bit for bit, not within a
tolerance.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.baselines.heuristic import ThresholdDvfsPolicy
from repro.core.config import ExperimentConfig, TrafficSpec
from repro.core.controller import (
    ControllerTrace,
    DRLControllerPolicy,
    EpochRecord,
    SelfConfigController,
)
from repro.core.training import evaluate_controller
from repro.exp.scenarios import (
    ScenarioResult,
    ScenarioSpec,
    get_scenario,
    run_scenario,
    scenario_names,
)
from repro.exp.suites import build_policy
from repro.exp.telemetry import WALL_CLOCK_FIELDS
from repro.exp.training import (
    ActorBatchTask,
    ActorRollout,
    default_experiment_dqn_config,
    run_actor_batch,
)
from repro.exp.runner import trial_seed
from repro.noc.network import NoCSimulator
from repro.rl.agent import Transition
from repro.rl.dqn import DQNAgent
from repro.rl.replay import pack_transitions

# ----------------------------------------------------------------------
# the references: the three loops before the shared one, verbatim
# ----------------------------------------------------------------------


def reference_controller_run(self, num_epochs: int, warmup_epochs: int = 1) -> ControllerTrace:
    """``SelfConfigController.run`` before the shared loop, verbatim."""
    if num_epochs < 1:
        raise ValueError("num_epochs must be positive")
    telemetry = None
    for _ in range(max(warmup_epochs, 1)):
        telemetry = self.simulator.run_epoch(self.epoch_cycles)
    assert telemetry is not None
    observation = self.feature_extractor.extract(telemetry)

    trace = ControllerTrace(policy_name=self.policy.name)
    for epoch in range(num_epochs):
        action_index = self.policy.select_action(observation, telemetry)
        action = self.action_space.apply(self.simulator, action_index)
        telemetry = self.simulator.run_epoch(self.epoch_cycles)
        observation = self.feature_extractor.extract(telemetry)
        reward = self.reward_spec.compute(telemetry)
        trace.append(
            EpochRecord(
                epoch=epoch,
                action_index=action_index,
                action=action,
                telemetry=telemetry,
                reward=reward,
            )
        )
    return trace


def reference_run_scenario(
    spec: "ScenarioSpec | str",
    *,
    seed: int = 0,
    epochs: int | None = None,
    epoch_cycles: int | None = None,
    idle_fast_path: bool = True,
    activity_tracking: bool = True,
    engine: str | None = None,
    telemetry=None,
) -> ScenarioResult:
    """``run_scenario`` before the shared loop, verbatim."""
    if isinstance(spec, str):
        spec = get_scenario(spec)
    if epochs is not None or epoch_cycles is not None or engine is not None:
        spec = replace(
            spec,
            epochs=epochs if epochs is not None else spec.epochs,
            epoch_cycles=epoch_cycles if epoch_cycles is not None else spec.epoch_cycles,
            engine=engine if engine is not None else spec.engine,
        )

    simulator = NoCSimulator(spec.build_simulator_config(seed=seed))
    simulator.idle_fast_path = idle_fast_path
    simulator.activity_tracking = activity_tracking
    simulator.traffic = spec.build_workload(simulator.topology, seed=seed)
    simulator.set_global_dvfs_level(spec.dvfs_level)
    policy = None
    if spec.dvfs_policy == "threshold":
        policy = ThresholdDvfsPolicy(
            len(simulator.dvfs_levels), initial_level=spec.dvfs_level
        )

    fault_queue = sorted(spec.faults, key=lambda event: (event.cycle, event.src, event.dst))

    def apply_due_faults(cycle: int) -> None:
        while fault_queue and fault_queue[0].cycle <= cycle:
            event = fault_queue.pop(0)
            if event.action == "fail":
                simulator.fail_link(event.src, event.dst)
            else:
                simulator.repair_link(event.src, event.dst)

    on_cycle = apply_due_faults if fault_queue else None
    epoch_payloads: list[dict] = []
    start = time.perf_counter()
    for epoch_index in range(spec.epochs):
        epoch_start = time.perf_counter()
        epoch_telemetry = simulator.run_epoch(spec.epoch_cycles, on_cycle=on_cycle)
        epoch_wall_s = time.perf_counter() - epoch_start
        payload = epoch_telemetry.as_dict()
        epoch_payloads.append(payload)
        if telemetry is not None:
            telemetry.emit(
                {
                    "source": "epoch",
                    "scenario": spec.name,
                    "engine": spec.engine or "cycle",
                    "seed": seed,
                    "epoch": epoch_index,
                    "cycles": payload["cycles"],
                    "packets_delivered": payload["packets_delivered"],
                    "average_latency": payload["average_total_latency"],
                    "energy_total_pj": payload["energy_total_pj"],
                    "wall_s": epoch_wall_s,
                    "cycles_per_s": (
                        payload["cycles"] / epoch_wall_s if epoch_wall_s > 0 else None
                    ),
                }
            )
        if policy is not None:
            level = policy.select_action(None, epoch_telemetry)
            simulator.set_global_dvfs_level(level)
    wall_time_s = time.perf_counter() - start
    total_cycles = spec.epochs * spec.epoch_cycles

    return ScenarioResult(
        scenario=spec.name,
        seed=seed,
        epochs=tuple(epoch_payloads),
        idle_cycles=simulator.idle_cycles,
        failed_links=tuple(sorted(simulator.failed_links)),
        faults_skipped=len(fault_queue),
        wall_time_s=wall_time_s,
        cycles_per_second=total_cycles / wall_time_s if wall_time_s > 0 else None,
    )


def reference_rollout_episode(agent: DQNAgent, task, episode_index: int) -> ActorRollout:
    """The sharded actor's ``_rollout_episode`` before the shared loop, verbatim."""
    config = task.dqn_config
    env = task.experiment.build_environment(
        seed_offset=trial_seed(config.seed, episode_index)
    )
    # Reuse the agent's own EpsilonGreedyPolicy (one exploration code path
    # repo-wide), repositioned for this episode: a per-episode RNG stream and
    # the schedule step the serial trainer would have reached by now.
    agent.policy.set_state(
        {
            "steps": episode_index * task.steps_per_episode,
            "rng": np.random.default_rng(
                trial_seed(config.seed + 1, episode_index)
            ).bit_generator.state,
        }
    )

    observation = env.reset()
    transitions: list[Transition] = []
    episode_return = 0.0
    latencies: list[float] = []
    energies: list[float] = []
    done = False
    while not done:
        action = agent.act(observation, explore=True)
        next_observation, reward, done, info = env.step(action)
        transitions.append(
            Transition(
                state=observation,
                action=action,
                reward=reward,
                next_state=next_observation,
                done=done,
            )
        )
        observation = next_observation
        episode_return += reward
        telemetry = info["telemetry"]
        latencies.append(telemetry.average_total_latency)
        energies.append(telemetry.energy_per_flit_pj)

    return ActorRollout(
        episode_index=episode_index,
        transitions=pack_transitions(transitions),
        episode_return=episode_return,
        mean_latency=float(np.mean(latencies)) if latencies else 0.0,
        mean_energy=float(np.mean(energies)) if energies else 0.0,
    )


def reference_evaluate_controller(experiment, policy, num_epochs=None, seed_offset=10_000):
    """``evaluate_controller`` before the shared loop: a controller over
    ``build_simulator(seed_offset)``, one warm-up epoch whatever the
    experiment says."""
    controller = SelfConfigController(
        simulator=experiment.build_simulator(seed_offset=seed_offset),
        action_space=experiment.build_action_space(),
        feature_extractor=experiment.build_feature_extractor(),
        policy=policy,
        reward_spec=experiment.reward,
        epoch_cycles=experiment.epoch_cycles,
    )
    return reference_controller_run(controller, num_epochs or experiment.episode_epochs)


# ----------------------------------------------------------------------
# the shared loop must reproduce each of them
# ----------------------------------------------------------------------


EXPERIMENT = ExperimentConfig.small(epoch_cycles=200, episode_epochs=4)
BASELINES = ("static-max", "static-min", "heuristic", "random", "static-L1", "static-L2")


def controller(experiment, policy, seed_offset=0):
    return SelfConfigController(
        simulator=experiment.build_simulator(seed_offset=seed_offset),
        action_space=experiment.build_action_space(),
        feature_extractor=experiment.build_feature_extractor(),
        policy=policy,
        reward_spec=experiment.reward,
        epoch_cycles=experiment.epoch_cycles,
    )


class TestController:
    @pytest.mark.parametrize("warmup_epochs", [1, 2])
    @pytest.mark.parametrize("name", ["heuristic", "random"])
    def test_run_matches_the_reference(self, name, warmup_epochs):
        trace = controller(EXPERIMENT, build_policy(name, EXPERIMENT)).run(5, warmup_epochs)
        reference = reference_controller_run(
            controller(EXPERIMENT, build_policy(name, EXPERIMENT)), 5, warmup_epochs
        )
        assert trace == reference
        assert len(set(trace.dvfs_level_trace)) > 1

    @pytest.mark.parametrize("name", BASELINES)
    def test_evaluate_matches_the_reference_for_every_baseline(self, name):
        trace = evaluate_controller(EXPERIMENT, build_policy(name, EXPERIMENT))
        reference = reference_evaluate_controller(EXPERIMENT, build_policy(name, EXPERIMENT))
        assert trace == reference
        assert len(trace) == EXPERIMENT.episode_epochs

    def test_evaluate_matches_the_reference_for_a_dqn_policy(self):
        config = default_experiment_dqn_config(EXPERIMENT, hidden_sizes=(8,), seed=3)
        trace = evaluate_controller(EXPERIMENT, DRLControllerPolicy(DQNAgent(config)), 6, 77)
        reference = reference_evaluate_controller(
            EXPERIMENT, DRLControllerPolicy(DQNAgent(config)), 6, 77
        )
        assert trace == reference
        assert len(trace) == 6

    def test_evaluate_rejects_zero_epochs(self):
        # Only None means "the whole episode"; 0 raises instead of running it.
        with pytest.raises(ValueError, match="episode_epochs"):
            evaluate_controller(EXPERIMENT, build_policy("static-max", EXPERIMENT), 0)

    def test_evaluate_honours_the_experiments_warmup(self):
        policy = ThresholdDvfsPolicy(4)
        cold = evaluate_controller(replace(EXPERIMENT, warmup_epochs=0), policy)
        assert cold.records[0].action_index is None
        assert cold.records[0].action is None
        assert all(record.action_index is not None for record in cold.records[1:])
        warm = evaluate_controller(replace(EXPERIMENT, warmup_epochs=2), ThresholdDvfsPolicy(4))
        assert warm != reference_evaluate_controller(EXPERIMENT, ThresholdDvfsPolicy(4))


class RowSink:
    def __init__(self):
        self.rows = []

    def emit(self, row):
        self.rows.append(
            {key: value for key, value in row.items() if key not in WALL_CLOCK_FIELDS}
        )


class TestScenario:
    @pytest.mark.parametrize("engine", ["cycle", "event"])
    @pytest.mark.parametrize("name", scenario_names())
    def test_every_scenario_matches_the_reference(self, name, engine):
        result = run_scenario(name, seed=1, epochs=3, epoch_cycles=200, engine=engine)
        reference = reference_run_scenario(name, seed=1, epochs=3, epoch_cycles=200, engine=engine)
        assert result == reference
        assert result.to_json() == reference.to_json()
        if get_scenario(name).dvfs_policy == "threshold":
            assert len({epoch["dvfs_level_index"] for epoch in result.epochs}) > 1

    @pytest.mark.parametrize("engine", ["cycle", "event"])
    def test_the_whole_fault_script_matches_the_reference(self, engine):
        # 2400 cycles reach every fail and every repair of the storm.
        kwargs = dict(seed=0, epochs=4, epoch_cycles=600, engine=engine)
        result = run_scenario("link-failure-storm", **kwargs)
        assert result == reference_run_scenario("link-failure-storm", **kwargs)
        assert result.faults_skipped == 0 and result.failed_links == ()
        partial = run_scenario("link-failure-storm", **{**kwargs, "epochs": 2})
        assert partial.failed_links == ((5, 6), (6, 10), (9, 10))
        assert partial == reference_run_scenario("link-failure-storm", **{**kwargs, "epochs": 2})

    def test_the_live_epoch_rows_match_the_reference(self):
        sink, reference_sink = RowSink(), RowSink()
        kwargs = dict(seed=2, epochs=3, epoch_cycles=150)
        run_scenario("bursty", telemetry=sink, **kwargs)
        reference_run_scenario("bursty", telemetry=reference_sink, **kwargs)
        assert sink.rows == reference_sink.rows
        assert [row["epoch"] for row in sink.rows] == [0, 1, 2]


class TestActorRollout:
    def test_a_batch_rollout_matches_the_reference(self):
        experiment = ExperimentConfig.small(
            traffic=TrafficSpec.synthetic("uniform", 0.12), epoch_cycles=120, episode_epochs=3
        )
        config = default_experiment_dqn_config(
            experiment, min_buffer_size=4, batch_size=4, hidden_sizes=(8,), epsilon_decay_steps=12
        )
        state = DQNAgent(config).online.get_state()
        task = ActorBatchTask(
            experiment=experiment,
            dqn_config=config,
            network_state=state,
            episode_indices=(1, 2),
            steps_per_episode=experiment.episode_epochs,
        )
        agent = DQNAgent(config)
        agent.online.set_state(state)
        for rollout, index in zip(run_actor_batch(task), task.episode_indices):
            reference = reference_rollout_episode(agent, task, index)
            assert rollout.episode_index == reference.episode_index == index
            assert rollout.transitions.keys() == reference.transitions.keys()
            for key, packed in rollout.transitions.items():
                np.testing.assert_array_equal(packed, reference.transitions[key])
                assert packed.dtype == reference.transitions[key].dtype
            assert (rollout.episode_return, rollout.mean_latency, rollout.mean_energy) == (
                reference.episode_return,
                reference.mean_latency,
                reference.mean_energy,
            )
