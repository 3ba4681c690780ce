"""Integration tests for the NoCConfigEnv MDP wrapper."""

import numpy as np
import pytest

from repro.core.config import ExperimentConfig, TrafficSpec
from repro.core.environment import NoCConfigEnv, rollout
from repro.noc.stats import EpochTelemetry


def small_env(**overrides) -> NoCConfigEnv:
    experiment = ExperimentConfig.small(**overrides)
    return experiment.build_environment()


class TestConstruction:
    def test_validation(self):
        experiment = ExperimentConfig.small()
        with pytest.raises(ValueError):
            NoCConfigEnv(
                simulator_factory=experiment.build_simulator,
                action_space=experiment.build_action_space(),
                feature_extractor=experiment.build_feature_extractor(),
                reward_spec=experiment.reward,
                epoch_cycles=0,
            )
        with pytest.raises(ValueError):
            NoCConfigEnv(
                simulator_factory=experiment.build_simulator,
                action_space=experiment.build_action_space(),
                feature_extractor=experiment.build_feature_extractor(),
                reward_spec=experiment.reward,
                episode_epochs=0,
            )

    def test_dimensions_exposed(self):
        env = small_env()
        assert env.observation_dim == env.feature_extractor.dim
        assert env.num_actions == 4  # default DVFS action space


class TestEpisodeProtocol:
    def test_step_before_reset_raises(self):
        env = small_env()
        with pytest.raises(RuntimeError):
            env.step(0)

    def test_reset_returns_observation(self):
        env = small_env()
        observation = env.reset()
        assert observation.shape == (env.observation_dim,)
        assert np.isfinite(observation).all()
        assert env.last_telemetry is not None

    def test_step_returns_transition_tuple(self):
        env = small_env()
        env.reset()
        observation, reward, done, info = env.step(0)
        assert observation.shape == (env.observation_dim,)
        assert isinstance(reward, float)
        assert done is False
        assert isinstance(info["telemetry"], EpochTelemetry)
        assert info["action"].dvfs_level == 0
        assert info["action_index"] == 0
        assert info["epoch"] == 1

    def test_invalid_action_rejected(self):
        env = small_env()
        env.reset()
        with pytest.raises(IndexError):
            env.step(99)

    def test_episode_terminates_after_configured_epochs(self):
        env = small_env(episode_epochs=3)
        env.reset()
        dones = [env.step(0)[2] for _ in range(3)]
        assert dones == [False, False, True]

    def test_reset_starts_a_fresh_simulator(self):
        env = small_env(episode_epochs=2)
        env.reset()
        first_simulator = env.simulator
        env.step(0)
        env.reset()
        assert env.simulator is not first_simulator
        assert env.simulator.stats.packets_delivered >= 0

    def test_actions_are_actuated_on_the_simulator(self):
        env = small_env()
        env.reset()
        env.step(3)
        assert env.simulator.dvfs_level_index == 3
        env.step(1)
        assert env.simulator.dvfs_level_index == 1

    def test_rollout_with_policy(self):
        env = small_env(episode_epochs=4)
        steps = list(rollout(env, lambda observation, telemetry: 1))
        assert len(steps) == 4
        assert all(isinstance(reward, float) for _, _, reward, _, _, _ in steps)
        assert all(info["action"].dvfs_level == 1 for *_, info in steps)
        assert [done for _, _, _, _, done, _ in steps] == [False, False, False, True]


class TestWarmup:
    def test_zero_warmup_epochs_simulate_nothing_on_reset(self):
        env = small_env(warmup_epochs=0)
        assert env.reset() is None
        assert env.simulator.model.cycle == 0
        assert env.last_telemetry is None

    def test_warmup_epochs_are_run_as_configured(self):
        env = small_env(warmup_epochs=2)
        env.reset()
        assert env.simulator.model.cycle == 2 * env.epoch_cycles

    def test_without_warmup_the_first_epoch_takes_no_action(self):
        env = small_env(warmup_epochs=0, episode_epochs=3)
        seen = []

        def policy(observation, telemetry):
            seen.append(telemetry)
            return 3

        steps = list(rollout(env, policy))
        assert [action for _, action, *_ in steps] == [None, 3, 3]
        assert steps[0][0] is None and steps[0][5]["action"] is None
        assert seen == [steps[0][5]["telemetry"], steps[1][5]["telemetry"]]
        assert env.simulator.model.cycle == 3 * env.epoch_cycles

    def test_negative_warmup_is_rejected(self):
        with pytest.raises(ValueError, match="warmup_epochs"):
            small_env(warmup_epochs=-1)


class TestRewardSignalShape:
    def test_slow_configuration_is_penalised_under_load(self):
        """At a load the slowest level cannot carry, the fast level must earn
        a clearly better reward — the signal the agent learns from."""
        experiment = ExperimentConfig.small(
            traffic=TrafficSpec.synthetic("uniform", 0.25),
            episode_epochs=4,
            epoch_cycles=400,
        )
        env = experiment.build_environment()

        env.reset()
        fast_rewards = [env.step(0)[1] for _ in range(3)]
        env.reset()
        slow_rewards = [env.step(3)[1] for _ in range(3)]
        assert np.mean(fast_rewards) > np.mean(slow_rewards)

    def test_downclocking_pays_off_when_idle(self):
        """At a trickle load the energy saving should make the slowest level
        at least as good as the fastest."""
        experiment = ExperimentConfig.small(
            traffic=TrafficSpec.synthetic("uniform", 0.03),
            episode_epochs=4,
            epoch_cycles=400,
        )
        env = experiment.build_environment()
        env.reset()
        fast_rewards = [env.step(0)[1] for _ in range(3)]
        env.reset()
        slow_rewards = [env.step(3)[1] for _ in range(3)]
        assert np.mean(slow_rewards) >= np.mean(fast_rewards)
