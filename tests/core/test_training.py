"""Tests for the training/evaluation harness.

Full convergence runs live in the benchmarks; these tests keep episode
counts tiny and assert the machinery (experience flow, result bookkeeping,
evaluation plumbing) rather than final policy quality.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import static_max_performance
from repro.core.config import ExperimentConfig, TrafficSpec
from repro.core.controller import ControllerTrace, DRLControllerPolicy
from repro.core.training import (
    TrainingResult,
    default_dqn_config,
    evaluate_controller,
    train_dqn_controller,
    train_tabular_controller,
)
from repro.rl.dqn import DQNAgent
from repro.rl.qtable import TabularQAgent


@pytest.fixture(scope="module")
def tiny_experiment() -> ExperimentConfig:
    return ExperimentConfig.small(
        traffic=TrafficSpec.synthetic("uniform", 0.12),
        epoch_cycles=200,
        episode_epochs=4,
    )


class TestTrainingResult:
    def test_empty_result(self):
        result = TrainingResult(agent=None)
        assert result.episodes == 0
        assert result.final_return == 0.0
        assert result.best_return == 0.0
        assert result.smoothed_returns() == []

    def test_smoothed_returns(self):
        result = TrainingResult(agent=None, episode_returns=[0.0, 2.0, 4.0, 6.0])
        assert result.smoothed_returns(window=2) == [0.0, 1.0, 3.0, 5.0]
        with pytest.raises(ValueError):
            result.smoothed_returns(window=0)

    def test_final_and_best(self):
        result = TrainingResult(agent=None, episode_returns=[-5.0, -1.0, -3.0])
        assert result.final_return == -3.0
        assert result.best_return == -1.0


class TestDefaultDQNConfig:
    def test_sized_to_environment(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        config = default_dqn_config(env)
        assert config.observation_dim == env.observation_dim
        assert config.num_actions == env.num_actions

    def test_overrides_forwarded(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        config = default_dqn_config(env, gamma=0.5, hidden_sizes=(8,))
        assert config.gamma == 0.5
        assert config.hidden_sizes == (8,)


class TestTrainDQN:
    def test_rejects_zero_episodes(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        with pytest.raises(ValueError):
            train_dqn_controller(env, episodes=0)

    def test_rejects_zero_warmup_epochs(self, tiny_experiment):
        # Without a warm-up epoch the agent has no first observation to act on.
        env = replace(tiny_experiment, warmup_epochs=0).build_environment()
        with pytest.raises(ValueError, match="warmup_epochs"):
            train_dqn_controller(env, episodes=1)
        assert env.simulator is None

    def test_produces_per_episode_records(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        result = train_dqn_controller(
            env, episodes=2, min_buffer_size=32, batch_size=32, hidden_sizes=(16,)
        )
        assert isinstance(result.agent, DQNAgent)
        assert result.episodes == 2
        assert len(result.episode_mean_latency) == 2
        assert len(result.episode_mean_energy_per_flit) == 2
        assert all(np.isfinite(value) for value in result.episode_returns)
        # 2 episodes x 4 epochs of experience must be in the replay buffer.
        assert len(result.agent.buffer) == 8

    def test_agent_trains_once_buffer_is_warm(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        result = train_dqn_controller(
            env, episodes=3, min_buffer_size=8, batch_size=8, hidden_sizes=(16,)
        )
        assert result.agent.train_steps > 0

    def test_to_policy_wraps_agent(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        result = train_dqn_controller(
            env, episodes=1, min_buffer_size=32, batch_size=32, hidden_sizes=(16,)
        )
        policy = result.to_policy(name="trained")
        assert isinstance(policy, DRLControllerPolicy)
        assert policy.name == "trained"
        action = policy.select_action(np.zeros(env.observation_dim), None)
        assert 0 <= action < env.num_actions


class TestTrainTabular:
    def test_produces_tabular_agent(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        result = train_tabular_controller(env, episodes=2, bins_per_feature=2)
        assert isinstance(result.agent, TabularQAgent)
        assert result.episodes == 2
        assert result.agent.num_visited_states > 0

    def test_rejects_zero_episodes(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        with pytest.raises(ValueError):
            train_tabular_controller(env, episodes=0)


class TestEvaluateController:
    def test_returns_trace_of_requested_length(self, tiny_experiment):
        trace = evaluate_controller(tiny_experiment, static_max_performance(), num_epochs=3)
        assert isinstance(trace, ControllerTrace)
        assert len(trace) == 3
        assert trace.policy_name == "static-max"

    def test_defaults_to_experiment_episode_length(self, tiny_experiment):
        trace = evaluate_controller(tiny_experiment, static_max_performance())
        assert len(trace) == tiny_experiment.episode_epochs

    def test_uses_held_out_seed(self, tiny_experiment):
        first = evaluate_controller(tiny_experiment, static_max_performance(), num_epochs=2)
        second = evaluate_controller(
            tiny_experiment, static_max_performance(), num_epochs=2, seed_offset=20_000
        )
        # Different traffic seeds: traces differ but both are well-formed.
        assert first.total_packets_delivered > 0
        assert second.total_packets_delivered > 0
