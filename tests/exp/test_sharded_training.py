"""Tests for the sharded DQN training engine.

The contract under test mirrors the PR 2 engine-toggle discipline:

* ``jobs=1`` is the serial reference path and must be **bit-identical** to
  the pre-sharding ``train_dqn_controller`` (timing fields excluded);
* ``jobs>=2`` must be deterministic (same spec -> same result) and land in
  the same smoothed-return band as serial training;
* resume (``resume_from``) must reproduce the uninterrupted run's tail.
"""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import ExperimentConfig, TrafficSpec
from repro.core.training import default_dqn_config, train_dqn_controller
from repro.exp.execution import ExecutionConfig
from repro.exp.training import (
    ActorBatchTask,
    default_experiment_dqn_config,
    run_actor_batch,
    train_dqn_sharded,
)
from repro.rl.dqn import DQNAgent

TRAIN_KWARGS = dict(min_buffer_size=4, batch_size=4, hidden_sizes=(8,), epsilon_decay_steps=12)


def actors(count: int) -> ExecutionConfig:
    return ExecutionConfig(train_jobs=count)


@pytest.fixture(scope="module")
def tiny_experiment() -> ExperimentConfig:
    return ExperimentConfig.small(
        traffic=TrafficSpec.synthetic("uniform", 0.12),
        epoch_cycles=120,
        episode_epochs=3,
    )


def assert_curves_equal(first, second):
    """Bit-identical learned outcomes; timing fields deliberately excluded."""
    assert first.episode_returns == second.episode_returns
    assert first.episode_mean_latency == second.episode_mean_latency
    assert first.episode_mean_energy_per_flit == second.episode_mean_energy_per_flit


def assert_weights_equal(first_agent, second_agent):
    for left, right in zip(first_agent.online.weights, second_agent.online.weights):
        np.testing.assert_array_equal(left, right)
    for left, right in zip(first_agent.target.weights, second_agent.target.weights):
        np.testing.assert_array_equal(left, right)


class TestValidation:
    def test_rejects_bad_arguments(self, tiny_experiment):
        with pytest.raises(ValueError):
            train_dqn_sharded(tiny_experiment, episodes=0)
        with pytest.raises(ValueError):
            train_dqn_sharded(tiny_experiment, episodes=2, config=actors(0))
        with pytest.raises(ValueError):
            train_dqn_sharded(tiny_experiment, episodes=2, sync_interval=0)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rejects_zero_warmup_epochs(self, tiny_experiment, jobs):
        cold = replace(tiny_experiment, warmup_epochs=0)
        with pytest.raises(ValueError, match="warmup_epochs"):
            train_dqn_sharded(cold, episodes=2, config=actors(jobs), **TRAIN_KWARGS)

    def test_resume_rejects_config_overrides(self, tiny_experiment):
        head = train_dqn_sharded(tiny_experiment, episodes=1, **TRAIN_KWARGS)
        with pytest.raises(ValueError, match="resume_from"):
            train_dqn_sharded(
                tiny_experiment, episodes=2, resume_from=head, **TRAIN_KWARGS
            )

    def test_resume_rejects_non_dqn_agents(self, tiny_experiment):
        from repro.core.training import TrainingResult

        bogus = TrainingResult(agent=object(), episode_returns=[0.0])
        with pytest.raises(TypeError, match="DQNAgent"):
            train_dqn_sharded(tiny_experiment, episodes=2, resume_from=bogus)

    def test_sharded_resume_requires_round_boundary(self, tiny_experiment):
        head = train_dqn_sharded(tiny_experiment, episodes=3, config=actors(1), **TRAIN_KWARGS)
        with pytest.raises(ValueError, match="round boundary"):
            train_dqn_sharded(tiny_experiment, episodes=5, config=actors(2), resume_from=head)

    def test_sharded_resume_requires_sync_boundary(self, tiny_experiment):
        head = train_dqn_sharded(tiny_experiment, episodes=2, config=actors(1), **TRAIN_KWARGS)
        # Round 1 of a sync_interval=2 schedule rolls out against the stale
        # round-0 broadcast, which a resumed run cannot reconstruct.
        with pytest.raises(ValueError, match="sync boundary"):
            train_dqn_sharded(
                tiny_experiment, episodes=6, config=actors(2), sync_interval=2, resume_from=head
            )

    def test_already_complete_returns_unchanged_curve(self, tiny_experiment):
        head = train_dqn_sharded(tiny_experiment, episodes=2, **TRAIN_KWARGS)
        again = train_dqn_sharded(tiny_experiment, episodes=2, resume_from=head)
        assert_curves_equal(head, again)
        assert again.agent is head.agent


class TestDefaultConfig:
    def test_matches_environment_probe(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        assert default_experiment_dqn_config(tiny_experiment) == default_dqn_config(env)

    def test_forwards_overrides(self, tiny_experiment):
        config = default_experiment_dqn_config(tiny_experiment, gamma=0.5, seed=9)
        assert config.gamma == 0.5
        assert config.seed == 9


class TestSerialPathEquivalence:
    """jobs=1 must be bit-identical to the pre-sharding serial trainer."""

    def test_bit_identical_to_serial_trainer(self, tiny_experiment):
        env = tiny_experiment.build_environment()
        serial = train_dqn_controller(env, episodes=3, **TRAIN_KWARGS)
        sharded = train_dqn_sharded(tiny_experiment, episodes=3, config=actors(1), **TRAIN_KWARGS)
        assert_curves_equal(serial, sharded)
        assert_weights_equal(serial.agent, sharded.agent)
        assert serial.agent.train_steps == sharded.agent.train_steps
        assert serial.agent.observe_steps == sharded.agent.observe_steps

    def test_records_timing_fields(self, tiny_experiment):
        result = train_dqn_sharded(tiny_experiment, episodes=2, config=actors(1), **TRAIN_KWARGS)
        assert result.wall_time_s > 0
        assert result.episodes_per_second > 0

    def test_timing_fields_excluded_from_comparison(self, tiny_experiment):
        from dataclasses import fields

        from repro.core.training import TrainingResult

        timing = {"wall_time_s", "episodes_per_second"}
        assert {f.name for f in fields(TrainingResult) if not f.compare} == timing
        first = train_dqn_sharded(tiny_experiment, episodes=2, config=actors(1), **TRAIN_KWARGS)
        second = train_dqn_sharded(tiny_experiment, episodes=2, config=actors(1), **TRAIN_KWARGS)
        assert_curves_equal(first, second)


class TestActorRollout:
    def test_actor_task_and_rollout_pickle(self, tiny_experiment):
        config = default_experiment_dqn_config(tiny_experiment, **TRAIN_KWARGS)
        agent = DQNAgent(config)
        task = ActorBatchTask(
            experiment=tiny_experiment,
            dqn_config=config,
            network_state=agent.online.get_state(),
            episode_indices=(0,),
            steps_per_episode=tiny_experiment.episode_epochs,
        )
        (rollout,) = run_actor_batch(pickle.loads(pickle.dumps(task)))
        assert rollout.episode_index == 0
        assert len(rollout.transitions["actions"]) == tiny_experiment.episode_epochs
        assert bool(rollout.transitions["dones"][-1]) is True
        restored = pickle.loads(pickle.dumps(rollout))
        assert restored.episode_return == rollout.episode_return

    def test_rollout_is_deterministic_in_episode_index(self, tiny_experiment):
        config = default_experiment_dqn_config(tiny_experiment, **TRAIN_KWARGS)
        agent = DQNAgent(config)
        task = ActorBatchTask(
            experiment=tiny_experiment,
            dqn_config=config,
            network_state=agent.online.get_state(),
            episode_indices=(2,),
            steps_per_episode=tiny_experiment.episode_epochs,
        )
        (first,) = run_actor_batch(task)
        (second,) = run_actor_batch(task)
        assert first.episode_return == second.episode_return
        np.testing.assert_array_equal(
            first.transitions["states"], second.transitions["states"]
        )


@pytest.mark.slow
class TestShardedTraining:
    """Multi-process runs: determinism, learning band, resume."""

    def test_jobs2_is_deterministic(self, tiny_experiment):
        first = train_dqn_sharded(tiny_experiment, episodes=4, config=actors(2), **TRAIN_KWARGS)
        second = train_dqn_sharded(tiny_experiment, episodes=4, config=actors(2), **TRAIN_KWARGS)
        assert_curves_equal(first, second)
        assert_weights_equal(first.agent, second.agent)

    def test_jobs2_trains_the_learner(self, tiny_experiment):
        result = train_dqn_sharded(tiny_experiment, episodes=4, config=actors(2), **TRAIN_KWARGS)
        assert result.episodes == 4
        # 4 episodes x 3 epochs of experience must be in the replay buffer.
        assert len(result.agent.buffer) == 12
        assert result.agent.train_steps > 0
        assert result.episodes_per_second > 0

    def test_sync_interval_changes_staleness_not_determinism(self, tiny_experiment):
        frequent = train_dqn_sharded(
            tiny_experiment, episodes=4, config=actors(2), sync_interval=1, **TRAIN_KWARGS
        )
        stale = train_dqn_sharded(
            tiny_experiment, episodes=4, config=actors(2), sync_interval=2, **TRAIN_KWARGS
        )
        stale_again = train_dqn_sharded(
            tiny_experiment, episodes=4, config=actors(2), sync_interval=2, **TRAIN_KWARGS
        )
        assert_curves_equal(stale, stale_again)
        # Round 2 of the stale run rolls out against the round-0 broadcast, so
        # its trajectories (and thus the curve) may legitimately differ from
        # the per-round-sync run — but both trained the same episode count.
        assert frequent.episodes == stale.episodes == 4

    def test_jobs4_lands_in_serial_smoothed_return_band(self):
        experiment = ExperimentConfig.small(
            traffic=TrafficSpec.synthetic("uniform", 0.12),
            epoch_cycles=150,
            episode_epochs=4,
        )
        kwargs = dict(
            episodes=8,
            min_buffer_size=8,
            batch_size=8,
            hidden_sizes=(16,),
            epsilon_decay_steps=24,
        )
        serial = train_dqn_sharded(experiment, config=actors(1), **kwargs)
        sharded = train_dqn_sharded(experiment, config=actors(4), **kwargs)
        serial_smoothed = serial.smoothed_returns(window=3)
        sharded_smoothed = sharded.smoothed_returns(window=3)
        band = max(3.0, max(serial_smoothed) - min(serial_smoothed))
        assert abs(serial_smoothed[-1] - sharded_smoothed[-1]) <= band


class TestActorBatching:
    def test_rejects_bad_episodes_per_task(self, tiny_experiment):
        with pytest.raises(ValueError, match="episodes_per_task"):
            train_dqn_sharded(tiny_experiment, episodes=2, episodes_per_task=0)

    def test_batch_task_pickles_and_matches_per_episode_rollouts(
        self, tiny_experiment
    ):
        config = default_experiment_dqn_config(tiny_experiment, **TRAIN_KWARGS)
        agent = DQNAgent(config)
        state = agent.online.get_state()
        batch = ActorBatchTask(
            experiment=tiny_experiment,
            dqn_config=config,
            network_state=state,
            episode_indices=(0, 1, 2),
            steps_per_episode=tiny_experiment.episode_epochs,
        )
        rollouts = run_actor_batch(pickle.loads(pickle.dumps(batch)))
        assert [rollout.episode_index for rollout in rollouts] == [0, 1, 2]
        # Batching amortises agent construction; it must not change any
        # rollout relative to the one-task-per-episode path.
        for rollout in rollouts:
            (single,) = run_actor_batch(
                ActorBatchTask(
                    experiment=tiny_experiment,
                    dqn_config=config,
                    network_state=state,
                    episode_indices=(rollout.episode_index,),
                    steps_per_episode=tiny_experiment.episode_epochs,
                )
            )
            assert rollout.episode_return == single.episode_return
            np.testing.assert_array_equal(
                rollout.transitions["states"], single.transitions["states"]
            )

    def test_resume_round_boundary_accounts_for_batching(self, tiny_experiment):
        head = train_dqn_sharded(tiny_experiment, episodes=2, config=actors(1), **TRAIN_KWARGS)
        with pytest.raises(ValueError, match="round boundary"):
            train_dqn_sharded(
                tiny_experiment,
                episodes=8,
                config=actors(2),
                episodes_per_task=2,
                resume_from=head,
            )


@pytest.mark.slow
class TestActorBatchingParallel:
    def test_batched_rounds_match_equivalent_unbatched_rounds(self, tiny_experiment):
        # jobs=2 x 2 episodes/task and jobs=4 x 1 episode/task share the same
        # round size, hence the same broadcast cadence: bit-identical runs.
        batched = train_dqn_sharded(
            tiny_experiment, episodes=4, config=actors(2), episodes_per_task=2, **TRAIN_KWARGS
        )
        wide = train_dqn_sharded(
            tiny_experiment, episodes=4, config=actors(4), episodes_per_task=1, **TRAIN_KWARGS
        )
        assert_curves_equal(batched, wide)
        assert_weights_equal(batched.agent, wide.agent)

    def test_batched_training_is_deterministic(self, tiny_experiment):
        first = train_dqn_sharded(
            tiny_experiment, episodes=4, config=actors(2), episodes_per_task=2, **TRAIN_KWARGS
        )
        second = train_dqn_sharded(
            tiny_experiment, episodes=4, config=actors(2), episodes_per_task=2, **TRAIN_KWARGS
        )
        assert_curves_equal(first, second)
        assert_weights_equal(first.agent, second.agent)
