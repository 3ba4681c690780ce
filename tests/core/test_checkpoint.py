"""Tests for controller checkpoint save/load (and exact training resume)."""

import json

import numpy as np
import pytest

from repro.core import ExperimentConfig, TrafficSpec, checkpoint, train_dqn_controller
from repro.core.training import TrainingResult, train_tabular_controller
from repro.exp.execution import ExecutionConfig
from repro.exp.training import train_dqn_sharded
from repro.rl.dqn import DQNAgent


def actors(count: int) -> ExecutionConfig:
    return ExecutionConfig(train_jobs=count)


@pytest.fixture(scope="module")
def trained_result() -> TrainingResult:
    experiment = ExperimentConfig.small(
        traffic=TrafficSpec.synthetic("uniform", 0.12),
        epoch_cycles=200,
        episode_epochs=4,
    )
    env = experiment.build_environment()
    return train_dqn_controller(
        env, episodes=2, min_buffer_size=8, batch_size=8, hidden_sizes=(16,)
    )


class TestSaveLoadRoundtrip:
    def test_roundtrip_preserves_q_values(self, trained_result, tmp_path):
        path = checkpoint.save_dqn_checkpoint(trained_result, tmp_path / "ckpt")
        restored = checkpoint.load_dqn_checkpoint(path)
        assert isinstance(restored.agent, DQNAgent)
        observation = np.linspace(0.0, 1.0, trained_result.agent.config.observation_dim)
        np.testing.assert_allclose(
            restored.agent.q_values(observation), trained_result.agent.q_values(observation)
        )

    def test_roundtrip_preserves_training_curve_and_counters(self, trained_result, tmp_path):
        path = checkpoint.save_dqn_checkpoint(trained_result, tmp_path / "ckpt")
        restored = checkpoint.load_dqn_checkpoint(path)
        assert restored.episode_returns == trained_result.episode_returns
        assert restored.episode_mean_latency == trained_result.episode_mean_latency
        assert restored.agent.train_steps == trained_result.agent.train_steps
        assert restored.agent.config == trained_result.agent.config

    def test_restored_policy_acts_identically(self, trained_result, tmp_path):
        path = checkpoint.save_dqn_checkpoint(trained_result, tmp_path / "ckpt")
        restored = checkpoint.load_dqn_checkpoint(path)
        original_policy = trained_result.to_policy()
        restored_policy = restored.to_policy()
        for seed in range(5):
            observation = np.random.default_rng(seed).uniform(
                size=trained_result.agent.config.observation_dim
            )
            assert restored_policy.select_action(observation, None) == (
                original_policy.select_action(observation, None)
            )

    def test_checkpoint_files_exist(self, trained_result, tmp_path):
        path = checkpoint.save_dqn_checkpoint(trained_result, tmp_path / "ckpt")
        assert (path / "manifest.json").exists()
        assert (path / "parameters.npz").exists()


class TestErrorHandling:
    def test_loading_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            checkpoint.load_dqn_checkpoint(tmp_path / "nowhere")

    def test_non_dqn_agents_are_rejected(self, tmp_path):
        experiment = ExperimentConfig.small(
            traffic=TrafficSpec.synthetic("uniform", 0.1),
            epoch_cycles=150,
            episode_epochs=2,
        )
        env = experiment.build_environment()
        tabular = train_tabular_controller(env, episodes=1)
        with pytest.raises(TypeError):
            checkpoint.save_dqn_checkpoint(tabular, tmp_path / "ckpt")

    def test_unsupported_format_version_rejected(self, trained_result, tmp_path):
        import json

        path = checkpoint.save_dqn_checkpoint(trained_result, tmp_path / "ckpt")
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 999
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            checkpoint.load_dqn_checkpoint(path)


class TestTrainingStatePersistence:
    def test_training_state_file_written_by_default(self, trained_result, tmp_path):
        path = checkpoint.save_dqn_checkpoint(trained_result, tmp_path / "ckpt")
        assert (path / "training_state.npz").exists()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == checkpoint.FORMAT_VERSION
        assert "training_state" in manifest

    def test_deploy_only_checkpoint_skips_training_state(self, trained_result, tmp_path):
        path = checkpoint.save_dqn_checkpoint(
            trained_result, tmp_path / "ckpt", include_training_state=False
        )
        assert not (path / "training_state.npz").exists()
        restored = checkpoint.load_dqn_checkpoint(path)
        observation = np.linspace(0.0, 1.0, trained_result.agent.config.observation_dim)
        np.testing.assert_allclose(
            restored.agent.q_values(observation), trained_result.agent.q_values(observation)
        )
        assert len(restored.agent.buffer) == 0  # cold buffer: deploy-only artefact

    def test_restores_replay_buffer_and_counters(self, trained_result, tmp_path):
        path = checkpoint.save_dqn_checkpoint(trained_result, tmp_path / "ckpt")
        restored = checkpoint.load_dqn_checkpoint(path)
        assert len(restored.agent.buffer) == len(trained_result.agent.buffer)
        assert restored.agent.policy.steps == trained_result.agent.policy.steps

    def test_missing_training_state_file_is_an_error(self, trained_result, tmp_path):
        path = checkpoint.save_dqn_checkpoint(trained_result, tmp_path / "ckpt")
        (path / "training_state.npz").unlink()
        with pytest.raises(FileNotFoundError, match="training state"):
            checkpoint.load_dqn_checkpoint(path)

    def test_version_1_checkpoints_still_load(self, trained_result, tmp_path):
        path = checkpoint.save_dqn_checkpoint(
            trained_result, tmp_path / "ckpt", include_training_state=False
        )
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["format_version"] = 1
        (path / "manifest.json").write_text(json.dumps(manifest))
        restored = checkpoint.load_dqn_checkpoint(path)
        assert restored.episode_returns == trained_result.episode_returns


class TestResumeRoundTrip:
    """train -> save -> load -> resume reproduces the uninterrupted tail."""

    @pytest.fixture(scope="class")
    def resume_experiment(self) -> ExperimentConfig:
        return ExperimentConfig.small(
            traffic=TrafficSpec.synthetic("uniform", 0.12),
            epoch_cycles=120,
            episode_epochs=3,
        )

    TRAIN_KWARGS = dict(
        min_buffer_size=4, batch_size=4, hidden_sizes=(8,), epsilon_decay_steps=12
    )

    def _assert_same_outcome(self, full, resumed):
        assert resumed.episode_returns == full.episode_returns
        assert resumed.episode_mean_latency == full.episode_mean_latency
        assert resumed.episode_mean_energy_per_flit == full.episode_mean_energy_per_flit
        for left, right in zip(full.agent.online.weights, resumed.agent.online.weights):
            np.testing.assert_array_equal(left, right)
        assert full.agent.train_steps == resumed.agent.train_steps

    def test_jobs1_resume_matches_uninterrupted(self, resume_experiment, tmp_path):
        full = train_dqn_sharded(
            resume_experiment, episodes=4, config=actors(1), **self.TRAIN_KWARGS
        )
        head = train_dqn_sharded(
            resume_experiment, episodes=2, config=actors(1), **self.TRAIN_KWARGS
        )
        path = checkpoint.save_dqn_checkpoint(head, tmp_path / "ckpt")
        restored = checkpoint.load_dqn_checkpoint(path)
        resumed = train_dqn_sharded(
            resume_experiment, episodes=4, config=actors(1), resume_from=restored
        )
        self._assert_same_outcome(full, resumed)

    @pytest.mark.slow
    def test_jobs2_resume_matches_uninterrupted(self, resume_experiment, tmp_path):
        full = train_dqn_sharded(
            resume_experiment, episodes=4, config=actors(2), **self.TRAIN_KWARGS
        )
        head = train_dqn_sharded(
            resume_experiment, episodes=2, config=actors(2), **self.TRAIN_KWARGS
        )
        path = checkpoint.save_dqn_checkpoint(head, tmp_path / "ckpt")
        restored = checkpoint.load_dqn_checkpoint(path)
        resumed = train_dqn_sharded(
            resume_experiment, episodes=4, config=actors(2), resume_from=restored
        )
        self._assert_same_outcome(full, resumed)

    def test_prioritized_replay_resume_matches_uninterrupted(
        self, resume_experiment, tmp_path
    ):
        kwargs = dict(self.TRAIN_KWARGS, prioritized_replay=True)
        full = train_dqn_sharded(resume_experiment, episodes=4, config=actors(1), **kwargs)
        head = train_dqn_sharded(resume_experiment, episodes=2, config=actors(1), **kwargs)
        path = checkpoint.save_dqn_checkpoint(head, tmp_path / "ckpt")
        restored = checkpoint.load_dqn_checkpoint(path)
        resumed = train_dqn_sharded(
            resume_experiment, episodes=4, config=actors(1), resume_from=restored
        )
        self._assert_same_outcome(full, resumed)
