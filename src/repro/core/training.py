"""Training and evaluation harness for the self-configuration controllers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.controller import (
    ControllerPolicy,
    ControllerTrace,
    DRLControllerPolicy,
    SelfConfigController,
)
from repro.core.environment import NoCConfigEnv
from repro.rl.agent import Transition
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.qtable import TabularQAgent, TabularQConfig, UniformDiscretizer


@dataclass
class TrainingResult:
    """Outcome of training a controller agent."""

    agent: object
    episode_returns: list[float] = field(default_factory=list)
    episode_mean_latency: list[float] = field(default_factory=list)
    episode_mean_energy_per_flit: list[float] = field(default_factory=list)
    #: Wall-clock seconds spent in the training loop.  Excluded from
    #: comparisons (the equivalence tests are about *learned* outcomes, which
    #: are deterministic; wall time is not) — same convention as
    #: :class:`repro.exp.scenarios.ScenarioResult`.
    wall_time_s: float = field(default=0.0, compare=False)
    #: Training throughput in episodes per wall-clock second, or ``None``
    #: when the loop finished under timer resolution (unmeasurable ≠ zero).
    episodes_per_second: float | None = field(default=None, compare=False)

    @property
    def episodes(self) -> int:
        return len(self.episode_returns)

    @property
    def final_return(self) -> float:
        return self.episode_returns[-1] if self.episode_returns else 0.0

    @property
    def best_return(self) -> float:
        return max(self.episode_returns) if self.episode_returns else 0.0

    def smoothed_returns(self, window: int = 3) -> list[float]:
        """Moving-average episode returns (for the convergence figure)."""
        if window < 1:
            raise ValueError("window must be positive")
        returns = np.asarray(self.episode_returns, dtype=float)
        if returns.size == 0:
            return []
        smoothed = [
            float(returns[max(0, index - window + 1) : index + 1].mean())
            for index in range(returns.size)
        ]
        return smoothed

    def to_policy(self, name: str = "drl") -> DRLControllerPolicy:
        return DRLControllerPolicy(self.agent, name=name)


def run_training_episode(env: NoCConfigEnv, agent) -> tuple[float, float, float]:
    """One training episode; returns (return, mean latency, mean energy/flit)."""
    observation = env.reset()
    episode_return = 0.0
    latencies = []
    energies = []
    done = False
    while not done:
        action = agent.act(observation, explore=True)
        next_observation, reward, done, info = env.step(action)
        agent.observe(
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
    agent.end_episode()
    mean_latency = float(np.mean(latencies)) if latencies else 0.0
    mean_energy = float(np.mean(energies)) if energies else 0.0
    return episode_return, mean_latency, mean_energy


def record_training_timing(result: TrainingResult, episodes: int, wall_time_s: float) -> None:
    """Fill in the compare-excluded perf fields of ``result``."""
    result.wall_time_s = wall_time_s
    result.episodes_per_second = episodes / wall_time_s if wall_time_s > 0 else None


def default_dqn_config(env: NoCConfigEnv, **overrides) -> DQNConfig:
    """A DQN configuration sized for the NoC control problem."""
    defaults = dict(
        observation_dim=env.observation_dim,
        num_actions=env.num_actions,
        hidden_sizes=(64, 64),
        learning_rate=1e-3,
        gamma=0.9,
        buffer_capacity=5_000,
        batch_size=32,
        min_buffer_size=64,
        target_sync_interval=50,
        epsilon_start=1.0,
        epsilon_end=0.05,
        epsilon_decay_steps=300,
        seed=0,
    )
    defaults.update(overrides)
    return DQNConfig(**defaults)


def train_dqn_controller(
    env: NoCConfigEnv,
    episodes: int = 30,
    dqn_config: DQNConfig | None = None,
    **dqn_overrides,
) -> TrainingResult:
    """Train a DQN self-configuration controller on ``env``."""
    if episodes < 1:
        raise ValueError("episodes must be positive")
    config = dqn_config or default_dqn_config(env, **dqn_overrides)
    agent = DQNAgent(config)
    result = TrainingResult(agent=agent)
    start = time.perf_counter()
    for _ in range(episodes):
        episode_return, mean_latency, mean_energy = run_training_episode(env, agent)
        result.episode_returns.append(episode_return)
        result.episode_mean_latency.append(mean_latency)
        result.episode_mean_energy_per_flit.append(mean_energy)
    record_training_timing(result, episodes, time.perf_counter() - start)
    return result


def train_tabular_controller(
    env: NoCConfigEnv,
    episodes: int = 30,
    bins_per_feature: int = 3,
    **config_overrides,
) -> TrainingResult:
    """Train the tabular Q-learning comparator on ``env``."""
    if episodes < 1:
        raise ValueError("episodes must be positive")
    lows, highs = env.feature_extractor.bounds()
    config = TabularQConfig(
        num_actions=env.num_actions,
        bins_per_feature=bins_per_feature,
        epsilon_decay_steps=max(episodes * env.episode_epochs // 2, 1),
        **config_overrides,
    )
    agent = TabularQAgent(config, UniformDiscretizer(lows, highs, bins_per_feature))
    result = TrainingResult(agent=agent)
    start = time.perf_counter()
    for _ in range(episodes):
        episode_return, mean_latency, mean_energy = run_training_episode(env, agent)
        result.episode_returns.append(episode_return)
        result.episode_mean_latency.append(mean_latency)
        result.episode_mean_energy_per_flit.append(mean_energy)
    record_training_timing(result, episodes, time.perf_counter() - start)
    return result


def evaluate_controller(
    experiment: ExperimentConfig,
    policy: ControllerPolicy,
    num_epochs: int | None = None,
    seed_offset: int = 10_000,
) -> ControllerTrace:
    """Deploy ``policy`` on a fresh simulator and record a controller trace.

    The evaluation simulator uses a traffic seed disjoint from training
    (``seed_offset``) so results reflect generalisation, not memorisation.
    """
    simulator = experiment.build_simulator(seed_offset=seed_offset)
    controller = SelfConfigController(
        simulator=simulator,
        action_space=experiment.build_action_space(),
        feature_extractor=experiment.build_feature_extractor(),
        policy=policy,
        reward_spec=experiment.reward,
        epoch_cycles=experiment.epoch_cycles,
    )
    return controller.run(num_epochs or experiment.episode_epochs)

