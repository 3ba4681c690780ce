"""The on-line self-configuration control loop.

Training happens in :mod:`repro.core.training`; deployment happens here:
:func:`run_policy` steps a :class:`ControllerPolicy` over a
:class:`~repro.core.environment.NoCConfigEnv`, feeding it the latest
telemetry at every control epoch, and records a :class:`ControllerTrace`;
:class:`SelfConfigController` does so on one live simulator.  Baseline
controllers (static, heuristic, random — see :mod:`repro.baselines`)
implement the same policy protocol, so every controller in the benchmarks
is driven through the same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.actions import ActionSpace, ConfigurationAction
from repro.core.environment import NoCConfigEnv, rollout
from repro.core.features import FeatureExtractor
from repro.core.rewards import RewardSpec
from repro.noc.network import NoCSimulator
from repro.noc.stats import EpochTelemetry


@runtime_checkable
class ControllerPolicy(Protocol):
    """Chooses the next configuration from the latest observation/telemetry."""

    name: str

    def select_action(self, observation: np.ndarray, telemetry: EpochTelemetry) -> int:
        """Index into the controller's action space."""
        ...  # pragma: no cover - protocol definition


class DRLControllerPolicy:
    """Wraps a trained RL agent (e.g. :class:`repro.rl.dqn.DQNAgent`) for
    greedy on-line deployment."""

    def __init__(self, agent, name: str = "drl") -> None:
        self.agent = agent
        self.name = name

    def select_action(self, observation: np.ndarray, telemetry: EpochTelemetry) -> int:
        return int(self.agent.act(observation, explore=False))


@dataclass(frozen=True)
class EpochRecord:
    """What happened during one controlled epoch (``None`` actions: none taken)."""

    epoch: int
    action_index: int | None
    action: ConfigurationAction | None
    telemetry: EpochTelemetry
    reward: float


@dataclass
class ControllerTrace:
    """The full record of a controller run, with summary statistics."""

    policy_name: str
    records: list[EpochRecord] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    # -- aggregate metrics -------------------------------------------------------

    @property
    def total_energy_pj(self) -> float:
        return sum(record.telemetry.energy.total_pj for record in self.records)

    @property
    def total_packets_delivered(self) -> int:
        return sum(record.telemetry.packets_delivered for record in self.records)

    @property
    def total_cycles(self) -> int:
        return sum(record.telemetry.cycles for record in self.records)

    @property
    def average_latency(self) -> float:
        """Packet-weighted average latency over the whole run."""
        delivered = self.total_packets_delivered
        if delivered == 0:
            return 0.0
        weighted = sum(
            record.telemetry.average_total_latency * record.telemetry.packets_delivered
            for record in self.records
        )
        return weighted / delivered

    @property
    def average_throughput(self) -> float:
        cycles = self.total_cycles
        if cycles == 0:
            return 0.0
        flits = sum(record.telemetry.flits_delivered for record in self.records)
        nodes = self.records[0].telemetry.num_nodes if self.records else 1
        return flits / (cycles * nodes)

    @property
    def energy_per_flit_pj(self) -> float:
        flits = sum(record.telemetry.flits_delivered for record in self.records)
        if flits == 0:
            return 0.0
        return self.total_energy_pj / flits

    @property
    def energy_delay_product(self) -> float:
        """EDP: (energy per flit) x (average latency)."""
        return self.energy_per_flit_pj * self.average_latency

    @property
    def mean_reward(self) -> float:
        if not self.records:
            return 0.0
        return float(np.mean([record.reward for record in self.records]))

    @property
    def dvfs_level_trace(self) -> list[int]:
        return [record.telemetry.dvfs_level_index for record in self.records]

    def summary(self) -> dict[str, float]:
        return {
            "policy": self.policy_name,
            "epochs": len(self.records),
            "average_latency": self.average_latency,
            "average_throughput": self.average_throughput,
            "energy_per_flit_pj": self.energy_per_flit_pj,
            "total_energy_pj": self.total_energy_pj,
            "energy_delay_product": self.energy_delay_product,
            "mean_reward": self.mean_reward,
        }


def run_policy(env: NoCConfigEnv, policy: ControllerPolicy) -> ControllerTrace:
    """Deploy ``policy`` on ``env`` for one episode and record every epoch."""
    trace = ControllerTrace(policy_name=policy.name)
    for epoch, (_, action_index, reward, _, _, info) in enumerate(
        rollout(env, policy.select_action)
    ):
        trace.append(
            EpochRecord(
                epoch=epoch,
                action_index=action_index,
                action=info["action"],
                telemetry=info["telemetry"],
                reward=reward,
            )
        )
    return trace


class SelfConfigController:
    """Drives a live simulator with a configuration policy, epoch by epoch."""

    def __init__(
        self,
        simulator: NoCSimulator,
        action_space: ActionSpace,
        feature_extractor: FeatureExtractor,
        policy: ControllerPolicy,
        reward_spec: RewardSpec | None = None,
        epoch_cycles: int = 500,
    ) -> None:
        if epoch_cycles < 1:
            raise ValueError("epoch_cycles must be positive")
        self.simulator = simulator
        self.action_space = action_space
        self.feature_extractor = feature_extractor
        self.policy = policy
        self.reward_spec = reward_spec or RewardSpec.balanced()
        self.epoch_cycles = epoch_cycles

    def run(self, num_epochs: int, warmup_epochs: int = 1) -> ControllerTrace:
        """Control the simulator for ``num_epochs`` epochs.

        The first ``warmup_epochs`` epochs run at the simulator's current
        configuration to obtain an initial observation and are not recorded;
        with none, the first recorded epoch runs with no action.
        """
        env = NoCConfigEnv(
            lambda: self.simulator,
            self.action_space,
            self.feature_extractor,
            self.reward_spec,
            epoch_cycles=self.epoch_cycles,
            episode_epochs=num_epochs,
            warmup_epochs=warmup_epochs,
        )
        return run_policy(env, self.policy)
