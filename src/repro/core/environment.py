"""The epoch-level MDP, and the one loop that steps a policy over it.

:class:`NoCConfigEnv` follows the familiar ``reset() / step(action)``
environment interface (without depending on gym):

* ``reset()`` builds a fresh simulator (via the supplied factory), runs
  ``warmup_epochs`` epochs at the initial configuration and returns the
  last one's observation (``None`` with no warm-up);
* ``step(action_index)`` actuates the chosen reconfiguration (``None``
  keeps the current one), advances the simulator by one control epoch, and
  returns ``(observation, reward, done, info)`` where ``info`` carries the
  raw :class:`~repro.noc.stats.EpochTelemetry` and the decoded action.

It is the only stepper of control epochs: evaluation, training, the sharded
actors and scenarios all run through :func:`rollout`.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.actions import ActionSpace
from repro.core.features import FeatureExtractor
from repro.core.rewards import RewardSpec
from repro.noc.network import NoCSimulator
from repro.noc.stats import EpochTelemetry


class NoCConfigEnv:
    """Gym-style environment; ``on_cycle`` rides on every epoch it runs."""

    def __init__(
        self,
        simulator_factory: Callable[[], NoCSimulator],
        action_space: ActionSpace,
        feature_extractor: FeatureExtractor,
        reward_spec: RewardSpec,
        epoch_cycles: int = 500,
        episode_epochs: int = 20,
        warmup_epochs: int = 1,
        on_cycle: Callable[[int], None] | None = None,
    ) -> None:
        if epoch_cycles < 1:
            raise ValueError("epoch_cycles must be positive")
        if episode_epochs < 1:
            raise ValueError("episode_epochs must be positive")
        if warmup_epochs < 0:
            raise ValueError("warmup_epochs must be non-negative")
        self.simulator_factory = simulator_factory
        self.action_space = action_space
        self.feature_extractor = feature_extractor
        self.reward_spec = reward_spec
        self.epoch_cycles = epoch_cycles
        self.episode_epochs = episode_epochs
        self.warmup_epochs = warmup_epochs
        self.on_cycle = on_cycle

        self.simulator: NoCSimulator | None = None
        self.last_telemetry: EpochTelemetry | None = None
        self._epochs_taken = 0

    # -- interface -----------------------------------------------------------------

    @property
    def observation_dim(self) -> int:
        return self.feature_extractor.dim

    @property
    def num_actions(self) -> int:
        return self.action_space.size

    def reset(self) -> np.ndarray | None:
        """Start a fresh episode and return the initial observation."""
        self.simulator = self.simulator_factory()
        self._epochs_taken = 0
        telemetry = None
        for _ in range(self.warmup_epochs):
            telemetry = self.simulator.run_epoch(self.epoch_cycles, on_cycle=self.on_cycle)
        self.last_telemetry = telemetry
        return None if telemetry is None else self.feature_extractor.extract(telemetry)

    def step(self, action_index: int | None) -> tuple[np.ndarray, float, bool, dict]:
        """Apply one reconfiguration action and advance one control epoch."""
        if self.simulator is None:
            raise RuntimeError("call reset() before step()")
        action = None
        if action_index is not None:
            action = self.action_space.apply(self.simulator, action_index)
        telemetry = self.simulator.run_epoch(self.epoch_cycles, on_cycle=self.on_cycle)
        self.last_telemetry = telemetry
        self._epochs_taken += 1

        observation = self.feature_extractor.extract(telemetry)
        reward = self.reward_spec.compute(telemetry)
        done = self._epochs_taken >= self.episode_epochs
        info = {
            "telemetry": telemetry,
            "action": action,
            "action_index": action_index,
            "epoch": self._epochs_taken,
        }
        return observation, reward, done, info


def rollout(env: NoCConfigEnv, select_action: Callable | None) -> Iterator[tuple]:
    """Reset ``env``, then step it through one episode, yielding
    ``(observation, action_index, reward, next_observation, done, info)``.

    ``select_action(observation, telemetry)`` picks each epoch's action from
    the previous epoch.  With no policy, or no epoch before (no warm-up),
    the epoch runs at the current configuration.  ``env`` is driven through
    ``reset``/``step`` only, so a proxy wrapping those sees every epoch.
    """
    observation = env.reset()
    done = False
    while not done:
        telemetry = env.last_telemetry
        action_index = None
        if select_action is not None and telemetry is not None:
            action_index = select_action(observation, telemetry)
        next_observation, reward, done, info = env.step(action_index)
        yield observation, action_index, reward, next_observation, done, info
        observation = next_observation
