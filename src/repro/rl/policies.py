"""Exploration policies and schedules."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Schedule(ABC):
    """Maps a step counter to a scalar (e.g. the exploration rate epsilon)."""

    @abstractmethod
    def value(self, step: int) -> float:
        """Schedule value at ``step``."""


class LinearDecaySchedule(Schedule):
    """Linear interpolation from ``start`` to ``end`` over ``decay_steps``."""

    def __init__(self, start: float, end: float, decay_steps: int) -> None:
        if decay_steps < 1:
            raise ValueError("decay_steps must be at least 1")
        self.start = start
        self.end = end
        self.decay_steps = decay_steps

    def value(self, step: int) -> float:
        fraction = min(max(step, 0) / self.decay_steps, 1.0)
        return self.start + fraction * (self.end - self.start)


class EpsilonGreedyPolicy:
    """Epsilon-greedy action selection over a vector of action values."""

    def __init__(self, schedule: Schedule, seed: int = 0) -> None:
        self.schedule = schedule
        self._rng = np.random.default_rng(seed)
        self.steps = 0

    @property
    def epsilon(self) -> float:
        return self.schedule.value(self.steps)

    def select(self, q_values: np.ndarray, explore: bool = True) -> int:
        """Greedy action with probability 1-epsilon, random otherwise."""
        q_values = np.asarray(q_values, dtype=float)
        if q_values.ndim != 1 or q_values.size == 0:
            raise ValueError("q_values must be a non-empty 1-D array")
        if explore:
            epsilon = self.epsilon
            self.steps += 1
            if self._rng.random() < epsilon:
                return int(self._rng.integers(q_values.size))
        return int(np.argmax(q_values))

    # -- checkpointing -------------------------------------------------------

    def get_state(self) -> dict:
        """Snapshot of the step counter and exploration RNG stream."""
        return {"steps": self.steps, "rng": self._rng.bit_generator.state}

    def set_state(self, state: dict) -> None:
        self.steps = int(state["steps"])
        self._rng.bit_generator.state = state["rng"]
