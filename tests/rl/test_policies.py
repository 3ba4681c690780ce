"""Unit tests for exploration policies and schedules."""

import numpy as np
import pytest

from repro.rl.policies import EpsilonGreedyPolicy, LinearDecaySchedule


def constant(epsilon: float) -> LinearDecaySchedule:
    return LinearDecaySchedule(epsilon, epsilon, decay_steps=1)


class TestSchedules:
    def test_linear_decay_endpoints(self):
        schedule = LinearDecaySchedule(1.0, 0.1, decay_steps=100)
        assert schedule.value(0) == pytest.approx(1.0)
        assert schedule.value(50) == pytest.approx(0.55)
        assert schedule.value(100) == pytest.approx(0.1)
        assert schedule.value(500) == pytest.approx(0.1)

    def test_linear_decay_validation(self):
        with pytest.raises(ValueError):
            LinearDecaySchedule(1.0, 0.1, decay_steps=0)


class TestEpsilonGreedy:
    def test_greedy_when_not_exploring(self):
        policy = EpsilonGreedyPolicy(constant(1.0), seed=0)
        q = np.array([0.1, 5.0, -1.0])
        assert all(policy.select(q, explore=False) == 1 for _ in range(10))

    def test_zero_epsilon_is_always_greedy(self):
        policy = EpsilonGreedyPolicy(constant(0.0), seed=0)
        q = np.array([0.0, 1.0])
        assert all(policy.select(q) == 1 for _ in range(50))

    def test_full_epsilon_explores_all_actions(self):
        policy = EpsilonGreedyPolicy(constant(1.0), seed=1)
        q = np.array([10.0, 0.0, 0.0, 0.0])
        chosen = {policy.select(q) for _ in range(200)}
        assert chosen == {0, 1, 2, 3}

    def test_step_counter_advances_only_when_exploring_enabled(self):
        policy = EpsilonGreedyPolicy(LinearDecaySchedule(1.0, 0.0, 10), seed=2)
        for _ in range(5):
            policy.select(np.array([1.0, 0.0]), explore=False)
        assert policy.steps == 0
        for _ in range(5):
            policy.select(np.array([1.0, 0.0]), explore=True)
        assert policy.steps == 5
        assert policy.epsilon == pytest.approx(0.5)

    def test_rejects_bad_q_values(self):
        policy = EpsilonGreedyPolicy(constant(0.1))
        with pytest.raises(ValueError):
            policy.select(np.array([]))
        with pytest.raises(ValueError):
            policy.select(np.zeros((2, 2)))

