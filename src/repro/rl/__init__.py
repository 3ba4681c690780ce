"""Deep reinforcement learning substrate, implemented from scratch on numpy.

The paper's controller is a DQN; since no deep-learning framework is
available offline, the whole stack is reimplemented here:

* :mod:`repro.rl.networks` — multilayer perceptrons with manual backprop;
* :mod:`repro.rl.optimizers` — SGD / Momentum / RMSProp / Adam;
* :mod:`repro.rl.replay` — uniform and prioritised experience replay;
* :mod:`repro.rl.policies` — exploration policies and schedules;
* :mod:`repro.rl.qtable` — a tabular Q-learning baseline agent;
* :mod:`repro.rl.dqn` — DQN with target network, Double-DQN and dueling
  variants;
* :mod:`repro.rl.agent` — the common agent interface.
"""

from repro.rl.agent import Agent, Transition
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.networks import MLP
from repro.rl.optimizers import SGD, Adam, Momentum, RMSProp, get_optimizer
from repro.rl.policies import (
    EpsilonGreedyPolicy,
    LinearDecaySchedule,
)
from repro.rl.qtable import TabularQAgent, TabularQConfig, UniformDiscretizer
from repro.rl.replay import PrioritizedReplayBuffer, ReplayBuffer

__all__ = [
    "Adam",
    "Agent",
    "DQNAgent",
    "DQNConfig",
    "EpsilonGreedyPolicy",
    "LinearDecaySchedule",
    "MLP",
    "Momentum",
    "PrioritizedReplayBuffer",
    "ReplayBuffer",
    "RMSProp",
    "SGD",
    "TabularQAgent",
    "TabularQConfig",
    "Transition",
    "UniformDiscretizer",
    "get_optimizer",
]
