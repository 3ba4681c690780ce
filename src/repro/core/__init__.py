"""The paper's contribution: DRL-driven runtime self-configuration of a NoC.

* :mod:`repro.core.features` — turns per-epoch NoC telemetry into the
  normalised observation vector the agent sees;
* :mod:`repro.core.actions` — the configuration action spaces (DVFS levels,
  routing algorithms, enabled VCs, and their joint product);
* :mod:`repro.core.rewards` — latency/energy reward specifications;
* :mod:`repro.core.environment` — :class:`NoCConfigEnv`, the epoch-level MDP
  the agent is trained in;
* :mod:`repro.core.controller` — :class:`SelfConfigController`, the on-line
  control loop that deploys a trained (or heuristic) policy on a simulator;
* :mod:`repro.core.training` — training and evaluation harness;
* :mod:`repro.core.config` — experiment configuration presets tying the
  whole stack together.
"""

from repro.core import checkpoint
from repro.core.actions import (
    ConfigurationAction,
    DvfsActionSpace,
    JointActionSpace,
    RegionalDvfsAction,
    RegionalDvfsActionSpace,
    RoutingActionSpace,
    VcActionSpace,
    make_action_space,
)
from repro.core.config import ExperimentConfig, TrafficSpec
from repro.core.controller import (
    ControllerPolicy,
    ControllerTrace,
    DRLControllerPolicy,
    EpochRecord,
    SelfConfigController,
)
from repro.core.environment import NoCConfigEnv
from repro.core.features import FeatureExtractor
from repro.core.rewards import RewardSpec
from repro.core.training import (
    TrainingResult,
    evaluate_controller,
    train_dqn_controller,
    train_tabular_controller,
)

__all__ = [
    "ConfigurationAction",
    "checkpoint",
    "ControllerPolicy",
    "ControllerTrace",
    "DRLControllerPolicy",
    "DvfsActionSpace",
    "EpochRecord",
    "ExperimentConfig",
    "FeatureExtractor",
    "JointActionSpace",
    "NoCConfigEnv",
    "RegionalDvfsAction",
    "RegionalDvfsActionSpace",
    "RewardSpec",
    "RoutingActionSpace",
    "SelfConfigController",
    "TrafficSpec",
    "TrainingResult",
    "VcActionSpace",
    "evaluate_controller",
    "make_action_space",
    "train_dqn_controller",
    "train_tabular_controller",
]
