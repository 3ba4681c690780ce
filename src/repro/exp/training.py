"""Sharded DQN training: parallel actor rollouts feeding a single learner.

The serial trainer (:func:`repro.core.training.train_dqn_controller`)
interleaves environment rollout and gradient descent in one loop, which
caps training throughput at a single core.  This module splits the two
roles the way distributed DQN implementations do:

* **Actors** — ``train_jobs`` worker processes.  Each actor task runs the
  serial trainer's episode loop against its *own*
  :class:`~repro.core.environment.NoCConfigEnv` per episode, choosing
  actions epsilon-greedily from a broadcast snapshot of the online network,
  and ships the transitions back to the parent in the compact
  :func:`~repro.rl.replay.pack_transitions` wire format.
* **Learner** — the parent process.  It feeds returned transitions (in
  episode order) through the one true ``DQNAgent`` — the existing
  :class:`~repro.rl.replay.ReplayBuffer`/``PrioritizedReplayBuffer`` and
  ``train_step`` machinery — so minibatch sampling, target-network syncs
  and train-interval bookkeeping behave exactly as in serial training.
* **Policy broadcast** — actors run against a possibly stale weight
  snapshot; the snapshot is refreshed from the learner every
  ``sync_interval`` rounds (one round = ``train_jobs * episodes_per_task``
  episodes; each :class:`ActorBatchTask` ships the snapshot once for its
  whole episode batch).

RNG-order contract (same discipline as the PR 2 engine toggles):

* ``train_jobs=1`` runs the *exact* serial loop — same environment
  factory, same agent, same call order — and is bit-identical to
  ``train_dqn_controller`` (timing fields excluded).
* ``train_jobs>=2`` derives every random stream from the episode index
  alone: episode ``e`` rolls out on an environment seeded with
  ``trial_seed(seed, e)``, explores with an RNG seeded
  ``trial_seed(seed + 1, e)``, and evaluates the epsilon schedule at global
  step ``e * steps_per_episode + t``.  Results therefore depend only on
  ``(episodes, train_jobs, sync_interval, config)`` — never on process
  scheduling — and repeated runs are identical.

Resume: :func:`train_dqn_sharded` accepts a ``resume_from``
:class:`~repro.core.training.TrainingResult` (typically restored via
:mod:`repro.core.checkpoint`).  With the checkpoint's full training state
(optimizer slots, exploration RNG, replay buffer) restored, the continued
run reproduces the uninterrupted run's tail bit for bit; sharded resumes
must restart at a round boundary (``episodes_trained % train_jobs == 0``)
and, for ``sync_interval > 1``, at a sync boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from repro.core.config import ExperimentConfig
from repro.core.training import (
    TrainingResult,
    default_dqn_config,
    explore_episode,
    record_training_timing,
    train_episodes,
)
from repro.exp.execution import ExecutionConfig
from repro.exp.runner import SupervisedTrialPool, trial_seed
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.replay import pack_transitions, unpack_transitions


def default_experiment_dqn_config(experiment: ExperimentConfig, **overrides) -> DQNConfig:
    """The :func:`default_dqn_config` sized from an experiment's spaces.

    Identical to probing a built environment, but without paying for the
    warm-up simulation an ``env.reset()`` would run.
    """
    probe = SimpleNamespace(
        observation_dim=experiment.build_feature_extractor().dim,
        num_actions=experiment.build_action_space().size,
    )
    return default_dqn_config(probe, **overrides)


@dataclass(frozen=True)
class ActorRollout:
    """One episode's transition batch plus its training-curve samples."""

    episode_index: int
    transitions: dict
    episode_return: float
    mean_latency: float
    mean_energy: float


@dataclass(frozen=True)
class ActorBatchTask:
    """A contiguous batch of episodes for one actor process.

    One weight snapshot is shipped (and one agent built) per *task* instead
    of per episode, amortising the dominant IPC cost — pickling the network
    state into spawn-started workers — across ``len(episode_indices)``
    rollouts.  Every episode still derives its RNG streams and schedule
    position from its own index, so batching never changes an outcome; it
    only changes how many episodes ride on each snapshot copy.  The batch
    is also the supervised pool's recovery unit: a lost worker re-runs only
    its batch's episode indices, bit-exactly.
    """

    experiment: ExperimentConfig
    dqn_config: DQNConfig
    network_state: dict
    episode_indices: tuple[int, ...]
    steps_per_episode: int


def _rollout_episode(agent: DQNAgent, task, episode_index: int) -> ActorRollout:
    """One episode under ``agent``'s already-loaded snapshot network."""
    config = task.dqn_config
    env = task.experiment.build_environment(
        seed_offset=trial_seed(config.seed, episode_index)
    )
    # Reuse the agent's own EpsilonGreedyPolicy (one exploration code path
    # repo-wide), repositioned for this episode: a per-episode RNG stream and
    # the schedule step the serial trainer would have reached by now.
    agent.policy.set_state(
        {
            "steps": episode_index * task.steps_per_episode,
            "rng": np.random.default_rng(
                trial_seed(config.seed + 1, episode_index)
            ).bit_generator.state,
        }
    )

    transitions = []
    episode_return, mean_latency, mean_energy = explore_episode(env, agent, transitions.append)
    return ActorRollout(
        episode_index=episode_index,
        transitions=pack_transitions(transitions),
        episode_return=episode_return,
        mean_latency=mean_latency,
        mean_energy=mean_energy,
    )


def run_actor_batch(task: ActorBatchTask) -> tuple[ActorRollout, ...]:
    """Roll out a batch of episodes under the broadcast policy (picklable).

    The actor never trains — it only evaluates the snapshot network — so
    the learner's optimizer, replay and target-network state stay in one
    place.  The agent (and its loaded snapshot) is built once and reused
    across the batch; :func:`_rollout_episode` repositions the exploration
    policy per episode, so each rollout is identical to a one-episode task.
    """
    agent = DQNAgent(task.dqn_config)
    agent.online.set_state(task.network_state)
    return tuple(
        _rollout_episode(agent, task, episode_index)
        for episode_index in task.episode_indices
    )


def _resolve_agent_and_result(
    experiment: ExperimentConfig,
    dqn_config: DQNConfig | None,
    resume_from: TrainingResult | None,
    dqn_overrides: dict,
) -> tuple[DQNAgent, TrainingResult]:
    if resume_from is not None:
        agent = resume_from.agent
        if not isinstance(agent, DQNAgent):
            raise TypeError(
                "resume_from must carry a DQNAgent "
                f"(got {type(agent).__name__}); restore one via repro.core.checkpoint"
            )
        if dqn_config is not None or dqn_overrides:
            raise ValueError(
                "dqn_config/overrides cannot be combined with resume_from; "
                "the resumed agent already fixes the hyperparameters"
            )
        result = TrainingResult(
            agent=agent,
            episode_returns=list(resume_from.episode_returns),
            episode_mean_latency=list(resume_from.episode_mean_latency),
            episode_mean_energy_per_flit=list(resume_from.episode_mean_energy_per_flit),
        )
        return agent, result
    config = dqn_config or default_experiment_dqn_config(experiment, **dqn_overrides)
    agent = DQNAgent(config)
    return agent, TrainingResult(agent=agent)


def train_dqn_sharded(
    experiment: ExperimentConfig,
    episodes: int = 30,
    *,
    config: ExecutionConfig | None = None,
    sync_interval: int = 1,
    episodes_per_task: int = 1,
    dqn_config: DQNConfig | None = None,
    resume_from: TrainingResult | None = None,
    **dqn_overrides,
) -> TrainingResult:
    """Train a DQN controller on ``experiment``, sharding rollouts over actors.

    ``config`` is the unified :class:`~repro.exp.execution.ExecutionConfig`;
    this function reads its ``train_jobs`` (the actor count — part of the
    RNG contract for ``>= 2``), ``supervision`` and ``chaos`` fields.

    ``episodes`` is the *total* target episode count; with ``resume_from``
    the engine trains only the remaining ``episodes - resume_from.episodes``
    and returns the combined curve.  One actor (``train_jobs=1``) is the
    serial reference path (bit-identical to
    :func:`~repro.core.training.train_dqn_controller`);
    ``train_jobs>=2`` fans actor rollouts over a persistent process pool and
    broadcasts learner weights every ``sync_interval`` rounds.

    ``episodes_per_task`` batches that many episodes onto each actor task
    (one round = ``train_jobs * episodes_per_task`` episodes), amortising
    the per-task weight broadcast on spawn-start platforms; 1 preserves the
    historical one-episode-per-task rounds exactly.  Like ``train_jobs`` and
    ``sync_interval`` it is part of the RNG-order contract: results depend
    on the round structure, never on process scheduling.

    The actor pool is supervised: a lost or crashed worker rebuilds the
    pool and re-dispatches only its own batch's episode indices — every
    random stream derives from the episode index, so the recovered round
    is bit-exact versus an uninterrupted one.  ``config.supervision`` tunes
    the timeout/retry budget; ``config.chaos`` injects a deterministic
    fault script (tests only).
    """
    unknown = sorted(set(dqn_overrides) - {item.name for item in fields(DQNConfig)})
    if unknown:
        # Checked up front: a dqn_config would otherwise swallow a misspelt
        # keyword without a word.
        raise TypeError(f"train_dqn_sharded() got unexpected keyword(s): {', '.join(unknown)}")
    config = config or ExecutionConfig()
    jobs = config.train_jobs
    if episodes < 1:
        raise ValueError("episodes must be positive")
    if sync_interval < 1:
        raise ValueError("sync_interval must be at least 1")
    if episodes_per_task < 1:
        raise ValueError("episodes_per_task must be at least 1")
    if experiment.warmup_epochs < 1:
        # Checked here too: an actor would otherwise fail every retry.
        raise ValueError("training needs warmup_epochs >= 1")

    agent, result = _resolve_agent_and_result(experiment, dqn_config, resume_from, dqn_overrides)
    start_episode = result.episodes
    if start_episode >= episodes:
        return result

    if jobs == 1:
        env = experiment.build_environment(seed_offset=start_episode)
        return train_episodes(env, result, episodes - start_episode)

    round_size = jobs * episodes_per_task
    if start_episode % round_size != 0:
        raise ValueError(
            f"sharded resume must start at a round boundary: {start_episode} trained "
            f"episodes is not divisible by jobs*episodes_per_task={round_size}"
        )
    if start_episode and (start_episode // round_size) % sync_interval != 0:
        # Resuming mid-sync-window would force a fresh broadcast where the
        # uninterrupted run used a stale one, silently breaking the
        # bit-identical-resume contract.
        raise ValueError(
            f"sharded resume must start at a policy-sync boundary: round "
            f"{start_episode // round_size} is not a multiple of "
            f"sync_interval={sync_interval}"
        )

    steps_per_episode = experiment.episode_epochs
    round_index = start_episode // round_size
    broadcast_state: dict | None = None
    start = time.perf_counter()
    with SupervisedTrialPool(jobs, policy=config.supervision, chaos=config.chaos) as pool:
        episode = start_episode
        while episode < episodes:
            if broadcast_state is None or round_index % sync_interval == 0:
                broadcast_state = agent.online.get_state()
            round_end = min(episode + round_size, episodes)
            round_episodes = list(range(episode, round_end))
            # One contiguous batch per actor per round; each task ships the
            # broadcast snapshot once for all of its episodes.
            tasks = [
                ActorBatchTask(
                    experiment=experiment,
                    dqn_config=agent.config,
                    network_state=broadcast_state,
                    episode_indices=tuple(round_episodes[offset : offset + episodes_per_task]),
                    steps_per_episode=steps_per_episode,
                )
                for offset in range(0, len(round_episodes), episodes_per_task)
            ]
            labels = [
                f"actors[{task.episode_indices[0]}..{task.episode_indices[-1]}]"
                for task in tasks
            ]
            # Supervised: a lost worker re-dispatches only its batch's episode
            # indices (seeds derive from the index, so recovery is bit-exact).
            batches = pool.run(run_actor_batch, tasks, labels=labels)
            for rollout in (r for batch in batches for r in batch):
                for transition in unpack_transitions(rollout.transitions):
                    agent.observe(transition)
                agent.end_episode()
                result.episode_returns.append(rollout.episode_return)
                result.episode_mean_latency.append(rollout.mean_latency)
                result.episode_mean_energy_per_flit.append(rollout.mean_energy)
            episode = round_end
            round_index += 1
    record_training_timing(result, episodes - start_episode, time.perf_counter() - start)
    return result
