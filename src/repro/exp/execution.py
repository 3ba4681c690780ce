"""The unified execution API: one frozen :class:`ExecutionConfig`.

:func:`repro.exp.suites.run_suite` and
:func:`repro.exp.training.train_dqn_sharded` take their execution knobs as
one ``config=`` value and nothing else:

* :class:`ExecutionConfig` — a frozen dataclass holding every *execution*
  knob (worker counts, engine, the supervision policy and an optional
  chaos script), e.g. ``run_suite(spec, config=...)``.
* :class:`SupervisionPolicy` — the fault-tolerance knobs, nested in the
  config, so the config module depends only on plain data.

Environment-bound arguments deliberately stay *out* of the config: an open
telemetry sink or an output directory describe where a run happens, not
what it computes.

Determinism: most config fields only reorder wall clock (``jobs``,
supervision, chaos), but ``train_jobs`` participates in the sharded
trainer's RNG contract and ``engine`` is stamped into every subtrial.  Both therefore reach every stored subtrial's content key (the
engine as a param, ``train_jobs`` through the deployed weights), so the
store under ``--out`` never serves a result computed under another value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exp.chaos import ChaosPolicy


@dataclass(frozen=True)
class SupervisionPolicy:
    """The fault-tolerance knobs of a supervised execution.

    ``timeout_s`` bounds one attempt's wall clock (``None`` = no limit;
    only enforceable on the pool path — an in-process attempt cannot be
    preempted).
    ``max_retries`` bounds *re*-tries, so a trial gets ``max_retries + 1``
    attempts before quarantine.  Backoff between a trial's attempts grows
    ``backoff_s * backoff_factor ** (attempt - 1)`` — deterministic, no
    jitter, so chaos tests replay exactly.  ``max_rebuilds`` bounds
    executor rebuilds (broken pools, stalled workers) before the pool gives
    up on processes entirely and finishes the run in-process.
    """

    timeout_s: float | None = None
    max_retries: int = 2
    backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_rebuilds: int = 3

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None for no limit)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_s < 0 or self.backoff_factor < 1.0:
            raise ValueError("backoff must be non-negative and non-shrinking")
        if self.max_rebuilds < 0:
            raise ValueError("max_rebuilds must be non-negative")

    def backoff_for(self, attempt: int) -> float:
        """Seconds to wait before re-running a trial that failed ``attempt``."""
        return self.backoff_s * self.backoff_factor ** max(attempt - 1, 0)


#: The engine a config with ``engine=None`` resolves to.
DEFAULT_ENGINE = "cycle"


@dataclass(frozen=True)
class ExecutionConfig:
    """Every execution knob of a run, as one frozen value.

    * ``jobs`` — worker processes for subtrials/scenario trials (1 = the
      bit-identical in-process reference path).
    * ``train_jobs`` — actor processes for sharded DQN training.  Part of
      the RNG contract: training outcomes depend on it for ``>= 2``.
    * ``engine`` — execution engine for every simulation (``None`` = keep
      each spec's own engine, defaulting to ``cycle``).
    * ``supervision`` — the :class:`SupervisionPolicy` fault budget.
    * ``chaos`` — optional deterministic fault script (tests/CI only).

    The config is valid as constructed (``__post_init__`` validates), hashes
    and compares by value, and pickles (the pool ships it that way).
    """

    jobs: int = 1
    train_jobs: int = 1
    engine: str | None = None
    supervision: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    chaos: ChaosPolicy | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.train_jobs < 1:
            raise ValueError("train_jobs must be at least 1")

    # -- derived views --------------------------------------------------------

    def resolved_engine(self, default: str = DEFAULT_ENGINE) -> str:
        """The engine this config runs on (``None`` resolves to ``default``)."""
        return self.engine or default
