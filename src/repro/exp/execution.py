"""The unified execution API: one frozen, wire-ready :class:`ExecutionConfig`.

By PR 7 the execution layer had sprawled: :func:`repro.exp.suites.run_suite`
alone took 13 keyword knobs (``jobs``, ``train_jobs``, ``timeout_s``,
``retries``, ``chaos``, …) and :func:`repro.exp.runner.run_scenarios` /
:func:`repro.exp.training.train_dqn_sharded` each grew their own overlapping
subset.  None of that could ship over a socket, which blocked the ROADMAP's
distributed suite service.  This module is the consolidation:

* :class:`ExecutionConfig` — a frozen dataclass holding every *execution*
  knob (worker counts, engine, perf sampling, eval memoization, the
  supervision policy and an optional chaos script).  It is simultaneously
  the local API (``run_suite(spec, config=...)``) and the wire payload (the
  broker/worker lease protocol of :mod:`repro.exp.service` ships it as
  JSON via :meth:`ExecutionConfig.to_json`).
* :class:`SupervisionPolicy` — the fault-tolerance knobs (moved here from
  :mod:`repro.exp.runner`, which re-exports it), so the config module
  depends only on plain data.
* :func:`coalesce_execution_config` — the deprecation shim that lets every
  pre-existing keyword call site keep working: legacy knobs build a config
  and emit a :class:`DeprecationWarning`.

Environment-bound arguments deliberately stay *out* of the config: an open
telemetry sink, an output directory or a resume flag describe where a run
happens, not what it computes, and none of them can cross a socket.  The
split is exactly what makes the config a safe lease payload.

Determinism: most config fields only reorder wall clock (``jobs``,
``reuse_evals``, supervision, chaos — the PR 7 contract), but
``train_jobs`` participates in the sharded trainer's RNG contract,
``engine`` is stamped into every subtrial and ``perf_repeats`` changes the
expanded subtrial set.  :meth:`ExecutionConfig.fingerprint` hashes exactly
that outcome-affecting half — it is what the suite journal header records
so ``suite run --resume`` can refuse a journal written under a different
revision.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Mapping

from repro.exp.chaos import ChaosPolicy


@dataclass(frozen=True)
class SupervisionPolicy:
    """The fault-tolerance knobs of a supervised execution.

    ``timeout_s`` bounds one attempt's wall clock (``None`` = no limit;
    only enforceable on the pool path — an in-process attempt cannot be
    preempted; the distributed service reuses it as the lease deadline).
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

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "SupervisionPolicy":
        return cls(**dict(payload))


#: The engine a config with ``engine=None`` resolves to.
DEFAULT_ENGINE = "cycle"


@dataclass(frozen=True)
class ExecutionConfig:
    """Every execution knob of a run, as one frozen, serializable value.

    * ``jobs`` — worker processes for subtrials/scenario trials (1 = the
      bit-identical in-process reference path).
    * ``train_jobs`` — actor processes for sharded DQN training.  Part of
      the RNG contract: training outcomes depend on it for ``>= 2``.
    * ``engine`` — execution engine for every simulation (``None`` = keep
      each spec's own engine, defaulting to ``cycle``).
    * ``perf_repeats`` — wall-clock samples per subtrial; best kept.
    * ``reuse_evals`` — memoize completed eval subtrials process-wide.
    * ``supervision`` — the :class:`SupervisionPolicy` fault budget; the
      distributed service reuses ``timeout_s`` as its lease deadline and
      ``max_retries`` as the lease re-queue budget.
    * ``chaos`` — optional deterministic fault script (tests/CI only).

    The config is valid as constructed (``__post_init__`` validates), hashes
    and compares by value, round-trips through JSON
    (:meth:`to_json`/:meth:`from_json`) bit-for-bit, and pickles — the
    JSON path is what the service's wire protocol ships.
    """

    jobs: int = 1
    train_jobs: int = 1
    engine: str | None = None
    perf_repeats: int = 1
    reuse_evals: bool = False
    supervision: SupervisionPolicy = field(default_factory=SupervisionPolicy)
    chaos: ChaosPolicy | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.train_jobs < 1:
            raise ValueError("train_jobs must be at least 1")
        if self.perf_repeats < 1:
            raise ValueError("perf_repeats must be at least 1")

    # -- derived views --------------------------------------------------------

    def resolved_engine(self, default: str = DEFAULT_ENGINE) -> str:
        """The engine this config runs on (``None`` resolves to ``default``)."""
        return self.engine or default

    def fingerprint(self) -> str:
        """Hash of the *outcome-affecting* half of the config.

        Two runs whose fingerprints match produce byte-identical suite
        payloads (the determinism contract): ``jobs``, ``reuse_evals``,
        supervision and chaos only reorder wall clock, so they are
        excluded; ``train_jobs`` (the sharded trainer's RNG contract),
        ``engine`` (stamped into every subtrial/perf record) and
        ``perf_repeats`` (changes the expanded subtrial set) are what the
        journal header records and ``--resume`` refuses to mix.
        """
        blob = json.dumps(
            {
                "train_jobs": self.train_jobs,
                "engine": self.resolved_engine(),
                "perf_repeats": self.perf_repeats,
            },
            sort_keys=True,
        )
        return hashlib.sha1(blob.encode()).hexdigest()

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "train_jobs": self.train_jobs,
            "engine": self.engine,
            "perf_repeats": self.perf_repeats,
            "reuse_evals": self.reuse_evals,
            "supervision": self.supervision.to_dict(),
            "chaos": self.chaos.to_dict() if self.chaos is not None else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExecutionConfig":
        """Rebuild a config; an unknown key (a field this version no longer
        has, say) is a ``ValueError`` naming it, not a bare ``TypeError``."""
        payload = dict(payload)
        unknown = sorted(set(payload) - {item.name for item in fields(cls)})
        if unknown:
            raise ValueError(
                f"unknown ExecutionConfig field(s): {', '.join(unknown)}"
            )
        supervision = payload.get("supervision")
        if isinstance(supervision, Mapping):
            payload["supervision"] = SupervisionPolicy.from_dict(supervision)
        chaos = payload.get("chaos")
        if isinstance(chaos, Mapping):
            payload["chaos"] = ChaosPolicy.from_dict(chaos)
        return cls(**payload)

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, payload: str) -> "ExecutionConfig":
        return cls.from_dict(json.loads(payload))


#: Legacy keyword -> how it folds into the config.  ``timeout_s`` and
#: ``retries`` land inside the nested supervision policy; everything else
#: maps onto the config field of (almost) the same name.
_LEGACY_FIELD_KNOBS = {
    "jobs": "jobs",
    "train_jobs": "train_jobs",
    "engine": "engine",
    "perf_repeats": "perf_repeats",
    "reuse_evals": "reuse_evals",
    "chaos": "chaos",
    "supervision": "supervision",
    "policy": "supervision",
}


def coalesce_execution_config(
    config: ExecutionConfig | None,
    *,
    caller: str,
    timeout_s: float | None = None,
    retries: int | None = None,
    **legacy,
) -> ExecutionConfig:
    """Fold pre-``ExecutionConfig`` keyword knobs into one config.

    The deprecation shim behind :func:`repro.exp.suites.run_suite`,
    :func:`repro.exp.runner.run_scenarios` and
    :func:`repro.exp.training.train_dqn_sharded`: any legacy knob that is
    not ``None`` overrides the corresponding field of ``config`` (or of a
    default config) and emits one :class:`DeprecationWarning` naming every
    legacy knob used.  Passing only ``config`` — the migrated call shape —
    warns about nothing.
    """
    used = sorted(
        {name for name, value in legacy.items() if value is not None}
        | ({"timeout_s"} if timeout_s is not None else set())
        | ({"retries"} if retries is not None else set())
    )
    if not used:
        return config or ExecutionConfig()
    unknown = [name for name in legacy if name not in _LEGACY_FIELD_KNOBS]
    if unknown:
        raise TypeError(f"{caller}() got unexpected keyword(s): {', '.join(unknown)}")
    warnings.warn(
        f"{caller}({', '.join(used)}=...) is deprecated; build an "
        "ExecutionConfig and pass config=... instead",
        DeprecationWarning,
        stacklevel=3,
    )
    config = config or ExecutionConfig()
    overrides = {
        _LEGACY_FIELD_KNOBS[name]: value
        for name, value in legacy.items()
        if value is not None
    }
    config = replace(config, **overrides)
    if timeout_s is not None or retries is not None:
        supervision = replace(
            config.supervision,
            **(
                ({"timeout_s": timeout_s} if timeout_s is not None else {})
                | ({"max_retries": retries} if retries is not None else {})
            ),
        )
        config = replace(config, supervision=supervision)
    return config
