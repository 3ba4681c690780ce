"""Deterministic chaos harness for the supervised execution layer.

Fault-tolerance code is only trustworthy if its failure paths are exercised
deterministically — "kill a worker and see what happens" must be a unit
test, not an outage.  A :class:`ChaosPolicy` is a seeded, spec-addressed
fault script: *kill the worker running trial k's attempt 0*, *raise inside
trial m*, *stall trial n past its timeout*.  It is plain data, so the
parent process evaluates it (no pickling of policies into workers) and
ships the resolved action with the trial; the worker-side executor
(:func:`execute_chaos_action`) then dies, raises or stalls exactly where
the script says.

Because every trial in this repository derives all randomness from its own
spec (the :mod:`repro.exp.runner` determinism contract), a retried trial
is bit-identical to a first-try trial — which is what lets the tests (and
CI's chaos smoke job) assert that a chaos-ridden run produces **byte-for-
byte** the same artifact as a clean run.

Addressing: rules match a trial by its integer dispatch index or by a
substring of its label (the pool labels suite subtrials
``<unit-name>[<index>]``), plus the zero-based attempt number.  On top of
scripted rules, ``kill_rate``/``raise_rate`` inject *seeded* random faults
— but only on attempt 0, so a random storm can slow a run down yet never
exhaust a trial's retry budget (chaos must perturb scheduling, never
outcomes).

The CLI exposes this as a hidden ``--chaos`` knob on ``suite run`` (see
:func:`parse_chaos_spec` for the compact syntax); it exists for tests and
CI only.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field

#: The fault kinds a rule may script.
CHAOS_ACTIONS = ("kill", "raise", "stall")

#: Default stall duration (seconds) — long enough to trip any sane timeout.
DEFAULT_STALL_S = 30.0


class ChaosError(RuntimeError):
    """The injected failure: what a chaos ``raise`` (or in-process ``kill``
    / post-``stall``) surfaces to the supervised pool's retry machinery."""


@dataclass(frozen=True)
class ChaosRule:
    """One scripted fault: do ``action`` on ``trial``'s ``attempt``.

    ``trial`` is either the trial's integer dispatch index or a substring
    matched against its label.  ``attempt`` is zero-based (0 = first try).
    ``stall_s`` only matters for ``action="stall"``.
    """

    action: str
    trial: int | str
    attempt: int = 0
    stall_s: float = DEFAULT_STALL_S

    def __post_init__(self) -> None:
        if self.action not in CHAOS_ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; known: {', '.join(CHAOS_ACTIONS)}"
            )
        if self.attempt < 0:
            raise ValueError("chaos attempts are zero-based and non-negative")
        if self.stall_s <= 0:
            raise ValueError("stall_s must be positive")

    def matches(self, index: int, label: str, attempt: int) -> bool:
        if attempt != self.attempt:
            return False
        if isinstance(self.trial, bool):  # bool is an int subclass; reject it
            return False
        if isinstance(self.trial, int):
            return index == self.trial
        return self.trial in (label or "")


@dataclass(frozen=True)
class ChaosPolicy:
    """A deterministic fault script for one supervised pool run.

    ``rules`` fire first (first match wins).  ``kill_rate`` / ``raise_rate``
    then inject seeded random faults on **attempt 0 only** — the derived
    hash stream depends only on ``(seed, index, label)``, so the same
    policy over the same trials always injects the same faults, and every
    faulted trial still has its full retry budget left.
    """

    rules: tuple[ChaosRule, ...] = ()
    seed: int = 0
    kill_rate: float = 0.0
    raise_rate: float = 0.0
    stall_s: float = field(default=DEFAULT_STALL_S)

    def __post_init__(self) -> None:
        for rate in (self.kill_rate, self.raise_rate):
            if not 0.0 <= rate <= 1.0:
                raise ValueError("chaos rates must be in [0, 1]")
        if self.stall_s <= 0:
            raise ValueError("stall_s must be positive")

    def _roll(self, index: int, label: str, salt: str) -> float:
        digest = hashlib.sha256(
            f"{self.seed}:{salt}:{index}:{label}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def action_for(
        self, index: int, label: str, attempt: int
    ) -> tuple[str, float] | None:
        """The fault to inject for this (trial, attempt), or ``None``.

        Returns ``(action, stall_s)`` — the pool ships this plain pair into
        the worker, where :func:`execute_chaos_action` runs it.
        """
        for rule in self.rules:
            if rule.matches(index, label, attempt):
                return (rule.action, rule.stall_s)
        if attempt == 0:
            if self.kill_rate and self._roll(index, label, "kill") < self.kill_rate:
                return ("kill", self.stall_s)
            if self.raise_rate and self._roll(index, label, "raise") < self.raise_rate:
                return ("raise", self.stall_s)
        return None

    def __bool__(self) -> bool:
        return bool(self.rules or self.kill_rate or self.raise_rate)


def execute_chaos_action(action: tuple[str, float], *, allow_kill: bool) -> None:
    """Run one resolved chaos action at the top of a worker invocation.

    ``kill`` hard-exits the process (``os._exit``) so the executor sees a
    lost worker — but only when ``allow_kill`` says we really are in a
    disposable pool worker; in-process (serial) execution degrades it to a
    raised :class:`ChaosError` rather than killing the test runner.
    ``stall`` sleeps past the pool's timeout and *then* raises, so even an
    unsupervised run treats the stalled attempt as failed rather than
    silently succeeding late.
    """
    kind, stall_s = action
    if kind == "kill":
        if allow_kill:
            os._exit(87)
        raise ChaosError("chaos kill (in-process run: raising instead of exiting)")
    if kind == "raise":
        raise ChaosError("chaos raise")
    if kind == "stall":
        time.sleep(stall_s)
        raise ChaosError(f"chaos stall ({stall_s}s elapsed without a timeout)")
    raise ValueError(f"unknown chaos action {kind!r}")


def parse_chaos_spec(text: str) -> ChaosPolicy:
    """Parse the compact ``--chaos`` syntax into a :class:`ChaosPolicy`.

    Comma-separated entries; each is either a scripted fault
    ``ACTION:TRIAL[@ATTEMPT][:STALL_S]`` (``TRIAL`` is an integer dispatch
    index, or any other string matched as a label substring) or a policy
    knob ``seed=N`` / ``kill_rate=F`` / ``raise_rate=F`` / ``stall=SECONDS``
    (the default stall for later entries and for random faults)::

        kill:0@0,stall:2@0:60        # kill trial 0's first try; stall trial 2 for 60s
        raise:phased/drl@1           # raise inside the phased/drl unit's retry
        seed=7,kill_rate=0.2         # seeded random kills on first attempts
    """
    rules: list[ChaosRule] = []
    seed = 0
    kill_rate = 0.0
    raise_rate = 0.0
    stall_s = DEFAULT_STALL_S
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        if "=" in entry and ":" not in entry:
            key, _, value = entry.partition("=")
            key = key.strip()
            if key == "seed":
                seed = int(value)
            elif key == "kill_rate":
                kill_rate = float(value)
            elif key == "raise_rate":
                raise_rate = float(value)
            elif key == "stall":
                stall_s = float(value)
            else:
                raise ValueError(f"unknown chaos knob {key!r} in {entry!r}")
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad chaos entry {entry!r}; expected ACTION:TRIAL[@ATTEMPT][:STALL_S]"
            )
        action = parts[0].strip()
        address = parts[1].strip()
        entry_stall = float(parts[2]) if len(parts) == 3 else stall_s
        attempt = 0
        if "@" in address:
            address, _, attempt_text = address.rpartition("@")
            attempt = int(attempt_text)
        trial: int | str = int(address) if address.lstrip("-").isdigit() else address
        rules.append(
            ChaosRule(action=action, trial=trial, attempt=attempt, stall_s=entry_stall)
        )
    return ChaosPolicy(
        rules=tuple(rules),
        seed=seed,
        kill_rate=kill_rate,
        raise_rate=raise_rate,
        stall_s=stall_s,
    )
