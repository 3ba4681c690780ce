"""Supervised process pool for embarrassingly-parallel experiments.

Every sweep point, scenario trial and benchmark figure in this repository is
an independent simulation, so fan-out is trivial *provided* trials and their
results cross process boundaries cleanly.  :class:`SupervisedTrialPool` is
the one pool: it takes a picklable module-level worker plus a list of
picklable trial specs, runs them on a ``ProcessPoolExecutor`` (results
returned in submission order) and degrades to a plain in-process loop for
``jobs=1`` — which is also the reference behaviour the parallel path must
match bit for bit.  It has two clients: :func:`repro.exp.suites.run_suite`
(every suite, and the CLI's ``sweep`` and ``scenarios run``, which run as
ad-hoc suites) and the sharded DQN trainer.

Determinism contract: workers must derive all randomness from their trial
spec (every spec carries an explicit seed; :func:`trial_seed` derives
well-spread per-trial seeds from a base seed), so ``jobs=1`` and ``jobs=N``
produce identical result sequences.  That contract is also what makes the
fault-tolerance layer safe: a retried trial is bit-identical to a first-try
trial, so crash recovery never perturbs an outcome.

Supervision (:class:`SupervisedTrialPool`): instead of one bare
``pool.map``, every trial is its own future carrying a configurable
timeout; a failed attempt is retried with exponential backoff up to
``max_retries`` times; a lost worker (``BrokenProcessPool`` — OOM kill,
segfault, SIGKILL) rebuilds the executor and re-dispatches only the
unfinished trials; a stalled trial past its timeout gets its worker
terminated and the pool rebuilt; and a *poison* trial that fails every
attempt is quarantined into a structured :class:`TrialFailure` — reported
via :class:`TrialExecutionError` after every sibling has settled — instead
of aborting the whole run.  If the pool keeps dying past
``max_rebuilds``, the remaining trials degrade gracefully to the
in-process serial path.  A deterministic fault script
(:class:`repro.exp.chaos.ChaosPolicy`) can be injected to exercise all of
these paths byte-reproducibly in tests.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from repro.exp.chaos import ChaosPolicy, execute_chaos_action
from repro.exp.execution import SupervisionPolicy

__all__ = [
    "SupervisedTrialPool",
    "TrialExecutionError",
    "TrialFailure",
    "trial_seed",
]

TrialT = TypeVar("TrialT")
ResultT = TypeVar("ResultT")


def trial_seed(base_seed: int, index: int) -> int:
    """A stable, well-spread per-trial seed derived from ``base_seed``."""
    if index < 0:
        raise ValueError("trial indices must be non-negative")
    return (base_seed * 1_000_003 + index * 7_919) % 2**31


# ---------------------------------------------------------------------------
# supervision: policies, failures, the chaos-aware call wrapper
# ---------------------------------------------------------------------------


#: Failure kinds a :class:`TrialFailure` reports.
FAILURE_KINDS = ("exception", "timeout", "worker-lost")


@dataclass(frozen=True)
class TrialFailure:
    """One quarantined trial: every attempt failed; siblings kept running."""

    index: int
    label: str
    attempts: int
    kind: str
    error: str

    def describe(self) -> str:
        return (
            f"{self.label} (trial {self.index}): {self.kind} after "
            f"{self.attempts} attempt(s): {self.error}"
        )


class TrialExecutionError(RuntimeError):
    """Raised after a supervised run settles with quarantined trials.

    Carries the structured :class:`TrialFailure` list plus every sibling's
    completed result (``None`` in the failed slots), so callers — and the
    suite journal — keep all the work that *did* finish.
    """

    def __init__(self, failures: Sequence[TrialFailure], results: Sequence) -> None:
        self.failures = tuple(failures)
        self.results = list(results)
        super().__init__(
            f"{len(self.failures)} trial(s) failed every attempt: "
            + "; ".join(failure.describe() for failure in self.failures)
        )


def _call_with_chaos(worker, trial, chaos_action, in_pool: bool):
    """Run one attempt, executing a scripted chaos fault first (module-level
    so it pickles into pool workers alongside the worker itself)."""
    if chaos_action is not None:
        execute_chaos_action(chaos_action, allow_kill=in_pool)
    return worker(trial)


class SupervisedTrialPool:
    """A reusable process pool whose every fan-out path is crash-safe.

    A pool keeps its worker processes alive across ``run`` calls, which
    matters for callers that fan out many small rounds — the sharded DQN
    trainer dispatches one actor round per policy sync and would otherwise
    pay pool startup on every round.  ``jobs=1`` degrades to a
    plain in-process loop and spawns nothing.  Use as a context manager (or
    call :meth:`close`) to release the workers.

    Results come back in trial order and, on the happy path (no faults,
    ``jobs=1`` or N), are bit-identical to a serial loop — but each trial is
    an individually supervised future:

    * an attempt that raises is retried with exponential backoff, up to
      ``policy.max_retries`` retries;
    * an attempt that outlives ``policy.timeout_s`` gets its (stuck) worker
      terminated, the executor rebuilt, and the trial retried;
    * a lost worker (``BrokenProcessPool``) rebuilds the executor and
      re-dispatches only the unfinished trials — completed results are
      never recomputed;
    * a trial that fails every attempt is quarantined into a structured
      :class:`TrialFailure`; siblings keep running and the failures surface
      together in a :class:`TrialExecutionError` once the run settles;
    * a pool that keeps dying past ``policy.max_rebuilds`` degrades the
      remaining trials to the in-process serial path.

    ``chaos`` injects a deterministic fault script
    (:class:`repro.exp.chaos.ChaosPolicy`) for tests; chaos actions execute
    inside workers on the pool path and degrade kills to raises in-process.

    After each ``run``, :attr:`last_attempts` holds the attempt count per
    trial (0 = never dispatched, 1 = first-try success) and
    :attr:`rebuilds` the cumulative executor rebuilds — the telemetry
    surface the suite engine's ``attempts``/``retries`` row fields use.
    """

    def __init__(
        self,
        jobs: int,
        *,
        policy: SupervisionPolicy | None = None,
        chaos: ChaosPolicy | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self._pool: ProcessPoolExecutor | None = None
        self.policy = policy or SupervisionPolicy()
        self.chaos = chaos if chaos else None
        self.last_attempts: list[int] = []
        self.rebuilds = 0
        self._serial_fallback = False

    def __enter__(self) -> "SupervisedTrialPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            # cancel_futures: an exception mid-suite must not block close()
            # on queued trials draining through the doomed pool.
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    # -- worker-side call construction --------------------------------------

    def _chaos_action(self, index: int, label: str, attempt: int):
        if self.chaos is None:
            return None
        return self.chaos.action_for(index, label, attempt)

    # -- pool lifecycle ------------------------------------------------------

    def _terminate_pool(self) -> None:
        """Hard-stop the executor: cancel queued work, kill live workers.

        ``shutdown`` alone never terminates a *running* worker, so a stalled
        or poisoned process would keep the pool (and ``close``) hostage;
        terminating the worker processes is the only way to reclaim them.
        """
        if self._pool is None:
            return
        processes = list(getattr(self._pool, "_processes", {}).values())
        self._pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5)
        self._pool = None

    def _note_rebuild(self) -> None:
        self.rebuilds += 1
        if self.rebuilds > self.policy.max_rebuilds:
            # The pool is irrecoverable (rebuilds keep dying); finish the
            # remaining trials in-process rather than looping forever.
            self._serial_fallback = True

    # -- serial (in-process) attempts ----------------------------------------

    def _run_serial_trial(
        self,
        worker,
        trial,
        index: int,
        label: str,
        attempts: list[int],
        failures: list[TrialFailure],
    ):
        """All attempts of one trial, in-process.  Returns (ok, result)."""
        while True:
            attempt = attempts[index]
            attempts[index] += 1
            action = self._chaos_action(index, label, attempt)
            try:
                return True, _call_with_chaos(worker, trial, action, in_pool=False)
            except Exception as error:
                if attempts[index] > self.policy.max_retries:
                    failures.append(
                        TrialFailure(
                            index=index,
                            label=label,
                            attempts=attempts[index],
                            kind="exception",
                            error=repr(error),
                        )
                    )
                    return False, None
                time.sleep(self.policy.backoff_for(attempts[index]))

    # -- the supervised run ---------------------------------------------------

    def run(
        self,
        worker: Callable[[TrialT], ResultT],
        trials: Iterable[TrialT],
        *,
        labels: Sequence[str] | None = None,
        on_result: Callable[[int, ResultT, int], None] | None = None,
        on_failure: str = "raise",
    ) -> list[ResultT]:
        """Run ``worker`` over ``trials`` under supervision, in trial order.

        Supervision is per-trial, so every trial is its own future.
        ``labels`` names trials for failure reports and chaos addressing
        (default ``trial[<index>]``).  ``on_result(index, result, attempts)``
        fires parent-side as each trial's result lands (completion order,
        not trial order) — the suite journal's hook.  ``on_failure`` is
        ``"raise"`` (default: raise :class:`TrialExecutionError` after all
        siblings settle) or ``"return"`` (leave the :class:`TrialFailure`
        in the failed trial's result slot).
        """
        if on_failure not in ("raise", "return"):
            raise ValueError("on_failure must be 'raise' or 'return'")
        trial_list = list(trials)
        trial_labels = (
            [str(label) for label in labels]
            if labels is not None
            else [f"trial[{index}]" for index in range(len(trial_list))]
        )
        if len(trial_labels) != len(trial_list):
            raise ValueError("labels must match trials one to one")

        results: list = [None] * len(trial_list)
        attempts = [0] * len(trial_list)
        failures: list[TrialFailure] = []

        if (self.jobs == 1 or len(trial_list) <= 1) and not self._serial_fallback:
            if self.chaos is None:
                # The reference path: plain in-process loop — exceptions
                # propagate raw, no retry wrapping (an in-process attempt
                # cannot crash the host).
                for index, trial in enumerate(trial_list):
                    attempts[index] = 1
                    results[index] = worker(trial)
                    if on_result is not None:
                        on_result(index, results[index], 1)
            else:
                self._drain_serial(
                    worker, trial_list, trial_labels, range(len(trial_list)),
                    results, attempts, failures, on_result,
                )
        elif self._serial_fallback:
            self._drain_serial(
                worker, trial_list, trial_labels, range(len(trial_list)),
                results, attempts, failures, on_result,
            )
        else:
            try:
                self._run_pool(
                    worker, trial_list, trial_labels, results, attempts,
                    failures, on_result,
                )
            except BaseException:
                # KeyboardInterrupt (or any escape) must not leave live
                # workers grinding through cancelled trials.
                self._terminate_pool()
                raise

        self.last_attempts = attempts
        if failures:
            if on_failure == "raise":
                raise TrialExecutionError(failures, results)
            for failure in failures:
                results[failure.index] = failure
        return results

    def _drain_serial(
        self, worker, trial_list, trial_labels, indices, results, attempts,
        failures, on_result,
    ) -> None:
        for index in indices:
            ok, result = self._run_serial_trial(
                worker, trial_list[index], index, trial_labels[index], attempts, failures
            )
            if ok:
                results[index] = result
                if on_result is not None:
                    on_result(index, result, attempts[index])

    def _quarantine(
        self, index, label, attempts, kind, error, failures, pending
    ) -> None:
        """One failed attempt: requeue with backoff, or quarantine."""
        if attempts[index] > self.policy.max_retries:
            failures.append(
                TrialFailure(
                    index=index,
                    label=label,
                    attempts=attempts[index],
                    kind=kind,
                    error=repr(error),
                )
            )
        else:
            pending[index] = time.monotonic() + self.policy.backoff_for(attempts[index])

    def _run_pool(
        self, worker, trial_list, trial_labels, results, attempts, failures,
        on_result,
    ) -> None:
        policy = self.policy
        #: trial index -> monotonic time at which it may be (re)submitted
        pending: dict[int, float] = {index: 0.0 for index in range(len(trial_list))}
        in_flight: dict[Future, int] = {}
        deadlines: dict[Future, float] = {}

        while pending or in_flight:
            if self._serial_fallback:
                # The executor is irrecoverable: abandon in-flight futures
                # (their workers are dead) and finish in-process.
                for future, index in in_flight.items():
                    pending.setdefault(index, 0.0)
                in_flight.clear()
                deadlines.clear()
                remaining = sorted(pending)
                pending.clear()
                self._drain_serial(
                    worker, trial_list, trial_labels, remaining,
                    results, attempts, failures, on_result,
                )
                return

            now = time.monotonic()
            submitted_any = False
            if pending:
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(max_workers=self.jobs)
                for index in sorted(pending):
                    if pending[index] > now:
                        continue
                    action = self._chaos_action(index, trial_labels[index], attempts[index])
                    attempts[index] += 1
                    try:
                        future = self._pool.submit(
                            _call_with_chaos, worker, trial_list[index], action, True
                        )
                    except BrokenProcessPool as error:
                        attempts[index] -= 1  # never dispatched
                        pending[index] = 0.0
                        self._handle_broken_pool(
                            in_flight, deadlines, trial_labels, attempts,
                            failures, pending, error,
                        )
                        break
                    del pending[index]
                    in_flight[future] = index
                    if policy.timeout_s is not None:
                        deadlines[future] = time.monotonic() + policy.timeout_s
                    submitted_any = True

            if not in_flight:
                if pending:
                    # Everything is backing off; sleep until the first trial
                    # becomes eligible again.
                    wake = min(pending.values())
                    delay = wake - time.monotonic()
                    if delay > 0:
                        time.sleep(delay)
                    continue
                return

            wait_timeout = self._wait_timeout(pending, deadlines)
            done, _ = wait(
                set(in_flight), timeout=wait_timeout, return_when=FIRST_COMPLETED
            )

            broken: BrokenProcessPool | None = None
            for future in done:
                index = in_flight.pop(future)
                deadlines.pop(future, None)
                error = future.exception()
                if error is None:
                    results[index] = future.result()
                    if on_result is not None:
                        on_result(index, results[index], attempts[index])
                elif isinstance(error, BrokenProcessPool):
                    broken = error
                    self._quarantine(
                        index, trial_labels[index], attempts, "worker-lost",
                        error, failures, pending,
                    )
                else:
                    self._quarantine(
                        index, trial_labels[index], attempts, "exception",
                        error, failures, pending,
                    )

            # A future past its deadline means a stuck worker: the executor
            # API cannot preempt it, so terminate the pool and rebuild.
            now = time.monotonic()
            timed_out = [
                future
                for future, deadline in deadlines.items()
                if future in in_flight and deadline <= now and not future.done()
            ]
            for future in timed_out:
                index = in_flight.pop(future)
                deadlines.pop(future, None)
                self._quarantine(
                    index, trial_labels[index], attempts, "timeout",
                    TimeoutError(f"attempt exceeded {policy.timeout_s}s"),
                    failures, pending,
                )
            if timed_out:
                broken = broken or BrokenProcessPool("stalled worker terminated")

            if broken is not None:
                self._handle_broken_pool(
                    in_flight, deadlines, trial_labels, attempts, failures,
                    pending, broken,
                )
            elif not done and not timed_out and not submitted_any:
                # Spurious wake (rounding); avoid a hot spin.
                time.sleep(0.005)

    def _wait_timeout(self, pending, deadlines) -> float | None:
        now = time.monotonic()
        candidates = list(deadlines.values()) + list(pending.values())
        if not candidates:
            return None
        return max(min(candidates) - now, 0.01)

    def _handle_broken_pool(
        self, in_flight, deadlines, trial_labels, attempts, failures, pending, error
    ) -> None:
        """Tear down a broken/stalled executor and requeue unfinished trials.

        Futures that cancel cleanly were still queued — their attempt is
        refunded and they requeue immediately.  Futures already running
        when the pool died can't be told apart from the one that killed it,
        so each is charged a ``worker-lost`` attempt (bounded by
        ``max_retries``, which is what quarantines a true poison trial).
        """
        for future, index in list(in_flight.items()):
            deadlines.pop(future, None)
            if future.cancel() or future.cancelled():
                attempts[index] -= 1
                pending[index] = 0.0
            else:
                self._quarantine(
                    index, trial_labels[index], attempts, "worker-lost",
                    error, failures, pending,
                )
        in_flight.clear()
        self._terminate_pool()
        self._note_rebuild()
