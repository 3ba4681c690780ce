"""The distributed suite service: a broker leasing subtrials to a worker fleet.

This is the ROADMAP's "from process pool to worker fleet" layer.  Subtrials,
specs and results have been plain picklable/JSON data since PR 1/PR 4, and
PR 7 gave every subtrial a content-hash key and a journal; the only missing
piece was the wire.  The design keeps the **determinism contract** — results
depend only on the spec (plus ``train_jobs``), never on scheduling — so a
fleet run's artefact is byte-identical to the in-process reference and
``suite diff`` between the two exits 0, even when workers die mid-suite.

Roles (all over the :mod:`repro.exp.wire` length-prefixed JSON protocol):

* :class:`SuiteBroker` (``repro-noc serve``) — accepts worker and client
  connections.  A client ``submit`` carries a :class:`SuiteSpec` plus an
  :class:`~repro.exp.execution.ExecutionConfig`; the broker then runs the
  *ordinary* :func:`repro.exp.suites.run_suite` — shared training, journal,
  eval memo, payload assembly all included — with one substitution: the
  local :class:`~repro.exp.runner.SupervisedTrialPool` is swapped for a
  :class:`FleetDispatcher` that leases subtrials to connected workers.
* :class:`ServiceWorker` (``repro-noc worker --connect``) — a pull loop:
  ``ready`` → lease → execute :func:`repro.exp.suites.run_suite_subtrial`
  → ``result`` → repeat, heartbeating mid-subtrial so long evals keep
  their lease.
* :func:`submit_suite` (``repro-noc suite run --workers tcp://…``) — the
  thin client: ship spec+config, stream back telemetry rows, receive the
  final outcome, write the artefact exactly as a local run would.

Fault tolerance mirrors the supervised pool, with the same budget
arithmetic (:class:`LeaseBook`, socket-free and unit-testable): granting a
lease charges an attempt; a worker death, scripted chaos ``kill``, missed
heartbeat or expired deadline re-queues the subtrial for any other worker
(work-stealing); a subtrial that fails every attempt is quarantined into
the same :class:`~repro.exp.runner.TrialExecutionError` the pool raises.
Completions are first-wins: a straggler's late result for a re-queued lease
is discarded — by determinism it would have been byte-identical anyway.

Results stream into the regular ``<suite>.journal.jsonl`` via ``run_suite``
itself, so a broker restart resumes byte-for-byte with ``resume=True`` —
the journal header (spec hash + config fingerprint) refuses journals from
a different suite revision.
"""

from __future__ import annotations

import logging
import os
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from repro.exp.chaos import ChaosPolicy
from repro.exp.execution import ExecutionConfig
from repro.exp.runner import TrialExecutionError, TrialFailure
from repro.exp.wire import (
    ConnectionClosed,
    WireError,
    recv_frame,
    send_frame,
)

logger = logging.getLogger("repro.exp.service")

#: Default lease deadline when the submitted config sets no ``timeout_s``.
DEFAULT_LEASE_TIMEOUT_S = 30.0

#: How long a broker-side ``ready`` poll blocks waiting for work before
#: telling the worker to re-ask.
IDLE_POLL_S = 1.0


class ServiceError(RuntimeError):
    """A broker-reported failure that is not a quarantine (busy, protocol)."""


def parse_workers_url(text: str) -> tuple[str, int]:
    """``tcp://HOST:PORT`` (or bare ``HOST:PORT``) → ``(host, port)``."""
    rest = text
    if "://" in text:
        scheme, _, rest = text.partition("://")
        if scheme != "tcp":
            raise ValueError(f"unsupported scheme {scheme!r}; only tcp:// works")
    host, sep, port = rest.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ValueError(f"bad worker address {text!r}; expected tcp://HOST:PORT")
    return host, int(port)


# ---------------------------------------------------------------------------
# lease accounting (socket-free: what the unit tests fake a silent worker on)
# ---------------------------------------------------------------------------


@dataclass
class Lease:
    """One granted subtrial: who is running what, until when."""

    lease_id: str
    index: int  # dispatch index into the job's subtrial list
    label: str
    #: A :class:`repro.exp.suites.Subtrial` (it unpacks as ``kind, params``,
    #: which is exactly the wire frame's ``[kind, params]`` shape).
    subtrial: object
    worker_id: str
    #: Zero-based attempt number (chaos rules address this).
    attempt: int
    deadline: float | None = None
    timeout_s: float | None = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


@dataclass
class _Slot:
    attempts: int = 0
    done: bool = False
    payload: dict | None = None
    failure: TrialFailure | None = None


class LeaseBook:
    """Lease/deadline/attempt accounting for one suite job, no sockets.

    The broker wraps every call in its own lock; the book itself is plain
    state, which is what makes lease expiry unit-testable with a fake
    clock and a silent (never-reporting) worker.  The attempt arithmetic
    mirrors :class:`~repro.exp.runner.SupervisedTrialPool`: granting a
    lease charges an attempt, and a subtrial whose failure count exceeds
    ``max_retries`` is quarantined instead of re-queued.
    """

    def __init__(
        self,
        subtrials,
        labels,
        *,
        timeout_s: float | None = DEFAULT_LEASE_TIMEOUT_S,
        max_retries: int = 2,
        clock=time.monotonic,
    ) -> None:
        self._subtrials = list(subtrials)
        self._labels = list(labels)
        self._timeout_s = timeout_s
        self._max_retries = max_retries
        self._clock = clock
        self._queue: deque[int] = deque(range(len(self._subtrials)))
        self._slots = [_Slot() for _ in self._subtrials]
        self._leases: dict[str, Lease] = {}
        self._granted = 0
        #: Dispatch index → {"worker_id", "lease_id"} of the winning lease.
        self.scheduling: dict[int, dict] = {}

    # -- granting ---------------------------------------------------------

    def grant(self, worker_id: str) -> Lease | None:
        """Lease the next queued subtrial to ``worker_id`` (None = no work)."""
        while self._queue:
            index = self._queue.popleft()
            slot = self._slots[index]
            if slot.done or slot.failure is not None:
                continue
            slot.attempts += 1
            self._granted += 1
            lease = Lease(
                lease_id=f"L{self._granted}",
                index=index,
                label=self._labels[index],
                subtrial=self._subtrials[index],
                worker_id=worker_id,
                attempt=slot.attempts - 1,
                deadline=(
                    self._clock() + self._timeout_s
                    if self._timeout_s is not None
                    else None
                ),
                timeout_s=self._timeout_s,
            )
            self._leases[lease.lease_id] = lease
            return lease
        return None

    def heartbeat(self, lease_id: str) -> bool:
        """Extend a live lease's deadline; False for stale/unknown leases."""
        lease = self._leases.get(lease_id)
        if lease is None:
            return False
        if lease.deadline is not None:
            lease.deadline = self._clock() + self._timeout_s
        return True

    # -- settling ---------------------------------------------------------

    def complete(self, lease_id: str, payload: dict) -> Lease | None:
        """Record a result (first-wins); None = the lease went stale."""
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return None  # expired and re-queued; the late result is discarded
        slot = self._slots[lease.index]
        if slot.done:
            return None
        slot.done = True
        slot.payload = payload
        self.scheduling[lease.index] = {
            "worker_id": lease.worker_id,
            "lease_id": lease.lease_id,
        }
        return lease

    def fail(self, lease_id: str, error: str, *, kind: str = "error") -> Lease | None:
        """Charge a failed attempt: re-queue, or quarantine past the budget."""
        lease = self._leases.pop(lease_id, None)
        if lease is None:
            return None
        self._requeue_or_quarantine(lease, error, kind)
        return lease

    def release_worker(self, worker_id: str) -> list[Lease]:
        """A worker connection died: fail every lease it still holds."""
        held = [
            lease
            for lease in self._leases.values()
            if lease.worker_id == worker_id
        ]
        for lease in held:
            del self._leases[lease.lease_id]
            self._requeue_or_quarantine(
                lease, f"worker {worker_id} disconnected", "lost-worker"
            )
        return held

    def expire(self, now: float | None = None) -> list[Lease]:
        """Re-queue every lease past its deadline (the work-stealing path)."""
        now = self._clock() if now is None else now
        expired = [lease for lease in self._leases.values() if lease.expired(now)]
        for lease in expired:
            del self._leases[lease.lease_id]
            self._requeue_or_quarantine(
                lease,
                f"lease {lease.lease_id} expired after {lease.timeout_s}s "
                f"without a heartbeat from {lease.worker_id}",
                "timeout",
            )
        return expired

    def _requeue_or_quarantine(self, lease: Lease, error: str, kind: str) -> None:
        slot = self._slots[lease.index]
        if slot.done:
            return
        if slot.attempts > self._max_retries:
            slot.failure = TrialFailure(
                index=lease.index,
                label=lease.label,
                attempts=slot.attempts,
                kind=kind,
                error=error,
            )
        else:
            self._queue.append(lease.index)

    # -- progress ---------------------------------------------------------

    def has_queued(self) -> bool:
        return any(
            not self._slots[index].done and self._slots[index].failure is None
            for index in self._queue
        )

    def settled(self) -> bool:
        """Every subtrial completed or quarantined, nothing queued/leased."""
        return not self._queue and not self._leases

    def outstanding_leases(self) -> list[Lease]:
        return list(self._leases.values())

    @property
    def results(self) -> list:
        return [slot.payload for slot in self._slots]

    @property
    def failures(self) -> list[TrialFailure]:
        return [slot.failure for slot in self._slots if slot.failure is not None]

    @property
    def attempts(self) -> list[int]:
        return [slot.attempts for slot in self._slots]


# ---------------------------------------------------------------------------
# the broker-side dispatcher run_suite plugs in instead of its local pool
# ---------------------------------------------------------------------------


class FleetDispatcher:
    """``SupervisedTrialPool.run``-shaped adapter over a broker's fleet.

    ``run_suite`` calls :meth:`run` exactly like the pool: same argument
    shape, same ``on_result`` journaling callback, same
    :class:`TrialExecutionError` on quarantine — which is why the broker
    can reuse the whole suite engine unchanged.  The subtrial callable is
    ignored: workers execute :func:`repro.exp.suites.run_suite_subtrial`
    themselves.
    """

    def __init__(self, broker: "SuiteBroker", *, tick_s: float = 0.05) -> None:
        self._broker = broker
        self._tick_s = tick_s
        #: Dispatch index → lease metadata, read by run_suite for telemetry.
        self.last_scheduling: dict[int, dict] = {}

    def run(self, fn, subtrials, *, labels=None, on_result=None):
        del fn  # workers run run_suite_subtrial themselves
        subtrials = list(subtrials)
        labels = list(labels) if labels else [str(i) for i in range(len(subtrials))]
        if not subtrials:
            return []
        book = self._broker._install_book(subtrials, labels)
        reported: set[int] = set()
        try:
            with self._broker._work:
                while not book.settled():
                    self._report(book, reported, on_result)
                    self._broker._work.wait(self._tick_s)
                    expired = book.expire()
                    for lease in expired:
                        logger.warning(
                            "lease %s (%s) expired; re-queued",
                            lease.lease_id,
                            lease.label,
                        )
                    if expired:
                        self._broker._work.notify_all()
                self._report(book, reported, on_result)
        finally:
            self._broker._clear_book()
        self.last_scheduling = dict(book.scheduling)
        failures = book.failures
        if failures:
            raise TrialExecutionError(failures, book.results)
        return book.results

    def _report(self, book: LeaseBook, reported: set[int], on_result) -> None:
        # Journal results in completion order, from the dispatcher thread
        # (the broker's worker threads only mutate the book).
        if on_result is None:
            return
        for index, payload in enumerate(book.results):
            if payload is not None and index not in reported:
                reported.add(index)
                on_result(index, payload, book.attempts[index])

    def close(self) -> None:  # symmetric with SupervisedTrialPool
        pass


# ---------------------------------------------------------------------------
# the broker
# ---------------------------------------------------------------------------


class SuiteBroker:
    """A TCP broker hosting one suite job at a time over a worker fleet.

    Accepts two kinds of connections: workers (``hello`` then a
    ``ready``/lease pull loop) and clients (``submit`` carrying a spec and
    an :class:`ExecutionConfig`).  The submitted job runs through the
    ordinary :func:`repro.exp.suites.run_suite` — journal (under
    ``out_dir``), shared training, telemetry — with subtrial dispatch
    swapped for lease-based work-stealing (:class:`FleetDispatcher`).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        out_dir: str | Path | None = None,
        config: ExecutionConfig | None = None,
        lease_timeout_s: float = DEFAULT_LEASE_TIMEOUT_S,
        once: bool = False,
    ) -> None:
        self.host = host
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.default_config = config or ExecutionConfig()
        self.lease_timeout_s = lease_timeout_s
        self.once = once
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._book: LeaseBook | None = None
        self._shutdown = False
        self._job_active = False
        self._worker_serial = 0
        self._listener = socket.create_server((host, port))
        self.port = self._listener.getsockname()[1]
        self._connections: set[socket.socket] = set()
        self._threads: list[threading.Thread] = []
        self._accept_thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        return f"tcp://{self.host}:{self.port}"

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SuiteBroker":
        if self._accept_thread is not None:  # idempotent: one accept loop
            return self
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="broker-accept", daemon=True
        )
        self._accept_thread.start()
        logger.info("broker listening on %s", self.address)
        return self

    def serve_forever(self) -> None:
        """Run until :meth:`close` (or, with ``once=True``, one job)."""
        if self._accept_thread is None:
            self.start()
        try:
            while True:
                with self._work:
                    if self._shutdown:
                        break
                    self._work.wait(0.2)
        finally:
            self.close()

    def close(self) -> None:
        with self._work:
            self._shutdown = True
            self._work.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in list(self._connections):
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "SuiteBroker":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- connection handling ----------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # listener closed
            self._connections.add(conn)
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            self._threads.append(thread)
            thread.start()

    def _handle_connection(self, conn: socket.socket) -> None:
        try:
            try:
                frame = recv_frame(conn)
            except ConnectionClosed:
                return
            except WireError as exc:
                # The structured reject: a malformed/oversized first frame
                # gets a typed error back instead of a dropped connection.
                self._safe_send(
                    conn,
                    {"type": "error", "kind": "protocol", "message": str(exc)},
                )
                return
            kind = frame.get("type")
            if kind == "hello" and frame.get("role") == "worker":
                self._worker_loop(conn, frame)
            elif kind == "submit":
                self._client_job(conn, frame)
            else:
                self._safe_send(
                    conn,
                    {
                        "type": "error",
                        "kind": "protocol",
                        "message": f"unexpected opening frame type {kind!r}",
                    },
                )
        finally:
            self._connections.discard(conn)
            try:
                conn.close()
            except OSError:
                pass

    def _safe_send(self, conn, message: dict) -> None:
        try:
            send_frame(conn, message)
        except OSError:
            pass

    # -- the worker side ---------------------------------------------------

    def _worker_loop(self, conn: socket.socket, hello: dict) -> None:
        with self._lock:
            self._worker_serial += 1
            serial = self._worker_serial
        worker_id = hello.get("worker_id") or f"worker-{serial}"
        logger.info("worker %s connected", worker_id)
        self._safe_send(conn, {"type": "welcome", "worker_id": worker_id})
        try:
            while True:
                try:
                    frame = recv_frame(conn)
                except (ConnectionClosed, OSError):
                    break
                kind = frame.get("type")
                if kind == "ready":
                    reply = self._next_lease_reply(worker_id)
                    self._safe_send(conn, reply)
                    if reply["type"] == "shutdown":
                        break
                elif kind == "heartbeat":
                    with self._work:
                        if self._book is not None:
                            self._book.heartbeat(frame.get("lease_id", ""))
                elif kind == "result":
                    with self._work:
                        if self._book is not None:
                            lease = self._book.complete(
                                frame.get("lease_id", ""), frame.get("payload")
                            )
                            if lease is None:
                                logger.info(
                                    "discarding stale result from %s", worker_id
                                )
                            self._work.notify_all()
                elif kind == "trial-error":
                    with self._work:
                        if self._book is not None:
                            self._book.fail(
                                frame.get("lease_id", ""),
                                str(frame.get("error", "worker error")),
                            )
                            self._work.notify_all()
                elif kind == "goodbye":
                    break
        finally:
            with self._work:
                if self._book is not None:
                    lost = self._book.release_worker(worker_id)
                    if lost:
                        logger.warning(
                            "worker %s died holding %d lease(s); re-queued",
                            worker_id,
                            len(lost),
                        )
                    self._work.notify_all()
            logger.info("worker %s disconnected", worker_id)

    def _next_lease_reply(self, worker_id: str) -> dict:
        deadline = time.monotonic() + IDLE_POLL_S
        with self._work:
            while True:
                if self._shutdown:
                    return {"type": "shutdown"}
                if self._book is not None:
                    lease = self._book.grant(worker_id)
                    if lease is not None:
                        return {
                            "type": "lease",
                            "lease_id": lease.lease_id,
                            "index": lease.index,
                            "label": lease.label,
                            "attempt": lease.attempt,
                            "timeout_s": lease.timeout_s,
                            "subtrial": lease.subtrial.to_wire(),
                        }
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return {"type": "idle", "delay_s": 0.0}
                self._work.wait(remaining)

    # -- the client side ---------------------------------------------------

    def _client_job(self, conn: socket.socket, frame: dict) -> None:
        # Imported here: suites imports this module lazily for --workers,
        # and this module is imported by the CLI before any suite loads.
        from repro.exp.suites import (
            JournalMismatchError,
            SuiteSpec,
            run_suite,
        )

        with self._lock:
            if self._job_active:
                self._safe_send(
                    conn,
                    {
                        "type": "error",
                        "kind": "busy",
                        "message": "broker is already running a suite job",
                    },
                )
                return
            self._job_active = True
        try:
            spec = SuiteSpec.from_dict(frame["spec"])
            config = (
                ExecutionConfig.from_dict(frame["config"])
                if frame.get("config")
                else self.default_config
            )
            resume = bool(frame.get("resume"))
            logger.info("job submitted: suite %s", spec.name)
            sink = _ClientTelemetrySink(conn)
            dispatcher = FleetDispatcher(self)
            # The lease deadline is the fleet analogue of the pool's attempt
            # timeout; a finite broker default applies when the config sets
            # none, so a silent worker can never wedge the job.
            self._active_timeout_s = (
                config.supervision.timeout_s
                if config.supervision.timeout_s is not None
                else self.lease_timeout_s
            )
            self._active_max_retries = config.supervision.max_retries
            outcome = run_suite(
                spec,
                config=config,
                out_dir=self.out_dir,
                telemetry=sink,
                resume=resume,
                _dispatch=dispatcher,
            )
        except TrialExecutionError as exc:
            self._safe_send(
                conn,
                {
                    "type": "error",
                    "kind": "quarantine",
                    "message": str(exc),
                    "failures": [
                        {
                            "index": failure.index,
                            "label": failure.label,
                            "attempts": failure.attempts,
                            "kind": failure.kind,
                            "error": failure.error,
                        }
                        for failure in exc.failures
                    ],
                },
            )
        except JournalMismatchError as exc:
            self._safe_send(
                conn,
                {"type": "error", "kind": "journal-mismatch", "message": str(exc)},
            )
        except (WireError, OSError) as exc:
            logger.warning("client connection lost mid-job: %s", exc)
        except Exception as exc:  # surface anything else as a typed error
            logger.exception("suite job failed")
            self._safe_send(
                conn,
                {"type": "error", "kind": "internal", "message": str(exc)},
            )
        else:
            self._safe_send(
                conn,
                {
                    "type": "outcome",
                    "suite": outcome.suite,
                    "artifact": outcome.artifact,
                    "units": outcome.units,
                    "records": outcome.records,
                    "wall_s": outcome.wall_s,
                    "resumed_subtrials": outcome.resumed_subtrials,
                },
            )
            logger.info("job finished: suite %s", spec.name)
        finally:
            with self._work:
                self._job_active = False
                if self.once:
                    self._shutdown = True
                self._work.notify_all()

    def _install_book(self, subtrials, labels) -> LeaseBook:
        with self._work:
            self._book = LeaseBook(
                subtrials,
                labels,
                timeout_s=getattr(
                    self, "_active_timeout_s", self.lease_timeout_s
                ),
                max_retries=getattr(self, "_active_max_retries", 2),
            )
            self._work.notify_all()
            return self._book

    def _clear_book(self) -> None:
        with self._work:
            self._book = None
            self._work.notify_all()


class _ClientTelemetrySink:
    """run_suite's telemetry tap, forwarding each row to the client socket."""

    def __init__(self, conn: socket.socket) -> None:
        self._conn = conn

    def emit(self, row: dict) -> None:
        send_frame(self._conn, {"type": "telemetry", "row": row})


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------


class ServiceWorker:
    """A pull-loop worker: lease a subtrial, run it, report, repeat.

    ``chaos`` scripts *connection-level* faults, addressed exactly like the
    pool's worker chaos (dispatch index / label substring + attempt):
    ``kill`` hard-exits the process when ``allow_kill`` (the CLI's
    disposable worker processes) or silently drops the connection when not
    (threaded test workers) — either way the broker sees a dead connection
    and re-queues the lease; ``stall`` sleeps without heartbeats so the
    lease expires and gets stolen (the late result is discarded
    first-wins); ``raise`` reports a structured ``trial-error``.
    """

    def __init__(
        self,
        address: str,
        *,
        worker_id: str | None = None,
        chaos: ChaosPolicy | None = None,
        allow_kill: bool = False,
        max_leases: int | None = None,
    ) -> None:
        self.address = address
        self.worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
        self.chaos = chaos
        self.allow_kill = allow_kill
        self.max_leases = max_leases
        self.leases_run = 0
        self._send_lock = threading.Lock()

    def _send(self, sock, message: dict) -> None:
        with self._send_lock:
            send_frame(sock, message)

    def run(self) -> int:
        """Serve until the broker shuts down (or ``max_leases``); returns
        the number of leases executed."""
        host, port = parse_workers_url(self.address)
        sock = socket.create_connection((host, port))
        try:
            self._send(sock, {"type": "hello", "role": "worker", "worker_id": self.worker_id})
            welcome = recv_frame(sock)
            if welcome.get("type") != "welcome":
                raise ServiceError(f"broker rejected worker: {welcome}")
            while self.max_leases is None or self.leases_run < self.max_leases:
                try:
                    self._send(sock, {"type": "ready"})
                    frame = recv_frame(sock)
                except (ConnectionClosed, OSError):
                    break  # broker gone: a worker just drains and exits
                kind = frame.get("type")
                if kind == "shutdown":
                    break
                if kind == "idle":
                    continue
                if kind != "lease":
                    raise ServiceError(f"unexpected broker frame {kind!r}")
                if not self._execute(sock, frame):
                    return self.leases_run  # chaos dropped the connection
                self.leases_run += 1
        finally:
            try:
                sock.close()
            except OSError:
                pass
        return self.leases_run

    def _execute(self, sock, lease: dict) -> bool:
        """Run one lease; False = the connection was chaos-dropped."""
        from repro.exp.suites import Subtrial, run_suite_subtrial

        action = None
        if self.chaos is not None:
            action = self.chaos.action_for(
                int(lease["index"]), lease.get("label", ""), int(lease["attempt"])
            )
        if action is not None:
            kind, stall_s = action
            if kind == "kill":
                if self.allow_kill:
                    os._exit(87)  # a dead worker process: connection drops
                sock.close()  # threaded workers: same broker-side effect
                return False
            if kind == "raise":
                self._send(
                    sock,
                    {
                        "type": "trial-error",
                        "lease_id": lease["lease_id"],
                        "error": "chaos raise",
                    },
                )
                return True
            if kind == "stall":
                # No heartbeats while stalled: the lease expires broker-side
                # and the subtrial is stolen; the late result below is then
                # discarded (first-wins).
                time.sleep(stall_s)
        stop_heartbeat = threading.Event()
        heartbeat = None
        timeout_s = lease.get("timeout_s")
        if timeout_s is not None:
            interval = max(float(timeout_s) / 3.0, 0.02)

            def _beat() -> None:
                while not stop_heartbeat.wait(interval):
                    try:
                        self._send(
                            sock,
                            {"type": "heartbeat", "lease_id": lease["lease_id"]},
                        )
                    except OSError:
                        return

            heartbeat = threading.Thread(target=_beat, daemon=True)
            heartbeat.start()
        try:
            # Decoded inside the try: a malformed lease comes back as a
            # trial-error frame instead of killing the worker.
            payload = run_suite_subtrial(Subtrial.from_wire(lease["subtrial"]))
        except Exception as exc:
            stop_heartbeat.set()
            self._send(
                sock,
                {
                    "type": "trial-error",
                    "lease_id": lease["lease_id"],
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            return True
        finally:
            stop_heartbeat.set()
            if heartbeat is not None:
                heartbeat.join(timeout=1.0)
        self._send(
            sock,
            {"type": "result", "lease_id": lease["lease_id"], "payload": payload},
        )
        return True


# ---------------------------------------------------------------------------
# the client
# ---------------------------------------------------------------------------


def submit_suite(
    spec,
    *,
    address: str,
    config: ExecutionConfig | None = None,
    out_dir: str | Path | None = None,
    telemetry=None,
    resume: bool = False,
):
    """Run ``spec`` on the broker at ``address``; the ``--workers`` client.

    Streams the broker's telemetry rows into ``telemetry`` as they land,
    then rebuilds the :class:`~repro.exp.suites.SuiteOutcome` from the
    final frame and — with ``out_dir`` — writes ``<out_dir>/<suite>.json``
    exactly as an in-process :func:`~repro.exp.suites.run_suite` would, so
    ``suite diff`` against a local run exits 0.  Quarantined subtrials
    re-raise the broker's :class:`~repro.exp.runner.TrialExecutionError`;
    a journal-revision refusal re-raises
    :class:`~repro.exp.suites.JournalMismatchError`.
    """
    import json as _json

    from repro.exp.suites import JournalMismatchError, SuiteOutcome, get_suite

    if isinstance(spec, str):
        spec = get_suite(spec)
    config = config or ExecutionConfig()
    host, port = parse_workers_url(address)
    sock = socket.create_connection((host, port))
    try:
        send_frame(
            sock,
            {
                "type": "submit",
                "spec": spec.to_dict(),
                "config": config.to_dict(),
                "resume": resume,
            },
        )
        while True:
            frame = recv_frame(sock)
            kind = frame.get("type")
            if kind == "telemetry":
                if telemetry is not None:
                    telemetry.emit(frame["row"])
            elif kind == "error":
                error_kind = frame.get("kind")
                message = frame.get("message", "broker error")
                if error_kind == "quarantine":
                    failures = [
                        TrialFailure(**failure)
                        for failure in frame.get("failures", [])
                    ]
                    raise TrialExecutionError(failures, [])
                if error_kind == "journal-mismatch":
                    raise JournalMismatchError(message)
                raise ServiceError(f"{error_kind}: {message}")
            elif kind == "outcome":
                outcome = SuiteOutcome(
                    suite=frame["suite"],
                    artifact=frame["artifact"],
                    units=frame["units"],
                    records=frame["records"],
                    wall_s=frame["wall_s"],
                    training=None,
                    resumed_subtrials=int(frame.get("resumed_subtrials", 0)),
                )
                break
            else:
                raise ServiceError(f"unexpected broker frame {kind!r}")
    finally:
        try:
            sock.close()
        except OSError:
            pass
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{outcome.suite}.json").write_text(
            _json.dumps(outcome.to_payload(), indent=2), encoding="utf-8"
        )
    return outcome
