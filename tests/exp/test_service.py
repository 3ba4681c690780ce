"""The distributed suite service: lease accounting, fleet e2e, parity.

The :class:`LeaseBook` tests fake the clock and the workers (a "silent
worker" is simply a grant that never reports), which is exactly why the
book is socket-free.  The end-to-end tests run a real broker with real
``ServiceWorker`` pull loops on localhost threads and pin the determinism
contract: a fleet run — even one with a worker dying mid-suite — produces
a payload ``diff_payloads``-identical to the in-process reference.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.exp.chaos import ChaosPolicy, ChaosRule
from repro.exp.execution import ExecutionConfig, SupervisionPolicy
from repro.exp.service import (
    LeaseBook,
    ServiceWorker,
    SuiteBroker,
    parse_workers_url,
)
from repro.exp.suites import JournalMismatchError, diff_payloads, run_suite
from repro.exp.telemetry import NONDETERMINISTIC_FIELDS
from repro.exp.wire import recv_frame, send_frame


def _stable(records) -> list[dict]:
    """Rows minus the fields two equal runs may legitimately differ in
    (wall clocks and scheduling metadata — what ``suite diff`` ignores)."""
    return [
        {k: v for k, v in row.items() if k not in NONDETERMINISTIC_FIELDS}
        for row in records
    ]


class TestParseWorkersUrl:
    def test_tcp_scheme(self):
        assert parse_workers_url("tcp://10.0.0.5:7077") == ("10.0.0.5", 7077)

    def test_bare_host_port(self):
        assert parse_workers_url("localhost:9") == ("localhost", 9)

    def test_rejects_other_schemes(self):
        with pytest.raises(ValueError, match="tcp"):
            parse_workers_url("http://host:1")

    def test_rejects_missing_port(self):
        with pytest.raises(ValueError):
            parse_workers_url("tcp://hostonly")
        with pytest.raises(ValueError):
            parse_workers_url("host:notaport")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _book(n=3, *, timeout_s=10.0, max_retries=2, clock=None):
    clock = clock or FakeClock()
    book = LeaseBook(
        [("unit", {"i": i}) for i in range(n)],
        [f"trial-{i}" for i in range(n)],
        timeout_s=timeout_s,
        max_retries=max_retries,
        clock=clock,
    )
    return book, clock


class TestLeaseBook:
    def test_grant_charges_an_attempt_and_sets_a_deadline(self):
        book, clock = _book(timeout_s=5.0)
        lease = book.grant("w1")
        assert lease.index == 0
        assert lease.attempt == 0  # zero-based, chaos rules address it
        assert lease.deadline == pytest.approx(clock.now + 5.0)
        assert book.attempts[0] == 1

    def test_no_work_grants_none(self):
        book, _ = _book(n=1)
        assert book.grant("w1") is not None
        assert book.grant("w2") is None  # queued nothing, one lease out

    def test_complete_records_scheduling_and_settles(self):
        book, _ = _book(n=1)
        lease = book.grant("w1")
        assert book.complete(lease.lease_id, {"rows": 1}) is lease
        assert book.settled()
        assert book.results == [{"rows": 1}]
        assert book.scheduling[0] == {"worker_id": "w1", "lease_id": lease.lease_id}

    def test_silent_worker_expires_and_work_is_stolen(self):
        # The headline work-stealing path: a worker leases a subtrial and
        # never reports (no heartbeat, no result).  The deadline passes,
        # the lease re-queues, another worker finishes the job.
        book, clock = _book(n=1, timeout_s=5.0)
        silent = book.grant("silent")
        assert book.expire() == []  # not yet due
        clock.advance(5.1)
        expired = book.expire()
        assert [lease.lease_id for lease in expired] == [silent.lease_id]
        retry = book.grant("healthy")
        assert retry.index == 0
        assert retry.attempt == 1
        assert book.complete(retry.lease_id, {"ok": True}) is retry
        assert book.settled()
        assert book.scheduling[0]["worker_id"] == "healthy"

    def test_heartbeats_keep_a_slow_lease_alive(self):
        book, clock = _book(n=1, timeout_s=5.0)
        lease = book.grant("slow")
        clock.advance(4.0)
        assert book.heartbeat(lease.lease_id) is True
        clock.advance(4.0)  # past the original deadline, inside the extended
        assert book.expire() == []
        assert book.heartbeat("L999") is False

    def test_late_result_from_an_expired_lease_is_discarded(self):
        book, clock = _book(n=1, timeout_s=1.0)
        stale = book.grant("slow")
        clock.advance(2.0)
        book.expire()
        fresh = book.grant("fast")
        assert book.complete(fresh.lease_id, {"winner": "fast"}) is fresh
        # The slow worker finally reports; first-wins discards it.
        assert book.complete(stale.lease_id, {"winner": "slow"}) is None
        assert book.results == [{"winner": "fast"}]
        assert book.scheduling[0]["worker_id"] == "fast"

    def test_attempts_exceeding_the_budget_quarantine(self):
        # max_retries=1 → two attempts, mirroring SupervisedTrialPool.
        book, clock = _book(n=1, timeout_s=1.0, max_retries=1)
        book.grant("w")
        clock.advance(2.0)
        book.expire()
        book.grant("w")
        clock.advance(2.0)
        book.expire()
        assert book.grant("w") is None
        assert book.settled()
        [failure] = book.failures
        assert failure.index == 0
        assert failure.attempts == 2
        assert failure.kind == "timeout"

    def test_explicit_failures_requeue_then_quarantine(self):
        book, _ = _book(n=1, max_retries=0)
        lease = book.grant("w")
        book.fail(lease.lease_id, "boom", kind="error")
        [failure] = book.failures
        assert failure.kind == "error"
        assert "boom" in failure.error

    def test_dead_worker_releases_every_held_lease(self):
        book, _ = _book(n=3)
        a = book.grant("doomed")
        b = book.grant("doomed")
        c = book.grant("survivor")
        released = book.release_worker("doomed")
        assert {lease.lease_id for lease in released} == {a.lease_id, b.lease_id}
        # Both re-queued; the survivor's lease is untouched.
        assert book.grant("survivor").index in (a.index, b.index)
        assert book.complete(c.lease_id, {}) is c


class _LoopbackSocket:
    """A fake worker connection: frames the worker sends read back in order."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def sendall(self, data: bytes) -> None:
        self.buffer += data

    def recv(self, count: int) -> bytes:
        out = bytes(self.buffer[:count])
        del self.buffer[:count]
        return out


class TestServiceWorker:
    def test_malformed_lease_comes_back_as_a_trial_error(self):
        worker = ServiceWorker("tcp://127.0.0.1:1")
        sock = _LoopbackSocket()
        lease = {
            "lease_id": 7,
            "index": 0,
            "label": "bad[0]",
            "attempt": 0,
            "timeout_s": None,
            "subtrial": ["warp", {}],
        }
        assert worker._execute(sock, lease) is True
        frame = recv_frame(sock)
        assert frame["type"] == "trial-error"
        assert frame["lease_id"] == 7
        assert "warp" in frame["error"]
        assert not sock.buffer


def _start_worker(address: str, **kwargs) -> threading.Thread:
    worker = ServiceWorker(address, **kwargs)
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    return thread


def _artifact(path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.mark.slow
class TestFleetEndToEnd:
    def _fleet_run(self, tmp_path, *, worker_kwargs=(), config=None):
        fleet_dir = tmp_path / "fleet"
        with SuiteBroker(out_dir=fleet_dir) as broker:
            threads = [
                _start_worker(broker.address, **dict(kwargs))
                for kwargs in (worker_kwargs or ({}, {}))
            ]
            outcome = run_suite(
                "fig1-smoke", config=config, workers=broker.address
            )
        for thread in threads:
            thread.join(timeout=5.0)
        return outcome, fleet_dir / "fig1-smoke.json"

    def test_fleet_run_matches_in_process_byte_for_byte(self, tmp_path):
        reference = run_suite(
            "fig1-smoke", config=ExecutionConfig(), out_dir=tmp_path / "ref"
        )
        outcome, artifact = self._fleet_run(
            tmp_path, worker_kwargs=({"worker_id": "w1"}, {"worker_id": "w2"})
        )
        assert diff_payloads(
            _artifact(tmp_path / "ref" / "fig1-smoke.json"), _artifact(artifact)
        ) == []
        assert _stable(outcome.records) == _stable(reference.records)

    def test_worker_killed_mid_suite_still_matches(self, tmp_path):
        reference = run_suite("fig1-smoke", config=ExecutionConfig())
        # The chaotic worker drops its connection on its very first lease
        # (allow_kill=False degrades `kill` to an abrupt close for thread
        # workers); the broker re-queues and the healthy worker absorbs it.
        chaos = ChaosPolicy(rules=(ChaosRule("kill", ""),))
        outcome, artifact = self._fleet_run(
            tmp_path,
            worker_kwargs=(
                {"worker_id": "doomed", "chaos": chaos},
                {"worker_id": "healthy"},
            ),
        )
        assert _stable(outcome.records) == _stable(reference.records)
        payload = _artifact(artifact)
        assert diff_payloads(payload, payload) == []

    def test_lease_metadata_lands_in_telemetry_not_in_the_artifact(self, tmp_path):
        class Sink:
            def __init__(self):
                self.rows = []

            def emit(self, row):
                self.rows.append(dict(row))

        sink = Sink()
        fleet_dir = tmp_path / "fleet"
        with SuiteBroker(out_dir=fleet_dir) as broker:
            threads = [_start_worker(broker.address, worker_id="only")]
            outcome = run_suite(
                "fig1-smoke", workers=broker.address, telemetry=sink
            )
        for thread in threads:
            thread.join(timeout=5.0)
        subtrial_rows = [r for r in sink.rows if r.get("source") == "service"]
        assert subtrial_rows, "fleet runs must tag telemetry source=service"
        assert all(r.get("worker_id") == "only" for r in subtrial_rows)
        assert all(r.get("lease_id") for r in subtrial_rows)
        # ...but the artefact stays free of scheduling noise.
        assert "worker_id" not in json.dumps(outcome.records)

    def test_resume_refuses_a_journal_from_another_config(self, tmp_path):
        fleet_dir = tmp_path / "fleet"
        with SuiteBroker(out_dir=fleet_dir) as broker:
            threads = [_start_worker(broker.address)]
            run_suite("fig1-smoke", workers=broker.address)
            with pytest.raises(JournalMismatchError):
                run_suite(
                    "fig1-smoke",
                    config=ExecutionConfig(engine="event"),
                    workers=broker.address,
                    resume=True,
                )
        for thread in threads:
            thread.join(timeout=5.0)

    def test_malformed_first_frame_gets_a_structured_reject(self):
        with SuiteBroker() as broker:
            with socket.create_connection(("127.0.0.1", broker.port)) as conn:
                body = b"this is not json"
                conn.sendall(len(body).to_bytes(4, "big") + body)
                reply = recv_frame(conn)
        assert reply["type"] == "error"
        assert reply["kind"] == "protocol"

    def test_unknown_first_frame_type_is_rejected(self):
        with SuiteBroker() as broker:
            with socket.create_connection(("127.0.0.1", broker.port)) as conn:
                send_frame(conn, {"type": "teapot"})
                reply = recv_frame(conn)
        assert reply["type"] == "error"

    def test_stalled_worker_lease_expires_and_is_stolen(self, tmp_path):
        reference = run_suite("fig1-smoke", config=ExecutionConfig())
        chaos = ChaosPolicy(rules=(ChaosRule("stall", "", stall_s=2.0),))
        fleet_dir = tmp_path / "fleet"
        with SuiteBroker(out_dir=fleet_dir, lease_timeout_s=0.3) as broker:
            threads = [
                _start_worker(broker.address, worker_id="molasses", chaos=chaos),
                _start_worker(broker.address, worker_id="brisk"),
            ]
            outcome = run_suite(
                "fig1-smoke",
                config=ExecutionConfig(
                    supervision=SupervisionPolicy(timeout_s=0.3, max_retries=5)
                ),
                workers=broker.address,
            )
        for thread in threads:
            thread.join(timeout=10.0)
        assert _stable(outcome.records) == _stable(reference.records)
