"""Unit tests for trace record/replay."""

import pytest

from repro.noc.topology import Mesh
from repro.traffic.generator import TrafficGenerator
from repro.traffic.trace import TraceRecord, TraceTrafficSource, record_trace

MESH = Mesh(4, 4)


def make_records() -> list[TraceRecord]:
    return [
        TraceRecord(cycle=0, src=0, dst=5, size=4),
        TraceRecord(cycle=0, src=3, dst=12, size=2),
        TraceRecord(cycle=7, src=1, dst=14, size=4),
    ]


class TestRecordTrace:
    def test_captures_generator_output(self):
        generator = TrafficGenerator.from_names(MESH, "uniform", 0.3, packet_size=4, seed=5)
        records = record_trace(generator, cycles=200)
        assert records
        assert all(0 <= record.cycle < 200 for record in records)
        assert all(record.size == 4 for record in records)

    def test_rejects_negative_cycles(self):
        generator = TrafficGenerator.from_names(MESH, "uniform", 0.3)
        with pytest.raises(ValueError):
            record_trace(generator, cycles=-1)

    def test_record_to_packet(self):
        record = TraceRecord(cycle=4, src=1, dst=2, size=3)
        packet = record.to_packet()
        assert (packet.src, packet.dst, packet.size, packet.creation_cycle) == (1, 2, 3, 4)


class TestTraceTrafficSource:
    def test_replays_records_at_their_cycles(self):
        source = TraceTrafficSource(make_records())
        cycle0 = source.generate(0)
        assert {(p.src, p.dst) for p in cycle0} == {(0, 5), (3, 12)}
        assert source.generate(1) == []
        assert [(p.src, p.dst) for p in source.generate(7)] == [(1, 14)]
        assert len(source) == 3

    def test_cycle_offset_shifts_replay(self):
        source = TraceTrafficSource(make_records(), cycle_offset=10)
        assert source.generate(0) == []
        assert len(source.generate(10)) == 2
        assert len(source.generate(17)) == 1

    def test_periodic_replay(self):
        source = TraceTrafficSource(make_records(), repeat_every=20)
        assert len(source.generate(0)) == 2
        assert len(source.generate(20)) == 2
        assert len(source.generate(47)) == 1

    def test_rejects_bad_repeat_period(self):
        with pytest.raises(ValueError):
            TraceTrafficSource(make_records(), repeat_every=0)

    def test_replay_is_deterministic_against_recording(self):
        generator = TrafficGenerator.from_names(MESH, "transpose", 0.2, packet_size=4, seed=8)
        records = record_trace(generator, cycles=100)
        source = TraceTrafficSource(records)
        replayed = []
        for cycle in range(100):
            replayed.extend((p.creation_cycle, p.src, p.dst) for p in source.generate(cycle))
        recorded = [(r.cycle, r.src, r.dst) for r in records]
        assert replayed == recorded


class TestNextInjectionCycle:
    def test_reports_next_record_cycle(self):
        source = TraceTrafficSource(make_records())
        assert source.next_injection_cycle(0) == 0
        assert source.next_injection_cycle(1) == 7
        assert source.next_injection_cycle(7) == 7
        assert source.next_injection_cycle(8) is None

    def test_respects_cycle_offset(self):
        source = TraceTrafficSource(make_records(), cycle_offset=40)
        assert source.next_injection_cycle(0) == 40
        assert source.next_injection_cycle(41) == 47
        assert source.next_injection_cycle(48) is None

    def test_wraps_with_repeat_period(self):
        source = TraceTrafficSource(make_records(), repeat_every=10)
        assert source.next_injection_cycle(8) == 10  # next period's cycle-0 records
        assert source.next_injection_cycle(10) == 10
        assert source.next_injection_cycle(15) == 17
        assert source.next_injection_cycle(995) == 997

    def test_empty_trace_never_injects(self):
        source = TraceTrafficSource([])
        assert source.next_injection_cycle(0) is None

    def test_hint_contract_matches_generate(self):
        source = TraceTrafficSource(make_records(), cycle_offset=3, repeat_every=12)
        for cycle in range(60):
            hint = source.next_injection_cycle(cycle)
            if hint is None or hint > cycle:
                assert source.generate(cycle) == []
            if hint == cycle:
                assert source.generate(cycle)
