"""Trace record and replay.

A trace is a list of ``(cycle, src, dst, size)`` records.  Traces can be
captured from any traffic source (``record_trace``), persisted as JSON lines
and replayed deterministically (:class:`TraceTrafficSource`), which is how
reproducible workloads are shared between the examples and the benchmarks.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.noc.packet import Packet


@dataclass(frozen=True)
class TraceRecord:
    """One packet-creation event."""

    cycle: int
    src: int
    dst: int
    size: int

    def to_packet(self) -> Packet:
        return Packet(src=self.src, dst=self.dst, size=self.size, creation_cycle=self.cycle)


def record_trace(traffic_source, cycles: int) -> list[TraceRecord]:
    """Run ``traffic_source.generate`` for ``cycles`` cycles and capture records."""
    if cycles < 0:
        raise ValueError("cycle count must be non-negative")
    records = []
    for cycle in range(cycles):
        for packet in traffic_source.generate(cycle):
            records.append(
                TraceRecord(cycle=cycle, src=packet.src, dst=packet.dst, size=packet.size)
            )
    return records


def save_trace(records: list[TraceRecord], path: str | Path) -> None:
    """Persist a trace as JSON lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(asdict(record)) + "\n")


def load_trace(path: str | Path) -> list[TraceRecord]:
    """Load a trace previously written by :func:`save_trace`."""
    records = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            payload = json.loads(line)
            records.append(TraceRecord(**payload))
    return records


class TraceTrafficSource:
    """Replays a recorded trace as a simulator traffic source.

    The optional ``cycle_offset`` shifts every record later in time, and
    ``repeat_every`` replays the trace periodically (useful for steady-state
    measurements over long runs).
    """

    def __init__(
        self,
        records: list[TraceRecord],
        cycle_offset: int = 0,
        repeat_every: int | None = None,
    ) -> None:
        if repeat_every is not None and repeat_every < 1:
            raise ValueError("repeat period must be at least one cycle")
        self.records = sorted(records, key=lambda record: record.cycle)
        self.cycle_offset = cycle_offset
        self.repeat_every = repeat_every
        self._by_cycle: dict[int, list[TraceRecord]] = {}
        for record in self.records:
            self._by_cycle.setdefault(record.cycle, []).append(record)
        self._sorted_cycles = sorted(self._by_cycle)

    def generate(self, cycle: int) -> list[Packet]:
        effective = cycle - self.cycle_offset
        if effective < 0:
            return []
        if self.repeat_every is not None:
            effective %= self.repeat_every
        packets = []
        for record in self._by_cycle.get(effective, []):
            packets.append(
                Packet(src=record.src, dst=record.dst, size=record.size, creation_cycle=cycle)
            )
        return packets

    def next_injection_cycle(self, cycle: int) -> int | None:
        """Earliest cycle ``>= cycle`` with a trace record (idle-span hint).

        Replay is a pure table lookup — no RNG — so skipping ``generate``
        calls across the reported gap is always safe.  With ``repeat_every``
        the hint wraps to the next occurrence in the following period
        (records at or past the period length are never replayed, matching
        :meth:`generate`).
        """
        if not self._sorted_cycles:
            return None
        effective = cycle - self.cycle_offset
        if self.repeat_every is None:
            if effective < 0:
                effective = 0
            index = bisect_left(self._sorted_cycles, effective)
            if index == len(self._sorted_cycles):
                return None
            return self._sorted_cycles[index] + self.cycle_offset
        period = self.repeat_every
        in_period = self._sorted_cycles[: bisect_left(self._sorted_cycles, period)]
        if not in_period:
            return None
        if effective < 0:
            return self.cycle_offset + in_period[0]
        position = effective % period
        index = bisect_left(in_period, position)
        if index < len(in_period):
            return cycle + (in_period[index] - position)
        return cycle + (period - position) + in_period[0]

    def __len__(self) -> int:
        return len(self.records)
