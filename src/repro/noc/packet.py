"""Packet and flit data model.

Packets are the unit of communication generated by traffic sources; flits
(flow-control digits) are the unit the routers move.  A packet of ``size``
flits is segmented into a HEAD flit carrying routing information, ``size - 2``
BODY flits and a TAIL flit; single-flit packets use the combined
``HEAD_TAIL`` type.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum


class FlitType(Enum):
    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    HEAD_TAIL = "head_tail"

    @property
    def is_head(self) -> bool:
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


_packet_ids = itertools.count()


@dataclass
class Packet:
    """A message travelling from ``src`` node to ``dst`` node.

    Timestamps are filled in by the simulator:

    * ``creation_cycle`` — when the traffic source created the packet;
    * ``injection_cycle`` — when the head flit entered the source router;
    * ``arrival_cycle`` — when the tail flit was ejected at the destination.
    """

    src: int
    dst: int
    size: int
    creation_cycle: int
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    injection_cycle: int | None = None
    arrival_cycle: int | None = None
    hops: int = 0

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError("packet size must be at least one flit")

    # -- latency accessors ------------------------------------------------

    @property
    def delivered(self) -> bool:
        return self.arrival_cycle is not None

    @property
    def total_latency(self) -> int:
        """Creation-to-delivery latency in cycles (includes source queueing)."""
        if self.arrival_cycle is None:
            raise ValueError("packet has not been delivered yet")
        return self.arrival_cycle - self.creation_cycle

    @property
    def network_latency(self) -> int:
        """Injection-to-delivery latency in cycles (excludes source queueing)."""
        if self.arrival_cycle is None or self.injection_cycle is None:
            raise ValueError("packet has not traversed the network yet")
        return self.arrival_cycle - self.injection_cycle

    # -- flit segmentation -------------------------------------------------

    def flits(self) -> list["Flit"]:
        """Segment this packet into its flit sequence."""
        if self.size == 1:
            return [Flit(packet=self, flit_type=FlitType.HEAD_TAIL, index=0)]
        flits = [Flit(packet=self, flit_type=FlitType.HEAD, index=0)]
        for index in range(1, self.size - 1):
            flits.append(Flit(packet=self, flit_type=FlitType.BODY, index=index))
        flits.append(Flit(packet=self, flit_type=FlitType.TAIL, index=self.size - 1))
        return flits


@dataclass
class Flit:
    """A single flow-control digit belonging to a packet."""

    packet: Packet
    flit_type: FlitType
    index: int
    # Plain attributes (not properties) because the router pipeline reads
    # them per flit per cycle; resolved once at construction.
    is_head: bool = field(init=False, compare=False)
    is_tail: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        self.is_head = self.flit_type.is_head
        self.is_tail = self.flit_type.is_tail

    @property
    def dst(self) -> int:
        return self.packet.dst

    @property
    def src(self) -> int:
        return self.packet.src

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flit(pkt={self.packet.packet_id}, {self.flit_type.value}, "
            f"{self.src}->{self.dst})"
        )
