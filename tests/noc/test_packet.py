"""Unit tests for the packet/flit data model."""

import pytest

from repro.noc.packet import Flit, FlitType, Packet


class TestPacket:
    def test_packet_ids_are_unique(self):
        first = Packet(src=0, dst=1, size=4, creation_cycle=0)
        second = Packet(src=0, dst=1, size=4, creation_cycle=0)
        assert first.packet_id != second.packet_id

    def test_rejects_empty_packet(self):
        with pytest.raises(ValueError):
            Packet(src=0, dst=1, size=0, creation_cycle=0)

    def test_latency_requires_delivery(self):
        packet = Packet(src=0, dst=1, size=4, creation_cycle=10)
        assert not packet.delivered
        with pytest.raises(ValueError):
            _ = packet.total_latency
        with pytest.raises(ValueError):
            _ = packet.network_latency

    def test_latency_accounting(self):
        packet = Packet(src=0, dst=1, size=4, creation_cycle=10)
        packet.injection_cycle = 13
        packet.arrival_cycle = 25
        assert packet.delivered
        assert packet.total_latency == 15
        assert packet.network_latency == 12


class TestFlitSegmentation:
    def test_single_flit_packet(self):
        packet = Packet(src=0, dst=1, size=1, creation_cycle=0)
        flits = packet.flits()
        assert len(flits) == 1
        assert flits[0].flit_type is FlitType.HEAD_TAIL
        assert flits[0].is_head and flits[0].is_tail

    def test_two_flit_packet_has_head_and_tail(self):
        packet = Packet(src=0, dst=1, size=2, creation_cycle=0)
        kinds = [flit.flit_type for flit in packet.flits()]
        assert kinds == [FlitType.HEAD, FlitType.TAIL]

    def test_multi_flit_packet_structure(self):
        packet = Packet(src=2, dst=9, size=5, creation_cycle=0)
        flits = packet.flits()
        assert len(flits) == 5
        assert flits[0].flit_type is FlitType.HEAD
        assert flits[-1].flit_type is FlitType.TAIL
        assert all(flit.flit_type is FlitType.BODY for flit in flits[1:-1])
        assert [flit.index for flit in flits] == list(range(5))

    def test_flits_share_packet_metadata(self):
        packet = Packet(src=3, dst=7, size=3, creation_cycle=5)
        for flit in packet.flits():
            assert flit.src == 3
            assert flit.dst == 7
            assert flit.packet is packet

    def test_body_flits_are_neither_head_nor_tail(self):
        body = Flit(
            packet=Packet(src=0, dst=1, size=3, creation_cycle=0),
            flit_type=FlitType.BODY,
            index=1,
        )
        assert not body.is_head
        assert not body.is_tail
