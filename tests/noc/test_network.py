"""Integration tests for the full NoC simulator cycle loop."""

import pytest

from repro.noc.network import NoCSimulator, SimulatorConfig
from repro.noc.packet import Packet
from repro.noc.routing import SelectionPolicy
from repro.noc.topology import Direction
from repro.traffic.generator import TrafficGenerator
from repro.traffic.injection import BernoulliInjection
from repro.traffic.patterns import get_pattern

from tests.conftest import make_simulator, single_packet_simulator


class TestConfig:
    def test_rejects_bad_packet_size(self):
        with pytest.raises(ValueError):
            SimulatorConfig(packet_size=0)

    def test_rejects_bad_dvfs_index(self):
        with pytest.raises(ValueError):
            SimulatorConfig(initial_dvfs_level=10)

    def test_rejects_unknown_routing(self):
        with pytest.raises(KeyError):
            SimulatorConfig(routing="banana")

    def test_builds_torus_when_requested(self):
        config = SimulatorConfig(width=4, torus=True)
        simulator = NoCSimulator(config)
        assert simulator.topology.neighbor(0, Direction.WEST) is not None


class TestSinglePacketDelivery:
    def test_minimum_latency_single_hop(self):
        simulator, packet = single_packet_simulator(src=0, dst=1, size=4)
        simulator.drain(100)
        assert packet.delivered
        assert packet.hops == 1
        # head: 1 hop + ejection, tail trails size-1 cycles behind
        assert packet.network_latency == packet.hops + packet.size - 1

    def test_minimum_latency_across_the_diagonal(self):
        simulator, packet = single_packet_simulator(src=0, dst=15, size=4)
        simulator.drain(200)
        assert packet.delivered
        assert packet.hops == simulator.topology.hop_distance(0, 15) == 6
        assert packet.network_latency == packet.hops + packet.size - 1

    def test_single_flit_packet(self):
        simulator, packet = single_packet_simulator(src=3, dst=12, size=1)
        simulator.drain(100)
        assert packet.delivered
        assert packet.network_latency == packet.hops

    def test_xy_routing_hops_match_manhattan_distance(self):
        for src, dst in [(0, 5), (2, 13), (15, 4), (7, 8)]:
            simulator, packet = single_packet_simulator(src=src, dst=dst)
            simulator.drain(200)
            assert packet.hops == simulator.topology.hop_distance(src, dst)

    def test_self_directed_packet_delivered_without_entering_network(self):
        config = SimulatorConfig(width=4)
        simulator = NoCSimulator(config)
        packet = Packet(src=5, dst=5, size=4, creation_cycle=0)
        simulator.inject_packet(packet)
        assert packet.delivered
        assert packet.hops == 0
        assert simulator.stats.packets_delivered == 1
        assert simulator.buffered_flits == 0

    def test_slower_dvfs_increases_latency(self):
        fast_sim, fast_packet = single_packet_simulator(src=0, dst=15, size=4)
        fast_sim.drain(200)
        slow_sim, slow_packet = single_packet_simulator(src=0, dst=15, size=4)
        slow_sim.set_global_dvfs_level(3)
        slow_sim.drain(400)
        assert slow_packet.total_latency > fast_packet.total_latency


class TestConservationLaws:
    @pytest.mark.parametrize("routing", ["xy", "odd_even", "west_first"])
    def test_every_created_packet_is_delivered(self, routing):
        simulator = make_simulator(rate=0.15, routing=routing, seed=3)
        simulator.run(1500)
        simulator.drain(5000)
        stats = simulator.stats
        assert stats.packets_created > 50
        assert stats.packets_delivered == stats.packets_created
        assert stats.flits_delivered == stats.flits_created

    def test_credits_fully_restored_after_drain(self):
        simulator = make_simulator(rate=0.2, seed=7)
        simulator.run(800)
        simulator.drain(5000)
        for router in simulator.routers.values():
            for port in router.credits.ports():
                for vc in range(router.num_vcs):
                    assert router.credits.available(port, vc) == router.buffer_depth

    def test_latency_lower_bound(self):
        simulator = make_simulator(rate=0.05, seed=11)
        simulator.run(1000)
        simulator.drain(5000)
        stats = simulator.stats
        # Minimum possible latency is hops + serialization; compared as
        # integer sums because the bound is tight at zero contention.
        assert stats.network_latency_sum >= stats.hop_sum + stats.packets_delivered * (
            simulator.config.packet_size - 1
        )
        assert stats.total_latency_sum >= stats.network_latency_sum

    def test_in_flight_accounting(self):
        simulator = make_simulator(rate=0.3, seed=5)
        simulator.run(300)
        stats = simulator.stats
        assert stats.in_flight_packets >= 0
        assert stats.packets_injected <= stats.packets_created
        simulator.drain(5000)
        assert simulator.stats.in_flight_packets == 0


class TestReconfigurationSurface:
    def test_global_dvfs_level_applies_to_all_routers(self):
        simulator = make_simulator()
        simulator.set_global_dvfs_level(2)
        point = simulator.config.dvfs_levels[2]
        assert all(router.operating_point is point for router in simulator.routers.values())
        assert simulator.dvfs_level_index == 2

    def test_invalid_dvfs_level_rejected(self):
        simulator = make_simulator()
        with pytest.raises(ValueError):
            simulator.set_global_dvfs_level(99)
        with pytest.raises(ValueError):
            simulator.set_dvfs_level(0, -1)

    def test_per_node_dvfs_override(self):
        simulator = make_simulator()
        simulator.set_dvfs_level(5, 3)
        assert simulator.routers[5].operating_point is simulator.config.dvfs_levels[3]
        assert simulator.routers[6].operating_point is simulator.config.dvfs_levels[0]

    def test_routing_reconfiguration(self):
        simulator = make_simulator()
        simulator.set_routing_algorithm("odd_even")
        assert simulator.routing_name == "odd_even"
        assert all(
            router.routing.name == "odd_even" for router in simulator.routers.values()
        )

    def test_enabled_vc_reconfiguration(self):
        simulator = make_simulator(num_vcs=2)
        simulator.set_enabled_vcs(1)
        assert simulator.enabled_vcs == 1
        assert all(router.enabled_vcs == 1 for router in simulator.routers.values())

    def test_lower_dvfs_level_saves_energy_and_costs_latency(self):
        fast = make_simulator(rate=0.1, seed=9)
        fast.run(1500)
        slow = make_simulator(rate=0.1, seed=9)
        slow.set_global_dvfs_level(3)
        slow.run(1500)
        assert slow.power.energy.total_pj < fast.power.energy.total_pj
        assert slow.stats.average_total_latency > fast.stats.average_total_latency

    def test_reduced_vcs_still_deliver_traffic(self):
        simulator = make_simulator(rate=0.1, num_vcs=2, seed=13)
        simulator.set_enabled_vcs(1)
        simulator.run(800)
        simulator.drain(5000)
        assert simulator.stats.packets_delivered == simulator.stats.packets_created


class TestFaultInjection:
    def test_failed_link_blocks_xy_traffic(self):
        simulator, packet = single_packet_simulator(src=0, dst=3, size=2)
        simulator.fail_link(1, 2)
        simulator.run(200)
        assert not packet.delivered

    def test_repaired_link_resumes_delivery(self):
        simulator, packet = single_packet_simulator(src=0, dst=3, size=2)
        simulator.fail_link(1, 2)
        simulator.run(100)
        simulator.repair_link(1, 2)
        simulator.drain(200)
        assert packet.delivered

    def test_adaptive_routing_survives_single_link_failure(self):
        config = SimulatorConfig(width=4, routing="west_first")
        simulator = NoCSimulator(config)
        # Packet 0 -> 10 can route around a failed vertical link.
        simulator.fail_link(0, 4)
        packet = Packet(src=0, dst=10, size=2, creation_cycle=0)
        simulator.inject_packet(packet)
        simulator.drain(300)
        assert packet.delivered

    def test_drain_raises_when_packets_are_trapped(self):
        simulator, _packet = single_packet_simulator(src=0, dst=3, size=2)
        simulator.fail_link(1, 2)
        with pytest.raises(RuntimeError, match="drain"):
            simulator.drain(100)

    def test_fail_link_rejects_nonexistent_links(self):
        simulator = make_simulator()
        with pytest.raises(ValueError, match="no directed link"):
            simulator.fail_link(0, 5)  # nodes exist but are not adjacent
        with pytest.raises(ValueError, match="no directed link"):
            simulator.fail_link(0, 99)  # node outside the topology
        with pytest.raises(ValueError, match="no directed link"):
            simulator.repair_link(0, 2)  # two hops apart

    def test_mesh_border_has_no_wraparound_link(self):
        simulator = make_simulator()
        # Node 3 is the east border of a 4x4 mesh; 0 is the west border.
        with pytest.raises(ValueError, match="no directed link"):
            simulator.fail_link(3, 0)

    def test_failed_links_are_tracked_and_repair_is_idempotent(self):
        simulator = make_simulator()
        assert simulator.failed_links == frozenset()
        simulator.fail_link(1, 2)
        simulator.fail_link(2, 1)
        assert simulator.failed_links == {(1, 2), (2, 1)}
        simulator.repair_link(1, 2)
        assert simulator.failed_links == {(2, 1)}
        # Repairing a healthy (but existing) link stays a no-op.
        simulator.repair_link(1, 2)
        assert simulator.failed_links == {(2, 1)}


class TestActivityTracking:
    def test_activity_sets_track_occupancy_exactly(self):
        simulator = make_simulator(rate=0.25, seed=4)
        for _ in range(10):
            simulator.run(25)
            assert simulator.model.active_routers == {
                node
                for node, router in simulator.routers.items()
                if router.buffered_flits
            }
            assert simulator.model.nonempty_sources == {
                node for node, queue in simulator.model._source_queues.items() if queue
            }
            assert simulator.buffered_flits == sum(
                router.buffered_flits for router in simulator.routers.values()
            )
            assert simulator.source_queue_backlog == sum(
                len(queue) for queue in simulator.model._source_queues.values()
            )

    def test_skipped_router_steps_counts_avoided_work(self):
        simulator = make_simulator(rate=0.02, seed=6)
        simulator.run(300)
        # Sixteen routers, 300 cycles: the naive engine would step 4800
        # times; a near-idle network must skip the overwhelming majority.
        assert simulator.skipped_router_steps > 4_000
        naive = make_simulator(rate=0.02, seed=6)
        naive.activity_tracking = False
        naive.idle_fast_path = False
        naive.run(300)
        assert naive.skipped_router_steps == 0
        assert naive.stats.snapshot() == simulator.stats.snapshot()

    def test_gated_cycles_are_skipped_at_low_dvfs(self):
        simulator = make_simulator(rate=0.3, seed=2)
        simulator.set_global_dvfs_level(3)  # divider 4: 3 of 4 cycles gated
        simulator.run(400)
        assert simulator.skipped_router_steps >= 300 // 4 * 3 * 16

    def test_toggling_tracking_mid_run_is_safe(self):
        simulator = make_simulator(rate=0.2, seed=9)
        simulator.run(150)
        simulator.activity_tracking = False
        simulator.run(150)
        simulator.activity_tracking = True
        simulator.run(150)
        reference = make_simulator(rate=0.2, seed=9)
        reference.run(450)
        assert simulator.stats.snapshot() == reference.stats.snapshot()
        assert simulator.power.energy.leakage_pj == reference.power.energy.leakage_pj

    def test_dvfs_change_invalidates_leakage_cache(self):
        simulator = make_simulator(rate=0.0)
        simulator.run(10)
        before = list(simulator.model._cycle_leakage_increments())
        simulator.set_dvfs_level(5, 3)
        after = simulator.model._cycle_leakage_increments()
        assert after != before

    def test_set_enabled_vcs_validates_before_reconfiguring(self):
        simulator = make_simulator(num_vcs=2)
        simulator.set_enabled_vcs(1)
        with pytest.raises(ValueError, match=r"enabled VC count"):
            simulator.set_enabled_vcs(5)
        with pytest.raises(ValueError, match=r"enabled VC count"):
            simulator.set_enabled_vcs(0)
        # No router may be left reconfigured by the failed calls.
        assert all(router.enabled_vcs == 1 for router in simulator.routers.values())
        assert simulator.enabled_vcs == 1


class TestIdleSpanBatching:
    def test_windowed_traffic_leaps_the_leading_gap(self):
        config = SimulatorConfig(width=4)
        simulator = NoCSimulator(config)
        simulator.traffic = TrafficGenerator(
            simulator.topology,
            get_pattern("uniform", simulator.topology),
            BernoulliInjection(0.1, 4),
            packet_size=4,
            seed=0,
            start_cycle=500,
        )
        simulator.run(500)
        assert simulator.cycle == 500
        assert simulator.idle_cycles == 500
        assert simulator.stats.cycles == 500
        simulator.run(100)
        assert simulator.stats.packets_created > 0

    def test_no_traffic_source_batches_to_the_horizon(self):
        simulator = NoCSimulator(SimulatorConfig(width=4))
        simulator.run(10_000)
        assert simulator.cycle == 10_000
        assert simulator.idle_cycles == 10_000
        assert simulator.stats.cycles == 10_000
        assert simulator.power.energy.leakage_pj > 0.0

    def test_step_advances_exactly_one_cycle(self):
        simulator = NoCSimulator(SimulatorConfig(width=4))
        simulator.step()
        assert simulator.cycle == 1
        assert simulator.idle_cycles == 1

    def test_on_cycle_hook_sees_every_cycle_despite_batching(self):
        simulator = NoCSimulator(SimulatorConfig(width=4))
        seen = []
        simulator.run(50, on_cycle=seen.append)
        assert seen == list(range(50))


class TestDrain:
    def test_drain_on_empty_network_returns_immediately(self):
        simulator = make_simulator(rate=0.0)
        simulator.run(50)
        before = simulator.stats.cycles
        assert simulator.drain(10_000) == 0
        assert simulator.stats.cycles == before  # not a single cycle simulated

    def test_drain_error_reports_backlog(self):
        simulator, _packet = single_packet_simulator(src=0, dst=3, size=2)
        simulator.fail_link(1, 2)
        with pytest.raises(RuntimeError, match=r"buffered_flits=\d+") as excinfo:
            simulator.drain(100)
        assert "source_queue_backlog=" in str(excinfo.value)


class TestIdleFastPath:
    def test_idle_cycles_counted_at_low_load(self):
        simulator = make_simulator(rate=0.0)
        simulator.run(300)
        assert simulator.idle_cycles == 300
        assert simulator.stats.cycles == 300
        assert simulator.power.energy.leakage_pj > 0.0
        assert simulator.power.energy.dynamic_pj == 0.0

    def test_fast_path_never_fires_while_flits_are_in_flight(self):
        simulator = make_simulator(rate=0.4, seed=1)
        simulator.run(300)
        busy_idle = simulator.idle_cycles
        assert busy_idle < 10
        drained_in = simulator.drain(10_000)
        assert simulator.idle_cycles == busy_idle  # drain exits once empty
        assert drained_in >= 0

    def test_disabling_the_fast_path_restores_the_full_loop(self):
        simulator = make_simulator(rate=0.0)
        simulator.idle_fast_path = False
        simulator.run(100)
        assert simulator.idle_cycles == 0


class TestEpochTelemetry:
    def test_epoch_indices_increase(self):
        simulator = make_simulator(rate=0.1)
        first = simulator.run_epoch(200)
        second = simulator.run_epoch(200)
        assert first.epoch_index == 0
        assert second.epoch_index == 1

    def test_epoch_counters_are_deltas(self):
        simulator = make_simulator(rate=0.1, seed=21)
        first = simulator.run_epoch(300)
        second = simulator.run_epoch(300)
        total = simulator.stats
        assert first.packets_created + second.packets_created == total.packets_created
        assert first.energy.total_pj + second.energy.total_pj == pytest.approx(
            simulator.power.energy.total_pj
        )

    def test_epoch_rates_are_sane(self):
        simulator = make_simulator(rate=0.2, seed=2)
        telemetry = simulator.run_epoch(500)
        assert 0.0 <= telemetry.link_utilization <= 1.0
        assert telemetry.offered_load_flits_per_node_cycle == pytest.approx(0.2, abs=0.08)
        assert telemetry.throughput_flits_per_node_cycle <= telemetry.offered_load_flits_per_node_cycle + 0.05
        assert telemetry.average_buffer_occupancy >= 0.0
        assert telemetry.energy_per_flit_pj > 0.0

    def test_epoch_records_configuration(self):
        simulator = make_simulator(rate=0.05)
        simulator.set_global_dvfs_level(1)
        simulator.set_routing_algorithm("odd_even")
        telemetry = simulator.run_epoch(100)
        assert telemetry.dvfs_level_index == 1
        assert telemetry.routing_name == "odd_even"
        assert telemetry.enabled_vcs == simulator.config.num_vcs

    def test_rejects_empty_epoch(self):
        simulator = make_simulator()
        with pytest.raises(ValueError):
            simulator.run_epoch(0)

    def test_telemetry_as_dict_is_json_friendly(self):
        simulator = make_simulator(rate=0.1)
        telemetry = simulator.run_epoch(100)
        payload = telemetry.as_dict()
        assert isinstance(payload["average_total_latency"], float)
        assert payload["cycles"] == 100


class TestSelectionPolicies:
    def test_random_selection_still_delivers(self):
        simulator = make_simulator(
            rate=0.1, routing="odd_even", selection=SelectionPolicy.RANDOM, seed=17
        )
        simulator.run(800)
        simulator.drain(5000)
        assert simulator.stats.packets_delivered == simulator.stats.packets_created

    def test_first_selection_still_delivers(self):
        simulator = make_simulator(
            rate=0.1, routing="west_first", selection=SelectionPolicy.FIRST, seed=19
        )
        simulator.run(800)
        simulator.drain(5000)
        assert simulator.stats.packets_delivered == simulator.stats.packets_created


class TestIdleCycleStats:
    def test_record_idle_cycles_equals_repeated_record_cycle(self):
        from repro.noc.stats import NetworkStats

        batched = NetworkStats()
        batched.record_idle_cycles(9)
        reference = NetworkStats()
        for _ in range(9):
            reference.record_cycle(0, 0)
        assert batched.snapshot() == reference.snapshot()
