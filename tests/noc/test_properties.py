"""Property-based (hypothesis) tests over the whole simulator.

These encode the global invariants of a lossless, credit-flow-controlled
network: flit conservation, credit restoration, latency lower bounds and
buffer-occupancy bounds, under randomly drawn workloads and configurations —
plus the equivalence contract of the activity-tracked cycle engine: with
every optimisation enabled it must be *bit-identical* (statistics, energy
floats and all) to the naive scan-everything engine, including under
mid-run reconfiguration.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.noc.network import NoCSimulator, SimulatorConfig
from repro.noc.packet import Packet
from repro.traffic.generator import TrafficGenerator
from repro.traffic.injection import BernoulliInjection
from repro.traffic.patterns import get_pattern

SIM_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@SIM_SETTINGS
@given(
    rate=st.floats(min_value=0.02, max_value=0.25),
    pattern=st.sampled_from(["uniform", "transpose", "bit_complement", "hotspot"]),
    routing=st.sampled_from(["xy", "yx", "west_first", "north_last", "odd_even"]),
    dvfs_level=st.integers(min_value=0, max_value=3),
    packet_size=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
)
# Zero contention: every packet's network latency *equals* hops + size - 1
# (262 == 118 + 36 * 4), so the bound holds with equality and the float
# averages this test used to compare were one ulp apart.
@example(
    rate=0.04296875,
    pattern="transpose",
    routing="yx",
    dvfs_level=0,
    packet_size=5,
    seed=505,
)
def test_lossless_delivery_under_random_configuration(
    rate, pattern, routing, dvfs_level, packet_size, seed
):
    """Whatever the configuration, the network is lossless: every created
    packet is eventually delivered, credits return to full and latency never
    beats the physical lower bound."""
    config = SimulatorConfig(
        width=4, routing=routing, packet_size=packet_size, seed=seed
    )
    simulator = NoCSimulator(config)
    simulator.set_global_dvfs_level(dvfs_level)
    simulator.traffic = TrafficGenerator.from_names(
        simulator.topology, pattern, rate, packet_size=packet_size, seed=seed
    )
    simulator.run(400)
    simulator.drain(20_000)

    stats = simulator.stats
    assert stats.packets_delivered == stats.packets_created
    assert stats.flits_delivered == stats.flits_created
    assert stats.in_flight_packets == 0
    # Integer sums, not the float averages: the bound is tight at zero
    # contention and a quotient may round either way.
    assert stats.network_latency_sum >= stats.hop_sum + stats.packets_delivered * (
        packet_size - 1
    )
    assert stats.total_latency_sum >= stats.network_latency_sum
    for router in simulator.routers.values():
        assert router.buffered_flits == 0
        for port in router.credits.ports():
            for vc in range(router.num_vcs):
                assert router.credits.available(port, vc) == router.buffer_depth


@SIM_SETTINGS
@given(
    sources=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=1, max_value=5),
        ),
        min_size=1,
        max_size=30,
    ),
    routing=st.sampled_from(["xy", "odd_even"]),
)
def test_explicit_packet_batch_is_delivered_exactly_once(sources, routing):
    """A hand-built batch of packets is delivered exactly once each and hop
    counts never exceed the mesh diameter (no livelock with minimal routing)."""
    config = SimulatorConfig(width=4, routing=routing)
    simulator = NoCSimulator(config)
    packets = []
    for src, dst, size in sources:
        packet = Packet(src=src, dst=dst, size=size, creation_cycle=0)
        packets.append(packet)
        simulator.inject_packet(packet)
    simulator.drain(20_000)
    assert simulator.stats.packets_delivered == len(packets)
    for packet in packets:
        assert packet.delivered
        assert packet.hops == simulator.topology.hop_distance(packet.src, packet.dst)


@SIM_SETTINGS
@given(
    rate=st.floats(min_value=0.0, max_value=0.12),
    pattern=st.sampled_from(["uniform", "transpose", "hotspot"]),
    dvfs_level=st.integers(min_value=0, max_value=3),
    packet_size=st.integers(min_value=1, max_value=6),
    cycles=st.integers(min_value=100, max_value=600),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_idle_fast_path_is_telemetry_identical_to_slow_path(
    rate, pattern, dvfs_level, packet_size, cycles, seed
):
    """The idle-cycle fast path is an optimisation, not a semantic change:
    over a low-load epoch it must produce byte-identical statistics and
    energy (including the exact leakage floats) to the full cycle loop."""
    simulators = []
    for fast_path in (True, False):
        config = SimulatorConfig(width=4, packet_size=packet_size, seed=seed)
        simulator = NoCSimulator(config)
        simulator.idle_fast_path = fast_path
        simulator.set_global_dvfs_level(dvfs_level)
        simulator.traffic = TrafficGenerator.from_names(
            simulator.topology, pattern, rate, packet_size=packet_size, seed=seed
        )
        simulators.append(simulator)
    fast, slow = simulators

    fast_telemetry = fast.run_epoch(cycles)
    slow_telemetry = slow.run_epoch(cycles)
    assert fast_telemetry.as_dict() == slow_telemetry.as_dict()
    assert fast_telemetry.energy.as_dict() == slow_telemetry.energy.as_dict()
    assert fast.stats.snapshot() == slow.stats.snapshot()
    assert fast.power.energy.leakage_pj == slow.power.energy.leakage_pj
    assert slow.idle_cycles == 0
    if rate == 0.0:
        assert fast.idle_cycles == cycles


#: Adjacent (src, dst) pairs of the 4x4 mesh used for fault events.
_FAULT_LINKS = [(1, 2), (5, 6), (6, 10), (9, 10), (0, 4), (10, 11)]

_EVENT_KINDS = ("node_dvfs", "global_dvfs", "fail", "repair", "vcs")


def _apply_event(simulator, kind, a, b):
    if kind == "node_dvfs":
        simulator.set_dvfs_level(a % 16, b)
    elif kind == "global_dvfs":
        simulator.set_global_dvfs_level(b)
    elif kind == "fail":
        simulator.fail_link(*_FAULT_LINKS[a % len(_FAULT_LINKS)])
    elif kind == "repair":
        simulator.repair_link(*_FAULT_LINKS[a % len(_FAULT_LINKS)])
    else:
        simulator.set_enabled_vcs(1 + b % simulator.config.num_vcs)


@SIM_SETTINGS
@given(
    rate=st.floats(min_value=0.0, max_value=0.25),
    pattern=st.sampled_from(["uniform", "transpose", "hotspot"]),
    routing=st.sampled_from(["xy", "odd_even", "west_first"]),
    packet_size=st.integers(min_value=1, max_value=5),
    cycles=st.integers(min_value=80, max_value=400),
    seed=st.integers(min_value=0, max_value=10_000),
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=399),
            st.sampled_from(_EVENT_KINDS),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=8,
    ),
)
def test_activity_engine_is_bit_identical_to_naive_engine(
    rate, pattern, routing, packet_size, cycles, seed, events
):
    """The activity-tracked engine (active sets, gated skip, idle fast path)
    and the naive scan-everything engine must produce byte-identical
    statistics and energy — including under mid-run per-node DVFS changes,
    link failures/repairs and enabled-VC reconfiguration."""
    by_cycle: dict[int, list[tuple[str, int, int]]] = {}
    for event_cycle, kind, a, b in events:
        by_cycle.setdefault(event_cycle, []).append((kind, a, b))

    simulators = []
    for optimised in (True, False):
        config = SimulatorConfig(
            width=4, routing=routing, packet_size=packet_size, seed=seed
        )
        simulator = NoCSimulator(config)
        simulator.activity_tracking = optimised
        simulator.idle_fast_path = optimised
        simulator.traffic = TrafficGenerator.from_names(
            simulator.topology, pattern, rate, packet_size=packet_size, seed=seed
        )

        def on_cycle(cycle, simulator=simulator):
            for kind, a, b in by_cycle.get(cycle, ()):
                _apply_event(simulator, kind, a, b)

        telemetry = simulator.run_epoch(cycles, on_cycle=on_cycle)
        simulators.append((simulator, telemetry))

    (fast, fast_telemetry), (naive, naive_telemetry) = simulators
    assert fast_telemetry.as_dict() == naive_telemetry.as_dict()
    assert fast_telemetry.energy.as_dict() == naive_telemetry.energy.as_dict()
    assert fast.stats.snapshot() == naive.stats.snapshot()
    assert fast.power.energy.leakage_pj == naive.power.energy.leakage_pj
    assert fast.buffered_flits == naive.buffered_flits
    assert fast.source_queue_backlog == naive.source_queue_backlog
    for node in fast.routers:
        assert fast.routers[node].buffered_flits == naive.routers[node].buffered_flits
    # The incremental activity state must agree with a full scan.
    assert fast.buffered_flits == sum(
        router.buffered_flits for router in fast.routers.values()
    )
    assert fast.source_queue_backlog == sum(
        len(queue) for queue in fast.model._source_queues.values()
    )
    assert fast.model.active_routers == {
        node for node, router in fast.routers.items() if router.buffered_flits
    }
    assert fast.model.nonempty_sources == {
        node for node, queue in fast.model._source_queues.items() if queue
    }
    assert naive.idle_cycles == 0
    assert naive.skipped_router_steps == 0


@SIM_SETTINGS
@given(
    rate=st.floats(min_value=0.0, max_value=0.25),
    pattern=st.sampled_from(["uniform", "transpose", "hotspot"]),
    routing=st.sampled_from(["xy", "odd_even", "west_first"]),
    packet_size=st.integers(min_value=1, max_value=5),
    cycles=st.integers(min_value=80, max_value=400),
    seed=st.integers(min_value=0, max_value=10_000),
    events=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=399),
            st.sampled_from(_EVENT_KINDS),
            st.integers(min_value=0, max_value=15),
            st.integers(min_value=0, max_value=3),
        ),
        max_size=8,
    ),
)
def test_event_engine_is_bit_identical_to_cycle_engines_under_events(
    rate, pattern, routing, packet_size, cycles, seed, events
):
    """The calendar-queue event engine must produce byte-identical telemetry
    to both cycle-engine variants — the naive scan-everything loop and the
    default activity-tracked loop — including under mid-run per-node DVFS
    retunes, link failures/repairs and enabled-VC reconfiguration, and it
    must agree with the tracked loop on the ``idle_cycles`` counter."""
    by_cycle: dict[int, list[tuple[str, int, int]]] = {}
    for event_cycle, kind, a, b in events:
        by_cycle.setdefault(event_cycle, []).append((kind, a, b))

    simulators = []
    for engine, optimised in (("event", True), ("cycle", True), ("cycle", False)):
        config = SimulatorConfig(
            width=4, routing=routing, packet_size=packet_size, seed=seed, engine=engine
        )
        simulator = NoCSimulator(config)
        simulator.activity_tracking = optimised
        simulator.idle_fast_path = optimised
        simulator.traffic = TrafficGenerator.from_names(
            simulator.topology, pattern, rate, packet_size=packet_size, seed=seed
        )

        def on_cycle(cycle, simulator=simulator):
            for kind, a, b in by_cycle.get(cycle, ()):
                _apply_event(simulator, kind, a, b)

        telemetry = simulator.run_epoch(cycles, on_cycle=on_cycle)
        simulators.append((simulator, telemetry))

    (event, event_telemetry), (tracked, tracked_telemetry), (naive, naive_telemetry) = (
        simulators
    )
    for reference, reference_telemetry in ((tracked, tracked_telemetry), (naive, naive_telemetry)):
        assert event_telemetry.as_dict() == reference_telemetry.as_dict()
        assert event_telemetry.energy.as_dict() == reference_telemetry.energy.as_dict()
        assert event.stats.snapshot() == reference.stats.snapshot()
        assert event.power.energy.leakage_pj == reference.power.energy.leakage_pj
        assert event.buffered_flits == reference.buffered_flits
        assert event.source_queue_backlog == reference.source_queue_backlog
        for node in event.routers:
            assert (
                event.routers[node].buffered_flits
                == reference.routers[node].buffered_flits
            )
    # The idle-cycle accounting (part of ScenarioResult) must match the
    # tracked cycle engine's exactly, so whole scenario payloads compare
    # equal across engines.
    assert event.idle_cycles == tracked.idle_cycles
    # The event engine's own activity state must agree with a full scan.
    assert event.model.active_routers == {
        node for node, router in event.routers.items() if router.buffered_flits
    }
    assert event.model.nonempty_sources == {
        node for node, queue in event.model._source_queues.items() if queue
    }


@SIM_SETTINGS
@given(
    gap=st.integers(min_value=1, max_value=200),
    burst_cycles=st.integers(min_value=0, max_value=120),
    rate=st.floats(min_value=0.0, max_value=0.2),
    packet_size=st.integers(min_value=1, max_value=4),
    cycles=st.integers(min_value=100, max_value=500),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_idle_span_batching_is_bit_identical_to_per_cycle_idle_path(
    gap, burst_cycles, rate, packet_size, cycles, seed
):
    """A windowed traffic source (silent before ``gap`` and after the burst)
    lets the engine leap whole idle spans via ``next_injection_cycle``; the
    result must match the naive per-cycle engine bit for bit."""
    simulators = []
    for optimised in (True, False):
        config = SimulatorConfig(width=4, packet_size=packet_size, seed=seed)
        simulator = NoCSimulator(config)
        simulator.activity_tracking = optimised
        simulator.idle_fast_path = optimised
        simulator.traffic = TrafficGenerator(
            simulator.topology,
            get_pattern("uniform", simulator.topology),
            BernoulliInjection(rate, packet_size),
            packet_size=packet_size,
            seed=seed,
            start_cycle=gap,
            end_cycle=gap + burst_cycles,
        )
        telemetry = simulator.run_epoch(cycles)
        simulators.append((simulator, telemetry))

    (fast, fast_telemetry), (naive, naive_telemetry) = simulators
    assert fast_telemetry.as_dict() == naive_telemetry.as_dict()
    assert fast.stats.snapshot() == naive.stats.snapshot()
    assert fast.power.energy.leakage_pj == naive.power.energy.leakage_pj
    assert fast.cycle == naive.cycle == cycles
    # The leading gap is entirely idle, so the optimised engine must have
    # served at least those cycles through the fast path.
    assert fast.idle_cycles >= min(gap, cycles)


@SIM_SETTINGS
@given(
    occupancy_cycles=st.integers(min_value=50, max_value=300),
    rate=st.floats(min_value=0.1, max_value=0.6),
    seed=st.integers(min_value=0, max_value=1_000),
)
def test_buffer_occupancy_never_exceeds_capacity(occupancy_cycles, rate, seed):
    """No router ever buffers more flits than its ports x VCs x depth, even
    beyond saturation (credit back-pressure enforces the bound)."""
    config = SimulatorConfig(width=4, num_vcs=2, buffer_depth=4, seed=seed)
    simulator = NoCSimulator(config)
    simulator.traffic = TrafficGenerator.from_names(
        simulator.topology, "uniform", rate, packet_size=4, seed=seed
    )
    capacity = {
        node: len(router.input_ports) * router.num_vcs * router.buffer_depth
        for node, router in simulator.routers.items()
    }
    for _ in range(occupancy_cycles):
        simulator.step()
        for node, router in simulator.routers.items():
            assert 0 <= router.buffered_flits <= capacity[node]
