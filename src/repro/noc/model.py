"""The passive network model: state, phases and reconfiguration — no clock.

:class:`NoCModel` owns everything about the simulated NoC *except* the
decision of when to do it: topology, routers, links, NI source queues, the
power model, cumulative statistics, the DVFS/routing/VC reconfiguration
surface and the activity-tracking bookkeeping (active-router and
nonempty-source sets, incremental buffered/queued totals, the cached
leakage-increment schedule and distinct-divider table, all invalidated
through the router operating-point observer hook).

Advancing simulated time is an *engine*'s job (see :mod:`repro.engines`).
The model exposes the cycle phases engines compose —
:meth:`inject_from_sources`, :meth:`step_routers`, :meth:`apply_movements`
and :meth:`record_cycle_overheads` — plus the O(1) :meth:`network_empty`
check and the cached per-cycle accrual helpers that make span batching
bit-identical to per-cycle execution.  Two engines ship with the package:
the cycle-driven loop (``cycle``, the reference) and the calendar-queue
event engine (``event``); both must produce byte-identical telemetry.

:class:`~repro.noc.network.NoCSimulator` remains the user-facing facade
that couples one model with one engine.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol

from repro.noc.dvfs import DVFS_LEVELS_DEFAULT, OperatingPoint
from repro.noc.link import Link
from repro.noc.packet import Flit, Packet
from repro.noc.power import PowerModel, PowerParameters
from repro.noc.router import Movement, Router
from repro.noc.routing import SelectionPolicy, get_routing_algorithm
from repro.noc.stats import EpochTelemetry, NetworkStats
from repro.noc.topology import Direction, Mesh, Torus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.traffic.generator import FlowProfile


class TrafficSource(Protocol):
    """Anything that can hand the simulator new packets each cycle.

    ``generate`` is required.  ``next_injection_cycle`` and ``flow_profile``
    are full protocol members (engines call them directly, no ``getattr``
    probing); both carry default implementations here, so a source can
    subclass :class:`TrafficSource` and override only ``generate``.
    """

    def generate(self, cycle: int) -> list[Packet]:
        """Packets created at ``cycle`` (creation_cycle must equal ``cycle``)."""
        ...  # pragma: no cover - protocol definition

    def next_injection_cycle(self, cycle: int) -> int | None:
        """Earliest cycle ``>= cycle`` at which a packet may be created.

        A source that returns anything other than ``cycle`` promises that

        * no packet is created before the returned cycle (``None`` meaning
          "never again"), and
        * skipping the ``generate`` calls for every cycle in
          ``[cycle, returned)`` is unobservable — later ``generate`` calls
          behave exactly as if the skipped ones had been made.

        The default returns ``cycle`` itself: "a packet may appear as early
        as now", the conservative answer that disables idle-span batching
        but never drops traffic.  (A default of ``None`` would claim the
        source is silent forever and make engines skip its packets.)

        Engines query freely — the event engine asks again for the same
        ``cycle`` on every re-entry, and an engine with flits in flight
        keeps calling ``generate`` inside a span it was told is quiet — so
        any lookahead behind the answer is the source's own state: repeated
        queries must agree, and a ``generate`` call inside ``[cycle,
        returned)`` must return nothing and leave the source as the skipped
        call would have (see :class:`~repro.traffic.generator.TrafficGenerator`,
        whose sparse Bernoulli lookahead is the reference implementation).
        """
        return cycle

    def flow_profile(self, cycle: int) -> "FlowProfile | None":
        """Sustained per-flow injection rates from ``cycle`` onwards.

        The flow engine's traffic extraction (see
        :class:`repro.traffic.generator.FlowProfile`).  A source that
        returns a profile promises that, between ``cycle`` and the
        profile's ``until``, its long-run behaviour is the listed set of
        constant-rate flows.  The default declines (``None``): the source
        cannot express its traffic as sustained flows and the flow engine
        refuses to run it.
        """
        return None


@dataclass(frozen=True)
class SimulatorConfig:
    """Static configuration of the simulated NoC."""

    width: int = 4
    height: int | None = None
    torus: bool = False
    num_vcs: int = 2
    buffer_depth: int = 4
    packet_size: int = 4
    routing: str = "xy"
    selection: SelectionPolicy = SelectionPolicy.MOST_CREDITS
    dvfs_levels: tuple[OperatingPoint, ...] = DVFS_LEVELS_DEFAULT
    initial_dvfs_level: int = 0
    power: PowerParameters = field(default_factory=PowerParameters)
    seed: int = 0
    #: Which execution engine :class:`~repro.noc.network.NoCSimulator`
    #: builds — a name from the :mod:`repro.engines` registry ("cycle" is
    #: the reference loop, "event" the calendar-queue engine).
    engine: str = "cycle"

    def __post_init__(self) -> None:
        if self.packet_size < 1:
            raise ValueError("packet size must be at least one flit")
        if not 0 <= self.initial_dvfs_level < len(self.dvfs_levels):
            raise ValueError("initial DVFS level index out of range")
        get_routing_algorithm(self.routing)  # validate eagerly
        # Imported here, not at module top: the engine implementations
        # import this module for NoCModel, so a top-level import would be
        # circular.
        from repro.engines import validate_engine_name

        validate_engine_name(self.engine)

    def build_topology(self) -> Mesh:
        cls = Torus if self.torus else Mesh
        return cls(self.width, self.height)


class NoCModel:
    """Passive flit-accurate model of a mesh/torus NoC.

    Holds all simulation state and implements the cycle phases; an engine
    (see :mod:`repro.engines`) decides which cycles actually execute them.
    """

    def __init__(self, config: SimulatorConfig, traffic: TrafficSource | None = None) -> None:
        self.config = config
        self.topology = config.build_topology()
        self.traffic = traffic
        self.power = PowerModel(parameters=config.power)
        self.stats = NetworkStats()
        self.cycle = 0

        self._routing_name = config.routing
        self._dvfs_level_index = config.initial_dvfs_level
        self._enabled_vcs = config.num_vcs
        routing = get_routing_algorithm(config.routing)
        initial_point = config.dvfs_levels[config.initial_dvfs_level]

        self.routers: dict[int, Router] = {}
        for node in self.topology.nodes():
            self.routers[node] = Router(
                node,
                self.topology,
                num_vcs=config.num_vcs,
                buffer_depth=config.buffer_depth,
                routing=routing,
                selection=config.selection,
                operating_point=initial_point,
                rng=random.Random(config.seed * 100_003 + node),
            )

        self.links: dict[tuple[int, int], Link] = {}
        self._neighbor_of: dict[tuple[int, Direction], int] = {}
        for src, direction, dst in self.topology.links():
            self.links[(src, dst)] = Link(src=src, direction=direction, dst=dst)
            self._neighbor_of[(src, direction)] = dst

        self._source_queues: dict[int, deque[Flit]] = {
            node: deque() for node in self.topology.nodes()
        }
        self._ni_active_vc: dict[int, int | None] = {
            node: None for node in self.topology.nodes()
        }
        self._epoch_counter = 0
        self._failed_links: set[tuple[int, int]] = set()

        # Activity tracking state: maintained unconditionally at every flit
        # ingress/egress point so the toggles below can flip mid-run and so
        # every engine can rely on the sets being exact.
        self._active_routers: set[int] = set()
        self._nonempty_sources: set[int] = set()
        self._buffered_total = 0
        self._queued_total = 0

        #: When True (the default), the cycle engine iterates only the
        #: active router / nonempty source sets, skips DVFS-gated routers
        #: and batches idle spans.  False restores the naive full-scan
        #: behaviour (the reference for the equivalence tests).
        self.activity_tracking = True
        #: When True (the default), cycles with no in-flight flits and no
        #: pending injections skip the router pipeline.
        self.idle_fast_path = True
        #: Number of cycles served by an engine's idle fast path
        #: (observability only; deliberately kept out of NetworkStats so
        #: telemetry is identical whichever engine runs).
        self.idle_cycles = 0
        #: Router.step invocations avoided relative to the naive engine
        #: (observability only, like ``idle_cycles``).
        self.skipped_router_steps = 0
        # Cached per-cycle leakage increment schedule and distinct-divider
        # set, invalidated through the router observer hook whenever any
        # operating point changes (so the hot loop never re-scans the
        # routers to validate them).
        self._leakage_increments: list[float] | None = None
        self._distinct_dividers: tuple[int, ...] | None = None
        for router in self.routers.values():
            router.on_operating_point_change = self._invalidate_operating_point_caches

    # ------------------------------------------------------------------
    # reconfiguration surface (what the DRL agent actuates)
    # ------------------------------------------------------------------

    @property
    def dvfs_level_index(self) -> int:
        return self._dvfs_level_index

    @property
    def dvfs_levels(self) -> tuple[OperatingPoint, ...]:
        return self.config.dvfs_levels

    @property
    def routing_name(self) -> str:
        return self._routing_name

    @property
    def enabled_vcs(self) -> int:
        return self._enabled_vcs

    def set_global_dvfs_level(self, level_index: int) -> None:
        if not 0 <= level_index < len(self.config.dvfs_levels):
            raise ValueError(f"DVFS level index {level_index} out of range")
        point = self.config.dvfs_levels[level_index]
        for router in self.routers.values():
            router.set_operating_point(point)
        self._dvfs_level_index = level_index

    def set_dvfs_level(self, node: int, level_index: int) -> None:
        if not 0 <= level_index < len(self.config.dvfs_levels):
            raise ValueError(f"DVFS level index {level_index} out of range")
        self.routers[node].set_operating_point(self.config.dvfs_levels[level_index])

    def set_routing_algorithm(self, name: str) -> None:
        routing = get_routing_algorithm(name)
        for router in self.routers.values():
            router.set_routing(routing)
        self._routing_name = name

    def set_enabled_vcs(self, count: int) -> None:
        # Validate once up front so an out-of-range count can never leave a
        # subset of the routers reconfigured when the exception propagates.
        Router.validate_enabled_vcs(count, self.config.num_vcs)
        for router in self.routers.values():
            router.set_enabled_vcs(count)
        self._enabled_vcs = count

    @property
    def failed_links(self) -> frozenset[tuple[int, int]]:
        """The directed links currently failed via :meth:`fail_link`."""
        return frozenset(self._failed_links)

    def _require_link(self, src: int, dst: int) -> None:
        if (src, dst) not in self.links:
            raise ValueError(
                f"no directed link {src} -> {dst} in {self.topology!r}; "
                "fault injection requires an existing router-to-router link"
            )

    def fail_link(self, src: int, dst: int) -> None:
        """Block the directed link ``src -> dst`` (fault injection).

        Raises ``ValueError`` if the topology has no such link.
        """
        self._require_link(src, dst)
        direction = self.topology.direction_towards(src, dst)
        self.routers[src].block_port(direction)
        self._failed_links.add((src, dst))

    def repair_link(self, src: int, dst: int) -> None:
        """Undo :meth:`fail_link`; repairing a healthy link is a no-op.

        Raises ``ValueError`` if the topology has no such link.
        """
        self._require_link(src, dst)
        direction = self.topology.direction_towards(src, dst)
        self.routers[src].unblock_port(direction)
        self._failed_links.discard((src, dst))

    # ------------------------------------------------------------------
    # packet ingress
    # ------------------------------------------------------------------

    def inject_packet(self, packet: Packet) -> None:
        """Queue a packet at its source NI (creation statistics recorded here)."""
        self.stats.record_packet_created(packet.size)
        if packet.src == packet.dst:
            # Local delivery never enters the network.
            packet.injection_cycle = packet.creation_cycle
            packet.arrival_cycle = packet.creation_cycle
            self.stats.record_packet_injected(packet.size)
            for _ in range(packet.size):
                self.stats.record_flit_delivered()
            self.stats.record_packet_delivered(
                packet.total_latency, packet.network_latency, hops=0
            )
            return
        self._source_queues[packet.src].extend(packet.flits())
        self._nonempty_sources.add(packet.src)
        self._queued_total += packet.size

    # ------------------------------------------------------------------
    # emptiness / activity queries (engine scheduling inputs)
    # ------------------------------------------------------------------

    @property
    def active_routers(self) -> set[int]:
        """Routers currently holding buffered flits (exact at all times)."""
        return self._active_routers

    @property
    def nonempty_sources(self) -> set[int]:
        """NIs currently holding queued flits (exact at all times)."""
        return self._nonempty_sources

    def network_empty(self) -> bool:
        """No flits queued at any NI and none buffered in any router."""
        if self.activity_tracking:
            return not self._nonempty_sources and not self._active_routers
        if any(self._source_queues.values()):
            return False
        return all(router.buffered_flits == 0 for router in self.routers.values())

    # ------------------------------------------------------------------
    # cycle phases (engines compose these)
    # ------------------------------------------------------------------

    def inject_from_sources(self, cycle: int) -> None:
        if self.activity_tracking:
            # Ascending node order matches the naive scan (dicts preserve the
            # topology's node insertion order), keeping energy accumulation
            # bit-identical.
            nodes = sorted(self._nonempty_sources)
        else:
            nodes = self._source_queues
        source_queues = self._source_queues
        routers = self.routers
        ni_active_vc = self._ni_active_vc
        local = Direction.LOCAL
        for node in nodes:
            queue = source_queues[node]
            if not queue:
                continue
            router = routers[node]
            if cycle % router.operating_point.divider:
                continue
            flit = queue[0]
            vc = ni_active_vc[node]
            if flit.is_head and vc is None:
                vc = router.free_input_vc(local)
                if vc is None:
                    continue
                ni_active_vc[node] = vc
                flit.packet.injection_cycle = cycle
                self.stats.record_packet_injected(flit.packet.size)
            if vc is None:
                raise RuntimeError(f"NI at node {node} lost its VC assignment")
            ivc = router.inputs[local][vc]
            if len(ivc.buffer) >= ivc.depth:
                continue
            queue.popleft()
            self._queued_total -= 1
            if not queue:
                self._nonempty_sources.discard(node)
            router.receive_flit(local, vc, flit)
            self._buffered_total += 1
            self._active_routers.add(node)
            self.power.record_buffer_write(router.operating_point)
            if flit.is_tail:
                ni_active_vc[node] = None

    def step_routers(self, cycle: int) -> list[Movement]:
        movements: list[Movement] = []
        if not self.activity_tracking:
            for router in self.routers.values():
                movements.extend(router.step(cycle, self.power))
            return movements
        routers = self.routers
        power = self.power
        stepped = 0
        for node in sorted(self._active_routers):
            router = routers[node]
            if cycle % router.operating_point.divider:
                continue  # DVFS clock divider gates this cycle entirely.
            # Active set membership guarantees buffered flits, and the
            # divider was just checked, so enter the pipeline directly.
            router.step_into(cycle, power, movements)
            stepped += 1
        self.skipped_router_steps += len(routers) - stepped
        return movements

    def apply_movements(self, movements: list[Movement], cycle: int) -> None:
        """Deliver one cycle's flit movements: return credits upstream, then
        eject at the local NI or forward into the downstream input buffer.

        One fused per-movement loop (this is the per-flit hot path); the
        activity sets and flit totals are maintained inline.  ``cycle`` is
        the cycle the movements happened on (it stamps packet arrivals).
        """
        if not movements:
            return
        active = self._active_routers
        routers = self.routers
        neighbor_of = self._neighbor_of
        links = self.links
        stats = self.stats
        power = self.power
        local = Direction.LOCAL
        sources = set()
        for movement in movements:
            src_node = movement.src_node
            in_port = movement.in_port
            sources.add(src_node)
            if in_port is not local:
                # Credit return: the movement freed one slot in the input
                # buffer it left, so the upstream router on that port gets
                # its credit back.
                upstream = neighbor_of[(src_node, in_port)]
                routers[upstream].release_credit(in_port.opposite, movement.in_vc)
            flit = movement.flit
            if movement.out_port is local:
                # Ejection at the destination NI.
                stats.flits_delivered += 1
                if flit.is_tail:
                    packet = flit.packet
                    packet.arrival_cycle = cycle
                    stats.record_packet_delivered(
                        packet.total_latency, packet.network_latency, packet.hops
                    )
                self._buffered_total -= 1
            else:
                # Link traversal into the downstream router's input buffer.
                dst_node = movement.dst_node
                destination = routers[dst_node]
                destination.receive_flit(movement.out_port.opposite, movement.out_vc, flit)
                power.record_buffer_write(destination.operating_point)
                links[(src_node, dst_node)].record_traversal()
                stats.link_flit_traversals += 1
                if flit.is_head:
                    flit.packet.hops += 1
                active.add(dst_node)
        # Every movement removed one flit from its source router; prune the
        # routers that ended the cycle empty (a node that also received
        # flits above keeps a nonzero count and stays active).
        for node in sources:
            if routers[node].buffered_flits == 0:
                active.discard(node)

    def record_cycle_overheads(self) -> None:
        if self.activity_tracking:
            # The cached increment schedule replays the naive per-router
            # leakage loop value-for-value and in order (bit-identical), and
            # the occupancy sums come from the incremental counters.
            increments = self._leakage_increments
            if increments is None:
                increments = self._cycle_leakage_increments()
            self.power.accrue_leakage_increments(increments)
            self.stats.record_cycle(self._buffered_total, self._queued_total)
            return
        buffered = 0
        for router in self.routers.values():
            buffered += router.buffered_flits
            self.power.record_router_leakage(router.operating_point)
            outgoing_links = len(router.output_ports) - 1
            if outgoing_links:
                self.power.record_link_leakage(router.operating_point, links=outgoing_links)
        queued = sum(len(queue) for queue in self._source_queues.values())
        self.stats.record_cycle(buffered, queued)

    # ------------------------------------------------------------------
    # cached per-cycle schedules (span batching, event scheduling)
    # ------------------------------------------------------------------

    def _invalidate_operating_point_caches(self) -> None:
        self._leakage_increments = None
        self._distinct_dividers = None

    def divider_table(self) -> tuple[int, ...]:
        """The distinct clock dividers present across the routers: a cycle
        on which none of them fires is fully DVFS-gated (no injection, no
        pipeline work).  Cached; invalidated on any operating-point change."""
        dividers = self._distinct_dividers
        if dividers is None:
            dividers = tuple(
                {router.operating_point.divider for router in self.routers.values()}
            )
            self._distinct_dividers = dividers
        return dividers

    def _cycle_leakage_increments(self) -> list[float]:
        """Per-cycle leakage increments, in the exact order and with the exact
        values the naive :meth:`record_cycle_overheads` loop would add them.

        Rebuilt lazily after any DVFS change (every router reports operating
        point changes through ``on_operating_point_change``), so validating
        the cache costs O(1) per cycle instead of an O(N) guard scan.
        """
        increments = self._leakage_increments
        if increments is not None:
            return increments
        increments = []
        for router in self.routers.values():
            point = router.operating_point
            increments.append(self.power.router_leakage_increment(point))
            outgoing_links = len(router.output_ports) - 1
            if outgoing_links:
                increments.append(
                    self.power.link_leakage_increment(point, links=outgoing_links)
                )
        self._leakage_increments = increments
        return increments

    # ------------------------------------------------------------------
    # flow abstraction queries (the flow engine's inputs)
    # ------------------------------------------------------------------

    def link_capacity(self, src: int, dst: int) -> float:
        """Sustainable flits per *global* cycle over the directed link
        ``src -> dst``: the sender moves at most one flit over each output
        port per fired cycle and fires once every ``divider`` cycles;
        failed links carry nothing.  Raises ``ValueError`` for links the
        topology does not have."""
        self._require_link(src, dst)
        if (src, dst) in self._failed_links:
            return 0.0
        return 1.0 / self.routers[src].operating_point.divider

    def local_port_capacity(self, node: int) -> float:
        """Sustainable flits per global cycle through ``node``'s local port
        (NI injection and ejection are both gated by the node's divider)."""
        return 1.0 / self.routers[node].operating_point.divider

    def flow_route(self, src: int, dst: int) -> tuple[int, ...] | None:
        """Node path a sustained ``src -> dst`` flow follows under the
        current routing configuration, or ``None`` when failed links leave
        no usable direction.

        Adaptive algorithms return several candidates per hop; a sustained
        flow takes the first unblocked one (the deterministic
        ``SelectionPolicy.FIRST`` spine) — part of the flow abstraction's
        documented approximation, since congestion-adaptive selection
        spreads real traffic across siblings.
        """
        topology = self.topology
        routers = self.routers
        neighbor_of = self._neighbor_of
        path = [src]
        current = src
        limit = topology.num_nodes  # minimal routes never revisit a node
        while current != dst:
            router = routers[current]
            candidates = router.routing(topology, current, src, dst)
            step = None
            for candidate in candidates:
                if candidate is Direction.LOCAL:
                    continue  # only valid once current == dst
                if candidate in router.blocked_ports:
                    continue
                if (current, candidate) not in neighbor_of:
                    continue
                step = candidate
                break
            if step is None:
                return None
            current = neighbor_of[(current, step)]
            path.append(current)
            if len(path) > limit:
                return None  # defensive: routing is wandering, not minimal
        return tuple(path)

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    @property
    def source_queue_backlog(self) -> int:
        return self._queued_total

    @property
    def buffered_flits(self) -> int:
        return self._buffered_total

    def finish_epoch(
        self,
        cycles: int,
        stats_before: dict[str, float],
        energy_before,
    ) -> EpochTelemetry:
        """Package the telemetry observed since the given snapshots and bump
        the epoch counter (one call per completed :meth:`run_epoch`)."""
        telemetry = self._build_epoch_telemetry(cycles, stats_before, energy_before)
        self._epoch_counter += 1
        return telemetry

    def _build_epoch_telemetry(
        self,
        cycles: int,
        stats_before: dict[str, float],
        energy_before,
    ) -> EpochTelemetry:
        after = self.stats.snapshot()
        delta = {key: after[key] - stats_before[key] for key in after}
        delivered = int(delta["packets_delivered"])
        num_nodes = self.topology.num_nodes
        num_links = len(self.links)

        def per_delivered(total: float) -> float:
            return total / delivered if delivered else 0.0

        link_utilization = 0.0
        if num_links and cycles:
            link_utilization = delta["link_flit_traversals"] / (num_links * cycles)

        return EpochTelemetry(
            epoch_index=self._epoch_counter,
            cycles=cycles,
            num_nodes=num_nodes,
            num_links=num_links,
            packets_created=int(delta["packets_created"]),
            packets_injected=int(delta["packets_injected"]),
            packets_delivered=delivered,
            flits_created=int(delta["flits_created"]),
            flits_delivered=int(delta["flits_delivered"]),
            average_total_latency=per_delivered(delta["total_latency_sum"]),
            average_network_latency=per_delivered(delta["network_latency_sum"]),
            average_hops=per_delivered(delta["hop_sum"]),
            average_buffer_occupancy=(
                delta["occupancy_flit_cycles"] / (cycles * num_nodes) if cycles else 0.0
            ),
            average_source_queue_flits=(
                delta["source_queue_flit_cycles"] / (cycles * num_nodes) if cycles else 0.0
            ),
            link_utilization=link_utilization,
            in_flight_packets=self.stats.in_flight_packets,
            energy=self.power.snapshot() - energy_before,
            dvfs_level_index=self._dvfs_level_index,
            routing_name=self._routing_name,
            enabled_vcs=self._enabled_vcs,
        )
