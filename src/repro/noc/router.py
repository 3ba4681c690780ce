"""Input-buffered virtual-channel wormhole router.

The router implements the canonical four-stage pipeline collapsed into a
single simulator cycle:

1. **RC** (route computation) — the head flit at the front of an idle input
   VC computes its candidate output ports via the configured routing
   algorithm and a selection policy picks one;
2. **VA** (virtual-channel allocation) — the packet claims a free virtual
   channel on the chosen output port; the VC is held until the tail flit
   leaves (wormhole switching);
3. **SA** (switch allocation) — per output port, a round-robin arbiter grants
   the crossbar to one requesting input VC, subject to one flit per input
   port per cycle and credit availability;
4. **ST/LT** (switch & link traversal) — the winning flit is removed from its
   input buffer and handed to the network, which delivers it to the
   downstream router (or ejects it) at the end of the cycle.

DVFS is modelled with a clock divider: a router at divider ``d`` only runs
the pipeline on cycles where ``cycle % d == 0``.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from repro.noc.arbiters import RoundRobinArbiter
from repro.noc.dvfs import OperatingPoint
from repro.noc.flow_control import CreditBook
from repro.noc.packet import Flit
from repro.noc.power import PowerModel
from repro.noc.routing import RoutingAlgorithm, SelectionPolicy
from repro.noc.topology import CARDINAL_DIRECTIONS, Direction, Mesh


class VCState(Enum):
    """State machine of an input virtual channel."""

    IDLE = "idle"
    ROUTED = "routed"
    ACTIVE = "active"


@dataclass(slots=True)
class Movement:
    """A flit leaving a router during one cycle, to be applied by the network."""

    flit: Flit
    src_node: int
    in_port: Direction
    in_vc: int
    out_port: Direction
    out_vc: int | None
    dst_node: int | None


class InputVirtualChannel:
    """One input virtual channel: a flit FIFO plus routing/allocation state."""

    __slots__ = ("buffer", "state", "out_port", "out_vc", "depth")

    def __init__(self, depth: int) -> None:
        self.depth = depth
        self.buffer: deque[Flit] = deque()
        self.state = VCState.IDLE
        self.out_port: Direction | None = None
        self.out_vc: int | None = None

    @property
    def occupancy(self) -> int:
        return len(self.buffer)

    @property
    def has_space(self) -> bool:
        return len(self.buffer) < self.depth

    def reset_allocation(self) -> None:
        self.state = VCState.IDLE
        self.out_port = None
        self.out_vc = None


class Router:
    """One NoC router attached to node ``node`` of ``topology``."""

    #: Optional observer invoked when :meth:`set_operating_point` installs a
    #: different DVFS level (re-applying the current one is a no-op and stays
    #: silent); the model uses it to invalidate its cached leakage schedule
    #: and divider table without re-scanning every router every cycle.
    #: Operating-point changes must go through :meth:`set_operating_point`.
    on_operating_point_change: "Callable[[], None] | None" = None

    def __init__(
        self,
        node: int,
        topology: Mesh,
        *,
        num_vcs: int = 2,
        buffer_depth: int = 4,
        routing: RoutingAlgorithm,
        selection: SelectionPolicy = SelectionPolicy.MOST_CREDITS,
        operating_point: OperatingPoint,
        rng: random.Random | None = None,
    ) -> None:
        if num_vcs < 1:
            raise ValueError("routers need at least one virtual channel")
        if buffer_depth < 1:
            raise ValueError("buffer depth must be at least one flit")
        self.node = node
        self.topology = topology
        self.num_vcs = num_vcs
        self.enabled_vcs = num_vcs
        self.buffer_depth = buffer_depth
        self.routing = routing
        self.selection = selection
        self.operating_point = operating_point
        self.blocked_ports: set[Direction] = set()
        self._rng = rng or random.Random(node)

        neighbors = topology.neighbors(node)
        self.input_ports: list[Direction] = [Direction.LOCAL] + list(neighbors)
        self.output_ports: list[Direction] = [Direction.LOCAL] + list(neighbors)
        self._neighbor_ports: list[Direction] = list(neighbors)
        self._neighbor_by_port: dict[Direction, int] = dict(neighbors)

        self.inputs: dict[Direction, list[InputVirtualChannel]] = {
            port: [InputVirtualChannel(buffer_depth) for _ in range(num_vcs)]
            for port in self.input_ports
        }
        # Static (port, vc, ivc) scan order, filtered per cycle by occupancy.
        self._vc_scan: list[tuple[Direction, int, InputVirtualChannel]] = [
            (port, vc_index, ivc)
            for port in self.input_ports
            for vc_index, ivc in enumerate(self.inputs[port])
        ]
        # Occupied-VC tracking: the scan positions whose buffers hold flits,
        # maintained at the two buffer mutation points (receive_flit /
        # _traverse) so a saturated router walks only its occupied VCs
        # instead of the full ports x VCs grid every cycle.  Positions (not
        # (port, vc) pairs) so a sorted set reproduces the static scan
        # order VC allocation and switch arbitration depend on.
        self._scan_index: dict[tuple[Direction, int], int] = {
            (port, vc_index): index
            for index, (port, vc_index, _) in enumerate(self._vc_scan)
        }
        self._occupied_scan: set[int] = set()
        self.credits = CreditBook(self._neighbor_ports, num_vcs, buffer_depth)
        self._credit_levels = self.credits.levels
        self._routable_ports = frozenset(self._neighbor_ports)
        # Which (input port, vc) currently holds each output VC (wormhole hold).
        self._output_vc_owner: dict[Direction, list[tuple[Direction, int] | None]] = {
            port: [None] * num_vcs for port in self._neighbor_ports
        }
        universe = [(port, vc) for port in self.input_ports for vc in range(num_vcs)]
        self._switch_arbiters: dict[Direction, RoundRobinArbiter] = {
            port: RoundRobinArbiter(universe) for port in self.output_ports
        }
        self.buffered_flits = 0

    # -- configuration knobs (the self-configuration surface) ------------------

    def set_operating_point(self, point: OperatingPoint) -> None:
        if point == self.operating_point:
            return
        self.operating_point = point
        if self.on_operating_point_change is not None:
            self.on_operating_point_change()

    def set_routing(self, routing: RoutingAlgorithm) -> None:
        self.routing = routing

    def set_selection(self, selection: SelectionPolicy) -> None:
        self.selection = selection

    @staticmethod
    def validate_enabled_vcs(count: int, num_vcs: int) -> None:
        """Raise ``ValueError`` unless ``1 <= count <= num_vcs``.

        Shared with :meth:`NoCSimulator.set_enabled_vcs`, which validates the
        count once up front so a bad value cannot leave half the routers
        reconfigured when the exception propagates.
        """
        if not 1 <= count <= num_vcs:
            raise ValueError(f"enabled VC count must be in [1, {num_vcs}]")

    def set_enabled_vcs(self, count: int) -> None:
        self.validate_enabled_vcs(count, self.num_vcs)
        self.enabled_vcs = count

    def block_port(self, port: Direction) -> None:
        """Fail the outgoing link on ``port`` (fault-injection hook)."""
        self.blocked_ports.add(port)

    def unblock_port(self, port: Direction) -> None:
        self.blocked_ports.discard(port)

    # -- flit ingress ------------------------------------------------------------

    def can_accept(self, port: Direction, vc: int) -> bool:
        ivc = self.inputs[port][vc]
        return len(ivc.buffer) < ivc.depth

    def receive_flit(self, port: Direction, vc: int, flit: Flit) -> None:
        ivc = self.inputs[port][vc]
        buffer = ivc.buffer
        if len(buffer) >= ivc.depth:
            raise RuntimeError(
                f"buffer overflow at node {self.node} port {port.name} vc {vc}"
            )
        if not buffer:
            self._occupied_scan.add(self._scan_index[(port, vc)])
        buffer.append(flit)
        self.buffered_flits += 1

    def occupancy(self) -> int:
        """Total flits buffered across all input VCs."""
        return self.buffered_flits

    # -- pipeline ---------------------------------------------------------------

    def is_active_cycle(self, cycle: int) -> bool:
        return self.operating_point.is_active_cycle(cycle)

    def step(self, cycle: int, power: PowerModel) -> list[Movement]:
        """Run one router cycle; return the flit movements to apply."""
        if self.buffered_flits == 0 or not self.is_active_cycle(cycle):
            return []
        movements: list[Movement] = []
        self.step_into(cycle, power, movements)
        return movements

    def step_into(
        self, cycle: int, power: PowerModel, movements: list[Movement]
    ) -> None:
        """Run the pipeline, appending movements to a caller-owned list.

        Precondition: the router holds buffered flits and ``cycle`` is clock
        active — the activity-tracked engine has already established both
        from its active set and divider table, so this entry point skips the
        re-checks and the per-router result list that :meth:`step` pays for.

        The occupancy scan and the RC/VA stage share one pass over the
        *occupied* VCs only: the ``_occupied_scan`` position set (maintained
        where buffers mutate) replaces the ports x VCs grid walk, so a
        saturated router pays for the VCs that hold flits, not for every
        empty one it would have skipped.
        """
        idle = VCState.IDLE
        routed = VCState.ROUTED
        scan = self._vc_scan
        occupied_scan = self._occupied_scan
        if len(occupied_scan) == len(scan):
            occupied = scan
        else:
            # Sorting the position set reproduces the static scan order the
            # VC-allocation and arbitration stages are sensitive to.
            occupied = [scan[index] for index in sorted(occupied_scan)]
        for entry in occupied:
            ivc = entry[2]
            state = ivc.state
            if state is idle:
                head = ivc.buffer[0]
                if not head.is_head:
                    raise RuntimeError(
                        f"flit ordering violated at node {self.node}: "
                        f"expected head flit, found {head.flit_type}"
                    )
                ivc.out_port = self._compute_route(head)
                ivc.state = state = routed
            if state is routed:
                self._allocate_output_vc(entry[0], entry[1], ivc)
        self._switch_traversal(occupied, power, movements)

    def _compute_route(self, head: Flit) -> Direction:
        candidates = self.routing(self.topology, self.node, head.src, head.dst)
        if not candidates:
            raise RuntimeError(
                f"routing returned no candidates at node {self.node} for {head!r}"
            )
        if Direction.LOCAL in candidates:
            return Direction.LOCAL
        usable = [c for c in candidates if c in self._routable_ports]
        if not usable:
            raise RuntimeError(
                f"routing produced off-chip candidates {candidates} at node {self.node}"
            )
        unblocked = [c for c in usable if c not in self.blocked_ports]
        if unblocked:
            usable = unblocked
        return self._select_output(usable)

    def _select_output(self, candidates: list[Direction]) -> Direction:
        if len(candidates) == 1 or self.selection is SelectionPolicy.FIRST:
            return candidates[0]
        if self.selection is SelectionPolicy.RANDOM:
            return self._rng.choice(candidates)
        # MOST_CREDITS: prefer the least congested downstream port.
        return max(candidates, key=lambda port: (self.credits.total_available(port), -port))

    def _allocate_output_vc(
        self, port: Direction, vc_index: int, ivc: InputVirtualChannel
    ) -> None:
        assert ivc.out_port is not None
        if ivc.out_port is Direction.LOCAL:
            ivc.out_vc = None
            ivc.state = VCState.ACTIVE
            return
        owners = self._output_vc_owner[ivc.out_port]
        for out_vc in range(self.enabled_vcs):
            if owners[out_vc] is None:
                owners[out_vc] = (port, vc_index)
                ivc.out_vc = out_vc
                ivc.state = VCState.ACTIVE
                return
        # No free output VC this cycle; retry on a later cycle.

    # switch allocation + traversal
    def _switch_traversal(
        self,
        occupied: list[tuple[Direction, int, InputVirtualChannel]],
        power: PowerModel,
        movements: list[Movement],
    ) -> None:
        # Group the allocated VCs by their output port up front; arbitration
        # then only visits ports that actually have requesters.  A VC's
        # grant cannot perturb another port's candidates (credits are
        # per-port and a VC requests exactly one port), so deferring the
        # downstream-space check to the grant loop reproduces the naive
        # scan-per-output-port behaviour exactly.
        active_state = VCState.ACTIVE
        requests_by_port: dict[
            Direction, list[tuple[Direction, int, InputVirtualChannel]]
        ] = {}
        for entry in occupied:
            ivc = entry[2]
            if ivc.state is active_state:
                out_port = ivc.out_port
                candidates = requests_by_port.get(out_port)
                if candidates is None:
                    requests_by_port[out_port] = [entry]
                else:
                    candidates.append(entry)
        if not requests_by_port:
            return
        blocked = self.blocked_ports
        credit_levels = self._credit_levels
        if len(requests_by_port) == 1:
            # Single-output-port fast path (the common low-contention case):
            # the output-port iteration order and the used-input-port filter
            # cannot matter with one port in play.
            out_port, candidates = next(iter(requests_by_port.items()))
            if out_port in blocked:
                return
            if out_port is Direction.LOCAL:
                requests = [(in_port, vc_index) for in_port, vc_index, ivc in candidates]
            else:
                levels = credit_levels[out_port]
                requests = [
                    (in_port, vc_index)
                    for in_port, vc_index, ivc in candidates
                    if levels[ivc.out_vc] > 0
                ]
            winner = self._switch_arbiters[out_port].grant(requests)
            if winner is not None:
                movements.append(self._traverse(winner[0], winner[1], out_port, power))
            return
        used_input_ports: set[Direction] = set()
        for out_port in self.output_ports:
            candidates = requests_by_port.get(out_port)
            if not candidates or out_port in blocked:
                continue
            if out_port is Direction.LOCAL:
                requests = [
                    (in_port, vc_index)
                    for in_port, vc_index, ivc in candidates
                    if in_port not in used_input_ports
                ]
            else:
                levels = credit_levels[out_port]
                requests = [
                    (in_port, vc_index)
                    for in_port, vc_index, ivc in candidates
                    if in_port not in used_input_ports and levels[ivc.out_vc] > 0
                ]
            winner = self._switch_arbiters[out_port].grant(requests)
            if winner is None:
                continue
            in_port, vc_index = winner
            used_input_ports.add(in_port)
            movements.append(self._traverse(in_port, vc_index, out_port, power))

    def _traverse(
        self, in_port: Direction, vc_index: int, out_port: Direction, power: PowerModel
    ) -> Movement:
        ivc = self.inputs[in_port][vc_index]
        flit = ivc.buffer.popleft()
        if not ivc.buffer:
            self._occupied_scan.discard(self._scan_index[(in_port, vc_index)])
        self.buffered_flits -= 1
        out_vc = ivc.out_vc
        local = out_port is Direction.LOCAL
        power.record_flit_traversal(self.operating_point, link=not local)

        dst_node: int | None = None
        if not local:
            assert out_vc is not None
            # Inline CreditBook.consume (hot path): spend one credit.
            levels = self._credit_levels[out_port]
            if levels[out_vc] <= 0:
                raise RuntimeError(
                    f"credit underflow on port {out_port.name} vc {out_vc}"
                )
            levels[out_vc] -= 1
            dst_node = self._neighbor_by_port[out_port]

        if flit.is_tail:
            if out_port is not Direction.LOCAL:
                assert out_vc is not None
                self._output_vc_owner[out_port][out_vc] = None
            ivc.reset_allocation()

        return Movement(flit, self.node, in_port, vc_index, out_port, out_vc, dst_node)

    # -- credit interface used by the network -------------------------------------

    def release_credit(self, port: Direction, vc: int) -> None:
        self.credits.release(port, vc)

    # -- introspection --------------------------------------------------------------

    def free_input_vc(self, port: Direction) -> int | None:
        """Index of an idle, empty, enabled input VC on ``port`` (for injection)."""
        for vc_index in range(self.enabled_vcs):
            ivc = self.inputs[port][vc_index]
            if ivc.state is VCState.IDLE and not ivc.buffer:
                return vc_index
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Router(node={self.node}, buffered={self.buffered_flits}, "
            f"op={self.operating_point.name})"
        )


# Re-export so callers importing the router module see the cardinal ordering
# the arbiters and tests rely on.
__all__ = [
    "CARDINAL_DIRECTIONS",
    "InputVirtualChannel",
    "Movement",
    "Router",
    "VCState",
]
