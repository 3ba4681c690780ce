"""The flow-level fast-forward engine.

Every other engine in the registry is *exact*: it executes (or provably
batches) the flit-accurate pipeline and produces byte-identical telemetry.
This engine is **approximate** (``EngineInfo(approximate=True)``): it never
moves a flit.  Sustained traffic is modelled as per-flow rate allocations —
max-min fair waterfilling over link capacities derived from the per-router
DVFS operating points — and the clock advances in single leaps between
*discontinuities*:

* injection-rate or phase changes (``FlowProfile.until`` from the traffic
  source's ``flow_profile`` protocol member);
* ``fail_link`` / ``repair_link`` (the failed-link set is part of the
  allocation fingerprint);
* DVFS retunes (observed through the model's operating-point cache
  sentinel, which only a change of some router's point invalidates —
  re-applying the level already set is not a discontinuity);
* routing reconfiguration (``set_routing_algorithm``);
* source quiescence and backlog drain (a saturated source's NI backlog
  drains at its allocated rate; the exhaustion instant is a scheduled
  discontinuity).

Only a discontinuity re-solves, and only a change of the routing, the
failed-link set or the flow set re-routes: the per-flow paths and the
flat flow->constraint incidence arrays are cached (:class:`_Routes`), so a
DVFS retune rebuilds just the capacity vector and re-waterfills from
scratch over the cached arrays (progressive filling, the max-min fair
allocation of Bertsekas & Gallager, *Data Networks*, ch. 6).  The solve
is array-form and bit-identical to the per-flow, per-hop loop it replaced.

Between discontinuities the allocation is constant, so a span of any length
settles in O(distinct operating points) work: statistics are synthesized
from integrated rates with ``record_cycles``-style bulk accounting plus
fractional-carry integer commits, dynamic energy from per-point flit-rate
aggregates, leakage as ``span * sum(per-cycle increments)``.

What the approximation gets right and wrong (the documented contract the
``suite diff --approx`` tolerances encode):

* throughput, accepted ratio, hop counts and link utilization track the
  exact engines closely at low-to-moderate load and at saturation
  (waterfilling reproduces the max-min bottleneck structure of
  dimension-ordered routing);
* latency is an analytical M/D/1-style estimate (per-hop service at the
  router's divider, tail serialization, a queueing inflation term and
  Little's-law NI wait) — right shape and order, not cycle-accurate;
* per-packet latency *percentiles* are unavailable (``NetworkStats
  .latencies`` stays empty — counters only);
* adaptive routing is collapsed to its deterministic first-candidate
  spine, VC count and buffer depth are ignored, and leakage is a float
  multiply rather than the exact per-cycle replay.

The engine refuses traffic it cannot express as sustained flows (bursty
MMPP injection, trace replay, randomised patterns past
``FLOW_EXPANSION_BUDGET`` pairs) with a ``RuntimeError`` naming the exact
engines as the fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from repro.noc.model import NoCModel

#: Convergence epsilon for waterfilling (absolute, rates are O(1) flits/cycle).
_EPS = 1e-12
#: A flow within this of its demand is demand-satisfied and frozen.
_DEMAND_EPS = 1e-9
#: Utilization is clamped below 1 in the queueing-delay term.
_RHO_CAP = 0.97


# ----------------------------------------------------------------------
# pure flow-rate math (unit-tested directly, no model required)
# ----------------------------------------------------------------------


def waterfill(
    demands: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    capacities: Sequence[float],
) -> list[float]:
    """Max-min fair rate allocation with per-flow demand caps.

    ``flow_links[f]`` lists the indices (into ``capacities``) of the
    capacitated resources flow ``f`` traverses.  Progressive filling: every
    unfrozen flow's rate rises at the same speed; a flow freezes when it
    reaches its demand or when any of its links saturates.  The result is
    the unique max-min fair allocation: no flow's rate can be raised
    without lowering that of another flow with an equal-or-smaller rate.

    Flows with zero demand — or crossing a zero-capacity (failed) link —
    get rate 0.  Guaranteed: ``0 <= rate[f] <= demands[f]`` and for every
    link ``sum(rates crossing it) <= capacity`` (within float epsilon).
    """
    if len(demands) != len(flow_links):
        raise ValueError("demands and flow_links must have equal length")
    if len(demands) >= 64:
        return _waterfill_numpy(demands, flow_links, capacities)
    return _waterfill_python(demands, flow_links, capacities)


def _waterfill_python(
    demands: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    capacities: Sequence[float],
) -> list[float]:
    remaining = list(capacities)
    rates = [0.0] * len(demands)
    active: set[int] = set()
    for flow, links in enumerate(flow_links):
        if demands[flow] > _EPS and all(remaining[link] > _EPS for link in links):
            active.add(flow)
    while active:
        counts: dict[int, int] = {}
        for flow in active:
            for link in flow_links[flow]:
                counts[link] = counts.get(link, 0) + 1
        delta = min(demands[flow] - rates[flow] for flow in active)
        for link, count in counts.items():
            delta = min(delta, remaining[link] / count)
        if delta > 0.0:
            for flow in active:
                rates[flow] += delta
                for link in flow_links[flow]:
                    remaining[link] -= delta
        saturated = {link for link in counts if remaining[link] <= _DEMAND_EPS}
        frozen = {
            flow
            for flow in active
            if rates[flow] >= demands[flow] - _DEMAND_EPS
            or any(link in saturated for link in flow_links[flow])
        }
        if not frozen:  # defensive: progress is otherwise guaranteed
            break
        active -= frozen
    return rates


def _waterfill_numpy(
    demands: Sequence[float],
    flow_links: Sequence[Sequence[int]],
    capacities: Sequence[float],
) -> list[float]:
    entry_flow = np.fromiter(
        (flow for flow, links in enumerate(flow_links) for _ in links), dtype=np.int32
    )
    constraint_id = np.fromiter(
        (link for links in flow_links for link in links), dtype=np.int32
    )
    return _waterfill_arrays(
        np.asarray(demands, dtype=float),
        entry_flow,
        constraint_id,
        np.asarray(capacities, dtype=float),
    ).tolist()


def _waterfill_arrays(
    demand: np.ndarray,
    entry_flow: np.ndarray,
    constraint_id: np.ndarray,
    capacity: np.ndarray,
) -> np.ndarray:
    """The vectorised progressive filling behind :func:`waterfill`.

    The flow->constraint incidence is flat (CSR-style): entry ``e`` says
    flow ``entry_flow[e]`` crosses constraint ``constraint_id[e]``.
    """
    remaining = capacity.copy()
    num_flows = len(demand)
    num_links = len(remaining)
    rates = np.zeros(num_flows)
    active = demand > _EPS
    active[entry_flow[remaining[constraint_id] <= _EPS]] = False  # dead links
    # The entries of the still-active flows, compacted as flows freeze (the
    # per-constraint counts are exact integers either way).
    keep = active[entry_flow]
    flow_of, link_of = entry_flow[keep], constraint_id[keep]
    # Each round freezes at least one flow, but the loop bound is defensive.
    for _ in range(num_flows + num_links + 1):
        if not active.any():
            break
        counts = np.bincount(link_of, minlength=num_links)
        used = counts > 0
        delta = float((demand[active] - rates[active]).min())
        if used.any():
            delta = min(delta, float((remaining[used] / counts[used]).min()))
        if delta > 0.0:
            rates[active] += delta
            remaining -= delta * counts
        saturated = used & (remaining <= _DEMAND_EPS)
        frozen = active & (rates >= demand - _DEMAND_EPS)
        frozen[flow_of[saturated[link_of]]] = True
        if not frozen.any():
            break
        active &= ~frozen
        keep = active[flow_of]
        flow_of, link_of = flow_of[keep], link_of[keep]
    return rates


def _sequential_sum(terms: np.ndarray, start: float = 0.0) -> float:
    """``start + terms[0] + terms[1] + ...``, added strictly left to right.

    The order a Python ``+=`` loop adds in; ``np.sum`` adds pairwise, which
    can change the last bits.
    """
    if not terms.size:
        return start
    return float(np.add.accumulate(np.concatenate(([start], terms)))[-1])


# ----------------------------------------------------------------------
# allocation state
# ----------------------------------------------------------------------


@dataclass
class _Flow:
    """One sustained flow in the current allocation."""

    key: tuple[int, int]
    demand: float  # offered flits/cycle from the profile (0 while draining)
    rate: float = 0.0  # waterfilled allocation, flits/cycle
    path: tuple[int, ...] | None = None  # None: no route (failed links)
    transit: float = 0.0  # analytical network latency, cycles
    max_divider: int = 1


@dataclass
class _Allocation:
    """A constant rate allocation plus the precomputed span aggregates."""

    flows: list[_Flow]
    packet_size: int
    horizon: int | None  # first cycle the allocation may change, or None
    # fingerprint (cheap discontinuity detection)
    traffic: object
    routing_name: str
    failed_links: frozenset[tuple[int, int]]
    # per-cycle rate aggregates (constant over the allocation's lifetime)
    created_packets: float = 0.0
    injected_packets: float = 0.0
    delivered_packets: float = 0.0
    total_latency: float = 0.0
    network_latency: float = 0.0
    hops: float = 0.0
    link_traversals: float = 0.0
    occupancy: float = 0.0  # Little's-law in-network flits (constant)
    base_queue: float = 0.0  # NI serialization backlog at zero contention
    backlog_growth: float = 0.0  # d(total NI backlog)/dcycle (may be < 0)
    energy_by_point: list[tuple[object, float, float, float]] = field(
        default_factory=list
    )  # (operating point, write rate, read+crossbar rate, link rate)
    leakage_per_cycle: float = 0.0
    idle: bool = False  # no flows, no backlog: spans are plain idle cycles


@dataclass
class _Routes:
    """The route structure of one flow set: what a DVFS retune leaves alone.

    Valid for one ``(routing, failed links, flow keys)`` combination; a
    retune changes capacities only, so it re-waterfills over these arrays
    without re-routing.  ``paths`` runs over the allocation's flows
    (``None``: no route); every array covers the routed flows only, in
    allocation order.  A routed flow's constraint entries are its NI
    injection port, each directed link on its path, then its ejection port.
    """

    key: tuple
    paths: list[tuple[int, ...] | None]
    routed: np.ndarray  # allocation index of each routed flow
    path_nodes: np.ndarray  # the routed paths, concatenated
    path_starts: np.ndarray  # CSR offsets into path_nodes (routed + 1)
    entry_starts: np.ndarray  # CSR offsets into the constraint entries
    entry_flow: np.ndarray  # routed-flow index of each entry (flow-major)
    constraint_id: np.ndarray  # constraint index of each entry


class FlowEngine:
    """Advance a :class:`NoCModel` by integrating per-flow rate allocations."""

    name = "flow"

    def __init__(self, model: NoCModel) -> None:
        self.model = model
        self._alloc: _Allocation | None = None
        #: NI backlog per (src, dst) flow, in flits (float; saturated flows
        #: accumulate here and drain when headroom returns).
        self._backlog: dict[tuple[int, int], float] = {}
        #: Fractional carries for integer stat commits, keyed by counter.
        self._carry: dict[str, float] = {}
        #: The route structure of the latest allocation (see :class:`_Routes`).
        self._routes: _Routes | None = None
        # Constraint numbering, fixed per topology: NI injection port of node
        # n at n, its ejection port at N + n, directed links from 2N on in
        # (src, dst) order.  A constraint's capacity is set by the slower of
        # its two endpoint routers (the sender forwards and the receiver
        # releases at most one flit per fired cycle each; a port's two
        # endpoints are its node).
        num_nodes = model.topology.num_nodes
        self._num_nodes = num_nodes
        codes = np.fromiter(
            (src * num_nodes + dst for src, dst in model.links),
            dtype=np.int64,
            count=len(model.links),
        )
        codes.sort()
        self._link_codes = codes
        nodes = np.arange(num_nodes, dtype=np.int32)
        self._sender = np.concatenate((nodes, nodes, codes // num_nodes), dtype=np.int32)
        self._receiver = np.concatenate((nodes, nodes, codes % num_nodes), dtype=np.int32)

    # -- telemetry contract (observability, mirrors the other engines) -----

    @property
    def idle_cycles(self) -> int:
        return self.model.idle_cycles

    @property
    def skipped_router_steps(self) -> int:
        return self.model.skipped_router_steps

    # -- the leap loop ------------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by exactly one cycle."""
        alloc = self._current_allocation()
        self._settle(alloc, 1)
        self.model.cycle += 1

    def run(self, cycles: int, *, on_cycle: Callable[[int], None] | None = None) -> None:
        """Advance ``cycles`` cycles; ``on_cycle`` runs before each one.

        Without a hook the clock leaps from discontinuity to discontinuity;
        with one attached the engine steps cycle by cycle (the hook may
        reconfigure the model, and every reconfiguration is a potential
        discontinuity), re-validating the allocation fingerprint each step.
        """
        model = self.model
        end = model.cycle + cycles
        if on_cycle is None:
            while model.cycle < end:
                alloc = self._current_allocation()
                target = end if alloc.horizon is None else min(end, alloc.horizon)
                if target <= model.cycle:  # defensive: always make progress
                    target = model.cycle + 1
                self._settle(alloc, target - model.cycle)
                model.cycle = target
            return
        while model.cycle < end:
            on_cycle(model.cycle)
            alloc = self._current_allocation()
            self._settle(alloc, 1)
            model.cycle += 1

    # -- allocation lifecycle ----------------------------------------------

    def _current_allocation(self) -> _Allocation:
        alloc = self._alloc
        model = self.model
        if (
            alloc is not None
            and (alloc.horizon is None or model.cycle < alloc.horizon)
            # The operating-point cache sentinel: a change of any router's
            # operating point nulls it (re-applying the current point does
            # not, and nothing else touches it while this engine is
            # attached), so a primed cache means capacities are current.
            and model._distinct_dividers is not None
            and model._routing_name == alloc.routing_name
            and model._failed_links == alloc.failed_links
            and model.traffic is alloc.traffic
        ):
            return alloc
        alloc = self._compute_allocation()
        self._alloc = alloc
        return alloc

    def _compute_allocation(self) -> _Allocation:
        model = self.model
        model.divider_table()  # prime the retune sentinel for this allocation
        traffic = model.traffic
        if traffic is None:
            profile_flows: tuple = ()
            until = None
            packet_size = 1
        else:
            profile = traffic.flow_profile(model.cycle)
            if profile is None:
                raise RuntimeError(
                    "the flow engine cannot express this traffic source as "
                    "sustained flows (supported: Bernoulli injection with "
                    "weight-expressible patterns, up to FLOW_EXPANSION_BUDGET "
                    "src/dst pairs); run the exact cycle or event engine instead"
                )
            profile_flows = profile.flows
            until = profile.until
            packet_size = max(1, profile.packet_size)

        backlog = self._backlog
        flows: list[_Flow] = []
        for src, dst, rate in profile_flows:
            flows.append(_Flow(key=(src, dst), demand=rate))
        listed = {flow.key for flow in flows}
        for key, pending in backlog.items():
            # Quiesced or re-phased flows with leftover NI backlog keep
            # draining at whatever rate the allocation grants them.
            if pending > _DEMAND_EPS and key not in listed:
                flows.append(_Flow(key=key, demand=0.0))

        alloc = _Allocation(
            flows=flows,
            packet_size=packet_size,
            horizon=until,
            traffic=traffic,
            routing_name=model._routing_name,
            failed_links=frozenset(model._failed_links),
        )
        self._solve(alloc)
        return alloc

    def _link_constraints(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Constraint indices of the directed links ``src[i] -> dst[i]``."""
        codes = src.astype(np.int64)
        codes *= self._num_nodes
        codes += dst
        indices = np.searchsorted(self._link_codes, codes)
        indices += 2 * self._num_nodes
        return indices

    def _routes_for(self, alloc: _Allocation) -> _Routes:
        """The cached route structure for ``alloc``'s flows, re-routed only
        when the routing algorithm, the failed-link set or the flow set
        changed since the last allocation."""
        key = (
            alloc.routing_name,
            alloc.failed_links,
            tuple(flow.key for flow in alloc.flows),
        )
        routes = self._routes
        if routes is not None and routes.key == key:
            return routes
        self._routes = None  # let the stale arrays go before building anew
        model = self.model
        paths = [model.flow_route(*flow.key) for flow in alloc.flows]
        routed = [index for index, path in enumerate(paths) if path is not None]
        routed_paths = [paths[index] for index in routed]
        lengths = np.fromiter(map(len, routed_paths), dtype=np.int32, count=len(routed))
        path_starts = np.zeros(len(routed) + 1, dtype=np.int32)
        np.cumsum(lengths, out=path_starts[1:])
        path_nodes = np.fromiter(
            chain.from_iterable(routed_paths), dtype=np.int32, count=int(path_starts[-1])
        )
        entry_starts = path_starts + np.arange(len(routed) + 1, dtype=np.int32)
        firsts = entry_starts[:-1]
        lasts = entry_starts[1:] - 1
        constraint_id = np.empty(int(entry_starts[-1]), dtype=np.int32)
        # Between its two ports a flow's entries are the links joining its
        # consecutive nodes (pairs straddling two flows are dropped).
        is_link = np.ones(len(constraint_id), dtype=bool)
        is_link[firsts] = False
        is_link[lasts] = False
        is_hop = np.ones(max(len(path_nodes) - 1, 0), dtype=bool)
        is_hop[path_starts[1:-1] - 1] = False
        constraint_id[is_link] = self._link_constraints(
            path_nodes[:-1][is_hop], path_nodes[1:][is_hop]
        )
        constraint_id[firsts] = path_nodes[path_starts[:-1]]
        constraint_id[lasts] = self._num_nodes + path_nodes[path_starts[1:] - 1]
        routes = _Routes(
            key=key,
            paths=paths,
            routed=np.array(routed, dtype=np.int32),
            path_nodes=path_nodes,
            path_starts=path_starts,
            entry_starts=entry_starts,
            entry_flow=np.repeat(np.arange(len(routed), dtype=np.int32), lengths + 1),
            constraint_id=constraint_id,
        )
        self._routes = routes
        return routes

    def _solve(self, alloc: _Allocation) -> None:
        """Waterfill over the cached routes and precompute the span aggregates.

        Array form, bit-identical to a per-flow, per-hop Python loop: every
        float sum adds its terms in flow order (then path order), as
        ``np.bincount`` and :func:`_sequential_sum` do, and never pairwise.
        """
        model = self.model
        backlog = self._backlog
        alloc.leakage_per_cycle = sum(model._cycle_leakage_increments())
        if not alloc.flows and not any(v > _DEMAND_EPS for v in backlog.values()):
            alloc.idle = True
            return
        routes = self._routes_for(alloc)
        flows = alloc.flows
        routed = routes.routed
        constraint_id = routes.constraint_id
        packet_size = alloc.packet_size

        points = [router.operating_point for router in model.routers.values()]
        divider = np.array([point.divider for point in points], dtype=np.int32)
        capacity = 1.0 / np.maximum(divider[self._sender], divider[self._receiver])
        if alloc.failed_links:  # defensive: routes already avoid these
            src, dst = np.array(sorted(alloc.failed_links)).T
            capacity[self._link_constraints(src, dst)] = 0.0

        demand = np.array([flow.demand for flow in flows], dtype=float)
        pending = np.array([backlog.get(flow.key, 0.0) for flow in flows], dtype=float)
        # Backlogged flows are eager: they bid for their offered rate plus
        # everything pending (capped by the links either way).
        bids = demand[routed] + pending[routed]
        if len(routed) >= 64:
            routed_rate = _waterfill_arrays(
                bids, routes.entry_flow, constraint_id, capacity
            )
        else:
            starts = routes.entry_starts.tolist()
            flow_links = [
                constraint_id[start:end].tolist()
                for start, end in zip(starts, starts[1:])
            ]
            routed_rate = np.array(
                _waterfill_python(bids.tolist(), flow_links, capacity.tolist())
            )
        rate = np.zeros(len(flows))
        rate[routed] = routed_rate

        alloc.created_packets = _sequential_sum(demand / packet_size)
        growth = demand - rate
        alloc.backlog_growth = _sequential_sum(growth)
        draining = (growth < -_EPS) & (pending > _DEMAND_EPS)
        if draining.any():
            earliest_drain = float((pending[draining] / -growth[draining]).min())
            drain_at = model.cycle + max(1, int(earliest_drain) + 1)
            if alloc.horizon is None or drain_at < alloc.horizon:
                alloc.horizon = drain_at

        # Post-allocation constraint loads drive an M/D/1-style queueing
        # wait per traversed constraint.
        load = np.bincount(
            constraint_id,
            weights=routed_rate[routes.entry_flow],
            minlength=len(capacity),
        )
        usable = capacity > _EPS
        service = np.where(usable, capacity, 1.0)
        rho = np.minimum(load / service, _RHO_CAP)
        queueing = np.where(usable, (rho / (2.0 * (1.0 - rho))) / service, 0.0)

        # Only flows with a route and a nonzero rate carry latency and energy.
        live = np.flatnonzero(routed_rate > _EPS)
        live_rate = routed_rate[live]
        path_starts = routes.path_starts
        path_divider = divider[routes.path_nodes]
        # Analytical latency: one switch traversal per node on the path
        # (ejection included) at that node's divider, tail serialization
        # behind the slowest divider, and the queueing wait.  Divider sums
        # are integers, so their order is free.
        transit = np.add.reduceat(path_divider, path_starts[:-1])[live]
        max_divider = np.maximum.reduceat(path_divider, path_starts[:-1])[live]
        source_divider = path_divider[path_starts[live]]
        hops = np.diff(path_starts)[live] - 1
        entry_starts = routes.entry_starts[live]
        entry_counts = routes.entry_starts[live + 1] - entry_starts
        wait = np.zeros(len(live))
        for position in range(int(entry_counts.max(initial=0))):
            going = np.flatnonzero(entry_counts > position)
            wait[going] += queueing[constraint_id[entry_starts[going] + position]]
        flow_transit = transit + (packet_size - 1) * max_divider + wait

        packets = live_rate / packet_size
        # Flits are buffered for the head transit (and while waiting), not
        # the tail trail; NI queues hold the later flits of each packet
        # while the NI serializes one flit per fired cycle.
        alloc.occupancy = _sequential_sum(
            live_rate * wait, _sequential_sum(live_rate * transit)
        )
        alloc.base_queue = _sequential_sum(
            live_rate * source_divider * (packet_size - 1) / 2.0
        )
        alloc.delivered_packets = alloc.injected_packets = _sequential_sum(packets)
        alloc.hops = _sequential_sum(packets * hops)
        alloc.link_traversals = _sequential_sum(live_rate * hops)
        # NI queueing wait is added at settle time — Little's law on the
        # span-averaged backlog — so it tracks growth within long spans.
        alloc.network_latency = alloc.total_latency = _sequential_sum(
            packets * flow_transit
        )
        alloc.energy_by_point = self._energy_rates(
            routes, points, np.where(routed_rate > _EPS, routed_rate, 0.0)
        )

        for flow, path in zip(flows, routes.paths):
            flow.path = path
        for index, flow_rate in zip(routed.tolist(), routed_rate.tolist()):
            flows[index].rate = flow_rate
        for index, flow_transit_, flow_max in zip(
            routed[live].tolist(), flow_transit.tolist(), max_divider.tolist()
        ):
            flow = flows[index]
            flow.transit = flow_transit_
            flow.max_divider = flow_max

    @staticmethod
    def _energy_rates(
        routes: _Routes, points: list, rates: np.ndarray
    ) -> list[tuple[object, float, float, float]]:
        """Dynamic-energy flit rates per operating point, in the order the
        points first appear along the live flows' paths (the order the power
        model accumulates them in).

        A buffer write and a read+crossbar at every node on a path (NI
        injection at the source, link receive at the rest; each movement
        out), link energy at every node except the destination (the sender
        pays).  ``rates`` runs over the routed flows, 0.0 where one is not live:
        adding exact zeros leaves each sum's bits alone.
        """
        point_ids: dict[object, int] = {}
        node_point = np.array(
            [point_ids.setdefault(point, len(point_ids)) for point in points],
            dtype=np.int32,
        )
        point = node_point[routes.path_nodes]
        flit_rate = np.repeat(rates, np.diff(routes.path_starts))
        node_rate = np.bincount(point, weights=flit_rate, minlength=len(point_ids))
        live = flit_rate > 0.0
        order = sorted(
            (int(np.argmax(live & (point == index))), index)
            for index in np.flatnonzero(node_rate > 0.0).tolist()
        )
        flit_rate[routes.path_starts[1:] - 1] = 0.0  # destinations send nothing
        link_rate = np.bincount(point, weights=flit_rate, minlength=len(point_ids))
        return [
            (
                points[int(routes.path_nodes[first])],
                float(node_rate[index]),
                float(node_rate[index]),
                float(link_rate[index]),
            )
            for first, index in order
        ]

    # -- span settlement ----------------------------------------------------

    def _commit(self, counter: str, amount: float) -> int:
        """Integer commit with a fractional carry (amounts are >= 0)."""
        value = self._carry.get(counter, 0.0) + amount
        whole = int(value)
        self._carry[counter] = value - whole
        return whole

    def _settle(self, alloc: _Allocation, span: int) -> None:
        """Integrate ``span`` cycles of the allocation into the model."""
        model = self.model
        stats = model.stats
        power = model.power
        num_routers = len(model.routers)
        model.skipped_router_steps += span * num_routers
        power.energy.leakage_pj += alloc.leakage_per_cycle * span
        if alloc.idle:
            stats.record_idle_cycles(span)
            model.idle_cycles += span
            return
        packet_size = alloc.packet_size
        stats.record_cycles(span, 0, 0)
        stats.occupancy_flit_cycles += self._commit(
            "occupancy", alloc.occupancy * span
        )
        backlog_now = sum(self._backlog.values())
        backlog_avg = max(0.0, backlog_now + alloc.backlog_growth * span / 2.0)
        stats.source_queue_flit_cycles += self._commit(
            "queued", (backlog_avg + alloc.base_queue) * span
        )

        created = self._commit("created", alloc.created_packets * span)
        stats.packets_created += created
        stats.flits_created += created * packet_size
        injected = self._commit("injected", alloc.injected_packets * span)
        # Keep the exact engines' invariants: created >= injected >= delivered.
        injected = min(injected, stats.packets_created - stats.packets_injected)
        stats.packets_injected += injected
        stats.flits_injected += injected * packet_size
        delivered = self._commit("delivered", alloc.delivered_packets * span)
        delivered = min(delivered, stats.packets_injected - stats.packets_delivered)
        stats.packets_delivered += delivered
        stats.flits_delivered += delivered * packet_size
        # Delivered packets waited avg_backlog / rate at their NI; summed
        # over flows that collapses (Little's law) to backlog_avg / psize
        # extra latency mass per cycle.
        stats.total_latency_sum += self._commit(
            "total_latency",
            (alloc.total_latency + backlog_avg / packet_size) * span,
        )
        stats.network_latency_sum += self._commit(
            "network_latency", alloc.network_latency * span
        )
        stats.hop_sum += self._commit("hops", alloc.hops * span)
        stats.link_flit_traversals += self._commit(
            "link_traversals", alloc.link_traversals * span
        )
        for point, write_rate, read_xbar_rate, link_rate in alloc.energy_by_point:
            power.record_buffer_write(point, flits=write_rate * span)
            power.record_buffer_read(point, flits=read_xbar_rate * span)
            power.record_crossbar_traversal(point, flits=read_xbar_rate * span)
            if link_rate:
                power.record_link_traversal(point, flits=link_rate * span)
        # Advance the per-flow NI backlogs (clamped at empty; the allocation
        # horizon already stops the span at the first exhaustion).
        backlog = self._backlog
        for flow in alloc.flows:
            growth = (flow.demand - flow.rate) * span
            if growth > 0.0 or backlog.get(flow.key):
                pending = backlog.get(flow.key, 0.0) + growth
                if pending > _DEMAND_EPS:
                    backlog[flow.key] = pending
                else:
                    backlog.pop(flow.key, None)
