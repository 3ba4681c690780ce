"""The flow engine's array-form solve and its route cache.

Three layers:

* a differential oracle: ``reference_solve`` below is a verbatim copy of
  ``FlowEngine._solve`` as it was written before the array form (one
  Python loop per flow and per hop, a constraint dict, per-point energy in
  a dict).  The array form must reproduce every allocation aggregate, the
  per-point energy rates *in order*, and every flow's path, rate, transit
  and max divider with ``==`` — bit for bit, not within a tolerance;
* the route cache: a DVFS retune re-waterfills without re-routing, and
  every change that can move a path (failed links, routing, the flow set)
  re-routes;
* no-op retunes: re-applying the current DVFS level invalidates nothing.
"""

import dataclasses

import pytest

from repro.engines.flow import (
    _DEMAND_EPS,
    _EPS,
    _RHO_CAP,
    FlowEngine,
    _Allocation,
    waterfill,
)
from repro.noc.model import NoCModel
from repro.noc.network import NoCSimulator, SimulatorConfig
from repro.noc.topology import Mesh
from repro.traffic.application import Phase, PhasedWorkload
from repro.traffic.generator import TrafficGenerator
from repro.traffic.injection import BernoulliInjection
from repro.traffic.patterns import get_pattern


# ----------------------------------------------------------------------
# the reference: FlowEngine._solve before the array form, verbatim
# ----------------------------------------------------------------------


def reference_solve(self, alloc: _Allocation) -> None:
    """Route, waterfill and precompute the span-settlement aggregates."""
    model = self.model
    routers = model.routers
    backlog = self._backlog
    alloc.leakage_per_cycle = sum(model._cycle_leakage_increments())
    if not alloc.flows and not any(v > _DEMAND_EPS for v in backlog.values()):
        alloc.idle = True
        return

    # Constraint index: one capacity per NI injection port, directed
    # link and ejection port actually traversed.  Link capacity is the
    # slower of the two endpoint routers (the sender forwards and the
    # receiver releases at most one flit per fired cycle each).
    constraint_index: dict[tuple, int] = {}
    capacities: list[float] = []

    def constraint(key: tuple, capacity: float) -> int:
        index = constraint_index.get(key)
        if index is None:
            index = len(capacities)
            constraint_index[key] = index
            capacities.append(capacity)
        return index

    divider_of = {node: r.operating_point.divider for node, r in routers.items()}
    demands: list[float] = []
    flow_links: list[list[int]] = []
    routed: list[_Flow] = []
    for flow in alloc.flows:
        flow.path = model.flow_route(*flow.key)
        if flow.path is None:
            continue  # undeliverable: rate stays 0, backlog grows
        links = [constraint(("inj", flow.path[0]), 1.0 / divider_of[flow.path[0]])]
        for a, b in zip(flow.path, flow.path[1:]):
            capacity = 1.0 / max(divider_of[a], divider_of[b])
            if (a, b) in alloc.failed_links:
                capacity = 0.0  # defensive: routes already avoid these
            links.append(constraint(("link", a, b), capacity))
        links.append(constraint(("ej", flow.path[-1]), 1.0 / divider_of[flow.path[-1]]))
        # Backlogged flows are eager: they bid for their offered rate
        # plus everything pending (capped by the links either way).
        demands.append(flow.demand + backlog.get(flow.key, 0.0))
        flow_links.append(links)
        routed.append(flow)

    rates = waterfill(demands, flow_links, capacities)
    for flow, rate in zip(routed, rates):
        flow.rate = rate

    # Post-allocation link loads drive the queueing-delay estimate.
    load = [0.0] * len(capacities)
    for flow, links in zip(routed, flow_links):
        for link in links:
            load[link] += flow.rate

    packet_size = alloc.packet_size
    energy: dict[object, list[float]] = {}
    earliest_drain: float | None = None
    for flow in alloc.flows:
        alloc.created_packets += flow.demand / packet_size
        pending = backlog.get(flow.key, 0.0)
        growth = flow.demand - flow.rate
        alloc.backlog_growth += growth
        if growth < -_EPS and pending > _DEMAND_EPS:
            drain_cycles = pending / -growth
            if earliest_drain is None or drain_cycles < earliest_drain:
                earliest_drain = drain_cycles
        if flow.path is None or flow.rate <= _EPS:
            continue
        path = flow.path
        hops = len(path) - 1
        # Analytical latency: one switch traversal per node on the path
        # (ejection included) at that node's divider, tail serialization
        # behind the slowest divider, and an M/D/1-style queueing wait
        # per traversed constraint.
        transit = 0.0
        max_divider = 1
        for node in path:
            divider = divider_of[node]
            transit += divider
            if divider > max_divider:
                max_divider = divider
        flow.max_divider = max_divider
        flow.transit = transit + (packet_size - 1) * max_divider
        # Flits are buffered for the head transit, not the tail trail;
        # NI queues hold the later flits of each packet while the NI
        # serializes one flit per fired cycle.
        alloc.occupancy += flow.rate * transit
        alloc.base_queue += (
            flow.rate * divider_of[path[0]] * (packet_size - 1) / 2.0
        )
        alloc.delivered_packets += flow.rate / packet_size
        alloc.injected_packets += flow.rate / packet_size
        alloc.hops += (flow.rate / packet_size) * hops
        alloc.link_traversals += flow.rate * hops
        # energy rates per operating point: a buffer write at every node
        # on the path (NI injection at the source, link receive at the
        # rest), a read+crossbar at every node (each movement out), and
        # link energy at every node except the destination (sender pays).
        for position, node in enumerate(path):
            point = routers[node].operating_point
            rates_for_point = energy.get(point)
            if rates_for_point is None:
                rates_for_point = [0.0, 0.0, 0.0]
                energy[point] = rates_for_point
            rates_for_point[0] += flow.rate
            rates_for_point[1] += flow.rate
            if position != hops:
                rates_for_point[2] += flow.rate
    # Queueing inflation + NI wait need the per-flow link loads.
    for flow, links in zip(routed, flow_links):
        if flow.rate <= _EPS:
            continue
        wait = 0.0
        for link in links:
            capacity = capacities[link]
            if capacity <= _EPS:
                continue
            rho = min(load[link] / capacity, _RHO_CAP)
            wait += (rho / (2.0 * (1.0 - rho))) / capacity
        flow.transit += wait
        alloc.occupancy += flow.rate * wait  # waiting flits sit buffered
        packets = flow.rate / packet_size
        alloc.network_latency += packets * flow.transit
        # NI queueing wait is added at settle time — Little's law on the
        # span-averaged backlog — so it tracks growth within long spans.
        alloc.total_latency += packets * flow.transit
    if earliest_drain is not None:
        drain_at = self.model.cycle + max(1, int(earliest_drain) + 1)
        if alloc.horizon is None or drain_at < alloc.horizon:
            alloc.horizon = drain_at
    alloc.energy_by_point = [
        (point, rates_[0], rates_[1], rates_[2]) for point, rates_ in energy.items()
    ]


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------

_AGGREGATES = tuple(
    field.name for field in dataclasses.fields(_Allocation) if field.name != "flows"
)


def _flow_sim(width, pattern="uniform", rate=0.1, routing="xy", dvfs=0, **traffic_kwargs):
    config = SimulatorConfig(
        width=width, engine="flow", routing=routing, initial_dvfs_level=dvfs
    )
    mesh = Mesh(width)
    traffic = TrafficGenerator(
        mesh,
        get_pattern(pattern, mesh),
        BernoulliInjection(rate, 4),
        packet_size=4,
        seed=3,
        **traffic_kwargs,
    )
    return NoCSimulator(config, traffic)


def _assert_solves_match(engine):
    """Solve the engine's current allocation with the reference and with
    ``FlowEngine._solve``; every output must be bit-identical."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FlowEngine, "_solve", reference_solve)
        expected = engine._compute_allocation()
    actual = engine._compute_allocation()
    assert expected.flows, "the case must exercise at least one flow"
    for name in _AGGREGATES:
        assert getattr(actual, name) == getattr(expected, name), name
    # energy_by_point is compared as a list above: order included.
    assert [
        (flow.key, flow.demand, flow.path, flow.rate, flow.transit, flow.max_divider)
        for flow in actual.flows
    ] == [
        (flow.key, flow.demand, flow.path, flow.rate, flow.transit, flow.max_divider)
        for flow in expected.flows
    ]
    return actual


def _mixed_levels(model):
    for node in model.routers:
        model.set_dvfs_level(node, node % len(model.dvfs_levels))


# ----------------------------------------------------------------------
# the differential oracle
# ----------------------------------------------------------------------


class TestArraySolveMatchesReference:
    @pytest.mark.parametrize(
        "width,pattern,routing",
        [
            (4, pattern, routing)
            for pattern in ("uniform", "transpose", "hotspot")
            for routing in ("xy", "west_first", "odd_even")
        ]
        + [(16, "transpose", routing) for routing in ("xy", "west_first", "odd_even")]
        + [(8, "uniform", "xy"), (8, "hotspot", "odd_even")],
    )
    def test_bit_identical_through_retunes_and_a_failed_link(self, width, pattern, routing):
        sim = _flow_sim(width, pattern, rate=0.2, routing=routing)
        sim.run_epoch(300)
        _assert_solves_match(sim.engine)
        # Mixed per-node levels: a capacity-only re-solve on cached routes.
        _mixed_levels(sim.model)
        sim.run_epoch(300)
        _assert_solves_match(sim.engine)
        sim.model.fail_link(5, 6)
        sim.run_epoch(300)
        _assert_solves_match(sim.engine)

    def test_python_waterfill_path_is_exercised(self):
        # 4x4 transpose has 12 flows: under the 64 that switch to numpy.
        sim = _flow_sim(4, "transpose")
        assert len(_assert_solves_match(sim.engine).flows) < 64

    def test_no_flow_routable(self):
        # 2x2 transpose is the flows 1 -> 2 and 2 -> 1; XY routing has no
        # way around either failed link, so nothing is routed.
        sim = _flow_sim(2, "transpose")
        sim.model.fail_link(1, 0)
        sim.model.fail_link(2, 3)
        sim.run_epoch(100)
        alloc = _assert_solves_match(sim.engine)
        assert [flow.path for flow in alloc.flows] == [None, None]

    @pytest.mark.parametrize("width", [4, 8])
    def test_saturation_backlog_then_quiescent_drain(self, width):
        # Past saturation at the slowest level the NIs build backlog; the
        # source then stops at cycle 400 and the backlogged flows drain at
        # their allocated rates, each exhaustion a scheduled discontinuity.
        sim = _flow_sim(width, "uniform", rate=0.6, dvfs=3, end_cycle=400)
        sim.run_epoch(200)
        assert _assert_solves_match(sim.engine).horizon == 400
        assert sim.engine._backlog
        sim.run_epoch(200)
        draining = _assert_solves_match(sim.engine)
        assert all(flow.demand == 0.0 for flow in draining.flows)
        assert draining.horizon is not None and draining.horizon > sim.model.cycle
        sim.model.set_global_dvfs_level(0)
        sim.run_epoch(5)
        _assert_solves_match(sim.engine)
        sim.run_epoch(2000)
        assert not sim.engine._backlog


# ----------------------------------------------------------------------
# the route cache
# ----------------------------------------------------------------------


@pytest.fixture
def route_calls(monkeypatch):
    """Every ``NoCModel.flow_route`` call, as ``(src, dst)``."""
    calls = []
    original = NoCModel.flow_route

    def counting(self, src, dst):
        calls.append((src, dst))
        return original(self, src, dst)

    monkeypatch.setattr(NoCModel, "flow_route", counting)
    return calls


class TestRouteCache:
    def test_dvfs_retune_reuses_routes_and_matches_a_fresh_engine(self, route_calls):
        sim = _flow_sim(8, "transpose", rate=0.05)
        sim.run_epoch(300)
        assert route_calls
        route_calls.clear()
        sim.set_global_dvfs_level(2)
        sim.run_epoch(300)
        assert route_calls == []
        fresh = _flow_sim(8, "transpose", rate=0.05, dvfs=2)
        fresh_alloc = fresh.engine._compute_allocation()
        assert [flow.rate for flow in sim.engine._alloc.flows] == [
            flow.rate for flow in fresh_alloc.flows
        ]

    @pytest.mark.parametrize(
        "change",
        [
            lambda model: model.fail_link(5, 6),
            lambda model: model.set_routing_algorithm("west_first"),
        ],
        ids=["fail_link", "set_routing_algorithm"],
    )
    def test_path_changes_reroute(self, route_calls, change):
        sim = _flow_sim(4, "uniform")
        sim.run_epoch(100)
        route_calls.clear()
        change(sim.model)
        sim.run_epoch(100)
        assert len(route_calls) == len(sim.engine._alloc.flows)

    def test_repair_link_reroutes(self, route_calls):
        sim = _flow_sim(4, "uniform")
        sim.model.fail_link(5, 6)
        sim.run_epoch(100)
        failed_paths = [flow.path for flow in sim.engine._alloc.flows]
        route_calls.clear()
        sim.model.repair_link(5, 6)
        sim.run_epoch(100)
        assert route_calls
        assert [flow.path for flow in sim.engine._alloc.flows] != failed_paths

    def test_traffic_phase_change_reroutes_only_a_new_flow_set(self, route_calls):
        mesh = Mesh(4)
        traffic = PhasedWorkload(
            mesh,
            [
                Phase(100, "uniform", 0.02),
                Phase(100, "uniform", 0.08),  # same flows, new rates
                Phase(100, "transpose", 0.08),  # a new flow set
            ],
            repeat=False,
        )
        sim = NoCSimulator(SimulatorConfig(width=4, engine="flow"), traffic)
        sim.run_epoch(100)
        first = sim.engine._alloc
        route_calls.clear()
        sim.run_epoch(100)
        assert sim.engine._alloc is not first
        assert route_calls == []
        sim.run_epoch(100)
        assert len(route_calls) == len(sim.engine._alloc.flows) == 12


# ----------------------------------------------------------------------
# no-op retunes
# ----------------------------------------------------------------------


class TestNoOpRetune:
    def test_reapplying_the_current_level_invalidates_nothing(self):
        sim = _flow_sim(4, "transpose", rate=0.05)
        sim.run_epoch(200)
        model = sim.model
        alloc = sim.engine._alloc
        dividers = model._distinct_dividers
        increments = model._leakage_increments
        assert dividers is not None and increments is not None
        notified = []
        for router in model.routers.values():
            original = router.on_operating_point_change

            def spy(original=original):
                notified.append(1)
                original()

            router.on_operating_point_change = spy
        model.set_global_dvfs_level(model.dvfs_level_index)
        model.set_dvfs_level(3, model.dvfs_level_index)
        assert notified == []
        assert model._distinct_dividers is dividers
        assert model._leakage_increments is increments
        sim.run_epoch(200)
        assert sim.engine._alloc is alloc
        # A real change still invalidates both caches and re-solves.
        model.set_global_dvfs_level(1)
        assert len(notified) == len(model.routers)
        assert model._distinct_dividers is None
        assert model._leakage_increments is None
        sim.run_epoch(200)
        assert sim.engine._alloc is not alloc
