"""Tests for the approximate flow-level fast-forward engine.

Two layers: property-based (hypothesis) invariants over the pure
waterfilling solver — conservation, capacity respect, max-min fairness,
monotonicity under link failure — and small-mesh cross-validation of the
full engine against the exact cycle engine within the documented
``--approx`` tolerances.  Exact byte parity is *never* asserted against
the flow engine: it synthesizes telemetry by construction.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engines import engine_info, engine_is_approximate, engine_names
from repro.engines.flow import FlowEngine, waterfill, _waterfill_python
from repro.exp.suites import APPROX_DIFF_TOLERANCES, _within_tolerance, get_suite
from repro.noc.network import NoCSimulator
from repro.noc.model import SimulatorConfig
from repro.noc.topology import Mesh
from repro.traffic.generator import TrafficGenerator
from repro.traffic.injection import BurstyInjection
from repro.traffic.patterns import get_pattern

_EPS = 1e-6

WATERFILL_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def waterfill_problems(draw):
    """A random (demands, flow_links, capacities) problem instance."""
    num_links = draw(st.integers(min_value=1, max_value=8))
    capacities = draw(
        st.lists(
            st.one_of(
                st.floats(min_value=0.05, max_value=2.0),
                st.just(0.0),  # failed links appear naturally
            ),
            min_size=num_links,
            max_size=num_links,
        )
    )
    num_flows = draw(st.integers(min_value=1, max_value=12))
    demands = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.5),
            min_size=num_flows,
            max_size=num_flows,
        )
    )
    flow_links = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=num_links - 1),
                min_size=1,
                max_size=num_links,
                unique=True,
            )
        )
        for _ in range(num_flows)
    ]
    return demands, flow_links, capacities


def _link_loads(rates, flow_links, num_links):
    loads = [0.0] * num_links
    for flow, links in enumerate(flow_links):
        for link in links:
            loads[link] += rates[flow]
    return loads


@WATERFILL_SETTINGS
@given(problem=waterfill_problems())
def test_waterfill_conservation_and_capacity(problem):
    """0 <= rate <= demand, and no link carries more than its capacity."""
    demands, flow_links, capacities = problem
    rates = waterfill(demands, flow_links, capacities)
    assert len(rates) == len(demands)
    for flow, rate in enumerate(rates):
        assert -_EPS <= rate <= demands[flow] + _EPS
        if any(capacities[link] <= 0.0 for link in flow_links[flow]):
            assert rate == pytest.approx(0.0, abs=_EPS)
    for link, load in enumerate(_link_loads(rates, flow_links, len(capacities))):
        assert load <= capacities[link] + _EPS * max(1, len(demands))


@WATERFILL_SETTINGS
@given(problem=waterfill_problems())
def test_waterfill_max_min_fairness(problem):
    """A demand-starved flow is pinned by a saturated link where it is
    already among the largest flows — the bottleneck condition that
    uniquely characterises the max-min fair allocation."""
    demands, flow_links, capacities = problem
    rates = waterfill(demands, flow_links, capacities)
    loads = _link_loads(rates, flow_links, len(capacities))
    for flow, rate in enumerate(rates):
        if rate >= demands[flow] - 1e-5:
            continue  # demand-satisfied
        if any(capacities[link] <= 0.0 for link in flow_links[flow]):
            continue  # crosses a failed link: rate 0 by definition
        bottlenecked = False
        for link in flow_links[flow]:
            if loads[link] < capacities[link] - 1e-5:
                continue  # slack left: not this link
            peers = [
                rates[other]
                for other, links in enumerate(flow_links)
                if link in links
            ]
            if rate >= max(peers) - 1e-5:
                bottlenecked = True
                break
        assert bottlenecked, (
            f"flow {flow} starved (rate {rate} < demand {demands[flow]}) "
            "with no saturating bottleneck link"
        )


@WATERFILL_SETTINGS
@given(problem=waterfill_problems(), data=st.data())
def test_waterfill_monotone_under_link_failure(problem, data):
    """Failing one link never *reduces* any surviving flow's rate (flows
    crossing the failed link drop to zero; the capacity they release can
    only help the rest)."""
    demands, flow_links, capacities = problem
    before = waterfill(demands, flow_links, capacities)
    victim = data.draw(
        st.integers(min_value=0, max_value=len(capacities) - 1), label="failed link"
    )
    failed = list(capacities)
    failed[victim] = 0.0
    after = waterfill(demands, flow_links, failed)
    for flow, links in enumerate(flow_links):
        if victim in links:
            assert after[flow] == pytest.approx(0.0, abs=_EPS)
        else:
            assert after[flow] >= before[flow] - 1e-5


@WATERFILL_SETTINGS
@given(problem=waterfill_problems())
def test_waterfill_numpy_matches_python(problem):
    """The vectorised solver and the reference solver agree (the >=64-flow
    dispatch threshold means small problems normally take the python path;
    here both run on the same instance)."""
    demands, flow_links, capacities = problem
    reference = _waterfill_python(demands, flow_links, capacities)
    pytest.importorskip("numpy")
    from repro.engines.flow import _waterfill_numpy

    vectorised = _waterfill_numpy(demands, flow_links, capacities)
    assert vectorised == pytest.approx(reference, abs=1e-6)


class TestRegistry:
    def test_flow_engine_is_registered_approximate(self):
        assert "flow" in engine_names()
        info = engine_info("flow")
        assert info.approximate
        assert info.selectable
        assert engine_is_approximate("flow")
        assert not engine_is_approximate("cycle")
        assert not engine_is_approximate("event")

    def test_auto_policy_never_picks_approximate_engines(self):
        from repro.exp.telemetry import EnginePolicy, TrendReport

        policy = EnginePolicy(TrendReport(series=(), sources=(), skipped=()))
        assert "flow" not in policy.engines
        assert "cycle" in policy.engines


def _run(engine, *, width=4, pattern="uniform", rate=0.15, cycles=3000, dvfs=0):
    config = SimulatorConfig(width=width, engine=engine, initial_dvfs_level=dvfs)
    traffic = TrafficGenerator.from_names(Mesh(width), pattern, rate, seed=42)
    sim = NoCSimulator(config, traffic)
    telemetry = sim.run_epoch(cycles)
    return sim, telemetry


# The fields the approximate contract promises, with their documented
# epsilons; latency-like fields are analytical and looser.
_VALIDATED_FIELDS = (
    "throughput",
    "packets_delivered",
    "average_hops",
    "link_utilization",
    "energy_total_pj",
    "accepted_ratio",
    "average_total_latency",
    "average_network_latency",
    "average_buffer_occupancy",
)


class TestCrossValidation:
    @pytest.mark.parametrize(
        "pattern,rate",
        [("uniform", 0.05), ("uniform", 0.40), ("transpose", 0.20)],
    )
    def test_flow_tracks_cycle_within_approx_tolerances(self, pattern, rate):
        _, exact = _run("cycle", pattern=pattern, rate=rate)
        _, approx = _run("flow", pattern=pattern, rate=rate)
        exact_row, approx_row = exact.as_dict(), approx.as_dict()
        for field in _VALIDATED_FIELDS:
            if field not in exact_row:
                continue
            eps = APPROX_DIFF_TOLERANCES.get(field, 0.25)
            assert _within_tolerance(exact_row[field], approx_row[field], eps), (
                f"{field}: cycle={exact_row[field]} flow={approx_row[field]} "
                f"beyond eps={eps} ({pattern} @ {rate})"
            )

    def test_flow_tracks_event_engine_too(self):
        _, exact = _run("event", pattern="uniform", rate=0.15)
        _, approx = _run("flow", pattern="uniform", rate=0.15)
        assert _within_tolerance(
            exact.as_dict()["throughput"], approx.as_dict()["throughput"], 0.25
        )

    def test_slowest_dvfs_level_tracks_too(self):
        _, exact = _run("cycle", rate=0.05, dvfs=3)
        _, approx = _run("flow", rate=0.05, dvfs=3)
        exact_row, approx_row = exact.as_dict(), approx.as_dict()
        assert _within_tolerance(
            exact_row["throughput"], approx_row["throughput"], 0.25
        )
        assert _within_tolerance(
            exact_row["average_total_latency"],
            approx_row["average_total_latency"],
            0.85,
        )


class TestEngineBehaviour:
    def test_counter_bookkeeping_is_consistent(self):
        sim, _ = _run("flow", rate=0.25)
        stats = sim.model.stats
        assert stats.cycles == 3000
        assert stats.packets_created >= stats.packets_injected >= stats.packets_delivered
        assert stats.flits_created == stats.packets_created * sim.model.config.packet_size
        assert stats.flits_delivered == stats.packets_delivered * sim.model.config.packet_size
        assert stats.in_flight_packets >= 0

    def test_no_latency_samples_means_no_percentiles(self):
        sim, telemetry = _run("flow")
        assert sim.model.stats.latencies == []
        # The synthesized means still exist.
        assert telemetry.as_dict()["average_total_latency"] > 0

    def test_unexpressible_traffic_is_rejected_loudly(self):
        config = SimulatorConfig(width=4, engine="flow")
        mesh = Mesh(4)
        traffic = TrafficGenerator(
            mesh,
            get_pattern("uniform", mesh),
            BurstyInjection(0.4, 0.02, 4),
        )
        sim = NoCSimulator(config, traffic)
        with pytest.raises(RuntimeError, match="cannot express this traffic"):
            sim.run_epoch(100)

    def test_dvfs_retune_is_a_discontinuity(self):
        config = SimulatorConfig(width=4, engine="flow")
        traffic = TrafficGenerator.from_names(Mesh(4), "transpose", 0.20, seed=1)
        sim = NoCSimulator(config, traffic)
        fast = sim.run_epoch(1000).as_dict()
        sim.model.set_global_dvfs_level(3)
        slow = sim.run_epoch(1000).as_dict()
        # A divider-4 network is slower and saturates: latency must rise.
        assert slow["average_total_latency"] > fast["average_total_latency"]
        assert sim.model.stats.cycles == 2000

    def test_failed_link_reroutes_or_backlogs(self):
        config = SimulatorConfig(width=4, engine="flow")
        traffic = TrafficGenerator.from_names(Mesh(4), "uniform", 0.15, seed=1)
        sim = NoCSimulator(config, traffic)
        sim.run_epoch(500)
        sim.model.fail_link(5, 6)
        telemetry = sim.run_epoch(500)
        assert telemetry.as_dict()["accepted_ratio"] <= 1.0 + 1e-9
        sim.model.repair_link(5, 6)
        sim.run_epoch(500)
        assert sim.model.stats.cycles == 1500

    def test_drain_is_a_no_op_for_flow_state(self):
        sim, _ = _run("flow", cycles=500)
        sim.drain()  # flow never parks flits in model state
        assert sim.model.network_empty()

    def test_run_with_on_cycle_hook_still_advances_exactly(self):
        config = SimulatorConfig(width=4, engine="flow")
        traffic = TrafficGenerator.from_names(Mesh(4), "uniform", 0.10, seed=2)
        sim = NoCSimulator(config, traffic)
        seen = []
        assert isinstance(sim.engine, FlowEngine)
        sim.engine.run(64, on_cycle=lambda cycle: seen.append(cycle))
        assert sim.model.cycle == 64
        assert seen == list(range(64))


class TestSuiteIntegration:
    def test_table4_grows_flow_pinned_scaleout_units(self):
        spec = get_suite("table4")
        flow_units = [
            unit for unit in spec.units if unit.params.get("engine") == "flow"
        ]
        widths = {unit.params["width"] for unit in flow_units}
        assert widths == {32, 64}
        for unit in flow_units:
            # Deterministic pattern: the expansion stays at N flows, far
            # under FLOW_EXPANSION_BUDGET even at 64x64.
            assert unit.params["traffic"]["pattern"] == "transpose"
