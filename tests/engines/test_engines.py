"""Tests for the repro.engines package: registry, facade and event engine."""

import pytest

from repro.engines import (
    CycleEngine,
    EventEngine,
    build_engine,
    engine_names,
    get_engine_factory,
    register_engine,
    validate_engine_name,
)
from repro.exp import run_scenario, scenario_names
from repro.noc import NoCModel, NoCSimulator, SimulatorConfig
from repro.noc.packet import Packet
from repro.traffic.generator import TrafficGenerator
from repro.traffic.injection import BernoulliInjection
from repro.traffic.patterns import get_pattern


class TestRegistry:
    def test_builtin_engines_are_registered(self):
        assert set(engine_names()) >= {"cycle", "event"}
        assert get_engine_factory("cycle") is CycleEngine
        assert get_engine_factory("event") is EventEngine

    def test_unknown_engine_rejected_with_known_list(self):
        with pytest.raises(KeyError, match="unknown engine 'warp'.*cycle"):
            get_engine_factory("warp")
        with pytest.raises(ValueError, match="unknown engine 'warp'"):
            validate_engine_name("warp")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_engine("cycle", CycleEngine)

    def test_config_validates_engine_eagerly(self):
        with pytest.raises(ValueError, match="unknown engine"):
            SimulatorConfig(engine="warp")

    def test_build_engine_attaches_the_model(self):
        model = NoCModel(SimulatorConfig(width=2))
        engine = build_engine("event", model)
        assert isinstance(engine, EventEngine)
        assert engine.model is model


class TestFacade:
    def test_simulator_builds_the_configured_engine(self):
        cycle_sim = NoCSimulator(SimulatorConfig(width=2))
        event_sim = NoCSimulator(SimulatorConfig(width=2, engine="event"))
        assert isinstance(cycle_sim.engine, CycleEngine)
        assert cycle_sim.engine_name == "cycle"
        assert isinstance(event_sim.engine, EventEngine)
        assert event_sim.engine_name == "event"

    def test_set_engine_swaps_mid_run(self):
        simulator = NoCSimulator(SimulatorConfig(width=2))
        simulator.run(10)
        simulator.set_engine("event")
        simulator.run(10)
        assert simulator.cycle == 20
        assert isinstance(simulator.engine, EventEngine)

    def test_toggles_and_counters_forward_to_the_model(self):
        simulator = NoCSimulator(SimulatorConfig(width=2))
        simulator.activity_tracking = False
        simulator.idle_fast_path = False
        assert simulator.model.activity_tracking is False
        assert simulator.model.idle_fast_path is False
        simulator.run(5)
        assert simulator.cycle == simulator.model.cycle == 5
        assert simulator.idle_cycles == simulator.model.idle_cycles == 0

    def test_private_access_through_the_facade_warns_but_works(self):
        simulator = NoCSimulator(SimulatorConfig(width=2))
        with pytest.warns(DeprecationWarning, match="deprecated"):
            queues = simulator._source_queues
        assert queues is simulator.model._source_queues

    def test_engine_exposes_telemetry_counters(self):
        simulator = NoCSimulator(SimulatorConfig(width=2, engine="event"))
        simulator.run(50)
        assert simulator.engine.idle_cycles == simulator.idle_cycles == 50
        assert simulator.engine.skipped_router_steps == simulator.skipped_router_steps


def _windowed_simulator(engine: str, *, gap: int, burst: int, rate: float, seed: int):
    simulator = NoCSimulator(SimulatorConfig(width=4, seed=seed, engine=engine))
    simulator.traffic = TrafficGenerator(
        simulator.topology,
        get_pattern("uniform", simulator.topology),
        BernoulliInjection(rate, 4),
        packet_size=4,
        seed=seed,
        start_cycle=gap,
        end_cycle=gap + burst,
    )
    return simulator


class TestEventEngine:
    def test_idle_spans_leap_without_touching_telemetry(self):
        cycle_sim = _windowed_simulator("cycle", gap=300, burst=60, rate=0.3, seed=9)
        event_sim = _windowed_simulator("event", gap=300, burst=60, rate=0.3, seed=9)
        cycle_telemetry = cycle_sim.run_epoch(600)
        event_telemetry = event_sim.run_epoch(600)
        assert event_telemetry.as_dict() == cycle_telemetry.as_dict()
        assert event_sim.stats.snapshot() == cycle_sim.stats.snapshot()
        assert event_sim.power.energy.leakage_pj == cycle_sim.power.energy.leakage_pj
        assert event_sim.idle_cycles == cycle_sim.idle_cycles
        assert event_sim.idle_cycles >= 300

    def test_gated_spans_leap_while_flits_are_parked(self):
        """Flits parked behind a failed link on a powersave mesh: the event
        engine batches the gated cycles between divider fires (spans the
        cycle engine cannot leap because the network is not empty)."""
        simulator = NoCSimulator(SimulatorConfig(width=4, engine="event"))
        reference = NoCSimulator(SimulatorConfig(width=4))
        for sim in (simulator, reference):
            sim.set_global_dvfs_level(3)  # divider 4: 3 of 4 cycles gated
            # Trap one packet so the network never drains.
            sim.fail_link(0, 1)
            sim.fail_link(0, 4)
            sim.inject_packet(Packet(src=0, dst=5, size=4, creation_cycle=0))
            sim.run(400)
        assert simulator.stats.snapshot() == reference.stats.snapshot()
        assert simulator.power.energy.leakage_pj == reference.power.energy.leakage_pj
        assert simulator.buffered_flits == reference.buffered_flits > 0
        # Gated cycles are not idle cycles (the network holds flits) ...
        assert simulator.idle_cycles == reference.idle_cycles == 0
        # ... and the event engine still skipped the vast majority of steps.
        assert simulator.skipped_router_steps >= 300 * 16

    def test_dvfs_retune_reschedules_pipeline_events(self):
        """A mid-run retune (through the on_cycle hook) changes the divider
        table; the event engine must keep matching the cycle engine."""

        def retune(cycle, sim):
            if cycle == 100:
                sim.set_global_dvfs_level(3)
            elif cycle == 200:
                sim.set_dvfs_level(5, 0)

        results = []
        for engine in ("cycle", "event"):
            simulator = NoCSimulator(SimulatorConfig(width=4, seed=2, engine=engine))
            simulator.traffic = TrafficGenerator.from_names(
                simulator.topology, "uniform", 0.05, packet_size=4, seed=2
            )
            simulator.run_epoch(
                300, on_cycle=lambda cycle, sim=simulator: retune(cycle, sim)
            )
            results.append(simulator)
        cycle_sim, event_sim = results
        assert event_sim.stats.snapshot() == cycle_sim.stats.snapshot()
        assert event_sim.power.energy.leakage_pj == cycle_sim.power.energy.leakage_pj
        assert event_sim.idle_cycles == cycle_sim.idle_cycles

    def test_drain_works_on_the_event_engine(self):
        simulator = _windowed_simulator("event", gap=0, burst=40, rate=0.2, seed=4)
        simulator.run(40)
        elapsed = simulator.drain()
        assert simulator.buffered_flits == 0
        assert simulator.source_queue_backlog == 0
        assert elapsed >= 0


def _sparse_simulator(engine: str, pattern: str, *, lookahead: bool = True):
    """8x8 at the slowest DVFS level under traffic sparse enough to leap."""
    simulator = NoCSimulator(SimulatorConfig(width=8, seed=4, engine=engine))
    simulator.set_global_dvfs_level(3)
    simulator.traffic = TrafficGenerator.from_names(
        simulator.topology, pattern, 0.0004, packet_size=4, seed=4
    )
    if not lookahead:
        simulator.traffic._leap = 0.0
    return simulator


class TestSparseBernoulliLeap:
    """The source's lookahead turns sparse Bernoulli traffic into idle spans
    on every exact engine, with telemetry identical to per-cycle sampling."""

    @pytest.mark.parametrize("pattern", ["uniform", "transpose"])
    def test_exact_engines_agree_with_per_cycle_sampling(self, pattern):
        reference = _sparse_simulator("cycle", pattern, lookahead=False)
        expected = [reference.run_epoch(1500).as_dict() for _ in range(4)]
        assert reference.stats.packets_created > 10
        for engine in ("cycle", "event", "numpy"):
            simulator = _sparse_simulator(engine, pattern)
            telemetry = [simulator.run_epoch(1500).as_dict() for _ in range(4)]
            assert telemetry == expected, engine
            assert simulator.stats.snapshot() == reference.stats.snapshot(), engine
            assert simulator.power.energy.as_dict() == reference.power.energy.as_dict()
            assert simulator.idle_cycles == reference.idle_cycles > 3000, engine
            assert simulator.skipped_router_steps == reference.skipped_router_steps

    def test_idle_spans_cost_one_generate_call_per_arrival(self):
        simulator = _sparse_simulator("cycle", "uniform")
        traffic = simulator.traffic
        calls = []
        generate = traffic.generate
        traffic.generate = lambda cycle: calls.append(cycle) or generate(cycle)
        simulator.run(6000)
        # Per-cycle sampling made 6000 calls.  Now every non-idle cycle makes
        # one and every idle span, however long, makes one more.
        idle_spans = len(calls) - (6000 - simulator.idle_cycles)
        assert simulator.idle_cycles > 3000
        assert 0 < idle_spans <= 2 * simulator.stats.packets_created


class TestScenarioRegistryEquivalence:
    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_event_engine_matches_cycle_engine_exactly(self, name):
        """Acceptance: byte-identical ScenarioResult telemetry per scenario
        (epochs, idle_cycles, failed links and fault accounting included)."""
        cycle_result = run_scenario(name, epochs=2, epoch_cycles=150)
        event_result = run_scenario(name, epochs=2, epoch_cycles=150, engine="event")
        assert event_result == cycle_result
        assert event_result.to_json() == cycle_result.to_json()

    def test_full_length_powersave_idle_matches(self):
        """One scenario at its registered full length (the others are covered
        at smoke length above; this one exercises long idle/gated spans)."""
        cycle_result = run_scenario("powersave-idle")
        event_result = run_scenario("powersave-idle", engine="event")
        assert event_result == cycle_result
