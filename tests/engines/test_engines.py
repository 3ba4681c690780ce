"""Tests for the repro.engines package: registry, facade and event engine."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import ExperimentConfig, evaluate_controller
from repro.engines import (
    CycleEngine,
    EngineInfo,
    EventEngine,
    build_engine,
    engine_infos,
    engine_names,
    get_engine_factory,
    register_engine,
    selectable_engine_names,
    validate_engine_name,
)
from repro.exp import run_scenario, scenario_names
from repro.exp.scenarios import get_scenario
from repro.exp.suites import build_policy
from repro.noc import NoCModel, NoCSimulator, SimulatorConfig
from repro.noc.packet import Packet
from repro.traffic.generator import TrafficGenerator
from repro.traffic.injection import BernoulliInjection
from repro.traffic.patterns import PATTERN_NAMES, get_pattern


class TestRegistry:
    def test_builtin_engines_are_registered(self):
        assert engine_names() == ("cycle", "event", "flow")
        assert get_engine_factory("cycle") is CycleEngine
        assert get_engine_factory("event") is EventEngine

    @pytest.mark.parametrize("name", ["numpy", "batch"])
    def test_deleted_engines_are_rejected_by_the_cli(self, name, capsys):
        assert main(["suite", "run", "fig1-smoke", "--engine", name]) == 2
        err = capsys.readouterr().err
        assert f"unknown engine: {name}" in err
        assert "known: cycle, event, flow, auto" in err

    def test_engines_list_shows_capabilities(self, capsys):
        assert main(["engines", "list"]) == 0
        out = capsys.readouterr().out
        assert "cycle (default)" in out
        assert "approximate" in out
        assert "--engine accepts: cycle, event, flow, auto" in out

    def test_engine_infos_cover_all_builtins(self):
        assert engine_infos() == (
            EngineInfo(name="cycle", selectable=True, approximate=False),
            EngineInfo(name="event", selectable=True, approximate=False),
            EngineInfo(name="flow", selectable=True, approximate=True),
        )

    def test_selectable_names_offer_every_builtin_and_auto(self):
        assert selectable_engine_names() == ("cycle", "event", "flow", "auto")

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

    def test_set_engine_handover_matches_a_pure_cycle_run(self):
        """Mid-run the traffic RNG and model state sit exactly where
        per-cycle execution left them, so event -> cycle equals pure cycle."""
        swapped = _windowed_simulator("event", gap=0, burst=500, rate=0.2, seed=7)
        swapped.run(250)
        swapped.set_engine("cycle")
        swapped.run(250)
        reference = _windowed_simulator("cycle", gap=0, burst=500, rate=0.2, seed=7)
        reference.run(500)
        _assert_match(swapped, reference)

    def test_set_engine_to_event_midrun_matches_a_pure_cycle_run(self):
        swapped = _windowed_simulator("cycle", gap=100, burst=200, rate=0.2, seed=8)
        swapped.run(150)
        swapped.set_engine("event")
        swapped.run(350)
        reference = _windowed_simulator("cycle", gap=100, burst=200, rate=0.2, seed=8)
        reference.run(500)
        _assert_match(swapped, reference)

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


def _assert_match(simulator, reference):
    assert simulator.stats.snapshot() == reference.stats.snapshot()
    assert simulator.power.energy.as_dict() == reference.power.energy.as_dict()
    assert simulator.idle_cycles == reference.idle_cycles
    assert simulator.skipped_router_steps == reference.skipped_router_steps


def _windowed_simulator(
    engine: str, *, gap: int, burst: int, rate: float, seed: int, pattern="uniform"
):
    simulator = NoCSimulator(SimulatorConfig(width=4, seed=seed, engine=engine))
    simulator.traffic = TrafficGenerator(
        simulator.topology,
        get_pattern(pattern, simulator.topology),
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

    def test_midrun_faults_dvfs_and_vc_masking_match(self):
        """Mutations between epochs — link faults, per-node DVFS, VC masking
        — stay byte-identical to the cycle engine."""
        sims = []
        for engine in ("event", "cycle"):
            simulator = _windowed_simulator(
                engine, gap=0, burst=600, rate=0.12, seed=11
            )
            simulator.run_epoch(200)
            simulator.fail_link(0, 1)
            simulator.set_dvfs_level(5, 2)
            simulator.set_dvfs_level(10, 1)
            simulator.run_epoch(200)
            simulator.set_enabled_vcs(1)
            simulator.repair_link(0, 1)
            simulator.run_epoch(200)
            sims.append(simulator)
        _assert_match(*sims)

    def test_steady_bernoulli_uniform_matches_cycle(self):
        sims = [
            _windowed_simulator(engine, gap=0, burst=600, rate=0.2, seed=3)
            for engine in ("event", "cycle")
        ]
        telemetry = [simulator.run_epoch(600).as_dict() for simulator in sims]
        assert telemetry[0] == telemetry[1]
        _assert_match(*sims)

    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    def test_every_pattern_matches_cycle(self, pattern):
        """Patterns that draw per-destination RNG (hotspot) and the
        permutations alike consume the identical source stream."""
        sims = [
            _windowed_simulator(
                engine, gap=50, burst=300, rate=0.15, seed=21, pattern=pattern
            )
            for engine in ("event", "cycle")
        ]
        for simulator in sims:
            simulator.run_epoch(400)
        assert sims[1].stats.packets_created > 0
        _assert_match(*sims)

    def test_hooked_windowed_runs_match(self):
        def retune(cycle, sim):
            if cycle == 100:
                sim.set_global_dvfs_level(3)

        sims = []
        for engine in ("event", "cycle"):
            simulator = _windowed_simulator(engine, gap=40, burst=200, rate=0.1, seed=5)
            simulator.run_epoch(
                300, on_cycle=lambda cycle, sim=simulator: retune(cycle, sim)
            )
            sims.append(simulator)
        _assert_match(*sims)

    def test_short_advances_match(self):
        sims = [
            _windowed_simulator(engine, gap=20, burst=60, rate=0.2, seed=13)
            for engine in ("event", "cycle")
        ]
        for _ in range(12):
            for simulator in sims:
                simulator.run(7)
        assert sims[0].cycle == 84
        _assert_match(*sims)

    def test_interleaved_simulators_match_their_solo_runs(self):
        """Simulators share no state: stepping several in alternating
        chunks gives each the telemetry it has when run alone."""
        seeds_rates = [(1, 0.05), (2, 0.2), (3, 0.35)]
        interleaved = [
            _windowed_simulator("event", gap=0, burst=500, rate=rate, seed=seed)
            for seed, rate in seeds_rates
        ]
        for _ in range(4):
            for simulator in interleaved:
                simulator.run(89)
        for (seed, rate), simulator in zip(seeds_rates, interleaved):
            solo = _windowed_simulator("event", gap=0, burst=500, rate=rate, seed=seed)
            solo.run(4 * 89)
            _assert_match(simulator, solo)

    def test_interleaved_epochs_match_solo_epochs(self):
        sims = [
            _windowed_simulator("event", gap=0, burst=300, rate=rate, seed=seed)
            for seed, rate in ((4, 0.1), (9, 0.25))
        ]
        epochs = [[], []]
        for _ in range(2):
            for index, simulator in enumerate(sims):
                epochs[index].append(simulator.run_epoch(150).as_dict())
        for (seed, rate), telemetry in zip(((4, 0.1), (9, 0.25)), epochs):
            solo = _windowed_simulator("cycle", gap=0, burst=300, rate=rate, seed=seed)
            assert telemetry == [solo.run_epoch(150).as_dict() for _ in range(2)]

    def test_drain_works_on_the_event_engine(self):
        simulator = _windowed_simulator("event", gap=0, burst=40, rate=0.2, seed=4)
        simulator.run(40)
        elapsed = simulator.drain()
        assert simulator.buffered_flits == 0
        assert simulator.source_queue_backlog == 0
        assert elapsed >= 0


class TestEventEngineHypothesis:
    @settings(max_examples=20, deadline=None)
    @given(
        rate=st.floats(min_value=0.0, max_value=0.45),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        pattern=st.sampled_from(["uniform", "transpose", "neighbor", "tornado"]),
        gap=st.integers(min_value=0, max_value=120),
        burst=st.integers(min_value=0, max_value=200),
        cycles=st.integers(min_value=1, max_value=400),
    )
    def test_random_traffic_windows_match_cycle(
        self, rate, seed, pattern, gap, burst, cycles
    ):
        sims = [
            _windowed_simulator(
                engine, gap=gap, burst=burst, rate=rate, seed=seed, pattern=pattern
            )
            for engine in ("event", "cycle")
        ]
        telemetry = [simulator.run_epoch(cycles).as_dict() for simulator in sims]
        assert telemetry[0] == telemetry[1]
        _assert_match(*sims)

    @settings(max_examples=10, deadline=None)
    @given(
        rate=st.floats(min_value=0.02, max_value=0.3),
        seed=st.integers(min_value=0, max_value=10_000),
        fault_cycle=st.integers(min_value=0, max_value=150),
        level=st.integers(min_value=0, max_value=3),
        vcs=st.integers(min_value=1, max_value=2),
    )
    def test_random_midrun_mutations_match_cycle(
        self, rate, seed, fault_cycle, level, vcs
    ):
        sims = []
        for engine in ("event", "cycle"):
            simulator = _windowed_simulator(
                engine, gap=0, burst=400, rate=rate, seed=seed
            )
            simulator.run(fault_cycle)
            simulator.fail_link(0, 1)
            simulator.set_dvfs_level(3, level)
            simulator.set_enabled_vcs(vcs)
            simulator.run_epoch(200)
            sims.append(simulator)
        _assert_match(*sims)

    @settings(max_examples=10, deadline=None)
    @given(
        rate=st.floats(min_value=0.0, max_value=0.35),
        seed=st.integers(min_value=0, max_value=10_000),
        gap=st.integers(min_value=0, max_value=200),
        swap=st.integers(min_value=0, max_value=400),
        first=st.sampled_from(["cycle", "event"]),
    )
    def test_random_handover_point_matches_a_pure_cycle_run(
        self, rate, seed, gap, swap, first
    ):
        swapped = _windowed_simulator(first, gap=gap, burst=150, rate=rate, seed=seed)
        swapped.run(swap)
        swapped.set_engine("event" if first == "cycle" else "cycle")
        swapped.run(400 - swap)
        reference = _windowed_simulator(
            "cycle", gap=gap, burst=150, rate=rate, seed=seed
        )
        reference.run(400)
        _assert_match(swapped, reference)


class TestControllerParity:
    @pytest.mark.parametrize(
        "policy", ["static-max", "static-min", "heuristic", "random"]
    )
    def test_event_engine_reproduces_the_cycle_trace(self, policy):
        """A controller deployed on the event engine records the same
        actions, rewards and telemetry as on the cycle engine."""
        traces = []
        for engine in ("cycle", "event"):
            experiment = ExperimentConfig.small()
            experiment = replace(
                experiment, simulator=replace(experiment.simulator, engine=engine)
            )
            assert experiment.build_simulator().engine_name == engine
            traces.append(
                evaluate_controller(
                    experiment, build_policy(policy, experiment), num_epochs=4
                )
            )
        cycle_trace, event_trace = traces
        assert event_trace.policy_name == cycle_trace.policy_name
        assert event_trace.summary() == cycle_trace.summary()
        assert [r.action_index for r in event_trace.records] == [
            r.action_index for r in cycle_trace.records
        ]
        assert [r.telemetry.as_dict() for r in event_trace.records] == [
            r.telemetry.as_dict() for r in cycle_trace.records
        ]


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
        for engine in ("cycle", "event"):
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

    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_event_engine_matches_at_another_seed(self, name):
        cycle_result = run_scenario(name, seed=1, epochs=2, epoch_cycles=120)
        event_result = run_scenario(
            name, seed=1, epochs=2, epoch_cycles=120, engine="event"
        )
        assert event_result == cycle_result

    @pytest.mark.parametrize("name", sorted(scenario_names()))
    def test_engine_handover_between_epochs_matches_cycle(self, name):
        """Each scenario run event -> cycle -> event, swapping engines at
        epoch boundaries, matches a pure cycle run of the same scenario."""
        spec = replace(get_scenario(name), epochs=3, epoch_cycles=120)
        swapped = _scenario_epochs(spec, ("event", "cycle", "event"))
        reference = _scenario_epochs(spec, ("cycle", "cycle", "cycle"))
        assert swapped == reference

    def test_full_length_powersave_idle_matches(self):
        """One scenario at its registered full length (the others are covered
        at smoke length above; this one exercises long idle/gated spans)."""
        cycle_result = run_scenario("powersave-idle")
        event_result = run_scenario("powersave-idle", engine="event")
        assert event_result == cycle_result


def _scenario_epochs(spec, engines):
    """Run ``spec`` one epoch per entry of ``engines``, applying its fault
    schedule as :func:`run_scenario` does (its threshold DVFS policy, if
    any, is left out); returns the epoch telemetry and end-of-run counters."""
    simulator = NoCSimulator(spec.build_simulator_config(seed=0))
    simulator.traffic = spec.build_workload(simulator.topology, seed=0)
    simulator.set_global_dvfs_level(spec.dvfs_level)
    faults = sorted(spec.faults, key=lambda event: (event.cycle, event.src, event.dst))

    def apply_due_faults(cycle):
        while faults and faults[0].cycle <= cycle:
            event = faults.pop(0)
            if event.action == "fail":
                simulator.fail_link(event.src, event.dst)
            else:
                simulator.repair_link(event.src, event.dst)

    on_cycle = apply_due_faults if faults else None
    epochs = []
    for engine in engines:
        simulator.set_engine(engine)
        epochs.append(simulator.run_epoch(spec.epoch_cycles, on_cycle=on_cycle).as_dict())
    return (
        epochs,
        simulator.idle_cycles,
        simulator.skipped_router_steps,
        tuple(sorted(simulator.failed_links)),
    )
