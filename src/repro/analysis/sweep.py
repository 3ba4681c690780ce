"""Parameter sweeps over the simulator (no learning involved).

These drive the classical NoC characterisation plots — the load/latency
curve (Figure 1) and the routing throughput comparison (Figure 2) — and are
also used by the tests to confirm the simulator reproduces the canonical
saturation behaviour.

Both sweeps are serial helpers.  Every sweep point is an independent,
picklable :class:`SweepTrial` measured by :func:`measure_sweep_point` into a
plain :class:`LoadLatencyPoint`, which is what lets the suite engine's
``sweep`` units (``run_suite``) fan the same points over a process pool;
parallel sweeps go through it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from repro.noc.network import NoCSimulator, SimulatorConfig
from repro.traffic.generator import TrafficGenerator


@dataclass(frozen=True)
class LoadLatencyPoint:
    """One point of a load/latency/throughput sweep."""

    injection_rate: float
    average_latency: float
    average_network_latency: float
    throughput: float
    offered_load: float
    energy_per_flit_pj: float
    delivered_packets: int
    #: Wall-clock perf sample for this trial (warmup + measurement).
    #: ``compare=False`` keeps serial-vs-parallel equivalence checks about
    #: the simulated outcome only — wall time is not deterministic.  A trial
    #: under timer resolution records ``None`` (unmeasurable), never 0.0.
    wall_time_s: float = field(default=0.0, compare=False)
    cycles_per_second: float | None = field(default=None, compare=False)

    @property
    def saturated(self) -> bool:
        """Heuristic saturation flag: accepted load clearly below offered."""
        if self.offered_load == 0:
            return False
        return self.throughput < 0.92 * self.offered_load


@dataclass(frozen=True)
class SweepTrial:
    """A self-contained, picklable description of one sweep measurement."""

    simulator_config: SimulatorConfig
    pattern: str
    rate: float
    warmup_cycles: int
    measure_cycles: int
    seed: int
    dvfs_level: int
    pattern_kwargs: dict = field(default_factory=dict)


def measure_sweep_point(trial: SweepTrial) -> LoadLatencyPoint:
    """Worker for one sweep trial; module-level so it pickles into a pool.

    The simulator lives and dies inside this call — only the plain-data
    :class:`LoadLatencyPoint` leaves, so results survive process transport.
    """
    simulator = NoCSimulator(trial.simulator_config)
    simulator.set_global_dvfs_level(trial.dvfs_level)
    simulator.traffic = TrafficGenerator.from_names(
        simulator.topology,
        trial.pattern,
        trial.rate,
        packet_size=trial.simulator_config.packet_size,
        seed=trial.seed,
        **trial.pattern_kwargs,
    )
    start = time.perf_counter()
    if trial.warmup_cycles:
        simulator.run(trial.warmup_cycles)
    telemetry = simulator.run_epoch(trial.measure_cycles)
    wall_time_s = time.perf_counter() - start
    simulated_cycles = trial.warmup_cycles + trial.measure_cycles
    return LoadLatencyPoint(
        injection_rate=trial.rate,
        average_latency=telemetry.average_total_latency,
        average_network_latency=telemetry.average_network_latency,
        throughput=telemetry.throughput_flits_per_node_cycle,
        offered_load=telemetry.offered_load_flits_per_node_cycle,
        energy_per_flit_pj=telemetry.energy_per_flit_pj,
        delivered_packets=telemetry.packets_delivered,
        wall_time_s=wall_time_s,
        cycles_per_second=simulated_cycles / wall_time_s if wall_time_s > 0 else None,
    )


def load_latency_sweep(
    simulator_config: SimulatorConfig,
    injection_rates: list[float],
    pattern: str = "uniform",
    warmup_cycles: int = 500,
    measure_cycles: int = 1_500,
    seed: int = 0,
    dvfs_level: int = 0,
    engine: str | None = None,
    **pattern_kwargs,
) -> list[LoadLatencyPoint]:
    """Average latency and accepted throughput as the offered load sweeps up.

    ``engine`` overrides the config's execution engine (results are
    engine-agnostic; see :mod:`repro.engines`).
    """
    if not injection_rates:
        raise ValueError("at least one injection rate is required")
    if any(rate < 0 for rate in injection_rates):
        raise ValueError("injection rates must be non-negative")
    if engine is not None:
        simulator_config = replace(simulator_config, engine=engine)
    trials = [
        SweepTrial(
            simulator_config=simulator_config,
            pattern=pattern,
            rate=rate,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            seed=seed,
            dvfs_level=dvfs_level,
            pattern_kwargs=pattern_kwargs,
        )
        for rate in injection_rates
    ]
    return [measure_sweep_point(trial) for trial in trials]


def routing_throughput_sweep(
    simulator_config: SimulatorConfig,
    injection_rates: list[float],
    routing_algorithms: list[str],
    pattern: str = "transpose",
    warmup_cycles: int = 500,
    measure_cycles: int = 1_500,
    seed: int = 0,
    engine: str | None = None,
) -> dict[str, list[LoadLatencyPoint]]:
    """Load sweep repeated for several routing algorithms (Figure 2)."""
    return {
        routing: load_latency_sweep(
            replace(simulator_config, routing=routing),
            injection_rates,
            pattern=pattern,
            warmup_cycles=warmup_cycles,
            measure_cycles=measure_cycles,
            seed=seed,
            engine=engine,
        )
        for routing in routing_algorithms
    }
