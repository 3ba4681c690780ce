"""Named, serializable experiment scenarios.

A :class:`ScenarioSpec` packages everything needed to reproduce one
simulator trial — topology, traffic phases (spatial pattern, injection
process, rate schedule), fault-injection events and the DVFS policy — as
plain data.  Specs round-trip through JSON (``to_json``/``from_json``),
pickle cleanly across process boundaries, and are registered under stable
names so sweeps, the CLI (``repro-noc scenarios list|run``) and the
benchmarks all draw from one catalogue.

The registry is seeded with the workload families the paper's evaluation
(and the ROADMAP's scenario-diversity goal) calls for: steady synthetic
patterns (uniform, transpose, bit-complement, hotspot), bursty ON/OFF
traffic, a diurnal ramp, a link-failure storm and a mixed-application
phase trace.  ``register_scenario`` accepts new ones at runtime.

Running a scenario (:func:`run_scenario`) is deterministic: the same spec
and seed produce byte-identical :class:`ScenarioResult` JSON, which is what
makes fan-out across a process pool (see :mod:`repro.exp.runner`) safe.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace

from repro.baselines.heuristic import ThresholdDvfsPolicy
from repro.core.actions import DvfsActionSpace
from repro.core.environment import NoCConfigEnv, rollout
from repro.core.features import FeatureExtractor
from repro.core.rewards import RewardSpec
from repro.noc.network import NoCSimulator, SimulatorConfig
from repro.noc.topology import Mesh
from repro.traffic.application import PhasedWorkload
from repro.traffic.generator import TrafficGenerator
from repro.traffic.injection import BernoulliInjection, BurstyInjection
from repro.traffic.patterns import get_pattern

DVFS_POLICIES = ("static", "threshold")
INJECTION_PROCESSES = ("bernoulli", "bursty")
FAULT_ACTIONS = ("fail", "repair")


@dataclass(frozen=True)
class TrafficPhase:
    """One phase of a scenario's traffic schedule."""

    duration_cycles: int
    pattern: str
    rate: float
    injection: str = "bernoulli"
    pattern_kwargs: dict = field(default_factory=dict)
    injection_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_cycles < 1:
            raise ValueError("phase duration must be at least one cycle")
        if self.rate < 0:
            raise ValueError("injection rate must be non-negative")
        if self.injection not in INJECTION_PROCESSES:
            raise ValueError(
                f"unknown injection process {self.injection!r}; "
                f"known: {', '.join(INJECTION_PROCESSES)}"
            )


@dataclass(frozen=True)
class FaultEvent:
    """Fail or repair the directed link ``src -> dst`` at ``cycle``."""

    cycle: int
    src: int
    dst: int
    action: str = "fail"

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("fault cycles must be non-negative")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: {', '.join(FAULT_ACTIONS)}"
            )


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, self-contained description of one simulator experiment."""

    name: str
    description: str
    phases: tuple[TrafficPhase, ...]
    faults: tuple[FaultEvent, ...] = ()
    width: int = 4
    height: int | None = None
    torus: bool = False
    num_vcs: int = 2
    buffer_depth: int = 4
    packet_size: int = 4
    routing: str = "xy"
    dvfs_policy: str = "static"
    dvfs_level: int = 0
    epochs: int = 8
    epoch_cycles: int = 500
    repeat_phases: bool = True
    #: Execution engine (a :mod:`repro.engines` registry name).  The exact
    #: engines yield byte-identical telemetry, the approximate ``flow`` one
    #: does not; it serializes with the spec, so pool workers honour it.
    engine: str = "cycle"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenarios need a non-empty name")
        if not self.phases:
            raise ValueError("scenarios need at least one traffic phase")
        if self.dvfs_policy not in DVFS_POLICIES:
            raise ValueError(
                f"unknown DVFS policy {self.dvfs_policy!r}; "
                f"known: {', '.join(DVFS_POLICIES)}"
            )
        if self.epochs < 1 or self.epoch_cycles < 1:
            raise ValueError("scenarios need at least one epoch of one cycle")
        # Eagerly validate the embedded simulator configuration (routing name,
        # DVFS level, packet size) so broken specs fail at registration time.
        self.build_simulator_config(seed=0)

    # -- construction helpers ------------------------------------------------

    def build_simulator_config(self, seed: int = 0) -> SimulatorConfig:
        return SimulatorConfig(
            width=self.width,
            height=self.height,
            torus=self.torus,
            num_vcs=self.num_vcs,
            buffer_depth=self.buffer_depth,
            packet_size=self.packet_size,
            routing=self.routing,
            initial_dvfs_level=self.dvfs_level,
            seed=seed,
            engine=self.engine,
        )

    def build_workload(self, topology: Mesh, seed: int = 0) -> "ScenarioWorkload":
        return ScenarioWorkload(
            topology,
            self.phases,
            packet_size=self.packet_size,
            seed=seed,
            repeat=self.repeat_phases,
        )

    def total_phase_cycles(self) -> int:
        return sum(phase.duration_cycles for phase in self.phases)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioSpec":
        payload = dict(payload)
        payload["phases"] = tuple(
            TrafficPhase(**phase) for phase in payload.get("phases", ())
        )
        payload["faults"] = tuple(
            FaultEvent(**fault) for fault in payload.get("faults", ())
        )
        return cls(**payload)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(payload))


class ScenarioWorkload(PhasedWorkload):
    """Traffic source cycling through a scenario's :class:`TrafficPhase` list.

    Unlike the base :class:`~repro.traffic.application.PhasedWorkload`, each
    phase may choose its injection process (Bernoulli or bursty ON/OFF), and
    the packet size is scenario-wide rather than per-phase.
    """

    def __init__(
        self,
        topology: Mesh,
        phases: tuple[TrafficPhase, ...],
        packet_size: int = 4,
        seed: int = 0,
        repeat: bool = True,
    ) -> None:
        self._packet_size = packet_size
        super().__init__(topology, list(phases), seed=seed, repeat=repeat)

    def _build_generator(
        self, topology: Mesh, phase: TrafficPhase, seed: int
    ) -> TrafficGenerator:
        return TrafficGenerator(
            topology,
            get_pattern(phase.pattern, topology, **phase.pattern_kwargs),
            _build_injection(phase, self._packet_size),
            packet_size=self._packet_size,
            seed=seed,
        )


def _build_injection(phase: TrafficPhase, packet_size: int):
    if phase.injection == "bernoulli":
        return BernoulliInjection(phase.rate, packet_size)
    kwargs = dict(phase.injection_kwargs)
    rate_off = kwargs.pop("rate_off", 0.0)
    return BurstyInjection(phase.rate, rate_off, packet_size, **kwargs)


# ---------------------------------------------------------------------------
# running a scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    """Plain-data outcome of one scenario trial (picklable, JSON-able)."""

    scenario: str
    seed: int
    epochs: tuple[dict, ...]
    idle_cycles: int
    failed_links: tuple[tuple[int, int], ...]
    #: Fault events whose cycle fell past the simulated horizon and therefore
    #: never fired — nonzero means the run did not exercise the full fault
    #: script (e.g. a shortened --epochs/--epoch-cycles override).
    faults_skipped: int = 0
    #: Wall-clock seconds spent in the epoch loop, so every sweep doubles as
    #: a perf sample.  Excluded from comparisons and serialization (equality
    #: and the to_json golden tests are about *simulated* outcomes, which
    #: are deterministic; wall time is not).
    wall_time_s: float = field(default=0.0, compare=False)
    #: Simulated cycles per wall-clock second (plain float, picklable), or
    #: ``None`` when the run landed under timer resolution — an unmeasurable
    #: rate is not a rate of zero (see :func:`repro.exp.suites.perf_record`).
    cycles_per_second: float | None = field(default=None, compare=False)

    @property
    def cycles(self) -> int:
        return sum(int(epoch["cycles"]) for epoch in self.epochs)

    @property
    def packets_delivered(self) -> int:
        return sum(int(epoch["packets_delivered"]) for epoch in self.epochs)

    @property
    def flits_delivered(self) -> int:
        return sum(int(epoch["flits_delivered"]) for epoch in self.epochs)

    @property
    def average_latency(self) -> float:
        delivered = self.packets_delivered
        if not delivered:
            return 0.0
        weighted = sum(
            epoch["average_total_latency"] * epoch["packets_delivered"]
            for epoch in self.epochs
        )
        return weighted / delivered

    @property
    def throughput(self) -> float:
        """Accepted throughput in flits/node/cycle over the whole run."""
        if not self.epochs or not self.cycles:
            return 0.0
        per_node_cycle = sum(
            epoch["throughput"] * epoch["cycles"] for epoch in self.epochs
        )
        return per_node_cycle / self.cycles

    @property
    def energy_total_pj(self) -> float:
        return sum(epoch["energy_total_pj"] for epoch in self.epochs)

    @property
    def energy_per_flit_pj(self) -> float:
        flits = self.flits_delivered
        return self.energy_total_pj / flits if flits else self.energy_total_pj

    def summary(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "cycles": self.cycles,
            "packets_delivered": self.packets_delivered,
            "average_latency": self.average_latency,
            "throughput": self.throughput,
            "energy_per_flit_pj": self.energy_per_flit_pj,
            "idle_cycles": self.idle_cycles,
            "failed_links": len(self.failed_links),
            "faults_skipped": self.faults_skipped,
        }

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "epochs": list(self.epochs),
            "idle_cycles": self.idle_cycles,
            "failed_links": [list(link) for link in self.failed_links],
            "faults_skipped": self.faults_skipped,
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def run_scenario(
    spec: "ScenarioSpec | str",
    *,
    seed: int = 0,
    epochs: int | None = None,
    epoch_cycles: int | None = None,
    idle_fast_path: bool = True,
    activity_tracking: bool = True,
    engine: str | None = None,
    telemetry=None,
) -> ScenarioResult:
    """Build and run one scenario trial; returns plain-data telemetry only.

    ``seed`` perturbs both the simulator's and the workload's RNG streams, so
    repeated trials of the same scenario are independent yet reproducible.
    ``epochs``/``epoch_cycles`` override the spec's defaults (the tests use
    short overrides).  ``engine`` overrides the spec's execution engine (a
    :mod:`repro.engines` name; telemetry is engine-agnostic).
    ``idle_fast_path`` / ``activity_tracking`` toggle the cycle engine's
    optimisations (the equivalence tests run the optimised and naive
    variants over the same spec).
    The trial is one :func:`~repro.core.environment.rollout` with no
    warm-up; the ``threshold`` policy acts through a ``DvfsActionSpace``.

    ``telemetry`` is an optional live tap — anything with an
    ``emit(row: dict)`` method, typically a
    :class:`repro.exp.telemetry.TelemetrySink` — that receives one
    ``source="epoch"`` row per completed epoch as the run progresses.  The
    rows mix deterministic simulated fields with wall-clock timings; the
    latter are exactly the :data:`repro.exp.telemetry.WALL_CLOCK_FIELDS`,
    so downstream diffing can drop them and compare the rest bit for bit.
    The tap is duck-typed (this module never imports the sink) and is not
    available across process-pool workers — sinks hold open file handles,
    which do not pickle.
    """
    if isinstance(spec, str):
        spec = get_scenario(spec)
    if epochs is not None or epoch_cycles is not None or engine is not None:
        spec = replace(
            spec,
            epochs=epochs if epochs is not None else spec.epochs,
            epoch_cycles=epoch_cycles if epoch_cycles is not None else spec.epoch_cycles,
            engine=engine if engine is not None else spec.engine,
        )

    simulator = NoCSimulator(spec.build_simulator_config(seed=seed))
    simulator.idle_fast_path = idle_fast_path
    simulator.activity_tracking = activity_tracking
    simulator.traffic = spec.build_workload(simulator.topology, seed=seed)
    simulator.set_global_dvfs_level(spec.dvfs_level)
    levels = len(simulator.dvfs_levels)
    select_action = None
    if spec.dvfs_policy == "threshold":
        select_action = ThresholdDvfsPolicy(levels, initial_level=spec.dvfs_level).select_action

    fault_queue = sorted(spec.faults, key=lambda event: (event.cycle, event.src, event.dst))

    def apply_due_faults(cycle: int) -> None:
        while fault_queue and fault_queue[0].cycle <= cycle:
            event = fault_queue.pop(0)
            if event.action == "fail":
                simulator.fail_link(event.src, event.dst)
            else:
                simulator.repair_link(event.src, event.dst)

    env = NoCConfigEnv(
        lambda: simulator,
        DvfsActionSpace(levels),
        FeatureExtractor(simulator.config),
        RewardSpec.balanced(),
        epoch_cycles=spec.epoch_cycles,
        episode_epochs=spec.epochs,
        warmup_epochs=0,
        on_cycle=apply_due_faults if fault_queue else None,
    )
    epoch_payloads: list[dict] = []
    start = epoch_start = time.perf_counter()
    for epoch_index, (*_, info) in enumerate(rollout(env, select_action)):
        epoch_wall_s = time.perf_counter() - epoch_start
        payload = info["telemetry"].as_dict()
        epoch_payloads.append(payload)
        if telemetry is not None:
            telemetry.emit(
                {
                    "source": "epoch",
                    "scenario": spec.name,
                    "engine": spec.engine or "cycle",
                    "seed": seed,
                    "epoch": epoch_index,
                    "cycles": payload["cycles"],
                    "packets_delivered": payload["packets_delivered"],
                    "average_latency": payload["average_total_latency"],
                    "energy_total_pj": payload["energy_total_pj"],
                    "wall_s": epoch_wall_s,
                    "cycles_per_s": (
                        payload["cycles"] / epoch_wall_s if epoch_wall_s > 0 else None
                    ),
                }
            )
        epoch_start = time.perf_counter()
    wall_time_s = time.perf_counter() - start
    total_cycles = spec.epochs * spec.epoch_cycles

    return ScenarioResult(
        scenario=spec.name,
        seed=seed,
        epochs=tuple(epoch_payloads),
        idle_cycles=simulator.idle_cycles,
        failed_links=tuple(sorted(simulator.failed_links)),
        faults_skipped=len(fault_queue),
        wall_time_s=wall_time_s,
        cycles_per_second=total_cycles / wall_time_s if wall_time_s > 0 else None,
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, replace_existing: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry under ``spec.name``."""
    if spec.name in _REGISTRY and not replace_existing:
        raise ValueError(f"scenario {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(scenario_names())
        raise KeyError(f"unknown scenario {name!r}; known: {known}") from None


def scenario_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def all_scenarios() -> tuple[ScenarioSpec, ...]:
    return tuple(_REGISTRY[name] for name in scenario_names())


def _seed_registry() -> None:
    register_scenario(
        ScenarioSpec(
            name="uniform",
            description="Steady uniform-random traffic at a moderate load",
            phases=(TrafficPhase(2_000, "uniform", 0.12),),
        )
    )
    register_scenario(
        ScenarioSpec(
            name="transpose",
            description="Adversarial (x,y)->(y,x) permutation under adaptive routing",
            phases=(TrafficPhase(2_000, "transpose", 0.15),),
            routing="odd_even",
        )
    )
    register_scenario(
        ScenarioSpec(
            name="hotspot",
            description="Shared-resource contention: 35% of traffic targets the centre",
            phases=(
                TrafficPhase(
                    2_000, "hotspot", 0.14, pattern_kwargs={"hotspot_fraction": 0.35}
                ),
            ),
        )
    )
    register_scenario(
        ScenarioSpec(
            name="bursty",
            description="ON/OFF Markov-modulated traffic with threshold DVFS",
            phases=(
                TrafficPhase(
                    2_000,
                    "uniform",
                    0.30,
                    injection="bursty",
                    injection_kwargs={
                        "rate_off": 0.02,
                        "mean_on": 120.0,
                        "mean_off": 280.0,
                    },
                ),
            ),
            dvfs_policy="threshold",
        )
    )
    register_scenario(
        ScenarioSpec(
            name="bit-complement",
            description="Bit-complement permutation crossing the mesh bisection",
            phases=(TrafficPhase(2_000, "bit_complement", 0.15),),
        )
    )
    register_scenario(
        ScenarioSpec(
            name="diurnal-ramp",
            description="Day/night load ramp from near-idle to peak and back",
            phases=(
                TrafficPhase(800, "uniform", 0.02),
                TrafficPhase(600, "uniform", 0.08),
                TrafficPhase(600, "uniform", 0.16),
                TrafficPhase(800, "uniform", 0.24),
                TrafficPhase(600, "uniform", 0.16),
                TrafficPhase(600, "uniform", 0.08),
                TrafficPhase(800, "uniform", 0.02),
            ),
            dvfs_policy="threshold",
        )
    )
    register_scenario(
        ScenarioSpec(
            name="link-failure-storm",
            description="Cascade of link failures and repairs under adaptive routing",
            phases=(TrafficPhase(2_000, "uniform", 0.10),),
            routing="west_first",
            faults=(
                FaultEvent(cycle=400, src=5, dst=6),
                FaultEvent(cycle=700, src=6, dst=10),
                FaultEvent(cycle=1_000, src=9, dst=10),
                FaultEvent(cycle=1_600, src=5, dst=6, action="repair"),
                FaultEvent(cycle=1_900, src=6, dst=10, action="repair"),
                FaultEvent(cycle=2_200, src=9, dst=10, action="repair"),
            ),
        )
    )
    register_scenario(
        ScenarioSpec(
            name="mixed-application",
            description="Phase trace mixing compute, contention and exchange phases",
            phases=(
                TrafficPhase(900, "uniform", 0.05),
                TrafficPhase(
                    700, "hotspot", 0.18, pattern_kwargs={"hotspot_fraction": 0.25}
                ),
                TrafficPhase(700, "transpose", 0.20),
                TrafficPhase(700, "neighbor", 0.22),
                TrafficPhase(900, "uniform", 0.05),
            ),
            dvfs_policy="threshold",
        )
    )
    register_scenario(
        ScenarioSpec(
            name="powersave-idle",
            description="Near-idle traffic at the slowest DVFS level (fast-path regime)",
            phases=(TrafficPhase(2_000, "uniform", 0.01),),
            dvfs_level=3,
        )
    )
    register_scenario(
        ScenarioSpec(
            name="torus-tornado",
            description="Tornado permutation on a torus (wraparound stress)",
            phases=(TrafficPhase(2_000, "tornado", 0.15),),
            torus=True,
        )
    )


_seed_registry()
