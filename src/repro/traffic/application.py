"""Phase-based synthetic application workloads.

Real application traces (PARSEC, SPLASH-2) are not available offline, so the
workload the self-configuration controller is trained and evaluated on is a
*phased* workload: a cyclic sequence of phases, each with its own spatial
pattern and injection rate.  This reproduces the property the controller
exploits — the best configuration changes over time — without needing the
original traces (see the substitution table in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.noc.packet import Packet
from repro.noc.topology import Mesh
from repro.traffic.generator import FlowProfile, TrafficGenerator


@dataclass(frozen=True)
class Phase:
    """One workload phase."""

    duration_cycles: int
    pattern: str
    rate_flits_per_node_cycle: float
    packet_size: int = 4
    pattern_kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_cycles < 1:
            raise ValueError("phase duration must be at least one cycle")
        if self.rate_flits_per_node_cycle < 0:
            raise ValueError("injection rate must be non-negative")


def default_phases(
    low_rate: float = 0.05,
    high_rate: float = 0.28,
    medium_rate: float = 0.15,
    phase_cycles: int = 2_000,
) -> list[Phase]:
    """The default phased workload used across examples and benchmarks.

    A long near-idle stretch, ramping through a medium streaming phase into
    hotspot contention, back down, an all-to-all (transpose) exchange, and
    back to idle — mimicking an application alternating between compute,
    shared-resource contention and communication phases.  The high-load
    phases sit near (but below) the saturation point of the fastest
    configuration, so the fastest DVFS level is needed there, while the
    low-load phases leave ample slack for down-clocking; transitions ramp
    through the medium phase rather than jumping straight from idle to peak.
    This time-varying structure is what the self-configuration controller
    exploits.
    """
    low = Phase(phase_cycles * 3 // 2, "uniform", low_rate)
    medium = Phase(phase_cycles, "uniform", medium_rate)
    return [
        low,
        medium,
        Phase(phase_cycles, "hotspot", high_rate, pattern_kwargs={"hotspot_fraction": 0.15}),
        medium,
        Phase(phase_cycles, "transpose", high_rate),
        medium,
        low,
    ]


class PhasedWorkload:
    """A traffic source that cycles through a list of :class:`Phase` objects."""

    def __init__(
        self,
        topology: Mesh,
        phases: list[Phase],
        seed: int = 0,
        repeat: bool = True,
    ) -> None:
        if not phases:
            raise ValueError("a phased workload needs at least one phase")
        self.topology = topology
        self.phases = list(phases)
        self.repeat = repeat
        self._seed = seed
        self._generators = [
            self._build_generator(topology, phase, seed + index)
            for index, phase in enumerate(self.phases)
        ]
        self._total_cycles = sum(phase.duration_cycles for phase in self.phases)
        self._phase_ends: list[int] = []
        elapsed = 0
        for phase in self.phases:
            elapsed += phase.duration_cycles
            self._phase_ends.append(elapsed)

    def _build_generator(
        self, topology: Mesh, phase: Phase, seed: int
    ) -> TrafficGenerator:
        """Hook subclasses override to customise per-phase traffic generation
        (e.g. :class:`repro.exp.scenarios.ScenarioWorkload`'s bursty phases)."""
        return TrafficGenerator.from_names(
            topology,
            phase.pattern,
            phase.rate_flits_per_node_cycle,
            packet_size=phase.packet_size,
            seed=seed,
            **phase.pattern_kwargs,
        )

    @property
    def total_cycles(self) -> int:
        """Length of one full pass over all phases."""
        return self._total_cycles

    def phase_index_at(self, cycle: int) -> int | None:
        """Index of the phase active at ``cycle`` (None once a non-repeating
        workload has finished)."""
        if cycle >= self._total_cycles:
            if not self.repeat:
                return None
            cycle %= self._total_cycles
        elapsed = 0
        for index, phase in enumerate(self.phases):
            elapsed += phase.duration_cycles
            if cycle < elapsed:
                return index
        return None  # pragma: no cover - unreachable

    def _locate(self, cycle: int) -> tuple[int, int] | None:
        """``(phase index, end of that phase occurrence)`` at ``cycle``, or
        ``None`` once a non-repeating workload has finished.

        Phase generators are reused every pass over the phase list, each
        continuing its own RNG stream, so nothing delegated below may
        consume draws past ``phase_end``: it bounds every lookahead scan.
        """
        index = self.phase_index_at(cycle)
        if index is None:
            return None
        position = cycle % self._total_cycles if cycle >= self._total_cycles else cycle
        return index, cycle + (self._phase_ends[index] - position)

    def generate(self, cycle: int) -> list[Packet]:
        located = self._locate(cycle)
        if located is None:
            return []
        index, phase_end = located
        return self._generators[index].generate(cycle, phase_end)

    def next_injection_cycle(self, cycle: int) -> int | None:
        """Earliest cycle ``>= cycle`` at which a packet may be created.

        Delegates to the generator of the phase active at ``cycle`` and
        never looks past the end of that phase occurrence (the next phase
        may inject immediately), so the simulator's idle-span batching only
        ever skips ``generate`` calls that would have gone to the current
        phase generator — quiescent, or sparse enough to know its next
        arrival.
        """
        located = self._locate(cycle)
        if located is None:
            return None
        index, phase_end = located
        hint = self._generators[index].next_injection_cycle(cycle, phase_end)
        if hint is not None and hint < phase_end:
            return max(hint, cycle)
        return phase_end

    def flow_profile(self, cycle: int) -> FlowProfile | None:
        """Sustained per-flow rates for the phase active at ``cycle``.

        Delegates to the active phase's generator with the profile's
        ``until`` clipped at the end of the current phase occurrence (the
        next phase has its own pattern and rate), just as ``generate`` never
        consumes draws past a phase boundary.
        """
        located = self._locate(cycle)
        if located is None:
            # Finished non-repeating workload: silent forever.
            return FlowProfile((), None, 1)
        index, phase_end = located
        profile = self._generators[index].flow_profile(cycle)
        if profile is None:
            return None
        until = phase_end if profile.until is None else min(profile.until, phase_end)
        return FlowProfile(profile.flows, until, profile.packet_size)

    def offered_load(self, cycle: int) -> float:
        index = self.phase_index_at(cycle)
        if index is None:
            return 0.0
        return self._generators[index].offered_load(cycle)
