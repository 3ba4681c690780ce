"""Event-based NoC energy model.

The model follows the structure of Orion/DSENT-style router power models but
with parametric per-event energies: every buffer write, buffer read, crossbar
traversal and link traversal contributes a fixed energy at nominal voltage,
scaled by ``(V / V_nom)^2`` at the active operating point; leakage accrues
every cycle per router, scaled by ``V / V_nom``.

Absolute joules are not calibrated against silicon — only the *relative*
energy between DVFS levels and between controllers matters for the
reproduction (see DESIGN.md, substitutions table).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.noc.dvfs import OperatingPoint

#: Below this many scalar adds a multi-cycle leakage replay stays in the
#: Python loop; above it the sequential ufunc wins.
_REPLAY_MIN_ADDS = 512

#: Longest ``np.add.accumulate`` input, in elements: bounds the tiled buffer
#: and each running-sum output at 64 KiB however long the span.
_REPLAY_CHUNK_ADDS = 8_192


@dataclass(frozen=True)
class PowerParameters:
    """Per-event energies in picojoules at the nominal voltage."""

    nominal_voltage: float = 1.0
    buffer_write_pj: float = 1.2
    buffer_read_pj: float = 1.0
    crossbar_pj: float = 1.5
    link_pj: float = 2.0
    # Leakage is sized so that it dominates at low utilisation (the regime
    # where voltage scaling pays off), mirroring sub-65nm router power
    # breakdowns reported by Orion/DSENT-style models.
    router_leakage_pj_per_cycle: float = 1.2
    link_leakage_pj_per_cycle: float = 0.3

    def __post_init__(self) -> None:
        values = (
            self.nominal_voltage,
            self.buffer_write_pj,
            self.buffer_read_pj,
            self.crossbar_pj,
            self.link_pj,
            self.router_leakage_pj_per_cycle,
            self.link_leakage_pj_per_cycle,
        )
        if any(v < 0 for v in values):
            raise ValueError("power parameters must be non-negative")
        if self.nominal_voltage <= 0:
            raise ValueError("nominal voltage must be positive")


@dataclass
class EnergyBreakdown:
    """Accumulated energy, split by component, in picojoules."""

    buffer_pj: float = 0.0
    crossbar_pj: float = 0.0
    link_pj: float = 0.0
    leakage_pj: float = 0.0

    @property
    def dynamic_pj(self) -> float:
        return self.buffer_pj + self.crossbar_pj + self.link_pj

    @property
    def total_pj(self) -> float:
        return self.dynamic_pj + self.leakage_pj

    def copy(self) -> "EnergyBreakdown":
        return EnergyBreakdown(
            buffer_pj=self.buffer_pj,
            crossbar_pj=self.crossbar_pj,
            link_pj=self.link_pj,
            leakage_pj=self.leakage_pj,
        )

    def __sub__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            buffer_pj=self.buffer_pj - other.buffer_pj,
            crossbar_pj=self.crossbar_pj - other.crossbar_pj,
            link_pj=self.link_pj - other.link_pj,
            leakage_pj=self.leakage_pj - other.leakage_pj,
        )

    def as_dict(self) -> dict[str, float]:
        return {
            "buffer_pj": self.buffer_pj,
            "crossbar_pj": self.crossbar_pj,
            "link_pj": self.link_pj,
            "leakage_pj": self.leakage_pj,
            "dynamic_pj": self.dynamic_pj,
            "total_pj": self.total_pj,
        }


@dataclass
class PowerModel:
    """Accumulates energy for dynamic events and leakage."""

    parameters: PowerParameters = field(default_factory=PowerParameters)
    energy: EnergyBreakdown = field(default_factory=EnergyBreakdown)
    # The dynamic scale is a pure function of the (frozen) operating point
    # and the (frozen) parameters, so the last computation is memoized by
    # point identity — the ``** 2`` sits on the per-flit-event hot path and
    # consecutive events overwhelmingly share one operating point.  Excluded
    # from equality/repr: the memo is an implementation detail, not state.
    _scale_point: OperatingPoint | None = field(default=None, compare=False, repr=False)
    _scale_value: float = field(default=0.0, compare=False, repr=False)
    # Long-span leakage replay (see accrue_leakage_increments): the increment
    # list the buffers were tiled from, by identity — the model builds a new
    # list whenever an operating point changes — and ``[slot, *increments
    # repeated]``.
    _replay_source: list[float] | None = field(default=None, compare=False, repr=False)
    _replay_terms: np.ndarray | None = field(default=None, compare=False, repr=False)

    # -- scaling helpers ---------------------------------------------------

    def _dynamic_scale(self, point: OperatingPoint) -> float:
        if point is self._scale_point:
            return self._scale_value
        scale = (point.voltage / self.parameters.nominal_voltage) ** 2
        self._scale_point = point
        self._scale_value = scale
        return scale

    def _static_scale(self, point: OperatingPoint) -> float:
        return point.voltage / self.parameters.nominal_voltage

    # -- dynamic events ------------------------------------------------------

    def record_buffer_write(self, point: OperatingPoint, flits: int = 1) -> None:
        self.energy.buffer_pj += (
            self.parameters.buffer_write_pj * flits * self._dynamic_scale(point)
        )

    def record_buffer_read(self, point: OperatingPoint, flits: int = 1) -> None:
        self.energy.buffer_pj += (
            self.parameters.buffer_read_pj * flits * self._dynamic_scale(point)
        )

    def record_crossbar_traversal(self, point: OperatingPoint, flits: int = 1) -> None:
        self.energy.crossbar_pj += (
            self.parameters.crossbar_pj * flits * self._dynamic_scale(point)
        )

    def record_link_traversal(self, point: OperatingPoint, flits: int = 1) -> None:
        self.energy.link_pj += self.parameters.link_pj * flits * self._dynamic_scale(point)

    def record_flit_traversal(self, point: OperatingPoint, link: bool) -> None:
        """One switch traversal: buffer read + crossbar, plus the link when the
        flit leaves the router.  Fused so the hot path pays a single call and
        scale lookup; adds the exact floats the individual ``record_*`` calls
        would add, to their separate accumulators."""
        scale = self._dynamic_scale(point)
        parameters = self.parameters
        energy = self.energy
        energy.buffer_pj += parameters.buffer_read_pj * scale
        energy.crossbar_pj += parameters.crossbar_pj * scale
        if link:
            energy.link_pj += parameters.link_pj * scale

    # -- leakage ---------------------------------------------------------------

    def router_leakage_increment(self, point: OperatingPoint, routers: int = 1) -> float:
        """The leakage energy ``routers`` routers accrue in one cycle at ``point``.

        Exposed so callers that batch leakage accounting (the simulator's
        idle-cycle fast path) can pre-compute the exact per-cycle increments
        and stay bit-identical to per-cycle :meth:`record_router_leakage` calls.
        """
        return (
            self.parameters.router_leakage_pj_per_cycle
            * routers
            * self._static_scale(point)
        )

    def link_leakage_increment(self, point: OperatingPoint, links: int = 1) -> float:
        """The leakage energy ``links`` links accrue in one cycle at ``point``."""
        return (
            self.parameters.link_leakage_pj_per_cycle * links * self._static_scale(point)
        )

    def record_router_leakage(self, point: OperatingPoint, routers: int = 1) -> None:
        self.energy.leakage_pj += self.router_leakage_increment(point, routers)

    def record_link_leakage(self, point: OperatingPoint, links: int = 1) -> None:
        self.energy.leakage_pj += self.link_leakage_increment(point, links)

    def accrue_leakage_increments(
        self, increments: list[float], cycles: int = 1
    ) -> None:
        """Add each increment once per cycle, in order.

        Replaying a cached increment schedule keeps the floating-point
        accumulation order identical to ``cycles`` passes of per-router
        :meth:`record_router_leakage` / :meth:`record_link_leakage` calls,
        so the result is bit-identical — summing ``cycles * increment`` up
        front would not be.  The simulator's activity-tracked engine routes
        both its busy-cycle overheads and its idle-span batching through
        this method.

        Long spans run the same chain of adds through ``np.add.accumulate``
        — a strictly sequential running sum, ``out[i] = out[i-1] + in[i]``,
        unlike the pairwise ``np.sum`` — seeded with the current total in
        slot 0, so the last element is bit-for-bit what the loop produces.
        Single-cycle calls — every busy cycle makes one — stay in the loop
        whatever the mesh size, so a loaded network never builds the buffers.
        """
        leakage = self.energy.leakage_pj
        per_cycle = len(increments)
        if cycles == 1 or cycles * per_cycle < _REPLAY_MIN_ADDS:
            for _ in range(cycles):
                for increment in increments:
                    leakage += increment
            self.energy.leakage_pj = leakage
            return
        chunk_cycles = max(1, _REPLAY_CHUNK_ADDS // per_cycle)
        if increments is not self._replay_source:
            terms = np.empty(1 + chunk_cycles * per_cycle)
            terms[1:] = np.tile(increments, chunk_cycles)
            self._replay_source = increments
            self._replay_terms = terms
        terms = self._replay_terms
        while cycles:
            take = min(cycles, chunk_cycles)
            terms[0] = leakage
            leakage = float(np.add.accumulate(terms[: 1 + take * per_cycle])[-1])
            cycles -= take
        self.energy.leakage_pj = leakage

    # -- reporting ---------------------------------------------------------------

    def snapshot(self) -> EnergyBreakdown:
        """A copy of the accumulated energy so callers can compute deltas."""
        return self.energy.copy()

    def reset(self) -> None:
        self.energy = EnergyBreakdown()
