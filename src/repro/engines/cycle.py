"""The cycle-driven engine: the reference execution loop.

Extracted (mostly verbatim) from the pre-split ``NoCSimulator`` cycle loop.
Each simulated cycle it

1. asks the traffic source for newly created packets and queues their flits
   at the source network interfaces (NIs);
2. injects at most one flit per node from the NI queue into the local router
   (respecting virtual-channel assignment and buffer space);
3. steps the routers (route computation, VC allocation, switch allocation);
4. applies the resulting flit movements: delivers flits to downstream input
   buffers or ejects them at their destination NI, returning credits
   upstream; and
5. accrues leakage energy and occupancy statistics.

The loop is *activity tracked* (see :class:`repro.noc.model.NoCModel` for
the sets it reads): injection and router stepping iterate only over active
members, routers whose DVFS clock divider gates the current cycle are
skipped without so much as a method call, and completely empty cycles take
an *idle fast path* — batched into whole idle spans via the traffic
source's :meth:`TrafficSource.next_injection_cycle` hint (a full protocol
member since PR 9; the conservative default returns ``cycle`` and simply
disables span batching).  The loop leaps exactly as far as the hint says
and keeps no lookahead of its own: a sparse Bernoulli
:class:`~repro.traffic.generator.TrafficGenerator` answers with its true
next arrival, so near-idle traffic collapses into spans here just as
windowed, traced and quiescent sources always did; only dense or bursty
processes still answer "maybe now" and are stepped cycle by cycle.

Two model toggles bound the behaviour for equivalence testing:
``model.activity_tracking = False`` restores the naive scan-everything
loop, and ``model.idle_fast_path = False`` additionally forces empty cycles
through the full pipeline.  Either way the telemetry is bit-identical.
"""

from __future__ import annotations

from typing import Callable

from repro.noc.model import NoCModel


class CycleEngine:
    """Advance a :class:`NoCModel` cycle by cycle (with span batching)."""

    name = "cycle"

    def __init__(self, model: NoCModel) -> None:
        self.model = model

    # -- telemetry contract -------------------------------------------------

    @property
    def idle_cycles(self) -> int:
        return self.model.idle_cycles

    @property
    def skipped_router_steps(self) -> int:
        return self.model.skipped_router_steps

    # -- the loop -----------------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by exactly one cycle."""
        self._advance(self.model.cycle + 1)

    def run(self, cycles: int, *, on_cycle: Callable[[int], None] | None = None) -> None:
        """Advance ``cycles`` cycles; ``on_cycle`` runs before each one."""
        model = self.model
        end = model.cycle + cycles
        if on_cycle is None:
            self._advance(end)
            return
        while model.cycle < end:
            on_cycle(model.cycle)
            self._advance(model.cycle + 1)

    def _advance(self, end: int) -> None:
        """Advance to cycle ``end``, batching idle spans where possible.

        This is the engine's innermost loop, so state that cannot change
        while it runs — the traffic source and its idle-span hint, the
        engine toggles, the activity sets and the divider table (hooked
        runs and reconfiguration re-enter per cycle) — is hoisted into
        locals, and the idle/gated fast paths are inlined.
        """
        model = self.model
        traffic = model.traffic
        tracking = model.activity_tracking
        idle_fast = model.idle_fast_path
        nonempty_sources = model._nonempty_sources
        active_routers = model._active_routers
        num_routers = len(model.routers)
        power = model.power
        dividers = model.divider_table() if tracking else ()
        cycle = model.cycle
        while cycle < end:
            if traffic is not None:
                for packet in traffic.generate(cycle):
                    model.inject_packet(packet)
            if idle_fast and (
                not nonempty_sources and not active_routers
                if tracking
                else model.network_empty()
            ):
                # Idle fast path: nothing can move, so only the per-cycle
                # overheads (leakage energy, occupancy statistics) are
                # accrued — bit-identically to the full path.  With a
                # next-injection hint the whole idle span collapses into
                # one pass; the leakage loop still adds the per-cycle
                # increments one by one to stay bit-identical.
                span = 1
                if tracking and end - cycle > 1:
                    if traffic is None:
                        span = end - cycle
                    else:
                        next_injection = traffic.next_injection_cycle(cycle + 1)
                        if next_injection is None:
                            span = end - cycle
                        elif next_injection > cycle + 1:
                            span = min(next_injection, end) - cycle
                increments = model._cycle_leakage_increments()
                power.accrue_leakage_increments(increments, span)
                model.stats.record_idle_cycles(span)
                model.idle_cycles += span
                model.skipped_router_steps += span * num_routers
                cycle += span
                model.cycle = cycle
                continue
            if tracking:
                gated = True
                for divider in dividers:
                    if cycle % divider == 0:
                        gated = False
                        break
                if gated:
                    # DVFS-gated cycle: every router's clock divider misses
                    # this cycle, so injection and the whole pipeline are
                    # no-ops and only the per-cycle overheads remain
                    # (exactly what the naive loop would compute the long
                    # way around).
                    model.record_cycle_overheads()
                    model.skipped_router_steps += num_routers
                    cycle += 1
                    model.cycle = cycle
                    continue
            model.inject_from_sources(cycle)
            movements = model.step_routers(cycle)
            model.apply_movements(movements, cycle)
            model.record_cycle_overheads()
            cycle += 1
            model.cycle = cycle
