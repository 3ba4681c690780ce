"""The calendar-queue event engine.

Instead of asking every cycle "is there anything to do?", this engine keeps
a calendar (a min-heap keyed on cycle) of the moments something *can*
happen and leaps over everything in between:

* **injection events** — the earliest cycle the traffic source may create a
  packet, from the :meth:`TrafficSource.next_injection_cycle` protocol
  member (the conservative default returns the queried cycle itself, which
  schedules an injection event every cycle);
* **pipeline events** — while any flit is buffered in a router or queued at
  an NI, the next cycle on which at least one *involved* router's DVFS
  clock divider fires (a hierarchical per-router calendar: routers that
  hold no flits and feed no nonempty NI queue cannot do work, so their
  dividers no longer cap the leap — cycles on which no involved divider
  fires are fully gated: no injection, no pipeline work);
* **DVFS retunes** — an operating-point change invalidates the model's
  divider table (through the router observer hook PR 2 added).  Retunes can
  only happen *between* ``_advance`` invocations — ``on_cycle`` hooks force
  per-cycle stepping and DVFS policies act between epochs — and the
  calendar lives inside one ``_advance`` call, so every calendar is built
  against a current divider table and scheduled pipeline events can never
  go stale.

The span between the current cycle and the next event is settled in one
pass: leakage increments are replayed per cycle (bit-identical to per-cycle
accrual), occupancy statistics use the integer-exact batched
:meth:`NetworkStats.record_cycles`, and — matching the cycle engine's
accounting — only *empty-network* span cycles count as ``idle_cycles``
(gated spans with flits parked in buffers or NI queues do not).

The payoff over the cycle engine's idle-span batching: the cycle engine can
only leap when the network is completely empty, while the calendar also
leaps **gated spans** — a powersave mesh (divider 4) holding parked flits
between bursts executes one cycle in four instead of checking all four.
Under dense traffic (a Bernoulli source likely to inject every cycle
answers the hint with "now") the calendar degenerates to per-cycle
stepping, exactly like any event-driven NoC simulator at saturation; a
sparse one schedules a single injection event at its true next arrival.

Telemetry is bit-identical to the cycle engine by construction: an executed
cycle runs the same model phases in the same order, and every skipped cycle
accrues the same floats the cycle engine would have accrued one cycle at a
time.  The property suite and the scenario-registry equivalence tests
enforce this (including ``idle_cycles``, so whole
:class:`~repro.exp.scenarios.ScenarioResult` payloads compare equal across
engines).
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.noc.model import NoCModel

_INJECT = 0
_PIPELINE = 1


class EventEngine:
    """Advance a :class:`NoCModel` by leaping between scheduled events."""

    name = "event"

    def __init__(self, model: NoCModel) -> None:
        self.model = model

    # -- telemetry contract -------------------------------------------------

    @property
    def idle_cycles(self) -> int:
        return self.model.idle_cycles

    @property
    def skipped_router_steps(self) -> int:
        return self.model.skipped_router_steps

    # -- the event loop -----------------------------------------------------

    def step(self) -> None:
        """Advance the simulation by exactly one cycle."""
        self._advance(self.model.cycle + 1)

    def run(self, cycles: int, *, on_cycle: Callable[[int], None] | None = None) -> None:
        """Advance ``cycles`` cycles; ``on_cycle`` runs before each one.

        With a hook attached the engine steps strictly cycle by cycle, like
        every engine (span leaping would skip hook invocations).
        """
        model = self.model
        end = model.cycle + cycles
        if on_cycle is None:
            self._advance(end)
            return
        while model.cycle < end:
            on_cycle(model.cycle)
            self._advance(model.cycle + 1)

    def _next_divider_fire(self, at: int) -> int:
        """The earliest cycle ``>= at`` on which any *involved* router fires.

        The calendar is hierarchical: instead of one global distinct-divider
        table (which let a single turbo router anywhere in the mesh cap
        every leap, even with all parked flits sitting in powersave
        routers), each router contributes its own next-fire cycle and only
        the *involved* ones are consulted — routers holding flits
        (``_active_routers``) plus routers whose NI source queues are
        nonempty (``_nonempty_sources``; injection is divider-gated per
        node).  A cycle on which only uninvolved dividers fire is an
        execution no-op (``inject_from_sources`` skips empty sources,
        ``step_routers`` skips inactive routers) and settles as part of the
        gated span with identical accounting, so restricting the calendar
        keeps telemetry bit-identical while leaping further on mixed-DVFS
        meshes.  Involvement sets only *grow* during an executed cycle, and
        every executed cycle reschedules against the grown sets, so a
        scheduled fire can go stale early (harmless: the cycle settles as
        gated) but never late.
        """
        routers = self.model.routers
        best: int | None = None
        seen: set[int] = set()
        for involved in (self.model._active_routers, self.model._nonempty_sources):
            for node in involved:
                divider = routers[node].operating_point.divider
                if divider in seen:
                    continue
                seen.add(divider)
                remainder = at % divider
                if remainder == 0:
                    return at
                fire = at + (divider - remainder)
                if best is None or fire < best:
                    best = fire
        return at if best is None else best

    def _advance(self, end: int) -> None:
        model = self.model
        traffic = model.traffic
        stats = model.stats
        power = model.power
        nonempty_sources = model._nonempty_sources
        active_routers = model._active_routers
        num_routers = len(model.routers)
        idle_fast = model.idle_fast_path
        heap: list[tuple[int, int]] = []

        def schedule_injection(at: int) -> None:
            if traffic is None:
                return
            next_injection = traffic.next_injection_cycle(at)
            if next_injection is not None:
                heapq.heappush(heap, (max(next_injection, at), _INJECT))

        def schedule_pipeline(at: int) -> None:
            heapq.heappush(heap, (self._next_divider_fire(at), _PIPELINE))

        cycle = model.cycle
        schedule_injection(cycle)
        if nonempty_sources or active_routers:
            schedule_pipeline(cycle)

        while cycle < end:
            target = min(heap[0][0], end) if heap else end
            if target > cycle:
                # Settle the whole eventless span [cycle, target) in one
                # pass — bit-identically to per-cycle execution.
                span = target - cycle
                power.accrue_leakage_increments(model._cycle_leakage_increments(), span)
                if idle_fast and not nonempty_sources and not active_routers:
                    stats.record_idle_cycles(span)
                    model.idle_cycles += span
                else:
                    # Gated span: flits are parked but no divider fires and
                    # the source is quiescent, so the occupancy totals are
                    # frozen for the whole span (integer-exact batch).
                    stats.record_cycles(
                        span, model._buffered_total, model._queued_total
                    )
                model.skipped_router_steps += span * num_routers
                cycle = target
                model.cycle = cycle
                if cycle >= end:
                    break
            # Drain every event due on this cycle (at least one is — spans
            # above leapt to the earliest scheduled event).  The divider
            # table the pipeline events were scheduled against is still
            # current: any DVFS retune re-enters _advance, which rebuilds
            # the calendar from scratch.
            inject_due = False
            while heap and heap[0][0] <= cycle:
                _, kind = heapq.heappop(heap)
                if kind == _INJECT:
                    inject_due = True
            # Execute cycle ``cycle`` exactly as the cycle engine would.
            if inject_due:
                for packet in traffic.generate(cycle):
                    model.inject_packet(packet)
            if idle_fast and not nonempty_sources and not active_routers:
                # The injection event produced nothing: a plain idle cycle.
                power.accrue_leakage_increments(model._cycle_leakage_increments())
                stats.record_idle_cycles(1)
                model.idle_cycles += 1
                model.skipped_router_steps += num_routers
            elif cycle != self._next_divider_fire(cycle):
                # Injection event on a fully gated cycle: packets may have
                # queued, but no router (and no NI) can act this cycle.
                model.record_cycle_overheads()
                model.skipped_router_steps += num_routers
            else:
                model.inject_from_sources(cycle)
                movements = model.step_routers(cycle)
                model.apply_movements(movements, cycle)
                model.record_cycle_overheads()
            cycle += 1
            model.cycle = cycle
            if inject_due:
                schedule_injection(cycle)
            if nonempty_sources or active_routers:
                schedule_pipeline(cycle)
