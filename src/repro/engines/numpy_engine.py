"""The numpy engine: the cycle loop driven by vectorised injection sampling.

Semantically this is :class:`~repro.engines.cycle.CycleEngine` — same cycle
phases, same idle/gated fast paths, byte-identical telemetry — but instead
of asking the traffic source for packets one cycle at a time it pre-samples
whole blocks through :meth:`TrafficSource.sample_block`.  For a Bernoulli
process over an RNG-free pattern that is one ``numpy`` call per block (the
Mersenne-Twister state is mirrored into ``np.random.RandomState`` and the
source RNG then advanced by the same number of draws, so the stream is
bit-identical to sequential ``rng.random()`` calls);
sources that cannot block-sample decline per span and the engine falls back
to the reference per-cycle ``generate`` path for exactly that span.

Two structural wins over the cycle engine:

* **no per-cycle generate calls** in sampled spans — the Python-level
  per-node injection loop collapses into one vectorised comparison; and
* **exact idle leaps inside a block** — a sampled block knows the *true*
  next injection cycle, so empty-network spans collapse even under a
  Bernoulli source too dense for the generator's own lookahead (sparse
  ones hand every engine their true next arrival through
  ``next_injection_cycle``, and their committed quiet spans come back from
  ``sample_block`` as covered-and-empty without a draw).

Blocks never outrun the advance horizon: at every ``_advance`` return the
source RNG sits exactly where per-cycle execution would have left it, so
mid-run engine swaps, manual ``generate`` calls and hooked (per-cycle)
runs all stay bit-identical.  Hooked runs and tiny horizons skip sampling
entirely (the state transfer costs more than the scalar loop it replaces).
"""

from __future__ import annotations

from bisect import bisect_right

from repro.engines.cycle import CycleEngine

#: Horizons shorter than this run the scalar reference loop outright: the
#: MT19937 state round-trip costs more than it saves (hooked runs advance
#: one cycle at a time and land here every call).
MIN_BLOCK_CYCLES = 32

#: Upper bound on one pre-sampled block (bounds the per-block packet dict
#: and keeps sampling latency flat for very long advances).
MAX_BLOCK_CYCLES = 4096


class NumpyEngine(CycleEngine):
    """Advance a :class:`NoCModel` with block-sampled injections."""

    name = "numpy"

    def _advance(self, end: int) -> None:
        model = self.model
        traffic = model.traffic
        if traffic is None or end - model.cycle < MIN_BLOCK_CYCLES:
            super()._advance(end)
            return
        tracking = model.activity_tracking
        idle_fast = model.idle_fast_path
        nonempty_sources = model._nonempty_sources
        active_routers = model._active_routers
        num_routers = len(model.routers)
        power = model.power
        dividers = model.divider_table() if tracking else ()
        cycle = model.cycle
        # Block state: packets for [block_start, block_until).  ``scalar``
        # means the source declined and generate() runs per cycle instead.
        block_until = cycle
        packets_by_cycle: dict = {}
        inject_cycles: list[int] = []
        scalar = False
        while cycle < end:
            if cycle >= block_until:
                if end - cycle < MIN_BLOCK_CYCLES:
                    # Tail too short to amortise a state transfer; the
                    # scalar loop consumes the identical stream.
                    block_until, packets_by_cycle, scalar = end, {}, True
                else:
                    block_until, sampled = traffic.sample_block(
                        cycle, min(end, cycle + MAX_BLOCK_CYCLES)
                    )
                    if block_until <= cycle:  # defensive: progress guarantee
                        block_until = cycle + 1
                        sampled = None
                    scalar = sampled is None
                    packets_by_cycle = {} if scalar else sampled
                    inject_cycles = sorted(packets_by_cycle)
            if scalar:
                packets = traffic.generate(cycle)
            else:
                packets = packets_by_cycle.get(cycle, ())
            for packet in packets:
                model.inject_packet(packet)
            if idle_fast and (
                not nonempty_sources and not active_routers
                if tracking
                else model.network_empty()
            ):
                span = 1
                if tracking and end - cycle > 1:
                    if scalar:
                        next_injection = traffic.next_injection_cycle(cycle + 1)
                        if next_injection is None:
                            span = end - cycle
                        elif next_injection > cycle + 1:
                            span = min(next_injection, end) - cycle
                    else:
                        # The block knows exactly when the next packet
                        # appears: leap straight to it, or to the block
                        # edge where the next block is sampled.  Draws for
                        # the leapt cycles were consumed at sampling time,
                        # exactly as per-cycle execution would have.
                        index = bisect_right(inject_cycles, cycle)
                        next_injection = (
                            inject_cycles[index]
                            if index < len(inject_cycles)
                            else block_until
                        )
                        span = max(min(next_injection, end) - cycle, 1)
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
