"""Binds a spatial pattern and an injection process into a traffic source."""

from __future__ import annotations

import random
from typing import NamedTuple

from repro.noc.packet import Packet
from repro.noc.topology import Mesh
from repro.traffic.injection import BernoulliInjection, InjectionProcess
from repro.traffic.patterns import TrafficPattern, get_pattern

try:  # numpy backs the lookahead scan; without it sources never leap.
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships with the package deps
    np = None  # type: ignore[assignment]


#: Uniform draws per lookahead block (see :meth:`TrafficGenerator._scan`).  A
#: source takes the lookahead when it expects at most one arrival per block
#: (``probability * block <= 1``): there a scan saves many times its cost in
#: per-node loops, while a denser source sees arrivals every few cycles and
#: a scan per arrival buys little or nothing over the loop it replaces.
_LOOKAHEAD_BLOCK_DRAWS = 4096

#: Longest span one lookahead scan covers, in cycles; a scan that finds no
#: arrival reports its edge as a conservative hint and the next one resumes
#: there.
_LOOKAHEAD_SCAN_CYCLES = 4096


#: Per-pair flow expansion cap for :meth:`TrafficGenerator.flow_profile`.
#: Randomised patterns expand to one flow per (src, dst) pair — O(N²) for a
#: uniform pattern — which stays tractable up to a 16×16 mesh (65_280 pairs)
#: and explodes past it; above the budget the profile declines and the flow
#: engine reports the source as unextractable at that scale.
FLOW_EXPANSION_BUDGET = 66_000


class FlowProfile(NamedTuple):
    """Sustained traffic as per-flow injection rates over a span of cycles.

    ``flows`` holds ``(src, dst, rate)`` triples with ``rate`` in flits per
    *global* cycle (injection draws happen every cycle regardless of DVFS
    gating); ``until`` is the first cycle at which the profile may change —
    a phase boundary or the source's activity-window edge — or ``None``
    when it holds forever.  ``packet_size`` is the flits-per-packet the
    flows are chopped into (packet counts and serialization latency depend
    on it).
    """

    flows: tuple[tuple[int, int, float], ...]
    until: int | None
    packet_size: int = 1


class TrafficGenerator:
    """Creates packets for the simulator (implements the TrafficSource protocol).

    Parameters
    ----------
    topology:
        The NoC topology packets will travel on.
    pattern:
        A :class:`~repro.traffic.patterns.TrafficPattern` instance.
    injection:
        An :class:`~repro.traffic.injection.InjectionProcess` instance.
    packet_size:
        Flits per packet.
    seed:
        Seed for the generator's private RNG (independent of the simulator's).
    start_cycle / end_cycle:
        Optional activity window; outside it no packets are created.

    A plain :class:`BernoulliInjection` sparse enough to expect at most one
    arrival per :data:`_LOOKAHEAD_BLOCK_DRAWS` draws runs with a
    *stream-exact lookahead*: the source scans its own RNG stream ahead for
    the next arrival, so ``next_injection_cycle`` reports the true next
    arrival and ``generate`` is O(1) on packet-free cycles, while packets
    and the RNG stay bit-identical to drawing every node on every cycle.
    The lookahead assumes what every engine does — cycles are visited in
    order, each one either generated or skipped under the hint; a caller
    that rewinds simply gets fresh draws.
    """

    def __init__(
        self,
        topology: Mesh,
        pattern: TrafficPattern,
        injection: InjectionProcess,
        packet_size: int = 4,
        seed: int = 0,
        start_cycle: int = 0,
        end_cycle: int | None = None,
    ) -> None:
        if packet_size < 1:
            raise ValueError("packet size must be at least one flit")
        self.topology = topology
        self.pattern = pattern
        self.injection = injection
        self.packet_size = packet_size
        self.start_cycle = start_cycle
        self.end_cycle = end_cycle
        self._rng = random.Random(seed)
        # Stream-exact lookahead (see _scan).  ``_leap`` is the per-draw
        # arrival probability when the source takes the lookahead and 0.0
        # when it does not — decided once, so dense sources pay a single
        # attribute test per generate().  Cycles in ``[_quiet_from,
        # _quiet_until)`` are known packet-free and their draws are already
        # consumed; ``_hit_cycle`` is the arrival the last scan stopped at
        # (``_rng`` then sits at its node 0), or -1 when it found none.
        probability = (
            injection.packet_probability
            if np is not None and type(injection) is BernoulliInjection
            else 0.0
        )
        self._leap = (
            probability if 0.0 < probability * _LOOKAHEAD_BLOCK_DRAWS <= 1.0 else 0.0
        )
        self._quiet_from = 0
        self._quiet_until = 0
        self._hit_cycle = -1
        self._scratch: "np.random.RandomState | None" = None

    @classmethod
    def from_names(
        cls,
        topology: Mesh,
        pattern_name: str,
        rate_flits_per_node_cycle: float,
        packet_size: int = 4,
        seed: int = 0,
        **pattern_kwargs,
    ) -> "TrafficGenerator":
        """Convenience constructor: named pattern + Bernoulli injection."""
        pattern = get_pattern(pattern_name, topology, **pattern_kwargs)
        injection = BernoulliInjection(rate_flits_per_node_cycle, packet_size)
        return cls(topology, pattern, injection, packet_size=packet_size, seed=seed)

    def generate(self, cycle: int, _limit: int | None = None) -> list[Packet]:
        """Packets created at ``cycle`` (self-directed destinations are skipped).

        A sparse Bernoulli source answers packet-free cycles from its
        lookahead (:meth:`_scan`) without entering the per-node loop; the
        cycle a packet appears on always runs the loop below, which stays
        the single place a packet is created.  ``_limit`` is private to
        :class:`~repro.traffic.application.PhasedWorkload`: the end of the
        current phase occurrence, past which a scan must not consume draws.
        """
        if cycle < self.start_cycle:
            return []
        if self.end_cycle is not None and cycle >= self.end_cycle:
            return []
        if self._leap:
            if self._quiet_from <= cycle < self._quiet_until:
                return []
            if cycle != self._hit_cycle:
                self._scan(cycle, _limit)
                if cycle != self._hit_cycle:
                    return []
        packets = []
        # Bound-method hoists: this loop runs once per node per simulated
        # cycle.  The per-node RNG draw order (injection first, then the
        # destination only for injecting nodes) is part of the determinism
        # contract and must not be reordered.
        should_inject = self.injection.should_inject
        destination_of = self.pattern.destination
        rng = self._rng
        packet_size = self.packet_size
        for node in self.topology.nodes():
            if not should_inject(node, cycle, rng):
                continue
            destination = destination_of(node, rng)
            if destination == node:
                continue
            packets.append(
                Packet(
                    src=node,
                    dst=destination,
                    size=packet_size,
                    creation_cycle=cycle,
                )
            )
        return packets

    def next_injection_cycle(self, cycle: int, _limit: int | None = None) -> int | None:
        """Earliest cycle ``>= cycle`` at which a packet may be created.

        Implements the :class:`~repro.noc.network.TrafficSource` idle-span
        hint: before ``start_cycle`` no packets (and no RNG draws) happen, a
        quiescent injection process can never produce an observable packet,
        and past ``end_cycle`` the source is silent forever — so skipping
        ``generate`` calls over the reported gap is unobservable.  A sparse
        in-window Bernoulli source (at most one expected arrival per
        :data:`_LOOKAHEAD_BLOCK_DRAWS` draws) answers with its *true* next
        arrival, found by :meth:`_scan` — or with the scan's edge, a
        conservative hint, when the arrival lies further out than one scan
        looks.  Repeated queries inside the known-quiet span are answered
        from the remembered result and draw nothing.  Dense Bernoulli and
        bursty processes draw RNG every cycle with an arrival likely on
        each, so for them the hint stays ``cycle`` (no skip).
        """
        if self.end_cycle is not None and cycle >= self.end_cycle:
            return None
        if self.injection.is_quiescent():
            return None
        if cycle < self.start_cycle:
            return self.start_cycle
        if not self._leap or cycle == self._hit_cycle:
            return cycle
        if not self._quiet_from <= cycle < self._quiet_until:
            self._scan(cycle, _limit)
        return self._quiet_until

    def _mirror_stream(self) -> "np.random.RandomState":
        """The scratch numpy stream, positioned where ``_rng`` is now.

        numpy's legacy ``RandomState`` shares CPython's Mersenne-Twister core
        and its 53-bit double recipe, so after transplanting the 624-word
        state ``random_sample(n)`` is bit-identical to ``n`` sequential
        ``_rng.random()`` calls.  The scratch object is built on first use:
        constructing one costs more than a scan, and ``numpy.random`` is an
        import dense workloads never need.
        """
        scratch = self._scratch
        if scratch is None:
            scratch = self._scratch = np.random.RandomState(0)
        internal = self._rng.getstate()[1]
        scratch.set_state(
            {
                "bit_generator": "MT19937",
                # The plain tuple: the setter indexes it word by word, which
                # an ndarray makes ten times slower.
                "state": {"key": internal[:624], "pos": internal[624]},
            }
        )
        return scratch

    def _consume_draws(self, draws: int) -> None:
        """Leave ``_rng`` where ``draws`` calls of ``random()`` would have.

        One ``random()`` is two 32-bit words and ``getrandbits(32 * k)`` is
        exactly ``k`` words; a block at a time keeps the throwaway integers
        small.
        """
        getrandbits = self._rng.getrandbits
        while draws > 0:
            getrandbits(64 * min(draws, _LOOKAHEAD_BLOCK_DRAWS))
            draws -= _LOOKAHEAD_BLOCK_DRAWS

    def _scan(self, cycle: int, limit: int | None) -> None:
        """Look ahead from ``cycle`` for the next arrival, stream-exactly.

        Precondition: ``_rng`` sits at node 0 of ``cycle`` (every earlier
        in-window cycle was generated or skipped under the hint).  The scan
        draws cycle-aligned blocks of uniforms on the mirrored stream until
        one falls under the arrival probability, never looking past
        ``limit``, ``end_cycle`` or :data:`_LOOKAHEAD_SCAN_CYCLES`.  It then
        commits to ``_rng`` exactly the draws of the whole packet-free
        cycles before the arrival's cycle — nothing of that cycle itself,
        whose injection *and* destination draws the per-node loop in
        :meth:`generate` makes from the very state per-cycle execution
        would have reached.
        """
        edge = cycle + _LOOKAHEAD_SCAN_CYCLES
        if limit is not None and limit < edge:
            edge = limit
        if self.end_cycle is not None and self.end_cycle < edge:
            edge = self.end_cycle
        num_nodes = self.topology.num_nodes
        block_cycles = max(1, _LOOKAHEAD_BLOCK_DRAWS // num_nodes)
        probability = self._leap
        stream = self._mirror_stream()
        hit_cycle = -1
        at = cycle
        while at < edge:
            span = min(block_cycles, edge - at)
            hits = np.flatnonzero(stream.random_sample(span * num_nodes) < probability)
            if hits.size:
                hit_cycle = at + int(hits[0]) // num_nodes
                break
            at += span
        quiet_until = hit_cycle if hit_cycle >= 0 else edge
        self._consume_draws((quiet_until - cycle) * num_nodes)
        self._quiet_from = cycle
        self._quiet_until = quiet_until
        self._hit_cycle = hit_cycle

    def flow_profile(self, cycle: int) -> FlowProfile | None:
        """Sustained per-flow rates from ``cycle``, or ``None`` if unsupported.

        The flow engine's traffic extraction.  Window edges mirror
        ``generate``: before ``start_cycle`` the source is silent (empty
        profile holding until the window opens), past ``end_cycle`` it is
        silent forever.  Extraction requires a rate the engine can treat as
        sustained — a :class:`BernoulliInjection` (the memoryless constant
        process; bursty ON/OFF state is per-node history the rate model
        cannot express) and a pattern whose ``destination_weights`` exists.
        Randomised patterns expand one flow per (src, dst) pair and decline
        past :data:`FLOW_EXPANSION_BUDGET` flows.
        """
        if self.end_cycle is not None and cycle >= self.end_cycle:
            return FlowProfile((), None, self.packet_size)
        if cycle < self.start_cycle:
            return FlowProfile((), self.start_cycle, self.packet_size)
        injection = self.injection
        if type(injection) is not BernoulliInjection:
            return None
        until = self.end_cycle
        if injection.is_quiescent():
            return FlowProfile((), until, self.packet_size)
        rate = injection.packet_probability * self.packet_size
        flows: list[tuple[int, int, float]] = []
        for node in self.topology.nodes():
            weights = self.pattern.destination_weights(node)
            if weights is None:
                return None
            for dst, weight in weights.items():
                if weight > 0.0:
                    flows.append((node, dst, rate * weight))
            if len(flows) > FLOW_EXPANSION_BUDGET:
                return None
        return FlowProfile(tuple(flows), until, self.packet_size)

    def offered_load(self, cycle: int = 0) -> float:
        """Nominal offered load (flits/node/cycle) at ``cycle``."""
        return self.injection.offered_load(cycle)
