"""Spatial traffic patterns.

A pattern maps a source node to a destination node.  The classic synthetic
patterns of the NoC literature are implemented: the permutation patterns
(transpose, bit-complement, bit-reverse, shuffle, tornado, neighbour) stress
specific link sets, the uniform random pattern spreads load evenly, and the
hotspot pattern concentrates a fraction of the traffic on a few nodes — the
scenario where runtime reconfiguration pays off most.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod

from repro.noc.topology import Mesh


class TrafficPattern(ABC):
    """Maps a source node to the destination of its next packet."""

    name = "abstract"
    #: Whether :meth:`destination` consumes draws from the RNG it is handed.
    #: Patterns that never touch it (the fixed permutations) are *memoryless
    #: and deterministic*, which lets :meth:`destination_weights` observe
    #: the fixed mapping.  Conservatively ``True`` on the base class.
    uses_rng = True

    def __init__(self, topology: Mesh) -> None:
        self.topology = topology

    @abstractmethod
    def destination(self, src: int, rng: random.Random) -> int:
        """Destination node for a packet generated at ``src``."""

    def is_self_directed(self, src: int, rng: random.Random) -> bool:
        """Whether the pattern maps ``src`` onto itself (such packets are skipped)."""
        return self.destination(src, rng) == src

    def destination_weights(self, src: int) -> dict[int, float] | None:
        """Long-run destination distribution for packets from ``src``.

        The flow engine's traffic extraction: a mapping from destination to
        the fraction of ``src``'s packets it receives (weights sum to at
        most 1.0 — self-directed mass is dropped, exactly as ``generate``
        skips self-directed packets), or ``None`` when the pattern cannot
        express its long-run behaviour as a static distribution.  Fixed
        permutations (``uses_rng`` is ``False``) concentrate all weight on
        their single deterministic destination; randomised patterns must
        override this to stay flow-extractable.
        """
        if not self.uses_rng:
            # Deterministic patterns consume nothing from the RNG they are
            # handed, so a throwaway instance observes the fixed mapping.
            dst = self.destination(src, random.Random(0))
            return {} if dst == src else {dst: 1.0}
        return None


class UniformRandomPattern(TrafficPattern):
    """Each packet goes to a destination chosen uniformly among the other nodes."""

    name = "uniform"

    def destination(self, src: int, rng: random.Random) -> int:
        num_nodes = self.topology.num_nodes
        dst = rng.randrange(num_nodes - 1)
        return dst + 1 if dst >= src else dst

    def is_self_directed(self, src: int, rng: random.Random) -> bool:
        return False

    def destination_weights(self, src: int) -> dict[int, float] | None:
        num_nodes = self.topology.num_nodes
        if num_nodes < 2:
            return {}
        weight = 1.0 / (num_nodes - 1)
        return {dst: weight for dst in range(num_nodes) if dst != src}


class TransposePattern(TrafficPattern):
    """(x, y) -> (y, x); requires a square grid."""

    name = "transpose"
    uses_rng = False

    def __init__(self, topology: Mesh) -> None:
        super().__init__(topology)
        if topology.width != topology.height:
            raise ValueError("transpose traffic requires a square topology")

    def destination(self, src: int, rng: random.Random) -> int:
        coord = self.topology.coordinates(src)
        return self.topology.node_at(coord.y, coord.x)


def _require_power_of_two(num_nodes: int, pattern: str) -> int:
    bits = num_nodes.bit_length() - 1
    if 2**bits != num_nodes:
        raise ValueError(f"{pattern} traffic requires a power-of-two node count")
    return bits


class BitComplementPattern(TrafficPattern):
    """dst = bitwise complement of src (in log2(N) bits)."""

    name = "bit_complement"
    uses_rng = False

    def __init__(self, topology: Mesh) -> None:
        super().__init__(topology)
        self._bits = _require_power_of_two(topology.num_nodes, self.name)

    def destination(self, src: int, rng: random.Random) -> int:
        return (~src) & (self.topology.num_nodes - 1)


class BitReversePattern(TrafficPattern):
    """dst = bit-reversal of src (in log2(N) bits)."""

    name = "bit_reverse"
    uses_rng = False

    def __init__(self, topology: Mesh) -> None:
        super().__init__(topology)
        self._bits = _require_power_of_two(topology.num_nodes, self.name)

    def destination(self, src: int, rng: random.Random) -> int:
        result = 0
        value = src
        for _ in range(self._bits):
            result = (result << 1) | (value & 1)
            value >>= 1
        return result


class ShufflePattern(TrafficPattern):
    """dst = src rotated left by one bit (perfect shuffle)."""

    name = "shuffle"
    uses_rng = False

    def __init__(self, topology: Mesh) -> None:
        super().__init__(topology)
        self._bits = _require_power_of_two(topology.num_nodes, self.name)

    def destination(self, src: int, rng: random.Random) -> int:
        mask = self.topology.num_nodes - 1
        return ((src << 1) | (src >> (self._bits - 1))) & mask


class TornadoPattern(TrafficPattern):
    """(x, y) -> (x + ceil(W/2) - 1 mod W, y): adversarial for rings/tori."""

    name = "tornado"
    uses_rng = False

    def destination(self, src: int, rng: random.Random) -> int:
        coord = self.topology.coordinates(src)
        width = self.topology.width
        shift = (width + 1) // 2 - 1
        if shift <= 0:
            shift = width // 2
        return self.topology.node_at((coord.x + shift) % width, coord.y)


class NeighborPattern(TrafficPattern):
    """(x, y) -> (x + 1 mod W, y): nearest-neighbour traffic (best case)."""

    name = "neighbor"
    uses_rng = False

    def destination(self, src: int, rng: random.Random) -> int:
        coord = self.topology.coordinates(src)
        return self.topology.node_at((coord.x + 1) % self.topology.width, coord.y)


class HotspotPattern(TrafficPattern):
    """With probability ``hotspot_fraction`` the packet targets a hotspot node.

    The remaining traffic is uniform random.  Hotspots default to the centre
    of the grid, which is where real shared resources (memory controllers,
    last-level-cache slices) typically sit in the papers' floorplans.
    """

    name = "hotspot"

    def __init__(
        self,
        topology: Mesh,
        hotspots: list[int] | None = None,
        hotspot_fraction: float = 0.5,
    ) -> None:
        super().__init__(topology)
        if not 0.0 <= hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be within [0, 1]")
        if hotspots is None:
            centre_x = topology.width // 2
            centre_y = topology.height // 2
            hotspots = [topology.node_at(centre_x, centre_y)]
        for node in hotspots:
            topology.coordinates(node)  # validates the node id
        if not hotspots:
            raise ValueError("at least one hotspot node is required")
        self.hotspots = list(hotspots)
        self.hotspot_fraction = hotspot_fraction
        self._uniform = UniformRandomPattern(topology)

    def destination(self, src: int, rng: random.Random) -> int:
        if rng.random() < self.hotspot_fraction:
            choices = [node for node in self.hotspots if node != src] or self.hotspots
            return rng.choice(choices)
        return self._uniform.destination(src, rng)

    def is_self_directed(self, src: int, rng: random.Random) -> bool:
        return False

    def destination_weights(self, src: int) -> dict[int, float] | None:
        weights: dict[int, float] = {}
        # Mirror destination(): the hotspot fraction spreads over the
        # non-self hotspots (falling back to all of them when src is the
        # only one), the rest is uniform; self-directed mass is dropped.
        choices = [node for node in self.hotspots if node != src] or self.hotspots
        hotspot_share = self.hotspot_fraction / len(choices)
        for node in choices:
            weights[node] = weights.get(node, 0.0) + hotspot_share
        uniform = self._uniform.destination_weights(src) or {}
        remainder = 1.0 - self.hotspot_fraction
        for node, weight in uniform.items():
            weights[node] = weights.get(node, 0.0) + remainder * weight
        weights.pop(src, None)
        return weights


_PATTERN_CLASSES: dict[str, type[TrafficPattern]] = {
    cls.name: cls
    for cls in (
        UniformRandomPattern,
        TransposePattern,
        BitComplementPattern,
        BitReversePattern,
        ShufflePattern,
        TornadoPattern,
        NeighborPattern,
        HotspotPattern,
    )
}

#: Names of all registered traffic patterns.
PATTERN_NAMES: tuple[str, ...] = tuple(_PATTERN_CLASSES)


def get_pattern(name: str, topology: Mesh, **kwargs) -> TrafficPattern:
    """Instantiate a traffic pattern by name.

    ``kwargs`` are forwarded to the pattern constructor (e.g. ``hotspots``
    and ``hotspot_fraction`` for the hotspot pattern).
    """
    try:
        cls = _PATTERN_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(_PATTERN_CLASSES))
        raise KeyError(f"unknown traffic pattern {name!r}; known: {known}") from None
    return cls(topology, **kwargs)
