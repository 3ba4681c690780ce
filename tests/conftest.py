"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings

from repro.noc.network import NoCSimulator, SimulatorConfig
from repro.noc.packet import Packet
from repro.noc.topology import Mesh
from repro.traffic.generator import TrafficGenerator

# Tier-1 must not depend on anything outside git: the default profile draws
# the same examples on every run and neither reads nor writes the (ignored)
# .hypothesis/ example database.  HYPOTHESIS_PROFILE=explore turns the random
# search back on for the CI job whose discoveries get committed as @example.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))


@pytest.fixture
def mesh4() -> Mesh:
    return Mesh(4, 4)


@pytest.fixture
def small_config() -> SimulatorConfig:
    return SimulatorConfig(width=4, height=4, num_vcs=2, buffer_depth=4, packet_size=4)


def make_simulator(
    width: int = 4,
    *,
    rate: float = 0.1,
    pattern: str = "uniform",
    routing: str = "xy",
    packet_size: int = 4,
    seed: int = 0,
    **config_kwargs,
) -> NoCSimulator:
    """Build a simulator with a Bernoulli traffic generator attached."""
    config = SimulatorConfig(
        width=width, routing=routing, packet_size=packet_size, seed=seed, **config_kwargs
    )
    simulator = NoCSimulator(config)
    traffic = TrafficGenerator.from_names(
        simulator.topology, pattern, rate, packet_size=packet_size, seed=seed
    )
    simulator.traffic = traffic
    return simulator


def single_packet_simulator(
    src: int, dst: int, *, width: int = 4, size: int = 4, routing: str = "xy", **kwargs
) -> tuple[NoCSimulator, Packet]:
    """A simulator with exactly one packet queued at its source NI."""
    config = SimulatorConfig(width=width, routing=routing, packet_size=size, **kwargs)
    simulator = NoCSimulator(config)
    packet = Packet(src=src, dst=dst, size=size, creation_cycle=0)
    simulator.inject_packet(packet)
    return simulator, packet


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
