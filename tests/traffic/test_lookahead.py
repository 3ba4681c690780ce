"""The Bernoulli lookahead is stream-exact.

A sparse :class:`TrafficGenerator` answers ``next_injection_cycle`` with its
true next arrival and skips the per-node loop on packet-free cycles.  The
reference throughout is a *twin* with the lookahead switched off
(``_leap = 0.0``) that is asked to ``generate`` on every single cycle: the
leaping source must create the same packets and leave its RNG in the same
state, whatever the mesh, pattern, rate, window or phase structure.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.noc.topology import Mesh
from repro.traffic.application import Phase, PhasedWorkload
from repro.traffic.generator import _LOOKAHEAD_BLOCK_DRAWS, TrafficGenerator
from repro.traffic.injection import BernoulliInjection, BurstyInjection
from repro.traffic.patterns import get_pattern

PATTERNS = ("uniform", "hotspot", "transpose")
THRESHOLD = 1.0 / _LOOKAHEAD_BLOCK_DRAWS

#: Per-node arrival probabilities on both sides of the leapable threshold
#: (1/4096 ~ 2.4e-4), down to sources whose gaps outrun one scan.
probabilities = st.one_of(
    st.floats(min_value=5e-6, max_value=THRESHOLD),
    st.floats(min_value=THRESHOLD, max_value=4e-3),
    st.sampled_from([0.0, THRESHOLD, 0.05]),
)


def _keys(packets):
    return [(p.src, p.dst, p.creation_cycle, p.size) for p in packets]


def _drive_by_leaps(source, stop):
    """What an engine with an always-empty network does: generate, ask for
    the hint, jump.  Returns the packets and the cycles actually generated."""
    packets, visited = [], []
    cycle = 0
    while cycle < stop:
        packets += _keys(source.generate(cycle))
        visited.append(cycle)
        hint = source.next_injection_cycle(cycle + 1)
        assert source.next_injection_cycle(cycle + 1) == hint  # idempotent
        cycle = stop if hint is None else max(cycle + 1, min(hint, stop))
    return packets, visited


def _drive_every_cycle(source, start, stop):
    packets = []
    for cycle in range(start, stop):
        packets += _keys(source.generate(cycle))
    return packets


def _disable_lookahead(source):
    for generator in getattr(source, "_generators", [source]):
        generator._leap = 0.0
    return source


def _rng_states(source):
    # A quiescent generator's draws are unobservable and the hint has always
    # let engines skip them, so its stream position is not part of the claim.
    return [
        generator._rng.getstate()
        for generator in getattr(source, "_generators", [source])
        if not generator.injection.is_quiescent()
    ]


def _assert_same_stream(leaper, twin, stop):
    """Packets over ``[0, stop)`` match, and so does the RNG once the twin
    has caught up to where the leaper's committed lookahead ends."""
    leapt, visited = _drive_by_leaps(leaper, stop)
    assert leapt == _drive_every_cycle(twin, 0, stop)
    hint = leaper.next_injection_cycle(stop)
    if hint is not None:
        assert hint >= stop
        assert _drive_every_cycle(twin, stop, hint) == []
    assert _rng_states(leaper) == _rng_states(twin)
    return visited


def _generator(width, pattern, probability, packet_size, seed, start=0, end=None):
    mesh = Mesh(width, width)
    return TrafficGenerator(
        mesh,
        get_pattern(pattern, mesh),
        BernoulliInjection(probability * packet_size, packet_size),
        packet_size=packet_size,
        seed=seed,
        start_cycle=start,
        end_cycle=end,
    )


class TestGeneratorLookahead:
    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(min_value=2, max_value=8),
        pattern=st.sampled_from(PATTERNS),
        probability=probabilities,
        packet_size=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        start=st.integers(min_value=0, max_value=300),
        window=st.one_of(st.none(), st.integers(min_value=1, max_value=6000)),
    )
    # Gaps far beyond one scan on a tiny mesh: every hint is a scan edge.
    @example(
        width=2, pattern="uniform", probability=5e-6, packet_size=4, seed=1,
        start=0, window=None,
    )
    # The densest leapable source, on the largest mesh.
    @example(
        width=8, pattern="hotspot", probability=THRESHOLD, packet_size=1, seed=7,
        start=17, window=2500,
    )
    def test_leaps_match_the_per_cycle_twin(
        self, width, pattern, probability, packet_size, seed, start, window
    ):
        end = None if window is None else start + window
        leaper = _generator(width, pattern, probability, packet_size, seed, start, end)
        twin = _disable_lookahead(
            _generator(width, pattern, probability, packet_size, seed, start, end)
        )
        assert bool(leaper._leap) == (
            0.0 < leaper.injection.packet_probability <= THRESHOLD
        )
        _assert_same_stream(leaper, twin, stop=5000)

    def test_sparse_source_visits_few_cycles(self):
        leaper = _generator(8, "uniform", 1e-4, 4, seed=3)
        twin = _disable_lookahead(_generator(8, "uniform", 1e-4, 4, seed=3))
        visited = _assert_same_stream(leaper, twin, stop=20_000)
        # ~0.0064 arrivals per cycle: each costs the arrival cycle, the
        # cycle after it, and now and then a scan edge.
        assert len(visited) < 20_000 // 20

    def test_busy_cycles_inside_the_quiet_span_draw_nothing(self):
        leaper = _generator(4, "uniform", 1e-4, 4, seed=5)
        hint = leaper.next_injection_cycle(0)
        assert hint > 1
        state = leaper._rng.getstate()
        # An engine with flits in flight keeps calling generate every cycle.
        assert all(leaper.generate(cycle) == [] for cycle in range(hint))
        assert leaper.next_injection_cycle(hint // 2) == hint
        assert leaper._rng.getstate() == state

    def test_per_cycle_driving_across_a_committed_scan_matches_the_twin(self):
        # An engine that never leaps still asks for the hint; generating on
        # every cycle through the committed span and past it must replay
        # exactly the per-cycle stream.
        leaper = _generator(4, "transpose", 2e-4, 4, seed=9)
        twin = _disable_lookahead(_generator(4, "transpose", 2e-4, 4, seed=9))
        hint = leaper.next_injection_cycle(0)
        assert 0 < hint < 4000
        per_cycle = {}
        for cycle in range(4000):
            packets = leaper.generate(cycle)
            if packets:
                per_cycle[cycle] = _keys(packets)
        assert min(per_cycle) == hint
        expected = {}
        for cycle in range(4000):
            packets = twin.generate(cycle)
            if packets:
                expected[cycle] = _keys(packets)
        assert per_cycle == expected
        # Later quiet spans were committed along the way, the last one past
        # the end: the twin catches up to it before the streams compare.
        resume = leaper.next_injection_cycle(4000)
        assert resume > 4000
        assert _drive_every_cycle(twin, 4000, resume) == []
        assert _rng_states(leaper) == _rng_states(twin)

    def test_rewinding_falls_back_to_fresh_draws(self):
        # A caller that starts over at cycle 0 is outside the quiet span's
        # memory: it must get fresh draws, not a replay of "nothing".
        leaper = _generator(8, "uniform", 2e-4, 4, seed=2)
        first = _drive_every_cycle(leaper, 0, 3000)
        second = _drive_every_cycle(leaper, 0, 3000)
        assert first and second and first != second

    def test_dense_and_bursty_sources_never_scan(self):
        mesh = Mesh(4, 4)
        dense = _generator(4, "uniform", 0.03, 4, seed=0)
        bursty = TrafficGenerator(
            mesh, get_pattern("uniform", mesh), BurstyInjection(0.001, 0.0, 4), seed=0
        )
        for source in (dense, bursty):
            assert source._leap == 0.0
            for cycle in range(200):
                source.generate(cycle)
                assert source.next_injection_cycle(cycle + 1) == cycle + 1
            assert source._scratch is None


phase_strategy = st.builds(
    Phase,
    duration_cycles=st.integers(min_value=1, max_value=1500),
    pattern=st.sampled_from(PATTERNS),
    rate_flits_per_node_cycle=probabilities.map(lambda p: p * 4),
)


class TestPhasedLookahead:
    @settings(max_examples=30, deadline=None)
    @given(
        phases=st.lists(phase_strategy, min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=10_000),
        repeat=st.booleans(),
    )
    # One sparse phase recurring every 90 cycles: each occurrence is far
    # shorter than a scan, and a scan that ran on would eat the draws the
    # next occurrence needs.
    @example(
        phases=[Phase(60, "uniform", 4e-4), Phase(30, "hotspot", 0.2)],
        seed=3,
        repeat=True,
    )
    def test_leaps_match_the_per_cycle_twin(self, phases, seed, repeat):
        mesh = Mesh(4, 4)
        leaper = PhasedWorkload(mesh, phases, seed=seed, repeat=repeat)
        twin = _disable_lookahead(PhasedWorkload(mesh, phases, seed=seed, repeat=repeat))
        _assert_same_stream(leaper, twin, stop=6000)

    def test_scan_stops_at_the_phase_boundary(self):
        mesh = Mesh(4, 4)
        phases = [Phase(200, "uniform", 4e-5), Phase(100, "uniform", 0.4)]
        workload = PhasedWorkload(mesh, phases, seed=0)
        sparse = workload._generators[0]
        fresh = TrafficGenerator.from_names(mesh, "uniform", 4e-5, seed=0)
        assert workload.next_injection_cycle(0) == 200  # no arrival: the edge
        fresh._rng.getrandbits(64 * 200 * mesh.num_nodes)
        assert sparse._rng.getstate() == fresh._rng.getstate()
