"""Unit tests for switch arbiters."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.arbiters import RoundRobinArbiter


class TestRoundRobinArbiter:
    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter([])

    def test_rejects_duplicate_universe(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(["a", "a"])

    def test_no_requests_yields_no_grant(self):
        arbiter = RoundRobinArbiter(["a", "b"])
        assert arbiter.grant([]) is None

    def test_unknown_request_raises(self):
        arbiter = RoundRobinArbiter(["a", "b"])
        with pytest.raises(ValueError):
            arbiter.grant(["c"])

    def test_single_requester_always_wins(self):
        arbiter = RoundRobinArbiter(["a", "b", "c"])
        for _ in range(5):
            assert arbiter.grant(["b"]) == "b"

    def test_full_contention_is_fair(self):
        universe = ["a", "b", "c", "d"]
        arbiter = RoundRobinArbiter(universe)
        grants = [arbiter.grant(universe) for _ in range(8)]
        assert grants == ["a", "b", "c", "d", "a", "b", "c", "d"]

    def test_pointer_advances_past_winner(self):
        arbiter = RoundRobinArbiter(["a", "b", "c"])
        assert arbiter.grant(["a", "c"]) == "a"
        assert arbiter.grant(["a", "c"]) == "c"
        assert arbiter.grant(["a", "c"]) == "a"

    def test_partial_contention_does_not_starve(self):
        arbiter = RoundRobinArbiter(["a", "b", "c"])
        grants = [arbiter.grant(["b", "c"]) for _ in range(6)]
        assert grants.count("b") == 3
        assert grants.count("c") == 3


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=8),
    rounds=st.integers(min_value=1, max_value=40),
    data=st.data(),
)
def test_round_robin_fairness_property(size, rounds, data):
    """No requester is granted twice before every other persistent requester
    is granted once (bounded waiting)."""
    universe = list(range(size))
    arbiter = RoundRobinArbiter(universe)
    persistent = data.draw(
        st.lists(st.sampled_from(universe), min_size=1, max_size=size, unique=True)
    )
    grants = [arbiter.grant(persistent) for _ in range(rounds)]
    assert all(grant in persistent for grant in grants)
    counts = {key: grants.count(key) for key in persistent}
    assert max(counts.values()) - min(counts.values()) <= 1
