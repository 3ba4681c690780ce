"""Tests for the deterministic chaos harness.

The load-bearing property is at the bottom: under any seeded fault script
that stays within the retry budget, a supervised run's results are
byte-identical to a clean run's — chaos perturbs scheduling, never
outcomes.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exp.chaos import (
    CHAOS_ACTIONS,
    DEFAULT_STALL_S,
    ChaosError,
    ChaosPolicy,
    ChaosRule,
    execute_chaos_action,
    parse_chaos_spec,
)
from repro.exp.execution import SupervisionPolicy
from repro.exp.runner import SupervisedTrialPool


def _triple(x):
    return x * 3 + 1


class TestChaosRule:
    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            ChaosRule("explode", 0)

    def test_rejects_negative_attempt(self):
        with pytest.raises(ValueError, match="zero-based"):
            ChaosRule("raise", 0, attempt=-1)

    def test_rejects_non_positive_stall(self):
        with pytest.raises(ValueError, match="stall_s"):
            ChaosRule("stall", 0, stall_s=0.0)

    def test_matches_by_dispatch_index(self):
        rule = ChaosRule("raise", 3, attempt=1)
        assert rule.matches(3, "whatever", 1)
        assert not rule.matches(2, "whatever", 1)
        assert not rule.matches(3, "whatever", 0)

    def test_matches_by_label_substring(self):
        rule = ChaosRule("kill", "phased/drl")
        assert rule.matches(9, "phased/drl[9]", 0)
        assert not rule.matches(9, "turbo[9]", 0)

    def test_bool_trial_never_matches(self):
        # bool is an int subclass; True must not silently mean "trial 1".
        assert not ChaosRule("raise", True).matches(1, "x", 0)


class TestChaosPolicy:
    def test_scripted_rules_win_first_match(self):
        policy = ChaosPolicy(
            rules=(ChaosRule("raise", 0), ChaosRule("stall", 0, stall_s=5.0))
        )
        assert policy.action_for(0, "t", 0) == ("raise", DEFAULT_STALL_S)

    def test_random_faults_are_seeded_and_attempt_zero_only(self):
        policy = ChaosPolicy(seed=7, kill_rate=1.0)
        assert policy.action_for(0, "t", 0) == ("kill", DEFAULT_STALL_S)
        # A retry must never be re-faulted: budgets stay survivable.
        assert policy.action_for(0, "t", 1) is None
        # Same (seed, index, label) -> same roll, always.
        again = ChaosPolicy(seed=7, kill_rate=1.0)
        assert again.action_for(0, "t", 0) == policy.action_for(0, "t", 0)

    def test_zero_rate_policy_is_falsy(self):
        assert not ChaosPolicy()
        assert ChaosPolicy(rules=(ChaosRule("raise", 0),))
        assert ChaosPolicy(raise_rate=0.1)

    def test_rejects_out_of_range_rates(self):
        with pytest.raises(ValueError, match="rates"):
            ChaosPolicy(kill_rate=1.5)


class TestExecuteChaosAction:
    def test_raise_action_raises_chaos_error(self):
        with pytest.raises(ChaosError, match="chaos raise"):
            execute_chaos_action(("raise", 1.0), allow_kill=True)

    def test_kill_degrades_to_raise_in_process(self):
        with pytest.raises(ChaosError, match="in-process"):
            execute_chaos_action(("kill", 1.0), allow_kill=False)

    def test_stall_sleeps_then_raises(self):
        with pytest.raises(ChaosError, match="stall"):
            execute_chaos_action(("stall", 0.01), allow_kill=True)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            execute_chaos_action(("teleport", 1.0), allow_kill=True)


class TestParseChaosSpec:
    def test_full_syntax_round_trips(self):
        policy = parse_chaos_spec("kill:0@0,stall:2@1:60,raise:phased/drl")
        assert policy.rules == (
            ChaosRule("kill", 0, attempt=0),
            ChaosRule("stall", 2, attempt=1, stall_s=60.0),
            ChaosRule("raise", "phased/drl", attempt=0),
        )

    def test_policy_knobs(self):
        policy = parse_chaos_spec("seed=7,kill_rate=0.25,raise_rate=0.5,stall=9")
        assert policy.seed == 7
        assert policy.kill_rate == 0.25
        assert policy.raise_rate == 0.5
        assert policy.stall_s == 9.0

    def test_stall_knob_sets_default_for_later_rules(self):
        policy = parse_chaos_spec("stall=12,stall:1")
        assert policy.rules[0].stall_s == 12.0

    def test_blank_entries_are_skipped(self):
        assert parse_chaos_spec(" , kill:0 , ") .rules == (ChaosRule("kill", 0),)

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos knob"):
            parse_chaos_spec("jitter=1")

    def test_malformed_entry_rejected(self):
        with pytest.raises(ValueError, match="bad chaos entry"):
            parse_chaos_spec("kill")

    def test_actions_catalogue_is_parseable(self):
        for action in CHAOS_ACTIONS:
            [rule] = parse_chaos_spec(f"{action}:1@0").rules
            assert rule.action == action


#: Scripted raises on attempts 0/1 plus any random attempt-0 fault stay
#: within the default budget (2 retries = 3 attempts per trial), so every
#: drawn script below is survivable by construction.
_rules = st.lists(
    st.builds(
        ChaosRule,
        action=st.just("raise"),
        trial=st.integers(min_value=0, max_value=5),
        attempt=st.integers(min_value=0, max_value=1),
    ),
    max_size=4,
)


class TestChaosEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        rules=_rules,
        seed=st.integers(min_value=0, max_value=1_000),
        raise_rate=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_chaos_run_matches_clean_run_byte_for_byte(
        self, rules, seed, raise_rate
    ):
        trials = list(range(6))
        clean = [_triple(trial) for trial in trials]
        policy = ChaosPolicy(rules=tuple(rules), seed=seed, raise_rate=raise_rate)
        with SupervisedTrialPool(
            1,
            policy=SupervisionPolicy(backoff_s=0.0),
            chaos=policy,
        ) as pool:
            assert pool.run(_triple, trials) == clean

    def test_attempt_counts_reflect_the_script(self):
        policy = ChaosPolicy(rules=(ChaosRule("raise", 2), ChaosRule("raise", 2, 1)))
        with SupervisedTrialPool(
            1, policy=SupervisionPolicy(backoff_s=0.0), chaos=policy
        ) as pool:
            assert pool.run(_triple, list(range(4))) == [1, 4, 7, 10]
            assert pool.last_attempts == [1, 1, 3, 1]
