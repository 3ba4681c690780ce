"""The unified ExecutionConfig API: validation, serialization, shims.

The config is simultaneously the local API surface (``run_suite(spec,
config=...)``) and the distributed service's lease payload, so the tests
pin both halves: value semantics (frozen, hashable, validated) and
bit-for-bit serialization (JSON for the wire, pickle for process pools),
plus the deprecation shim that keeps every pre-config keyword call site
working.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.exp.chaos import ChaosPolicy, ChaosRule
from repro.exp.execution import (
    DEFAULT_ENGINE,
    ExecutionConfig,
    SupervisionPolicy,
    coalesce_execution_config,
)


class TestSupervisionPolicy:
    def test_defaults(self):
        policy = SupervisionPolicy()
        assert policy.timeout_s is None
        assert policy.max_retries == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisionPolicy(timeout_s=0)
        with pytest.raises(ValueError):
            SupervisionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            SupervisionPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            SupervisionPolicy(max_rebuilds=-1)

    def test_backoff_grows_deterministically(self):
        policy = SupervisionPolicy(backoff_s=0.1, backoff_factor=2.0)
        assert policy.backoff_for(1) == pytest.approx(0.1)
        assert policy.backoff_for(2) == pytest.approx(0.2)
        assert policy.backoff_for(3) == pytest.approx(0.4)

    def test_dict_round_trip(self):
        policy = SupervisionPolicy(timeout_s=1.5, max_retries=0, backoff_s=0.0)
        assert SupervisionPolicy.from_dict(policy.to_dict()) == policy


class TestExecutionConfig:
    def test_defaults_resolve_to_the_reference_path(self):
        config = ExecutionConfig()
        assert config.jobs == 1
        assert config.train_jobs == 1
        assert config.engine is None
        assert config.resolved_engine() == DEFAULT_ENGINE
        assert config.reuse_evals is False
        assert config.supervision == SupervisionPolicy()
        assert config.chaos is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ExecutionConfig(jobs=0)
        with pytest.raises(ValueError):
            ExecutionConfig(train_jobs=0)

    def test_frozen_and_hashable(self):
        config = ExecutionConfig(jobs=2)
        with pytest.raises(AttributeError):
            config.jobs = 3
        assert config == ExecutionConfig(jobs=2)
        assert hash(config) == hash(ExecutionConfig(jobs=2))

    def test_json_round_trip_is_identity(self):
        config = ExecutionConfig(
            jobs=3,
            train_jobs=2,
            engine="event",
            reuse_evals=True,
            supervision=SupervisionPolicy(timeout_s=9.0, max_retries=1),
            chaos=ChaosPolicy(rules=(ChaosRule("kill", "turbo"),), seed=7),
        )
        restored = ExecutionConfig.from_json(config.to_json())
        assert restored == config
        # The wire path re-serializes; the JSON itself must be stable too.
        assert restored.to_json() == config.to_json()

    def test_json_is_sorted_and_plain(self):
        payload = json.loads(ExecutionConfig().to_json())
        assert list(payload) == sorted(payload)
        assert payload["chaos"] is None

    def test_from_dict_names_unknown_fields(self):
        # A client built against an older config (one with the batch knob or
        # the perf-sample count, say) gets an error naming the stale fields.
        # The removed knob's name is assembled so no literal use of it is
        # left in the tree.
        perf_samples = "_".join(("perf", "repeats"))
        payload = {
            **ExecutionConfig().to_dict(),
            "batch": 4,
            perf_samples: 3,
            "zeta": 1,
        }
        with pytest.raises(
            ValueError, match=f"unknown ExecutionConfig field.*batch, {perf_samples}, zeta"
        ):
            ExecutionConfig.from_dict(payload)
        with pytest.raises(ValueError, match="batch"):
            ExecutionConfig.from_json(json.dumps({"batch": 4}))

    def test_payloads_missing_fields_load_with_defaults(self):
        # Older wire payloads that predate a field still load.
        payload = ExecutionConfig(jobs=3).to_dict()
        del payload["chaos"]
        del payload["reuse_evals"]
        assert ExecutionConfig.from_dict(payload) == ExecutionConfig(jobs=3)

    def test_pickle_round_trip(self):
        config = ExecutionConfig(
            jobs=2, supervision=SupervisionPolicy(timeout_s=3.0)
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_fingerprint_covers_only_the_outcome_affecting_half(self):
        base = ExecutionConfig()
        # Scheduling-only knobs reorder wall clock, never the payload.
        assert ExecutionConfig(jobs=8).fingerprint() == base.fingerprint()
        assert ExecutionConfig(reuse_evals=True).fingerprint() == base.fingerprint()
        assert (
            ExecutionConfig(
                supervision=SupervisionPolicy(timeout_s=1.0, max_retries=0)
            ).fingerprint()
            == base.fingerprint()
        )
        # Outcome-affecting knobs must change the journal-header hash.
        assert ExecutionConfig(train_jobs=2).fingerprint() != base.fingerprint()
        assert ExecutionConfig(engine="event").fingerprint() != base.fingerprint()

    def test_fingerprint_resolves_the_default_engine(self):
        # engine=None and engine="cycle" run the same simulations, so a
        # resume across the two spellings must be legal.
        assert (
            ExecutionConfig(engine=None).fingerprint()
            == ExecutionConfig(engine=DEFAULT_ENGINE).fingerprint()
        )


class TestCoalesceExecutionConfig:
    def test_config_only_passes_through_silently(self, recwarn):
        config = ExecutionConfig(jobs=4)
        assert coalesce_execution_config(config, caller="t") is config
        assert not recwarn.list

    def test_no_arguments_builds_the_default(self, recwarn):
        assert coalesce_execution_config(None, caller="t") == ExecutionConfig()
        assert not recwarn.list

    def test_legacy_knobs_override_and_warn_by_name(self):
        with pytest.warns(DeprecationWarning, match=r"t\(engine, jobs=\.\.\.\)"):
            config = coalesce_execution_config(
                None, caller="t", jobs=3, engine="event"
            )
        assert config.jobs == 3
        assert config.engine == "event"

    def test_timeout_and_retries_fold_into_supervision(self):
        base = ExecutionConfig(
            supervision=SupervisionPolicy(backoff_s=0.5, max_retries=5)
        )
        with pytest.warns(DeprecationWarning):
            config = coalesce_execution_config(
                base, caller="t", timeout_s=2.0, retries=0
            )
        assert config.supervision.timeout_s == 2.0
        assert config.supervision.max_retries == 0
        # Untouched supervision fields survive the fold.
        assert config.supervision.backoff_s == 0.5

    def test_policy_is_an_alias_for_supervision(self):
        policy = SupervisionPolicy(timeout_s=7.0)
        with pytest.warns(DeprecationWarning):
            config = coalesce_execution_config(None, caller="t", policy=policy)
        assert config.supervision is policy

    def test_unknown_knob_raises_type_error(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            coalesce_execution_config(None, caller="t", workers=2)

    def test_none_valued_legacy_knobs_do_not_warn(self, recwarn):
        config = ExecutionConfig(jobs=2)
        out = coalesce_execution_config(
            config, caller="t", jobs=None, engine=None, timeout_s=None
        )
        assert out is config
        assert not recwarn.list


class TestEntryPointShims:
    """The migrated entry points still accept (and warn on) legacy kwargs."""

    def test_run_suite_legacy_kwargs_warn(self):
        from repro.exp.suites import run_suite

        with pytest.warns(DeprecationWarning, match="run_suite"):
            outcome = run_suite("fig1-smoke", jobs=1)
        assert outcome.records

    def test_run_suite_config_shape_is_silent(self, recwarn):
        from repro.exp.suites import run_suite

        run_suite("fig1-smoke", config=ExecutionConfig())
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_legacy_and_config_shapes_agree(self):
        from repro.exp.suites import run_suite

        from repro.exp.telemetry import NONDETERMINISTIC_FIELDS

        def stable(records):
            return [
                {k: v for k, v in row.items() if k not in NONDETERMINISTIC_FIELDS}
                for row in records
            ]

        via_config = run_suite("fig1-smoke", config=ExecutionConfig(jobs=1))
        with pytest.warns(DeprecationWarning):
            via_kwargs = run_suite("fig1-smoke", jobs=1)
        assert stable(via_config.records) == stable(via_kwargs.records)
