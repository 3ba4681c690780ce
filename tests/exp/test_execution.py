"""The unified ExecutionConfig API: validation, pickling, call shape.

The config is the one execution surface (``run_suite(spec,
config=...)``), so the tests pin value semantics (frozen, hashable,
validated), the pickle round trip the process pool relies on and the one
call shape: the pre-config execution keywords, the TCP fleet's and the
second fan-out path (``run_scenarios``/``run_trials``) are gone.
"""

from __future__ import annotations

import importlib
import pickle

import pytest

from repro.exp.chaos import ChaosPolicy, ChaosRule
from repro.exp.execution import DEFAULT_ENGINE, ExecutionConfig, SupervisionPolicy


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


class TestExecutionConfig:
    def test_defaults_resolve_to_the_reference_path(self):
        config = ExecutionConfig()
        assert config.jobs == 1
        assert config.train_jobs == 1
        assert config.engine is None
        assert config.resolved_engine() == DEFAULT_ENGINE
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

    def test_pickle_round_trip(self):
        config = ExecutionConfig(
            jobs=2, supervision=SupervisionPolicy(timeout_s=3.0)
        )
        assert pickle.loads(pickle.dumps(config)) == config

    def test_removed_reuse_evals_field_is_a_type_error(self):
        # The subtrial store under out_dir replaced the in-process eval memo.
        with pytest.raises(TypeError, match="reuse_evals"):
            ExecutionConfig(reuse_evals=True)


#: The pre-config execution keywords, by entry point; each is now an error.
REMOVED_KEYWORDS = [
    ("run_suite", "jobs", 2),
    ("run_suite", "train_jobs", 2),
    ("run_suite", "reuse_evals", True),
    ("run_suite", "engine", "event"),
    ("run_suite", "timeout_s", 5.0),
    ("run_suite", "retries", 0),
    ("run_suite", "chaos", ChaosPolicy(rules=(ChaosRule("raise", 0),))),
    ("run_suite", "workers", "tcp://x:1"),
    ("run_suite", "_dispatch", object()),
    ("run_suite", "resume", True),
    ("train_dqn_sharded", "jobs", 2),
    ("train_dqn_sharded", "supervision", SupervisionPolicy()),
    ("train_dqn_sharded", "chaos", ChaosPolicy(rules=(ChaosRule("raise", 0),))),
]


class TestOneCallShape:
    @pytest.mark.parametrize(
        "entry, keyword, value",
        REMOVED_KEYWORDS,
        ids=[f"{entry}-{keyword}" for entry, keyword, _ in REMOVED_KEYWORDS],
    )
    def test_removed_keyword_is_a_type_error(self, entry, keyword, value):
        from repro.core import ExperimentConfig
        from repro.exp.suites import run_suite
        from repro.exp.training import default_experiment_dqn_config, train_dqn_sharded

        experiment = ExperimentConfig.small()
        calls = {
            "run_suite": lambda **kwargs: run_suite("fig1-smoke", **kwargs),
            # With a dqn_config the trainer has no use for leftover keywords,
            # so only its own check can turn them into a TypeError.
            "train_dqn_sharded": lambda **kwargs: train_dqn_sharded(
                experiment,
                episodes=1,
                dqn_config=default_experiment_dqn_config(experiment),
                **kwargs,
            ),
        }
        with pytest.raises(TypeError, match=keyword):
            calls[entry](**{keyword: value})

    def test_run_suite_config_shape_is_silent(self, recwarn):
        from repro.exp.suites import run_suite

        run_suite("fig1-smoke", config=ExecutionConfig())
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    @pytest.mark.parametrize(
        "name",
        [
            "coalesce_execution_config",
            "TrialPool",
            "default_chunk_size",
            "subtrial_key",
            "LeaseBook",
            "ServiceError",
            "ServiceWorker",
            "SuiteBroker",
            "parse_workers_url",
            "submit_suite",
            "run_scenarios",
            "run_trials",
        ],
    )
    def test_removed_names_are_not_exported(self, name):
        import repro.exp

        assert name not in repro.exp.__all__
        assert not hasattr(repro.exp, name)

    def test_the_fleet_service_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.exp.service")
