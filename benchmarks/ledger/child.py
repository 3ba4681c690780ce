"""One repeat of one workload, in a process of its own.

``run.py`` starts this file once per repeat (``python child.py '<json>'``),
so set-up time and peak memory are real and no process-wide memo
(``train_controller``, the eval cache) leaks from one repeat to the next.
The request names the workload, seed, scale and mode; the reply is one JSON
object on the last line of standard output.

``mode`` is ``plain`` (tracing off: the end-to-end numbers) or ``traced``
(phase stepper, timing proxies, direct layer probes, engine head-to-head
rows).  Spans stay in memory until the run is over, then go to
``trace_path``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import tempfile
import time
from pathlib import Path


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _numerics_probe() -> str:
    """Hash of a small float matmul chain: BLAS kernels are chosen per CPU, so
    digests of trained-network results only compare between hosts that agree
    on this."""
    import numpy as np

    rng = np.random.RandomState(0)
    value = rng.standard_normal((32, 12))
    for width in (64, 64, 5):
        value = np.tanh(value @ rng.standard_normal((value.shape[1], width)))
    return hashlib.sha256(value.tobytes()).hexdigest()[:16]


def _timed_run(workload):
    start = time.perf_counter()
    outcome = workload.run()
    return outcome, time.perf_counter() - start


def _plain(workload, workdir, request) -> dict:
    workload.setup(workdir)
    ready_ns = time.monotonic_ns()
    outcome, wall_s = _timed_run(workload)
    payload = {"result": outcome.payload, **workload.verify()}
    return {
        "setup_s": (ready_ns - request["spawn_ns"]) / 1e9,
        "wall_s": wall_s,
        "cycles": outcome.cycles,
        "ops": outcome.ops,
        "digest": _digest(payload),
        "approx_rel_err": payload.get("approx_rel_err"),
    }


def _engine_rows(workload) -> tuple[dict, bool]:
    """Cycles/s of every registered exact selectable engine on the workload's
    reduced twin, and whether they all produced the same result."""
    from repro.engines import engine_infos

    twin = workload.rows()
    rates, digests = {}, set()
    if twin is not None:
        for info in engine_infos():
            if info.selectable and not info.approximate:
                twin.setup(None, engine=info.name)
                outcome, wall_s = _timed_run(twin)
                rates[info.name] = outcome.cycles / wall_s
                digests.add(_digest(outcome.payload))
    return rates, len(digests) <= 1


def _traced(workload, workdir, request) -> dict:
    from tracing import Recorder, register_stepper

    recorder = Recorder(request["workload"])
    with recorder.span("setup"):
        workload.setup(workdir, engine=register_stepper(recorder), recorder=recorder)
    with recorder.span("workload"):
        outcome, wall_s = _timed_run(workload)
    busy = recorder.busy_s()
    counts = dict(recorder.counts)
    span_counts = recorder.span_counts()
    op_ms = outcome.op_ms
    if op_ms is None:
        op_ms = [seconds * 1e3 for seconds in recorder.durations_s(workload.op_span)]
    payload = {"result": outcome.payload, **workload.verify()}
    with recorder.span("extras"):
        extras = workload.extras(recorder, workdir)
        engine_rates, engines_agree = _engine_rows(workload)
    if request.get("trace_path"):
        recorder.write(request["trace_path"])
    return {
        "wall_s": wall_s,
        "digest": _digest(payload),
        "approx_rel_err": payload.get("approx_rel_err"),
        "stepped": workload.stepped,
        "busy_s": busy,
        "counts": counts,
        "span_counts": span_counts,
        "op_ms": op_ms,
        "extras": extras,
        "engine_rates": engine_rates,
        "engines_agree": engines_agree and extras.pop("twin_stepper_parity", True),
        "nesting_errors": recorder.nesting_errors(),
    }


def main() -> None:
    request = json.loads(sys.argv[1])
    sys.path.insert(0, request["src"])
    traced = request["mode"] == "traced"
    cli_import_s = None
    if traced:
        # A fresh interpreter: this is what `python -m repro.cli` pays first.
        start = time.perf_counter()
        import repro.cli  # noqa: F401

        cli_import_s = time.perf_counter() - start
    import workloads

    workload = workloads.build(request["workload"], request["seed"], request["scale"])
    scratch = Path(request["scratch"])
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        reply = (_traced if traced else _plain)(workload, Path(workdir), request)
    usage = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    reply["peak_rss_mb"] = max(usage) / 1024  # Linux reports KiB
    reply["cli_import_s"] = cli_import_s
    reply["numerics"] = _numerics_probe()
    print(json.dumps(reply))


if __name__ == "__main__":
    main()
