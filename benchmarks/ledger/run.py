"""The layered perf ledger: six workloads, end-to-end and per-layer metrics.

    python3 benchmarks/ledger/run.py [--seed N] [--workload W] [--out DIR]
        every workload with tracing off, then one traced pass each, then the
        suite health pass; prints every metric by name and unit and writes
        DIR/results.json and DIR/trace-<workload>.jsonl
    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
        one workload, one JSON result on the last line (BENCHMARK.json's command)
    python3 benchmarks/ledger/run.py --compare A/ B/
    python3 benchmarks/ledger/run.py --self-test
    python3 benchmarks/ledger/run.py --update-golden

This process stays on the standard library and runs one child at a time
(``child.py``, a fresh interpreter per repeat); see ``README.md`` for what
each metric means and which end-to-end number it should move.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD_TIMEOUT_S = 150
MIN_REPEATS = 3
GOLDEN_SEEDS = (0, 1)
#: Workloads whose results pass through BLAS (a trained network): their
#: golden digests hold only on hosts whose float kernels match the recorder's.
BLAS_WORKLOADS = ("drl_train", "suite_fanout")
#: Spans the phase stepper books; the rest of the engine loop is self time.
PHASE_SPANS = (
    "traffic.generate",
    "noc.inject",
    "noc.step_routers",
    "noc.apply_movements",
    "noc.overheads",
    "engines.fastpath",
)
NAME_PATTERN = re.compile(r"[A-Za-z0-9_.-]+")


class ChildFailed(Exception):
    """A child process exited non-zero, timed out or printed no result."""


class SelfTestFailed(Exception):
    """``--self-test`` found the harness inconsistent with BENCHMARK.json."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestFailed(message)


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def host_fingerprint() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_sha": sha or "unknown",
    }


def spawn(workload: str, seed: int, scale: float, mode: str, scratch: Path, trace_path=None) -> dict:
    """Run one child to completion and return its reply."""
    request = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "mode": mode,
        "src": str(ROOT / "src"),
        "scratch": str(scratch),
        "trace_path": str(trace_path) if trace_path else None,
        "spawn_ns": time.monotonic_ns(),
    }
    env = {**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(request)],
            capture_output=True,
            text=True,
            env=env,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} ({mode}): no result within {CHILD_TIMEOUT_S} s") from None
    if done.returncode != 0 or not done.stdout.strip():
        tail = "\n".join(done.stderr.strip().splitlines()[-4:])
        raise ChildFailed(f"{workload} ({mode}): exit {done.returncode}\n{tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, scale: float, scratch: Path) -> list[dict]:
    """Untraced repeats, a fresh child each, until ``seconds`` have gone by
    (and at least ``MIN_REPEATS`` were taken)."""
    replies = []
    start = time.monotonic()
    while len(replies) < MIN_REPEATS or time.monotonic() - start < seconds:
        replies.append(spawn(workload, seed, scale, "plain", scratch))
    return replies


def end_to_end(replies: list[dict]) -> dict[str, list[float]]:
    return {
        "setup_s": [reply["setup_s"] for reply in replies],
        "wall_s": [reply["wall_s"] for reply in replies],
        "sim_cycles_per_s": [reply["cycles"] / reply["wall_s"] for reply in replies],
        "peak_rss_mb": [reply["peak_rss_mb"] for reply in replies],
    }


def golden_mismatch(workload: str, seed: int, reply: dict) -> bool:
    """Whether ``reply`` differs from the committed digest for this seed."""
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    expected = golden["digests"].get(workload, {}).get(str(seed))
    if expected is None:
        return False
    if workload in BLAS_WORKLOADS and reply["numerics"] != golden["numerics"]:
        print(
            f"note: {workload}: this host's float kernels differ from the golden "
            "recorder's; digest compared between repeats only",
            file=sys.stderr,
        )
        return False
    return reply["digest"] != expected


def plain_mismatches(workload: str, seed: int, replies: list[dict]) -> int:
    digests = {reply["digest"] for reply in replies}
    return (len(digests) - 1) + golden_mismatch(workload, seed, replies[0])


def layer_metrics(names: list[str], reference: dict, traced: dict, mismatches: int) -> dict:
    """Every declared per-layer metric from one traced child and the untraced
    reference run beside it; a layer the workload never enters reads 0."""
    busy, counts, extras = traced["busy_s"], traced["counts"], traced["extras"]
    values = {}
    for name in names:
        if name in extras:
            values[name] = extras[name]
        elif name in counts:
            values[name] = counts[name]
        elif name.endswith("_s") and name[:-2] in busy:
            values[name] = busy[name[:-2]]
        elif name.endswith("_calls") and name[:-6] in busy:
            values[name] = traced["span_counts"][name[:-6]]
        else:
            values[name] = 0
    if traced["stepped"]:
        values["engines.loop_self_s"] = reference["wall_s"] - sum(
            busy.get(span, 0.0) for span in PHASE_SPANS
        )
    if "exp.subtrials" in extras:
        # Traced at jobs=1 against the untraced jobs=2 run: a speed-up, not
        # a tracing overhead.
        values["exp.parallel_speedup"] = traced["wall_s"] / reference["wall_s"]
    else:
        values["trace.overhead_frac"] = traced["wall_s"] / reference["wall_s"] - 1
    movements = counts.get("noc.movements", 0)
    if movements:
        pipeline_s = busy.get("noc.step_routers", 0.0) + busy.get("noc.apply_movements", 0.0)
        values["noc.us_per_movement"] = pipeline_s / movements * 1e6
    for engine, rate in traced["engine_rates"].items():
        values[f"engines.{engine}.sim_cycles_per_s"] = rate
    op_ms = sorted(traced["op_ms"])
    values["ops.samples"] = len(op_ms)
    values["ops.ms_p50"] = statistics.median(op_ms)
    if len(op_ms) >= 100:  # ten samples beyond the percentile
        values["ops.ms_p90"] = op_ms[int(len(op_ms) * 0.9)]
    values["cli.import_s"] = traced["cli_import_s"]
    if traced["approx_rel_err"] is not None:
        values["engines.flow.approx_rel_err"] = traced["approx_rel_err"]
    values["parity_mismatches"] = mismatches
    return {name: values[name] for name in names}


def trace(workload: str, seed: int, scale: float, scratch: Path, out: Path, bench: dict) -> dict:
    """One untraced reference run and one traced run; returns the per-layer
    metrics, the mismatch count and both replies."""
    reference = spawn(workload, seed, scale, "plain", scratch)
    out.mkdir(parents=True, exist_ok=True)
    traced = spawn(workload, seed, scale, "traced", scratch, out / f"trace-{workload}.jsonl")
    problems = []
    if traced["digest"] != reference["digest"]:
        problems.append("traced result differs from the untraced run")
    if not traced["engines_agree"]:
        problems.append("exact engines disagree on the reduced twin")
    if scale >= 1 and golden_mismatch(workload, seed, reference):
        problems.append("result differs from golden.json")
    problems.extend(traced["nesting_errors"])
    for problem in problems:
        print(f"INVALID {workload}: {problem}", file=sys.stderr)
    names = [metric["name"] for metric in bench["per_layer"]]
    return {
        "metrics": layer_metrics(names, reference, traced, len(problems)),
        "mismatches": len(problems),
        "reference": reference,
        "ops": 2 * reference["ops"],
    }


def print_end_to_end(workload: str, bench: dict, samples: dict[str, list[float]]) -> None:
    for metric in bench["end_to_end"]:
        values = samples[metric["name"]]
        median, q1, q3 = compare.quartiles(values)
        print(
            f"{workload:16s} {metric['name']:18s} {median:14.4f} "
            f"{metric['unit']:9s} q1={q1:.4f} q3={q3:.4f} n={len(values)} "
            f"bound={metric['bound']}"
        )


def print_per_layer(workload: str, bench: dict, values: dict) -> None:
    for metric in bench["per_layer"]:
        print(f"{workload:16s} {metric['name']:32s} {values[metric['name']]:16.6g} {metric['unit']}")


def result_line(correct: bool, attempted: int, metrics: list[dict], values: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": 0,
            "metrics": {
                metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                for metric in metrics
            },
        }
    )


def contract_run(args, bench: dict, scratch: Path) -> int:
    """BENCHMARK.json's command: one workload, one result line.  A child that
    fails leaves no result and a non-zero exit."""
    if args.trace:
        traced = trace(args.workload, args.seed, 1.0, scratch, args.out, bench)
        print_per_layer(args.workload, bench, traced["metrics"])
        print(result_line(traced["mismatches"] == 0, traced["ops"], bench["per_layer"], traced["metrics"]))
        return 0
    replies = measure(args.workload, args.seed, args.seconds, 1.0, scratch)
    samples = end_to_end(replies)
    print_end_to_end(args.workload, bench, samples)
    medians = {name: statistics.median(values) for name, values in samples.items()}
    correct = plain_mismatches(args.workload, args.seed, replies) == 0
    print(result_line(correct, sum(r["ops"] for r in replies), bench["end_to_end"], medians))
    return 0


def health_pass(scratch: Path) -> dict:
    """`python -m repro.cli suite run <s> --out TMP` for every registered
    smoke suite, one subprocess each; untimed checks, one wall-clock sum."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    listing = subprocess.run(
        [sys.executable, "-c", "from repro.exp.suites import suite_names; print(*suite_names())"],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S, check=True,
    )
    suites = [name for name in listing.stdout.split() if name.endswith("-smoke")]
    failed, start = [], time.monotonic()
    scratch.mkdir(parents=True, exist_ok=True)
    for suite in suites:
        with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
            done = subprocess.run(
                [sys.executable, "-m", "repro.cli", "suite", "run", suite, "--out", out_dir],
                capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
            )
        if done.returncode != 0:
            last = (done.stderr.strip().splitlines() or ["no output"])[-1]
            failed.append({"name": suite, "exit": done.returncode, "error": last})
    return {
        "ops_total": len(suites),
        "ops_failed": len(failed),
        "failed": failed,
        "cli.suite_smoke_all_s": time.monotonic() - start,
    }


def full_run(args, bench: dict, scratch: Path) -> int:
    """Every workload untraced, then traced, then the health pass."""
    host = host_fingerprint()
    print("host " + " ".join(f"{key}={value}" for key, value in host.items()))
    names = [args.workload] if args.workload else [w["name"] for w in bench["workloads"]]
    results = {"host": host, "seed": args.seed, "workloads": {name: {} for name in names}}
    for name in names:
        entry = results["workloads"][name]
        entry.update(ops_total=0, ops_failed=0, parity_mismatches=0, failures=[])
        try:
            replies = measure(name, args.seed, args.seconds, 1.0, scratch)
        except ChildFailed as failure:
            entry["ops_total"] = entry["ops_failed"] = 1
            entry["failures"].append(str(failure))
            print(f"FAILED {failure}", file=sys.stderr)
            continue
        entry["end_to_end"] = end_to_end(replies)
        entry["ops_total"] = sum(reply["ops"] for reply in replies)
        entry["parity_mismatches"] = plain_mismatches(name, args.seed, replies)
        entry["approx_rel_err"] = replies[0]["approx_rel_err"]
        print_end_to_end(name, bench, entry["end_to_end"])
        print(
            f"{name:16s} ops_total={entry['ops_total']} ops_failed=0 "
            f"parity_mismatches={entry['parity_mismatches']} "
            f"approx_rel_err={entry['approx_rel_err']}"
        )
    for name in names:
        entry = results["workloads"][name]
        if "end_to_end" not in entry:
            continue
        try:
            traced = trace(name, args.seed, 1.0, scratch, args.out, bench)
        except ChildFailed as failure:
            entry["ops_total"] += 1
            entry["ops_failed"] += 1
            entry["failures"].append(str(failure))
            print(f"FAILED {failure}", file=sys.stderr)
            continue
        entry["per_layer"] = traced["metrics"]
        entry["parity_mismatches"] += traced["mismatches"]
        print_per_layer(name, bench, traced["metrics"])
    results["health"] = health = health_pass(scratch)
    print(
        f"health           ops_total={health['ops_total']} ops_failed={health['ops_failed']} "
        f"cli.suite_smoke_all_s={health['cli.suite_smoke_all_s']:.3f} s"
    )
    for failure in health["failed"]:
        print(f"health           FAILED {failure['name']}: exit {failure['exit']}: {failure['error']}")
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(results, indent=1), encoding="utf-8")
    print(f"results written to {args.out / 'results.json'}")
    broken = any(e["parity_mismatches"] or e["ops_failed"] for e in results["workloads"].values())
    return 1 if broken else 0


def update_golden(bench: dict, scratch: Path) -> int:
    golden = {"numerics": None, "digests": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        golden["digests"][workload] = {}
        for seed in GOLDEN_SEEDS:
            reply = spawn(workload, seed, 1.0, "plain", scratch)
            golden["numerics"] = reply["numerics"]
            golden["digests"][workload][str(seed)] = reply["digest"]
            print(f"{workload} seed {seed}: {reply['digest']}")
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


def self_test(bench: dict, scratch: Path, out: Path) -> int:
    """Every workload at about 1/20 size: declared names are exactly the
    emitted ones, spans nest, traced results equal untraced ones."""
    start = time.monotonic()
    names = [metric["name"] for metric in bench["end_to_end"] + bench["per_layer"]]
    require(len(set(names)) == len(names), "duplicate metric names in BENCHMARK.json")
    for name in names:
        require(NAME_PATTERN.fullmatch(name) is not None, f"bad metric name {name!r}")
    for workload in (w["name"] for w in bench["workloads"]):
        traced = trace(workload, 0, 0.05, scratch, out, bench)
        require(traced["mismatches"] == 0, f"{workload}: traced pass invalid (see stderr)")
        emitted = set(end_to_end([traced["reference"]])) | set(traced["metrics"])
        require(emitted == set(names), f"{workload}: emitted != declared: {emitted ^ set(names)}")
        print(f"ok {workload}")
    print(f"self-test passed in {time.monotonic() - start:.1f} s")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path, default=ROOT / ".ledger_out")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args()
    bench = declared()
    if args.compare:
        return compare.main(*args.compare, bench)
    known = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in known:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(known)}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    scratch = args.out / "scratch"
    try:
        if args.self_test:
            return self_test(bench, scratch, args.out)
        if args.update_golden:
            return update_golden(bench, scratch)
        if args.trace is not None:
            if args.workload is None:
                parser.error("--trace needs --workload")
            return contract_run(args, bench, scratch)
        return full_run(args, bench, scratch)
    except (ChildFailed, SelfTestFailed) as failure:
        print(f"FAILED {failure}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
