"""Perf telemetry pipeline: artefact ingestion, trend report, engine policy.

Five PRs of benchmarks left ``benchmarks/results/`` (and the CI baseline
cache) full of perf records in the shared schema — ``{"scenario", "cycles",
"wall_s", "cycles_per_s"}`` plus free-form extras — but nothing consumed
them.  This module is the consumer:

* :func:`build_trend_report` ingests every artefact under a results
  directory (plus any restored baseline files, e.g. CI caches) into a
  :class:`TrendReport`: per-``(scenario, engine)`` sample series ordered
  oldest to newest, best/median throughput, deltas, regressions past
  tolerance (reusing :func:`repro.exp.perfguard.find_regressions`) and a
  per-engine win/loss matrix per scenario.  ``repro-noc perf report`` wraps
  it.
* :class:`TelemetrySink` streams live telemetry rows — per-epoch rows from
  :func:`repro.exp.scenarios.run_scenario`, per-subtrial and per-unit rows
  from :func:`repro.exp.suites.run_suite` — as CSV or JSONL to a file path
  or an open handle (the ``viz/stream_csv.py`` idiom from the rotorsim
  exemplar).  Wall-clock-derived fields are flagged in
  :data:`WALL_CLOCK_FIELDS` so downstream diffing can stay deterministic,
  and ``source == "perf"`` rows round-trip back into the trend pipeline via
  :func:`records_from_telemetry`.
* :class:`EnginePolicy` turns the win/loss matrix into a data-driven engine
  choice: ``--engine auto`` on ``sweep`` / ``scenarios run`` / ``suite
  run`` picks the measured-best *registered* engine per scenario (bench
  variants like ``"naive"`` are reported but never chosen) and falls back
  to the default engine when no telemetry exists, always saying which
  measurement decided.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from repro.engines import engine_infos
from repro.exp.perfguard import (
    DEFAULT_TOLERANCE,
    Regression,
    extract_records,
    find_regressions,
    format_regressions,
    record_key,
)

#: Where the repository's committed perf artefacts live; the default ingest
#: root for ``perf report`` and for :meth:`EnginePolicy.from_results`.
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"

#: Fields that derive from the wall clock and are therefore not
#: deterministic: two runs of the same spec legitimately differ in them
#: while every simulated field must match exactly.  ``diff_payloads``
#: (``repro-noc suite diff``) ignores exactly this set.
WALL_CLOCK_FIELDS = frozenset(
    {
        "wall_s",
        "wall_s_total",
        "wall_time_s",
        "cycles_per_s",
        "cycles_per_second",
        "episodes_per_second",
        "generated_at",
    }
)

#: Fields that depend on *scheduling* rather than the wall clock: the
#: supervised pool's attempt accounting (how many tries a subtrial took,
#: how many were retries) varies with worker crashes, timeouts and chaos
#: injection, and the distributed service's lease metadata (which fleet
#: worker executed a subtrial, under which lease) varies with work-stealing
#: — while the simulated outcome stays bit-identical.  Parity checks must
#: ignore these alongside the wall-clock fields — this union is what
#: ``diff_payloads`` (``repro-noc suite diff``) skips, which is exactly
#: what lets CI assert that a chaos-ridden run (or a fleet run with a
#: worker killed mid-suite) equals a clean in-process one.
SCHEDULING_FIELDS = frozenset({"attempts", "retries", "worker_id", "lease_id"})

NONDETERMINISTIC_FIELDS = WALL_CLOCK_FIELDS | SCHEDULING_FIELDS

#: Column schema of the streamed telemetry tap.  Every emitted row is
#: normalized to exactly these fields (absent ones null), so CSV and JSONL
#: sinks produce identical rows and CSV headers are stable from row one.
TELEMETRY_FIELDS = (
    "source",
    "suite",
    "scenario",
    "unit",
    "kind",
    "engine",
    "seed",
    "repeat",
    "epoch",
    "rate",
    "n_nodes",
    "injection_rate",
    "rows",
    "cycles",
    "packets_delivered",
    "average_latency",
    "energy_total_pj",
    "wall_s",
    "cycles_per_s",
    "attempts",
    "retries",
    "worker_id",
    "lease_id",
)

#: Telemetry ``source`` values: live per-epoch scenario rows, per-subtrial
#: suite rows, subtrial rows executed by the distributed service's worker
#: fleet, and perf records (the rows ``perf report`` re-ingests).
TELEMETRY_SOURCES = ("epoch", "subtrial", "service", "perf")


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


# ---------------------------------------------------------------------------
# the streamed telemetry tap
# ---------------------------------------------------------------------------


class TelemetrySink:
    """Stream telemetry rows to CSV or JSONL, one flushed row per emit.

    ``target`` is a file path (parents created; ``.csv`` selects CSV,
    anything else JSONL) or an already-open text handle (``format``
    defaults to JSONL there).  Rows are normalized to
    :data:`TELEMETRY_FIELDS` — missing fields become null, unknown fields
    are dropped — so both formats carry identical rows and
    :func:`read_telemetry` round-trips them bit for bit.  Each row is
    flushed as soon as it is emitted, so a tail of the file follows a live
    run.
    """

    FORMATS = ("csv", "jsonl")

    def __init__(
        self,
        target,
        format: str | None = None,
        fields: Sequence[str] = TELEMETRY_FIELDS,
    ) -> None:
        self.fields = tuple(fields)
        self.rows_written = 0
        path = None if hasattr(target, "write") else Path(target)
        if path is None:
            self.format = format or "jsonl"
        else:
            self.format = format or ("csv" if path.suffix == ".csv" else "jsonl")
        # Validate before touching the filesystem: a bad format must not
        # leak an open handle or leave a created-but-empty file behind.
        if self.format not in self.FORMATS:
            raise ValueError(
                f"unknown telemetry format {self.format!r}; "
                f"known: {', '.join(self.FORMATS)}"
            )
        if path is None:
            self._handle = target
            self._owns_handle = False
            self.path = getattr(target, "name", "<stream>")
        else:
            if path.parent != Path("."):
                path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = path.open("w", encoding="utf-8", newline="")
            self._owns_handle = True
            self.path = str(path)
        self._writer = None
        if self.format == "csv":
            self._writer = csv.DictWriter(self._handle, fieldnames=self.fields)
            self._writer.writeheader()
            self._handle.flush()

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def emit(self, row: Mapping) -> None:
        """Write one normalized row and flush it (the tap streams live)."""
        normalized = {field: row.get(field) for field in self.fields}
        if self._writer is not None:
            self._writer.writerow(normalized)
        else:
            self._handle.write(json.dumps(normalized, sort_keys=True) + "\n")
        self._handle.flush()
        self.rows_written += 1

    def close(self) -> None:
        if self._owns_handle and not self._handle.closed:
            self._handle.close()


def _parse_csv_cell(cell: str):
    if cell == "":
        return None
    try:
        return json.loads(cell)
    except (json.JSONDecodeError, ValueError):
        return cell


def read_telemetry(source, format: str | None = None) -> list[dict]:
    """Read a telemetry file (or handle) back into the rows the sink wrote.

    CSV cells are restored through JSON parsing (numbers become numbers,
    empty cells become null), so a CSV tap and a JSONL tap of the same run
    read back as identical row dicts.
    """
    if hasattr(source, "read"):
        handle = source
        fmt = format or "jsonl"
        return _read_telemetry_handle(handle, fmt)
    path = Path(source)
    fmt = format or ("csv" if path.suffix == ".csv" else "jsonl")
    with path.open("r", encoding="utf-8", newline="") as handle:
        return _read_telemetry_handle(handle, fmt)


def _read_telemetry_handle(handle, fmt: str) -> list[dict]:
    if fmt == "csv":
        return [
            {key: _parse_csv_cell(value) for key, value in row.items()}
            for row in csv.DictReader(handle)
        ]
    if fmt == "jsonl":
        return [json.loads(line) for line in handle if line.strip()]
    raise ValueError(f"unknown telemetry format {fmt!r}")


def records_from_telemetry(rows: Iterable[Mapping]) -> list[dict]:
    """The perf records embedded in a telemetry stream (``source == "perf"``).

    Per-epoch and per-subtrial rows are observability, not perf samples;
    only the ``"perf"`` rows re-enter the trend pipeline, so re-ingesting a
    ``suite run --telemetry`` tap reproduces exactly the trend a ``perf
    report`` over the suite's JSON artefact would build.
    """
    records = []
    for row in rows:
        if row.get("source") != "perf" or row.get("scenario") is None:
            continue
        record = {
            key: row[key]
            for key in (
                "scenario",
                "suite",
                "kind",
                "engine",
                "seed",
                "rate",
                "n_nodes",
                "injection_rate",
                "cycles",
                "wall_s",
            )
            if row.get(key) is not None
        }
        # Keep an explicit null rate: it marks the sample unmeasurable (below
        # timer resolution), which downstream consumers skip — a *missing*
        # key marks a malformed record instead.
        record["cycles_per_s"] = row.get("cycles_per_s")
        records.append(record)
    return records


# ---------------------------------------------------------------------------
# artefact ingestion
# ---------------------------------------------------------------------------

_ARTIFACT_SUFFIXES = (".json", ".jsonl", ".csv")


def _artifact_timestamp(path: Path) -> float:
    """When the artefact was produced: its ``generated_at`` stamp, else mtime.

    The CLI writers stamp every JSON artefact with a top-level
    ``generated_at`` (unix seconds) precisely because mtime is unreliable
    for ordering: a fresh git checkout (e.g. CI) gives all committed files
    identical mtimes, collapsing "oldest to newest" into filename order.
    Unstamped legacy artefacts and CSV/JSONL taps still fall back to mtime
    and keep that limitation.
    """
    if path.suffix == ".json":
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            pass
        else:
            if isinstance(payload, Mapping):
                stamp = payload.get("generated_at")
                if isinstance(stamp, (int, float)) and not isinstance(stamp, bool):
                    return float(stamp)
    return path.stat().st_mtime


def _artifact_paths(root: Path) -> list[Path]:
    """Perf-artefact candidates under ``root``, oldest first (stamp, name)."""
    if root.is_file():
        return [root]
    if not root.is_dir():
        return []
    paths = [
        path
        for path in root.rglob("*")
        if path.is_file() and path.suffix in _ARTIFACT_SUFFIXES
    ]
    return sorted(paths, key=lambda path: (_artifact_timestamp(path), str(path)))


def _load_artifact_records(path: Path) -> list[dict]:
    """Every perf-shaped record in one artefact file (may be empty)."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text(encoding="utf-8"))
        return extract_records(payload)
    return records_from_telemetry(read_telemetry(path))


def ingest_artifacts(
    results: str | Path | None = None,
    baselines: Sequence[str | Path] = (),
) -> tuple[list[tuple[str, list[dict]]], list[str]]:
    """Load every artefact under ``results`` plus the ``baselines`` paths.

    Returns ``(artifacts, skipped)`` where ``artifacts`` is a list of
    ``(label, records)`` ordered oldest to newest — baseline files first
    (restored CI caches predate the working tree's artefacts), then the
    results directory by modification time — and ``skipped`` names every
    file or record that was not perf-shaped (foreign artefacts must not
    crash the report; they are reported instead).
    """
    roots = [Path(path) for path in baselines]
    roots.append(Path(results) if results is not None else DEFAULT_RESULTS_DIR)
    artifacts: list[tuple[str, list[dict]]] = []
    skipped: list[str] = []
    seen: set[Path] = set()
    for root in roots:
        for path in _artifact_paths(root):
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            try:
                records = _load_artifact_records(path)
            except (ValueError, TypeError, KeyError, json.JSONDecodeError) as error:
                skipped.append(f"{path}: not a perf artefact ({error})")
                continue
            if records:
                artifacts.append((str(path), records))
            else:
                skipped.append(f"{path}: no perf records")
    return artifacts, skipped


def _best_by_key_tolerant(
    records: Iterable[Mapping], label: str, skipped: list[str]
) -> dict[tuple[str, str], float]:
    """Best measurable throughput per (scenario, engine) in one artefact.

    Mirrors the perf guard's best-of-N convention but never raises:
    records missing ``scenario`` or ``cycles_per_s`` are reported in
    ``skipped`` (hand-edited or foreign artefacts), null/zero rates are
    silently dropped (sub-resolution samples are unmeasurable, not slow).
    """
    best: dict[tuple[str, str], float] = {}
    for record in records:
        if not isinstance(record, Mapping) or "scenario" not in record:
            skipped.append(f"{label}: record without a scenario skipped")
            continue
        if "cycles_per_s" not in record:
            skipped.append(
                f"{label}: record for {record['scenario']!r} lacks cycles_per_s"
            )
            continue
        cycles_per_s = record["cycles_per_s"]
        if cycles_per_s is None:
            continue
        try:
            cycles_per_s = float(cycles_per_s)
        except (TypeError, ValueError):
            skipped.append(
                f"{label}: non-numeric cycles_per_s for {record['scenario']!r}"
            )
            continue
        if cycles_per_s <= 0:
            continue
        key = record_key(record)
        if key not in best or cycles_per_s > best[key]:
            best[key] = cycles_per_s
    return best


# ---------------------------------------------------------------------------
# the trend report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendSeries:
    """One (scenario, engine)'s throughput trajectory, oldest to newest."""

    scenario: str
    engine: str
    samples: tuple[float, ...]
    sources: tuple[str, ...]
    #: Mesh size (routers) and fixed injection rate of the workload, when
    #: its records carry them (newer records do); ``perf report`` groups
    #: the trend table by mesh size so a 4x4 microbench and a 64x64
    #: scale-out run never read as one comparison.
    n_nodes: int | None = None
    injection_rate: float | None = None

    @property
    def best(self) -> float:
        return max(self.samples)

    @property
    def median(self) -> float:
        return _median(self.samples)

    @property
    def oldest(self) -> float:
        return self.samples[0]

    @property
    def newest(self) -> float:
        return self.samples[-1]

    @property
    def vs_oldest(self) -> float:
        """Newest throughput as a multiple of the oldest sample's."""
        return self.newest / self.oldest

    @property
    def vs_best(self) -> float:
        """Newest throughput as a multiple of the best sample's."""
        return self.newest / self.best

    def row(self) -> dict:
        return {
            "scenario": self.scenario,
            "engine": self.engine or "-",
            "n_nodes": self.n_nodes,
            "samples": len(self.samples),
            "best": self.best,
            "median": self.median,
            "newest": self.newest,
            "vs_oldest": self.vs_oldest,
            "vs_best": self.vs_best,
        }


@dataclass(frozen=True)
class TrendReport:
    """Everything the ingested artefacts say about throughput over time."""

    series: tuple[TrendSeries, ...]
    sources: tuple[str, ...]
    skipped: tuple[str, ...]

    @classmethod
    def from_artifacts(
        cls, artifacts: Sequence[tuple[str, Sequence[Mapping]]], skipped: Sequence[str] = ()
    ) -> "TrendReport":
        """One series per (scenario, engine); one sample per artefact."""
        skipped = list(skipped)
        by_key: dict[tuple[str, str], list[tuple[str, float]]] = {}
        shapes: dict[tuple[str, str], tuple[int | None, float | None]] = {}
        for label, records in artifacts:
            for key, cycles_per_s in sorted(
                _best_by_key_tolerant(records, label, skipped).items()
            ):
                by_key.setdefault(key, []).append((label, cycles_per_s))
            for record in records:
                if not isinstance(record, Mapping) or "scenario" not in record:
                    continue
                key = record_key(record)
                if key not in shapes and record.get("n_nodes") is not None:
                    rate = record.get("injection_rate")
                    shapes[key] = (
                        int(record["n_nodes"]),
                        float(rate) if rate is not None else None,
                    )
        series = tuple(
            TrendSeries(
                scenario=scenario,
                engine=engine,
                samples=tuple(sample for _, sample in samples),
                sources=tuple(label for label, _ in samples),
                n_nodes=shapes.get((scenario, engine), (None, None))[0],
                injection_rate=shapes.get((scenario, engine), (None, None))[1],
            )
            for (scenario, engine), samples in sorted(by_key.items())
        )
        return cls(
            series=series,
            sources=tuple(label for label, _ in artifacts),
            skipped=tuple(skipped),
        )

    def rows(self) -> list[dict]:
        return [series.row() for series in self.series]

    def win_matrix(
        self, engines: Sequence[str] | None = None
    ) -> dict[str, dict[str, float]]:
        """Per scenario, each engine's median throughput (its tournament entry).

        ``engines`` restricts the columns (the policy passes the registered
        engine names so bench-only variants never win); the default shows
        every engine that was measured.
        """
        matrix: dict[str, dict[str, float]] = {}
        for series in self.series:
            if not series.engine:
                continue
            if engines is not None and series.engine not in engines:
                continue
            matrix.setdefault(series.scenario, {})[series.engine] = series.median
        return matrix

    def winners(self, engines: Sequence[str] | None = None) -> dict[str, str]:
        """The measured-best engine per scenario (highest median, name-stable)."""
        return {
            scenario: max(entries, key=lambda engine: (entries[engine], engine))
            for scenario, entries in self.win_matrix(engines).items()
            if entries
        }

    def win_loss(self, engines: Sequence[str] | None = None) -> dict[str, dict[str, int]]:
        """Per engine: scenarios won and lost (only multi-engine scenarios count)."""
        tally: dict[str, dict[str, int]] = {}
        winners = self.winners(engines)
        for scenario, entries in self.win_matrix(engines).items():
            if len(entries) < 2:
                continue
            for engine in entries:
                counts = tally.setdefault(engine, {"wins": 0, "losses": 0})
                counts["wins" if winners[scenario] == engine else "losses"] += 1
        return tally

    def regressions(self, tolerance: float = DEFAULT_TOLERANCE) -> list[Regression]:
        """Series whose newest sample fell past tolerance of their best prior.

        Reuses :func:`repro.exp.perfguard.find_regressions` over synthetic
        current/baseline record pairs, so the trend report and the CI gate
        apply one definition of "regressed".
        """
        current: list[dict] = []
        baseline: list[dict] = []
        for series in self.series:
            if len(series.samples) < 2:
                continue
            record = {"scenario": series.scenario, "engine": series.engine}
            current.append({**record, "cycles_per_s": series.newest})
            baseline.append({**record, "cycles_per_s": max(series.samples[:-1])})
        return find_regressions(current, baseline, tolerance)

    def to_payload(self, tolerance: float = DEFAULT_TOLERANCE) -> dict:
        """The JSON-ready report (what ``perf report --format json`` prints)."""
        return {
            "sources": list(self.sources),
            "trend": self.rows(),
            "win_matrix": self.win_matrix(),
            "winners": self.winners(),
            "win_loss": self.win_loss(),
            "tolerance": tolerance,
            "regressions": [
                {
                    "scenario": regression.scenario,
                    "engine": regression.engine,
                    "baseline_cycles_per_s": regression.baseline_cycles_per_s,
                    "current_cycles_per_s": regression.current_cycles_per_s,
                    "ratio": regression.ratio,
                }
                for regression in self.regressions(tolerance)
            ],
            "skipped": list(self.skipped),
        }

    def format_text(self, tolerance: float = DEFAULT_TOLERANCE) -> str:
        """The human-readable report (what ``perf report`` prints)."""
        # Imported here: reporting is a leaf module but keeping telemetry's
        # import surface minimal avoids widening the analysis<->exp seam.
        from repro.analysis.reporting import format_table

        lines = [
            f"perf trend: {len(self.sources)} artefact(s), "
            f"{len(self.series)} (scenario, engine) series"
        ]
        if not self.series:
            lines.append("(no perf records found — nothing to report)")
        else:
            # Group the trend by mesh size: cycles/s at 4x4 and at 64x64 are
            # different regimes, so each size gets its own table.  Series
            # whose records predate the n_nodes field land in one unsized
            # table at the end.
            by_size: dict[int | None, list[dict]] = {}
            for series in self.series:
                by_size.setdefault(series.n_nodes, []).append(series.row())
            for n_nodes in sorted(by_size, key=lambda size: (size is None, size)):
                title = (
                    "Throughput trend (cycles/s)"
                    if n_nodes is None
                    else f"Throughput trend — {n_nodes} routers (cycles/s)"
                )
                lines.append("")
                lines.append(format_table(by_size[n_nodes], title=title))
            matrix = self.win_matrix()
            engines = sorted({engine for entries in matrix.values() for engine in entries})
            winners = self.winners()
            matrix_rows = [
                {
                    "scenario": scenario,
                    **{engine: entries.get(engine) for engine in engines},
                    "winner": winners.get(scenario, "-"),
                }
                for scenario, entries in sorted(matrix.items())
            ]
            lines.append("")
            lines.append(
                format_table(
                    matrix_rows, title="Engine win/loss matrix (median cycles/s)"
                )
            )
            lines.append("")
            lines.append(format_regressions(self.regressions(tolerance)))
        for note in self.skipped:
            lines.append(f"skipped: {note}")
        return "\n".join(lines)


def build_trend_report(
    results: str | Path | None = None, baselines: Sequence[str | Path] = ()
) -> TrendReport:
    """Ingest artefacts and build the :class:`TrendReport` in one step."""
    artifacts, skipped = ingest_artifacts(results, baselines)
    return TrendReport.from_artifacts(artifacts, skipped)


# ---------------------------------------------------------------------------
# data-driven engine selection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineDecision:
    """One resolved engine choice plus the measurement (or lack) behind it."""

    engine: str
    reason: str
    measured: bool = True

    def __iter__(self):
        # Unpacks as the (engine, reason) pair
        # :func:`repro.engines.resolve_engine_name` expects from a chooser.
        return iter((self.engine, self.reason))


class EnginePolicy:
    """Pick the measured-best registered engine per scenario from a report.

    Candidates are restricted to *runnable* engines (the
    :mod:`repro.engines` registry) — the hot-path bench's ``"naive"`` /
    ``"activity"`` variants appear in the report's matrix but are never
    chosen.  Every decision names the measurement that made it; with no
    matching telemetry the policy falls back to ``default`` and says so.
    Decisions are deterministic: medians are order-independent and ties
    break on the engine name.
    """

    def __init__(
        self,
        report: TrendReport,
        *,
        default: str = "cycle",
        engines: Sequence[str] | None = None,
    ) -> None:
        self.report = report
        self.default = default
        if engines is None:
            # Selectable *exact* engines only: an internal engine is never a
            # sensible auto choice, and an approximate engine must be an
            # explicit opt-in — its synthesized telemetry would silently
            # replace exact results, however fast it is.
            engines = tuple(
                info.name
                for info in engine_infos()
                if info.selectable and not info.approximate
            )
        self.engines = tuple(engines)

    @classmethod
    def from_results(
        cls,
        results: str | Path | None = None,
        baselines: Sequence[str | Path] = (),
        *,
        default: str = "cycle",
    ) -> "EnginePolicy":
        """Build a policy from stored artefacts (default: the repo's results)."""
        return cls(build_trend_report(results, baselines), default=default)

    def _fallback(self, what: str) -> EngineDecision:
        return EngineDecision(
            engine=self.default,
            reason=f"no telemetry for {what}; falling back to {self.default!r}",
            measured=False,
        )

    def _decide(self, series: Sequence[TrendSeries], what: str) -> EngineDecision:
        pooled: dict[str, list[float]] = {}
        for entry in series:
            if entry.engine in self.engines:
                pooled.setdefault(entry.engine, []).extend(entry.samples)
        if not pooled:
            return self._fallback(what)
        medians = {engine: _median(samples) for engine, samples in pooled.items()}
        winner = max(medians, key=lambda engine: (medians[engine], engine))
        count = len(pooled[winner])
        return EngineDecision(
            engine=winner,
            reason=(
                f"median {medians[winner]:,.0f} cycles/s over {count} sample(s) "
                f"for {what} beat {{{', '.join(sorted(set(medians) - {winner})) or 'no rival'}}}"
            ),
        )

    def choose(self, scenario: str) -> EngineDecision:
        """The measured-best engine for one scenario (flat or suite-namespaced)."""
        matching = [
            series
            for series in self.report.series
            if series.scenario == scenario
            or series.scenario.endswith(f"/{scenario}")
        ]
        return self._decide(matching, f"scenario {scenario!r}")

    def choose_for_suite(
        self, suite: str, fallback: Sequence[str] = ()
    ) -> EngineDecision:
        """The measured-best engine across one suite's recorded units.

        ``fallback`` names suites to try when ``suite`` itself has no
        telemetry — a ``-smoke`` variant falls back to its full suite's
        measurements before giving up.
        """
        for name in (suite, *fallback):
            matching = [
                series
                for series in self.report.series
                if series.scenario.startswith(f"{name}/")
            ]
            if matching:
                return self._decide(matching, f"suite {name!r}")
        return self._fallback(f"suite {suite!r}")

    def overall(self) -> EngineDecision:
        """The measured-best engine pooled over every recorded scenario."""
        return self._decide(self.report.series, "all recorded scenarios")
