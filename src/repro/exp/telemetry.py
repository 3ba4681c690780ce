"""Live perf telemetry: the streamed CSV/JSONL tap and its field registry.

:class:`TelemetrySink` streams live telemetry rows — per-epoch rows from
:func:`repro.exp.scenarios.run_scenario` (in-process callers only),
per-subtrial and per-unit (``source == "perf"``) rows from
:func:`repro.exp.suites.run_suite`, which is what every CLI ``--telemetry``
tap carries — as CSV or JSONL to a file path or an open handle (the
``viz/stream_csv.py`` idiom from the rotorsim exemplar), and
:func:`read_telemetry` reads a tap back.
Wall-clock-derived and scheduling-derived fields are flagged in
:data:`WALL_CLOCK_FIELDS` / :data:`NONDETERMINISTIC_FIELDS` so downstream
diffing can stay deterministic.

The taps are observability only.  Speed is measured by the perf ledger
(``benchmarks/ledger/``), never from these rows.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Mapping, Sequence

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
#: injection while the simulated outcome stays bit-identical.  Parity
#: checks must ignore these alongside the wall-clock fields — this union
#: is what ``diff_payloads`` (``repro-noc suite diff``) skips, which is
#: exactly what lets CI assert that a chaos-ridden run equals a clean one.
SCHEDULING_FIELDS = frozenset({"attempts", "retries"})

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
)

#: Telemetry ``source`` values: live per-epoch scenario rows, per-subtrial
#: suite rows and per-unit perf records.
TELEMETRY_SOURCES = ("epoch", "subtrial", "perf")


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
