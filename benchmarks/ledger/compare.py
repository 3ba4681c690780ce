"""``run.py --compare A/ B/``: two ledger runs, metric by metric.

For every workload and end-to-end metric it prints both medians and
quartiles, how much worse B's median is as a share of A's, and the metric's
bound from ``BENCHMARK.json``.  A difference beyond the bound is a *breach*
(exit 1) — unless the run-to-run spread (distance between quartiles over the
median, of either side) is itself wider than the bound, in which case the
pair is *unresolved*: not shown to differ, not shown to agree.  The exact
checks have no tolerance: ``parity_mismatches`` must be 0 on both sides,
``approx_rel_err`` must be identical, and the share of failed operations may
not grow.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: A set-up difference under this many seconds is never a breach: at ~0.5 s
#: one page-cache miss is worth more than the relative bound.
SETUP_FLOOR_S = 0.05


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(median, q1, q3); a single sample has no spread."""
    if len(samples) < 2:
        return samples[0], samples[0], samples[0]
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return median, q1, q3


def _failed_share(entry: dict) -> float:
    return entry["ops_failed"] / entry["ops_total"] if entry["ops_total"] else 0.0


def main(a_dir: Path, b_dir: Path, bench: dict) -> int:
    a, b = (
        json.loads((directory / "results.json").read_text(encoding="utf-8"))
        for directory in (a_dir, b_dir)
    )
    breaches = 0
    print(f"{'workload':16s} {'metric':18s} {'A median [q1,q3]':>34s} {'B median [q1,q3]':>34s} {'worse':>8s} {'bound':>6s} status")
    for name in a["workloads"]:
        side_a, side_b = a["workloads"][name], b["workloads"].get(name)
        if side_b is None or "end_to_end" not in side_a or "end_to_end" not in side_b:
            print(f"{name:16s} missing on one side")
            breaches += 1
            continue
        for metric in bench["end_to_end"]:
            samples_a = side_a["end_to_end"][metric["name"]]
            samples_b = side_b["end_to_end"][metric["name"]]
            med_a, q1_a, q3_a = quartiles(samples_a)
            med_b, q1_b, q3_b = quartiles(samples_b)
            lower_is_better = metric["better"] == "lower"
            worse = (med_b - med_a) / med_a if lower_is_better else (med_a - med_b) / med_a
            spread = max((q3_a - q1_a) / med_a, (q3_b - q1_b) / med_b)
            b_wins_every_pair = (
                max(samples_b) < min(samples_a) if lower_is_better else min(samples_b) > max(samples_a)
            )
            if spread > metric["bound"] and not b_wins_every_pair:
                status = "unresolved"
            elif worse > metric["bound"] and not (
                metric["name"] == "setup_s" and abs(med_b - med_a) < SETUP_FLOOR_S
            ):
                status = "BREACH"
                breaches += 1
            else:
                status = "ok"
            print(
                f"{name:16s} {metric['name']:18s} "
                f"{med_a:12.4f} [{q1_a:9.4f},{q3_a:9.4f}] "
                f"{med_b:12.4f} [{q1_b:9.4f},{q3_b:9.4f}] "
                f"{worse:+8.3f} {metric['bound']:6.2f} {status}"
            )
        exact = [
            ("parity_mismatches", side_a["parity_mismatches"] == 0 == side_b["parity_mismatches"]),
            ("approx_rel_err", side_a.get("approx_rel_err") == side_b.get("approx_rel_err")),
            ("ops_failed share", _failed_share(side_b) <= _failed_share(side_a)),
        ]
        for label, holds in exact:
            if not holds:
                print(f"{name:16s} {label}: BREACH")
                breaches += 1
    if _failed_share(b["health"]) > _failed_share(a["health"]):
        print("health           ops_failed share: BREACH")
        breaches += 1
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0
