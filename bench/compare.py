#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py a.json b.json

For every workload and end-to-end metric it prints both medians over the
files' runs, the ratio b/a (base: a), each side's quartile spread, and a
verdict against the bound stored in ``BENCHMARK.json``:

``worse``       b's median is worse than a's by more than the bound
``unresolved``  not worse, but a side's run-to-run spread is wider than the
                bound, and not every run of b reads better than every run of a
``ok``          otherwise

Exit code 1 on any ``worse``, 2 when the files cannot be compared (different
scale, seed, run length or run count, or a workload missing).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from mcbench.stats import quartile_spread  # noqa: E402


def metric_values(report: dict, workload: str, metric: str) -> List[float]:
    return [run["end_to_end"][metric]["value"] for run in report["workloads"][workload]["runs"]]


def repeat_spread(report: dict, workload: str, metric: str) -> float:
    """Spread of a side: across runs, or across one run's repeats."""
    values = metric_values(report, workload, metric)
    if len(values) >= 2:
        return quartile_spread(values)
    stats = report["workloads"][workload]["runs"][0]["end_to_end"][metric]
    return (stats["max"] - stats["min"]) / stats["value"] if stats["value"] else 0.0


def verdict(
    a: List[float], b: List[float], spread_a: float, spread_b: float, better: str, bound: float
) -> Tuple[str, float]:
    """``(verdict, ratio b/a)`` for one workload x metric cell."""
    median_a, median_b = statistics.median(a), statistics.median(b)
    ratio = median_b / median_a if median_a else float("inf")
    if better == "lower":
        worse = median_b > median_a * (1.0 + bound)
        all_better = max(b) < min(a)
    else:
        worse = median_b < median_a * (1.0 - bound)
        all_better = min(b) > max(a)
    if worse:
        return "worse", ratio
    if max(spread_a, spread_b) > bound and not all_better:
        return "unresolved", ratio
    return "ok", ratio


def compare(a: dict, b: dict, spec: dict) -> Tuple[List[str], Dict[str, int]]:
    lines = [
        f"{'workload':<16}{'metric':<18}{'a median':>13}{'b median':>13}{'b/a':>8}"
        f"{'spread a':>10}{'spread b':>10}{'bound':>7}  verdict"
    ]
    counts = {"ok": 0, "worse": 0, "unresolved": 0}
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = metric_values(a, workload, name)
            values_b = metric_values(b, workload, name)
            spread_a = repeat_spread(a, workload, name)
            spread_b = repeat_spread(b, workload, name)
            result, ratio = verdict(
                values_a, values_b, spread_a, spread_b, metric["better"], metric["bound"]
            )
            counts[result] += 1
            lines.append(
                f"{workload:<16}{name:<18}{statistics.median(values_a):>13.6g}"
                f"{statistics.median(values_b):>13.6g}{ratio:>8.3f}"
                f"{spread_a:>10.3f}{spread_b:>10.3f}{metric['bound']:>7.3f}  {result}"
            )
    return lines, counts


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key in ("scale", "seed", "seconds", "runs"):
        if a[key] != b[key]:
            print(f"cannot compare: {key} differs ({a[key]} vs {b[key]})", file=sys.stderr)
            return 2
    for report in (a, b):
        for workload in (w["name"] for w in spec["workloads"]):
            if not report["workloads"].get(workload, {}).get("runs"):
                print(f"cannot compare: no runs of {workload} in a file", file=sys.stderr)
                return 2
    lines, counts = compare(a, b, spec)
    print("\n".join(lines))
    print(
        f"a = {argv[0]} ({a['git_commit'][:12]}), b = {argv[1]} ({b['git_commit'][:12]}); "
        f"ok {counts['ok']}, unresolved {counts['unresolved']}, worse {counts['worse']}"
    )
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
