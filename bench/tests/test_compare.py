import json
import subprocess
import sys
from pathlib import Path

import compare

BENCH_DIR = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(scale=1.0, **overrides):
    """A result file in which every metric reads 100 +- 0.01 on three runs."""
    runs = []
    for offset in (-0.01, 0.0, 0.01):
        end_to_end = {
            m["name"]: {"min": 99.0, "value": 100.0 + offset, "max": 101.0}
            for m in SPEC["end_to_end"]
        }
        for name, value in overrides.items():
            end_to_end[name] = {"min": value, "value": value + offset, "max": value}
        runs.append({"end_to_end": end_to_end})
    return {
        "scale": scale,
        "seed": 0,
        "seconds": 12,
        "runs": len(runs),
        "git_commit": "0" * 40,
        "workloads": {w["name"]: {"runs": runs, "traced": None} for w in SPEC["workloads"]},
    }


def verdicts(a, b):
    lines, counts = compare.compare(a, b, SPEC)
    return lines, counts


def test_identical_files_are_ok():
    _, counts = verdicts(report(), report())
    cells = len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    assert counts == {"ok": cells, "worse": 0, "unresolved": 0}


def test_direction_and_bound_decide_worse():
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    slower = report(throughput_rps=100.0 * (1 - bound["throughput_rps"]) - 2.0)
    _, counts = verdicts(report(), slower)
    assert counts["worse"] == len(SPEC["workloads"])
    faster = report(throughput_rps=150.0)
    _, counts = verdicts(report(), faster)
    assert counts["worse"] == 0
    higher_latency = report(latency_p50_ms=100.0 * (1 + bound["latency_p50_ms"]) + 2.0)
    _, counts = verdicts(report(), higher_latency)
    assert counts["worse"] == len(SPEC["workloads"])


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    same, better = [99, 100, 101], [50, 60, 70]
    assert compare.verdict([100, 100, 100], same, 0.0, 0.5, "lower", 0.1)[0] == "unresolved"
    assert compare.verdict([100, 101, 102], better, 0.0, 0.5, "lower", 0.1)[0] == "ok"
    assert compare.verdict([100, 101, 102], better, 0.0, 0.5, "higher", 0.1)[0] == "worse"


def test_cli_exit_codes(tmp_path):
    def write(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        return str(path)

    base = write("a.json", report())
    same = write("b.json", report())
    worse = write("c.json", report(latency_p95_ms=500.0))
    smoke = write("d.json", report(scale=0.1))
    script = [sys.executable, str(BENCH_DIR / "compare.py")]
    assert subprocess.run(script + [base, same], capture_output=True).returncode == 0
    assert subprocess.run(script + [base, worse], capture_output=True).returncode == 1
    assert subprocess.run(script + [base, smoke], capture_output=True).returncode == 2
