#!/usr/bin/env python3
"""The repository's benchmark: four workloads, checked responses, named metrics.

Driver form (what ``BENCHMARK.json`` names), one workload in this process::

    python3 bench/run.py --workload device_warm --seed 0 --seconds 12 --trace 0

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The exit code is 1 when a response check or an operating-
point assertion failed.

Full form, every workload in its own child process, results in one file::

    python3 bench/run.py --seed 0 --out bench/out/a.json [--scale 0.1]

See ``bench/README.md``.
"""

from __future__ import annotations

import os
import sys
import time

STARTED_AT = time.perf_counter()
# One BLAS thread, set before NumPy loads: an unpinned BLAS spins the second
# core, doubles CPU per request and buys no wall time on this code.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"bench/run.py: no library at {ROOT / 'src' / 'repro'}; run from a full checkout")
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
UNITS = {m["name"]: m["unit"] for m in (*SPEC["end_to_end"], *SPEC["per_layer"])}
#: set-up is measured in this many fresh processes (this one included)
SETUP_RUNS = 3
#: untraced child runs per workload in the full form
RUNS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    if args.scale <= 0:
        parser.error("--scale must be > 0")
    # below full size it is a smoke run: short, one run, one set-up
    args.smoke = args.scale < 1.0
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(SPEC["run_seconds"])
    if args.workload is None and args.out is None:
        parser.error("give --workload (one workload) or --out (all of them)")
    return args


def contract_line(result: dict, trace: bool) -> str:
    """The driver's last line: exactly the metrics BENCHMARK.json lists."""
    if trace:
        metrics = {
            m["name"]: {"value": result["per_layer"][m["name"]], "unit": m["unit"]}
            for m in SPEC["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": result["end_to_end"][m["name"]]["value"], "unit": m["unit"]}
            for m in SPEC["end_to_end"]
        }
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def run_one(args: argparse.Namespace) -> int:
    from mcbench import runner

    if args.setup_only:
        print(runner.setup_only(args.workload, args.seed, args.scale, OUT_DIR, STARTED_AT))
        return 0
    result = runner.run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.scale,
        OUT_DIR,
        STARTED_AT,
        # the traced run reports no setup_s, so it skips the extra processes
        setup_probes=0 if args.trace or args.smoke else SETUP_RUNS - 1,
        script=Path(__file__).resolve(),
    )
    result["host"] = runner.host_metadata()
    result["git_commit"] = runner.git_commit(ROOT)
    result["command_wall_s"] = time.perf_counter() - STARTED_AT
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(runner.format_result(result, UNITS))
    print(contract_line(result, bool(args.trace)))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload: ``RUNS`` untraced children on seeds seed, seed+1, ...
    and one traced child on ``--seed``, each its own process."""
    from mcbench import runner

    runs = 1 if args.smoke else RUNS
    tmp_dir = OUT_DIR / "children"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    workloads = {}
    failed = False
    for name in WORKLOAD_NAMES:
        children = [(args.seed + k, 0) for k in range(runs)] + [(args.seed, 1)]
        results = []
        for seed, trace in children:
            child_out = tmp_dir / f"{name}-seed{seed}-trace{trace}-pid{os.getpid()}.json"
            done = subprocess.run(
                [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    "--workload",
                    name,
                    "--seed",
                    str(seed),
                    "--seconds",
                    str(args.seconds),
                    "--trace",
                    str(trace),
                    "--scale",
                    str(args.scale),
                    "--out",
                    str(child_out),
                ],
                capture_output=True,
                text=True,
                check=False,
            )
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            failed = failed or done.returncode != 0
            if child_out.is_file():
                results.append(json.loads(child_out.read_text(encoding="utf-8")))
                child_out.unlink()
        workloads[name] = {
            "runs": [r for r in results if r["per_layer"] is None],
            "traced": next((r for r in results if r["per_layer"] is not None), None),
        }
    report = {
        "benchmark": "meancache-bench",
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "runs": runs,
        "git_commit": runner.git_commit(ROOT),
        "host": runner.host_metadata(),
        "command_wall_s": time.perf_counter() - STARTED_AT,
        "workloads": workloads,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out} ({report['command_wall_s']:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_one(arguments) if arguments.workload else run_all(arguments))
