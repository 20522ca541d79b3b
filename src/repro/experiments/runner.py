"""Run every experiment and emit a combined report.

``python -m repro.experiments.runner [--scale quick|paper] [--output FILE]``
regenerates every table and figure of the paper and writes a plain-text
report (the content backing ``EXPERIMENTS.md``).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.experiments.common import cached_system_bundle, resolve_scale
from repro.experiments.contextual import run_contextual
from repro.experiments.fig04_userstudy import run_fig04
from repro.experiments.fig05_latency import run_fig05
from repro.experiments.fig10_compression import run_fig10
from repro.experiments.fig11_12_fl_training import run_fig11_12
from repro.experiments.fig13_14_threshold import run_fig13_14
from repro.experiments.fig15_model_cost import run_fig15
from repro.experiments.fig16_llama_threshold import run_fig16
from repro.experiments.fleet_bench import run_drift_adaptation_bench, run_fleet_bench
from repro.experiments.index_bench import run_backend_sweep, run_latency_bench
from repro.experiments.table1 import run_table1


@dataclass
class FullReport:
    """Formatted text of every experiment, keyed by artefact name."""

    scale_name: str
    sections: Dict[str, str] = field(default_factory=dict)
    elapsed_s: float = 0.0

    def format(self) -> str:
        """Concatenate all sections."""
        header = (
            f"MeanCache reproduction — full experiment report (scale={self.scale_name}, "
            f"elapsed {self.elapsed_s:.1f}s)\n" + "=" * 78
        )
        parts = [header]
        for name, text in self.sections.items():
            parts.append("")
            parts.append(f"## {name}")
            parts.append(text)
        return "\n".join(parts)


def run_all(scale: "str | None" = None, seed: int = 0) -> FullReport:
    """Run every experiment at the given scale and collect formatted output."""
    resolved = resolve_scale(scale)
    start = time.perf_counter()
    bundle = cached_system_bundle(resolved, seed=seed, train_albert=True)
    report = FullReport(scale_name=resolved.name)

    report.sections["Table I (standalone) + Figure 7"] = run_table1(
        resolved.name, seed=seed, bundle=bundle
    ).format()
    report.sections["Table I (contextual) + Figures 8-9"] = run_contextual(
        resolved.name, seed=seed, bundle=bundle
    ).format()
    report.sections["Figure 4 (user study)"] = run_fig04().format()
    report.sections["Figures 5-6 (response times & decisions)"] = run_fig05(
        resolved.name, seed=seed, bundle=bundle
    ).format()
    report.sections["Figure 10 (compression)"] = run_fig10(
        resolved.name, seed=seed, bundle=bundle
    ).format()
    report.sections["Figures 11-12 (FL training curves)"] = run_fig11_12(
        resolved.name, seed=seed, bundle=bundle
    ).format()
    report.sections["Figures 13-14 (threshold sweeps)"] = run_fig13_14(
        resolved.name, seed=seed, bundle=bundle
    ).format()
    report.sections["Figure 15 (embedding cost)"] = run_fig15(
        n_queries=50 if resolved.name == "quick" else 200
    ).format()
    report.sections["Figure 16 (Llama-2 threshold sweep)"] = run_fig16(
        resolved.name, seed=seed, bundle=bundle
    ).format()
    report.sections["ANN backend sweep (recall vs throughput vs memory)"] = run_backend_sweep(
        sizes=(2_000, 10_000) if resolved.name == "quick" else (10_000, 100_000),
        seed=seed,
    ).format()
    report.sections["Single-query latency (per backend, vs flat)"] = run_latency_bench(
        sizes=(10_000,) if resolved.name == "quick" else (100_000, 1_000_000),
        n_queries=30 if resolved.name == "quick" else 100,
        seed=seed,
    ).format()
    report.sections["Fleet serving benchmark (multi-user throughput)"] = run_fleet_bench(
        user_counts=(20, 100) if resolved.name == "quick" else (100, 1000),
        queries_per_user=5 if resolved.name == "quick" else 10,
        seed=seed,
    ).format()
    report.sections["Online federated τ adaptation (drifting fleet)"] = (
        run_drift_adaptation_bench(
            n_users=10 if resolved.name == "quick" else 30,
            queries_per_user=60 if resolved.name == "quick" else 150,
            seed=seed,
        ).format()
    )
    report.elapsed_s = time.perf_counter() - start
    return report


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="Regenerate every MeanCache paper artefact.")
    parser.add_argument("--scale", choices=["quick", "paper"], default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=str, default=None, help="write the report to a file")
    args = parser.parse_args(argv)
    report = run_all(scale=args.scale, seed=args.seed)
    text = report.format()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
