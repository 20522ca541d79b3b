"""CLI for the project lint engine.

Usage::

    python -m repro.analysis src/repro              # text report, exit 1 on any finding
    python -m repro.analysis src/repro --json       # machine-readable report
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis.engine import AnalysisEngine


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the engine over the given paths; return the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-specific static analysis (rules RPL001..RPL005).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    args = parser.parse_args(argv)

    report = AnalysisEngine().run_paths(args.paths)
    print(report.to_json() if args.json else report.to_text())
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
