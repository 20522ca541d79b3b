"""The generic linters, run by the suite wherever they are installed.

``ruff`` and ``mypy`` are the ``lint`` extra of ``pyproject.toml`` and are not
part of every environment that runs tier-1 (the offline build container has
neither and cannot fetch them).  Rather than each change reporting lint as
"unverified" by hand, the suite states it once: with the tool importable the
check runs exactly as CI's static-analysis job runs it and fails on findings;
without it the test is skipped and the skip reason names the missing tool
(``pytest -rs`` prints it).
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_tool(module: str, *args: str) -> None:
    if importlib.util.find_spec(module) is None:
        pytest.skip(
            f"{module} is not installed here (pip install -e '.[lint]'): "
            f"`{' '.join((module,) + args)}` is unverified in this environment"
        )
    done = subprocess.run(
        [sys.executable, "-m", module, *args], cwd=ROOT, capture_output=True, text=True
    )
    assert done.returncode == 0, f"{module} reported findings:\n{done.stdout}{done.stderr}"


def test_ruff_check():
    run_tool("ruff", "check", "src/repro", "tests")


def test_mypy():
    run_tool("mypy")  # files and strictness come from [tool.mypy] in pyproject.toml
