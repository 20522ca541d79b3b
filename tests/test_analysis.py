"""Tests for the repro.analysis static lint engine and its project rules.

Each rule gets fixture snippets (known-violation + known-clean) fed through
``AnalysisEngine.run_source``; suppression comments get behavioural
tests; and a meta-test asserts the live repo is violation-free — the same
gate CI runs via ``python -m repro.analysis src/repro``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import AnalysisEngine
from repro.analysis.__main__ import main

pytestmark = pytest.mark.concurrency

REPO_ROOT = Path(__file__).resolve().parents[1]
ENGINE = AnalysisEngine()


def run(source: str, rel: str = "repro/core/sample.py"):
    """Analyze a dedented snippet as if it lived at ``rel``."""
    return ENGINE.run_source(textwrap.dedent(source), rel=rel)


def rules_fired(source: str, rel: str = "repro/core/sample.py"):
    """The set of rule ids firing on the snippet."""
    return {finding.rule for finding in run(source, rel=rel)}


# --------------------------------------------------------------------------- #
# RPL001 concurrency contract
# --------------------------------------------------------------------------- #
class TestRPL001:
    def test_lock_creation_in_index_module_fires(self):
        snippet = """
        import threading

        class MyIndex:
            def __init__(self):
                self.lock = threading.Lock()
        """
        assert "RPL001" in rules_fired(snippet, rel="repro/index/myindex.py")

    def test_from_import_lock_in_index_module_fires(self):
        snippet = """
        from threading import RLock

        GUARD = RLock()
        """
        assert "RPL001" in rules_fired(snippet, rel="repro/index/myindex.py")

    def test_lock_creation_outside_index_is_fine(self):
        snippet = """
        import threading

        lock = threading.Lock()
        """
        assert "RPL001" not in rules_fired(snippet, rel="repro/serving/other.py")

    def test_unlocked_mutation_in_server_fires(self):
        snippet = """
        def flush(shard, events):
            return shard.executor.execute(events)
        """
        assert "RPL001" in rules_fired(snippet, rel="repro/serving/server.py")

    def test_mutation_under_shard_lock_is_fine(self):
        snippet = """
        def flush(shard, events):
            with shard.lock:
                return shard.executor.execute(events)
        """
        assert "RPL001" not in rules_fired(snippet, rel="repro/serving/server.py")

    def test_non_cache_receiver_is_fine(self):
        # asyncio.Event.clear() shares a name with index.clear() but is not
        # a cache-ish receiver.
        snippet = """
        def reset(self):
            self._arrival.clear()
        """
        assert "RPL001" not in rules_fired(snippet, rel="repro/serving/server.py")


# --------------------------------------------------------------------------- #
# RPL002 determinism
# --------------------------------------------------------------------------- #
class TestRPL002:
    def test_time_time_fires(self):
        snippet = """
        import time

        def stamp():
            return time.time()
        """
        assert "RPL002" in rules_fired(snippet)

    def test_from_imported_time_fires(self):
        snippet = """
        from time import time

        def stamp():
            return time()
        """
        assert "RPL002" in rules_fired(snippet)

    def test_perf_counter_is_fine(self):
        # Duration measurement is not a determinism input.
        snippet = """
        import time

        def measure():
            start = time.perf_counter()
            return time.perf_counter() - start, time.monotonic()
        """
        assert "RPL002" not in rules_fired(snippet)

    def test_clock_default_reference_is_fine(self):
        # Referencing time.time as an injectable default is the sanctioned
        # pattern; only *calls* are flagged.
        snippet = """
        import time

        def __init__(self, clock=time.time):
            self.clock = clock
        """
        assert "RPL002" not in rules_fired(snippet)

    def test_wall_clock_messages_point_at_duration_clocks(self):
        snippet = """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
        """
        messages = [f.message for f in run(snippet) if f.rule == "RPL002"]
        assert len(messages) == 2
        for message in messages:
            assert "perf_counter/monotonic" in message
            assert "repro.core.clock" not in message

    def test_datetime_now_fires(self):
        snippet = """
        from datetime import datetime

        def stamp():
            return datetime.now()
        """
        assert "RPL002" in rules_fired(snippet)

    def test_unseeded_default_rng_fires_seeded_is_fine(self):
        bad = """
        import numpy as np

        def draw():
            return np.random.default_rng().normal()
        """
        good = """
        import numpy as np

        def draw(seed):
            return np.random.default_rng(seed).normal()
        """
        assert "RPL002" in rules_fired(bad)
        assert "RPL002" not in rules_fired(good)

    def test_global_numpy_rng_fires(self):
        snippet = """
        import numpy as np

        def draw():
            return np.random.rand(3)
        """
        assert "RPL002" in rules_fired(snippet)

    def test_stdlib_random_fires(self):
        snippet = """
        import random

        def draw():
            return random.random()
        """
        assert "RPL002" in rules_fired(snippet)


# --------------------------------------------------------------------------- #
# RPL003 hot-path allocation
# --------------------------------------------------------------------------- #
class TestRPL003:
    def test_allocator_in_search_fires(self):
        snippet = """
        import numpy as np

        def search(chunks):
            return np.concatenate(chunks)
        """
        assert "RPL003" in rules_fired(snippet, rel="repro/index/myindex.py")

    def test_allocator_reachable_via_helper_fires(self):
        snippet = """
        import numpy as np

        def _merge(chunks):
            return np.vstack(chunks)

        def lookup_batch(chunks):
            return _merge(chunks)
        """
        assert "RPL003" in rules_fired(snippet, rel="repro/index/myindex.py")

    def test_allocator_off_hot_path_is_fine(self):
        snippet = """
        import numpy as np

        def save(chunks):
            return np.vstack(chunks)
        """
        assert "RPL003" not in rules_fired(snippet, rel="repro/index/myindex.py")

    def test_out_of_scope_module_is_fine(self):
        snippet = """
        import numpy as np

        def search(chunks):
            return np.concatenate(chunks)
        """
        assert "RPL003" not in rules_fired(snippet, rel="repro/metrics/report.py")


# --------------------------------------------------------------------------- #
# RPL004 snapshot I/O discipline
# --------------------------------------------------------------------------- #
class TestRPL004:
    def test_bare_write_in_persistence_code_fires(self):
        snippet = """
        def save(path, payload):
            with open(path, "w") as f:
                f.write(payload)
        """
        assert "RPL004" in rules_fired(snippet, rel="repro/core/mystore.py")

    def test_np_save_fires(self):
        snippet = """
        import numpy as np

        def save(path, arr):
            np.save(path, arr)
        """
        assert "RPL004" in rules_fired(snippet, rel="repro/index/mysnap.py")

    def test_write_inside_atomic_stage_is_fine(self):
        snippet = """
        from repro.index.snapshot import atomic_snapshot_dir

        def save(path, payload):
            with atomic_snapshot_dir(path) as stage:
                with open(stage / "data.json", "w") as f:
                    f.write(payload)
        """
        assert "RPL004" not in rules_fired(snippet, rel="repro/core/mystore.py")

    def test_read_mode_is_fine(self):
        snippet = """
        def load(path):
            with open(path, "r") as f:
                return f.read()
        """
        assert "RPL004" not in rules_fired(snippet, rel="repro/core/mystore.py")

    def test_out_of_scope_module_is_fine(self):
        snippet = """
        def save(path, payload):
            with open(path, "w") as f:
                f.write(payload)
        """
        assert "RPL004" not in rules_fired(snippet, rel="repro/metrics/report.py")

    def test_server_checkpoint_code_is_in_scope(self):
        snippet = """
        def checkpoint(p, payload):
            with open(p, "w") as f:
                f.write(payload)
        """
        assert "RPL004" in rules_fired(snippet, rel="repro/serving/server.py")
        real = REPO_ROOT / "src" / "repro" / "serving" / "server.py"
        assert "RPL004" not in rules_fired(real.read_text(), rel="repro/serving/server.py")

    @pytest.mark.parametrize("mode", ["a", "ab", "r+b"])
    def test_in_place_write_outside_the_delta_log_fires(self, mode):
        snippet = f"""
        def log_event(path, line):
            with open(path, "{mode}") as f:
                f.write(line)
        """
        assert "RPL004" in rules_fired(snippet, rel="repro/core/mystore.py")
        # ... and in snapshot.py itself, outside the log's writer and repairer.
        assert "RPL004" in rules_fired(snippet, rel="repro/index/snapshot.py")

    @pytest.mark.parametrize(
        "function, mode", [("append_delta", "ab"), ("_delta_lines", "r+b")]
    )
    def test_the_delta_log_writer_and_repairer_may_write_in_place(self, function, mode):
        snippet = f"""
        def {function}(path, line):
            with open(path, "{mode}") as f:
                f.write(line)
        """
        assert "RPL004" not in rules_fired(snippet, rel="repro/index/snapshot.py")
        # The allowlist is snapshot.py's, not the name's.
        assert "RPL004" in rules_fired(snippet, rel="repro/core/mystore.py")

    def test_the_fold_may_write_its_temp_file_beside_the_log(self):
        snippet = """
        import os
        import tempfile

        def replace_delta_log(path, data):
            fd, temp = tempfile.mkstemp(dir=path)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(temp, path / "deltas.jsonl")
        """
        assert "RPL004" not in rules_fired(snippet, rel="repro/index/snapshot.py")
        # The allowlist is snapshot.py's, not the name's ...
        assert "RPL004" in rules_fired(snippet, rel="repro/core/tiered.py")
        # ... and the function's: inline in another function it fires.
        renamed = snippet.replace("def replace_delta_log", "def fold_in_place")
        assert "RPL004" in rules_fired(renamed, rel="repro/index/snapshot.py")

    def test_append_delta_may_no_longer_create_files(self):
        snippet = """
        import numpy as np

        def append_delta(path, rows):
            np.save(path / "delta.npy", rows)
            with open(path / "delta.bin", "wb") as f:
                f.write(rows.tobytes())
        """
        findings = [
            f for f in run(snippet, rel="repro/index/snapshot.py") if f.rule == "RPL004"
        ]
        assert len(findings) == 2

    @pytest.mark.parametrize(
        "call",
        [
            'os.fdopen(fd, "wb")',
            'os.fdopen(fd, mode="w", encoding="utf-8")',
            'os.fdopen(fd, "ab")',
            'path.open("w")',
            'path.open(mode="xb")',
            'path.open("r+")',
        ],
    )
    def test_fdopen_and_pathlib_open_writes_fire(self, call):
        snippet = f"""
        import os

        def save(path, fd, payload):
            with {call} as f:
                f.write(payload)
        """
        assert "RPL004" in rules_fired(snippet, rel="repro/core/mystore.py")

    @pytest.mark.parametrize(
        "call",
        ['os.fdopen(fd, "rb")', "os.fdopen(fd)", 'path.open("r")', "path.open()"],
    )
    def test_fdopen_and_pathlib_open_reads_are_fine(self, call):
        snippet = f"""
        import os

        def load(path, fd):
            with {call} as f:
                return f.read()
        """
        assert "RPL004" not in rules_fired(snippet, rel="repro/core/mystore.py")


# --------------------------------------------------------------------------- #
# RPL005 public-API hygiene
# --------------------------------------------------------------------------- #
class TestRPL005:
    def test_missing_docstring_fires(self):
        snippet = """
        def exported(x: int) -> int:
            return x
        """
        assert "RPL005" in rules_fired(snippet)

    def test_missing_annotations_fire(self):
        snippet = """
        def exported(x):
            \"\"\"Documented but untyped.\"\"\"
            return x
        """
        findings = run(snippet)
        messages = [f.message for f in findings if f.rule == "RPL005"]
        assert any("parameter annotations" in m for m in messages)
        assert any("return annotation" in m for m in messages)

    def test_clean_function_passes(self):
        snippet = """
        def exported(x: int) -> int:
            \"\"\"Documented and typed.\"\"\"
            return x
        """
        assert "RPL005" not in rules_fired(snippet)

    def test_private_symbols_exempt(self):
        snippet = """
        def _helper(x):
            return x

        class _Private:
            def method(self, x):
                return x
        """
        assert "RPL005" not in rules_fired(snippet)

    def test_public_method_needs_docstring_not_annotations(self):
        snippet = """
        class Exported:
            \"\"\"Documented.\"\"\"

            def method(self, x):
                return x
        """
        findings = [f for f in run(snippet) if f.rule == "RPL005"]
        assert len(findings) == 1
        assert "docstring" in findings[0].message


# --------------------------------------------------------------------------- #
# Suppressions
# --------------------------------------------------------------------------- #
class TestSuppression:
    def test_same_line_suppression(self):
        snippet = """
        import time

        def stamp():
            return time.time()  # repro: ignore[RPL002]
        """
        assert "RPL002" not in rules_fired(snippet)

    def test_comment_line_above_suppression(self):
        snippet = """
        import time

        def stamp():
            # wall-time needed here; reviewed  # repro: ignore[RPL002]
            return time.time()
        """
        assert "RPL002" not in rules_fired(snippet)

    def test_wrong_rule_id_does_not_suppress(self):
        snippet = """
        import time

        def stamp():
            return time.time()  # repro: ignore[RPL004]
        """
        assert "RPL002" in rules_fired(snippet)

    def test_bare_ignore_suppresses_all_rules(self):
        snippet = """
        import time

        def stamp() -> float:
            \"\"\"Documented, so only the RPL002 line needs suppressing.\"\"\"
            return time.time()  # repro: ignore
        """
        assert rules_fired(snippet) == set()


# --------------------------------------------------------------------------- #
# Engine plumbing + live-repo meta-test
# --------------------------------------------------------------------------- #
class TestEngine:
    def test_duplicate_rule_ids_rejected(self):
        rule = AnalysisEngine().rules[0]
        with pytest.raises(ValueError):
            AnalysisEngine(rules=[rule, rule])

    def test_unparsable_file_reports_rpl000(self, tmp_path):
        bad = tmp_path / "repro" / "broken.py"
        bad.parent.mkdir()
        bad.write_text("def broken(:\n", encoding="utf-8")
        report = AnalysisEngine().run_paths([tmp_path])
        assert [f.rule for f in report.findings] == ["RPL000"]

    def test_json_report_shape(self):
        report = AnalysisEngine().run_paths([])
        data = json.loads(report.to_json())
        assert data["ok"] is True
        assert data["findings"] == []

    def test_live_repo_has_no_findings(self):
        """The repo gate: the live tree has no unsuppressed finding."""
        report = AnalysisEngine().run_paths([REPO_ROOT / "src" / "repro"])
        assert report.ok, "findings:\n" + report.to_text()


# --------------------------------------------------------------------------- #
# The command line (what CI's static-analysis job runs)
# --------------------------------------------------------------------------- #
_CLEAN = (
    '"""A documented module."""\n\n\n'
    'def answer() -> int:\n    """The answer."""\n    return 42\n'
)
_WALL_CLOCK = (
    '"""A module that reads the wall clock."""\n\nimport time\n\n\n'
    'def stamp() -> float:\n    """Now."""\n    return time.time()\n'
)


def _package(tmp_path, source: str, suppress: bool = False) -> Path:
    """A one-module ``repro/core`` tree under ``tmp_path``."""
    module = tmp_path / "repro" / "core" / "sample.py"
    module.parent.mkdir(parents=True)
    if suppress:
        source = source.replace("time.time()", "time.time()  # repro: ignore[RPL002]")
    module.write_text(source, encoding="utf-8")
    return tmp_path / "repro"


class TestCommandLine:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        assert main([str(_package(tmp_path, _CLEAN))]) == 0
        assert capsys.readouterr().out.startswith("0 finding(s) in 1 file(s)")

    def test_any_finding_exits_one_and_is_printed(self, tmp_path, capsys):
        assert main([str(_package(tmp_path, _WALL_CLOCK))]) == 1
        out = capsys.readouterr().out
        assert "repro/core/sample.py:8:11: RPL002" in out
        assert "1 finding(s) in 1 file(s) (0 suppressed)" in out

    def test_suppressed_finding_is_counted_not_reported(self, tmp_path, capsys):
        assert main([str(_package(tmp_path, _WALL_CLOCK, suppress=True))]) == 0
        assert "0 finding(s) in 1 file(s) (1 suppressed)" in capsys.readouterr().out

    def test_json_report_lists_each_finding(self, tmp_path, capsys):
        assert main([str(_package(tmp_path, _WALL_CLOCK)), "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["files"] == 1
        assert [(f["rule"], f["path"], f["line"]) for f in data["findings"]] == [
            ("RPL002", "repro/core/sample.py", 8)
        ]
