"""The reusable AST lint engine under the project rules.

The engine is deliberately small and dependency-free: a rule is an object
with an ``id`` and a ``check(ctx)`` generator over :class:`Finding`s, a
module is parsed once into a :class:`ModuleContext` shared by every rule,
and three orthogonal mechanisms decide what a run reports:

* **suppressions** — a ``# repro: ignore[RPL002]`` comment on the finding's
  line (or on a comment-only line directly above it) silences that rule
  there; ``# repro: ignore`` with no bracket silences every rule on the
  line.  Suppressions are for *individually reviewed* exceptions and should
  carry a justification in the surrounding comment (see
  ``docs/analysis.md``).
* **baseline** — a committed JSON file of fingerprinted pre-existing
  findings (:class:`Baseline`).  A finding whose ``(rule, path, message)``
  fingerprint appears in the baseline is reported as *baselined*, not new,
  so the CI gate fails only on regressions.  Fingerprints carry no line
  numbers: moving code around does not invalidate the baseline, changing
  the offending construct does.
* **reporters** — :meth:`Report.to_text` for humans, :meth:`Report.to_json`
  for tooling.

``AnalysisEngine.run_source`` exists so the test suite can feed the rules
known-violation / known-clean snippets without touching the filesystem.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Name of the committed baseline file, discovered by walking up from the
#: scanned paths (and shipped inside the package for `-m repro.analysis`).
BASELINE_NAME = "baseline.json"

_IGNORE_RE = re.compile(r"#\s*repro:\s*ignore(?:\[([A-Za-z0-9_,\s-]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a concrete source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Line-independent identity used for baseline matching."""
        return (self.rule, self.path, self.message)

    def format(self) -> str:
        """``path:line:col: RULE message`` — the text-reporter line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


class ModuleContext:
    """One parsed module shared by every rule: source, AST, parent links."""

    def __init__(self, path: str, source: str, rel: Optional[str] = None) -> None:
        self.path = path
        #: package-relative posix path (e.g. ``repro/core/cache.py``) — the
        #: thing rules scope on, and the path recorded in findings so
        #: baselines survive checkouts at different absolute locations.
        self.rel = rel if rel is not None else _package_rel(path)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The node's syntactic parent (None for the module node)."""
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The node's ancestors, innermost first."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The innermost enclosing (async) function definition, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a :class:`Finding` anchored at ``node``."""
        return Finding(
            rule=rule,
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def suppressed(self, finding: Finding) -> bool:
        """Whether an ignore comment covers the finding's line.

        Matches ``# repro: ignore[RPL00x]`` (one or more comma-separated
        rule ids) on the finding's own line, or on a comment-only line
        directly above it (for lines too long to carry the comment).
        """
        for lineno in (finding.line, finding.line - 1):
            if not 1 <= lineno <= len(self.lines):
                continue
            text = self.lines[lineno - 1]
            if lineno != finding.line and not text.lstrip().startswith("#"):
                continue
            match = _IGNORE_RE.search(text)
            if match is None:
                continue
            if match.group(1) is None:
                return True
            rules = {part.strip() for part in match.group(1).split(",")}
            if finding.rule in rules:
                return True
        return False


class Rule:
    """Base class for project rules: an id, a summary, a check generator."""

    id: str = "RPL000"
    name: str = "base-rule"
    description: str = ""

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Yield findings for one module (called once per analyzed file)."""
        raise NotImplementedError


class Baseline:
    """A committed set of fingerprinted pre-existing findings.

    Stored as JSON: ``{"version": 1, "findings": [{"rule", "path",
    "message", "count"}, ...]}``.  ``count`` allows the same fingerprint to
    occur more than once in a file (e.g. two unannotated overloads with an
    identical message); occurrences beyond the baselined count are new.
    """

    def __init__(self, counts: Optional[Dict[Tuple[str, str, str], int]] = None) -> None:
        self.counts: Dict[Tuple[str, str, str], int] = dict(counts or {})

    @classmethod
    def load(cls, path: "str | Path") -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        path = Path(path)
        if not path.is_file():
            return cls()
        data = json.loads(path.read_text(encoding="utf-8"))
        counts: Dict[Tuple[str, str, str], int] = {}
        for record in data.get("findings", []):
            key = (str(record["rule"]), str(record["path"]), str(record["message"]))
            counts[key] = counts.get(key, 0) + int(record.get("count", 1))
        return cls(counts)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding]) -> "Baseline":
        """Baseline exactly the given findings (the ``--write-baseline`` path)."""
        counts: Dict[Tuple[str, str, str], int] = {}
        for finding in findings:
            counts[finding.fingerprint] = counts.get(finding.fingerprint, 0) + 1
        return cls(counts)

    def save(self, path: "str | Path") -> None:
        """Write the baseline as stable, diff-friendly JSON."""
        records = [
            {"rule": rule, "path": rel, "message": message, "count": count}
            for (rule, rel, message), count in sorted(self.counts.items())
        ]
        Path(path).write_text(
            json.dumps({"version": 1, "findings": records}, indent=1) + "\n",
            encoding="utf-8",
        )

    def split(self, findings: Sequence[Finding]) -> Tuple[List[Finding], List[Finding]]:
        """Partition findings into (new, baselined)."""
        remaining = dict(self.counts)
        new: List[Finding] = []
        old: List[Finding] = []
        for finding in findings:
            left = remaining.get(finding.fingerprint, 0)
            if left > 0:
                remaining[finding.fingerprint] = left - 1
                old.append(finding)
            else:
                new.append(finding)
        return new, old


@dataclass
class Report:
    """The outcome of one engine run."""

    findings: List[Finding] = field(default_factory=list)
    baselined: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0

    @property
    def ok(self) -> bool:
        """True when no *new* (non-baselined, non-suppressed) findings exist."""
        return not self.findings

    def to_text(self) -> str:
        """Human-readable report (one line per new finding + a summary)."""
        lines = [finding.format() for finding in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files} file(s) "
            f"({len(self.baselined)} baselined, {self.suppressed} suppressed)"
        )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Machine-readable report."""
        return json.dumps(
            {
                "ok": self.ok,
                "files": self.files,
                "suppressed": self.suppressed,
                "baselined": len(self.baselined),
                "findings": [
                    {
                        "rule": f.rule,
                        "path": f.path,
                        "line": f.line,
                        "col": f.col,
                        "message": f.message,
                    }
                    for f in self.findings
                ],
            },
            indent=1,
        )


class AnalysisEngine:
    """Dispatches every registered rule over a set of modules."""

    def __init__(self, rules: Optional[Sequence[Rule]] = None) -> None:
        if rules is None:
            rules = default_rules()
        self.rules: List[Rule] = list(rules)
        ids = [rule.id for rule in self.rules]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate rule ids: {ids}")

    def rule(self, rule_id: str) -> Rule:
        """The registered rule with ``rule_id`` (KeyError when absent)."""
        for rule in self.rules:
            if rule.id == rule_id:
                return rule
        raise KeyError(f"no rule {rule_id!r} registered")

    # ------------------------------------------------------------------ #
    def check_module(self, ctx: ModuleContext) -> Tuple[List[Finding], int]:
        """(kept findings, suppressed count) for one parsed module."""
        kept: List[Finding] = []
        suppressed = 0
        for rule in self.rules:
            for finding in rule.check(ctx):
                if ctx.suppressed(finding):
                    suppressed += 1
                else:
                    kept.append(finding)
        kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return kept, suppressed

    def run_source(
        self, source: str, rel: str = "repro/_snippet_.py"
    ) -> List[Finding]:
        """Analyze an in-memory snippet as if it lived at ``rel``.

        The fixture-test entry point: ``rel`` controls which scoped rules
        apply (e.g. ``repro/index/flat.py`` activates the index-side
        checks).  Suppression comments in the snippet are honoured;
        baselines are not consulted.
        """
        ctx = ModuleContext(path=rel, source=source, rel=rel)
        findings, _suppressed = self.check_module(ctx)
        return findings

    def run_paths(
        self,
        paths: Sequence["str | Path"],
        baseline: Optional[Baseline] = None,
    ) -> Report:
        """Analyze every ``*.py`` file under ``paths`` (files or directories)."""
        report = Report()
        for file in iter_python_files(paths):
            try:
                source = file.read_text(encoding="utf-8")
                ctx = ModuleContext(path=str(file), source=source)
            except (OSError, SyntaxError, ValueError) as exc:
                report.findings.append(
                    Finding(
                        rule="RPL000",
                        path=_package_rel(str(file)),
                        line=1,
                        col=0,
                        message=f"unreadable or unparsable module: {exc}",
                    )
                )
                report.files += 1
                continue
            findings, suppressed = self.check_module(ctx)
            report.findings.extend(findings)
            report.suppressed += suppressed
            report.files += 1
        report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        if baseline is not None:
            report.findings, report.baselined = baseline.split(report.findings)
        return report


def iter_python_files(paths: Sequence["str | Path"]) -> Iterator[Path]:
    """Every ``*.py`` file under the given files/directories, sorted."""
    seen = set()
    for raw in paths:
        path = Path(raw)
        candidates = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in candidates:
            if "__pycache__" in file.parts:
                continue
            resolved = file.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield file


def _package_rel(path: str) -> str:
    """Posix path relative to the ``repro`` package root when possible."""
    parts = Path(path).parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return Path(path).name


def find_baseline(paths: Sequence["str | Path"]) -> Optional[Path]:
    """Locate the committed baseline near the scanned paths.

    Looks for ``baseline.json`` inside a scanned ``repro/analysis``
    directory first (the committed location), then walks each path's
    ancestors for a ``.repro-analysis-baseline.json`` (an out-of-tree
    override for downstream checkouts).
    """
    for raw in paths:
        candidate = Path(raw)
        if candidate.is_dir():
            packaged = candidate / "analysis" / BASELINE_NAME
            if packaged.is_file():
                return packaged
            packaged = candidate / "repro" / "analysis" / BASELINE_NAME
            if packaged.is_file():
                return packaged
    for raw in paths:
        for ancestor in [Path(raw)] + list(Path(raw).resolve().parents):
            override = ancestor / ".repro-analysis-baseline.json"
            if override.is_file():
                return override
    return None


def default_rules() -> List[Rule]:
    """The registered project rules, in id order."""
    from repro.analysis.rules import PROJECT_RULES

    return [cls() for cls in PROJECT_RULES]
