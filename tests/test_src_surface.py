"""``src/repro`` holds only what a device or a serving process runs.

The check is generated from the tree, not kept by hand: it reads the AST of
every module under ``src/repro`` and fails on two kinds of code that only
tests run.

* A public top-level name (function, class or module-level assignment) that
  no ``Name`` or ``Attribute`` node references anywhere in ``src/``,
  ``bench/``, ``benchmarks/`` or ``examples/``.  Its own module counts; its
  definition and imports do not.  A name a package ``__init__``'s
  ``__all__`` lists is public surface and passes.
* A module that nothing outside ``tests/`` and the package ``__init__``
  files imports, unless it runs as a script (a ``__main__`` guard, or a
  ``__main__.py``).

Code that only tests need lives in ``tests/`` (the scenario trace builders
are ``tests/scenario_traces.py``).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

REPO = Path(__file__).resolve().parents[1]
#: where code that a deployment, the benchmark or an example runs may live
USER_DIRS = ("src", "bench", "benchmarks", "examples")


def _python_files(root: Path) -> Iterator[Path]:
    for name in USER_DIRS:
        if (root / name).is_dir():
            yield from sorted((root / name).rglob("*.py"))


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _defined_names(tree: ast.Module) -> Iterator[str]:
    """Public names bound by the module's top-level statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets: List[ast.AST] = [ast.Name(id=node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("_"):
                    yield name.id


def _all_list(tree: ast.Module) -> Set[str]:
    """The string entries of a module's ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {
                e.value
                for e in ast.walk(node.value)
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return set()


def _imported_modules(tree: ast.Module, package: str) -> Set[str]:
    """Every module an ``import`` in ``tree`` may load (``from m import x``
    counts ``m`` and ``m.x``: ``x`` may be a submodule)."""
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            found.add(base)
            found.update(f"{base}.{alias.name}" for alias in node.names)
    return found


def _has_main_guard(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "__name__"
        and any(
            isinstance(c, ast.Constant) and c.value == "__main__"
            for c in node.test.comparators
        )
        for node in tree.body
    )


def surface_findings(root: Path) -> List[str]:
    """What under ``root/src/repro`` nothing but tests uses, one line each."""
    src = root / "src"
    modules: Dict[str, ast.Module] = {}
    packages: Set[str] = set()
    references: Set[str] = set()
    imported: Set[str] = set()
    for path in _python_files(root):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                references.add(node.id)
            elif isinstance(node, ast.Attribute):
                references.add(node.attr)
        in_src = path.is_relative_to(src / "repro")
        is_init = path.name == "__init__.py"
        name = _module_name(path, src) if in_src else ""
        if in_src:
            modules[name] = tree
            if is_init:
                packages.add(name)
        if not is_init:
            package = name.rpartition(".")[0] if in_src else ""
            imported |= _imported_modules(tree, package)

    exported: Set[str] = set()
    for package in packages:
        exported |= _all_list(modules[package])

    findings: List[str] = []
    for name, tree in sorted(modules.items()):
        for defined in _defined_names(tree):
            if defined not in references and defined not in exported:
                findings.append(f"{name}.{defined}: nothing outside tests/ uses it")
        if (
            name not in packages
            and not name.endswith(".__main__")
            and name not in imported
            and not _has_main_guard(tree)
        ):
            findings.append(f"{name}: nothing outside tests/ imports it")
    return findings


def test_src_holds_only_what_a_deployment_runs():
    findings = surface_findings(REPO)
    assert not findings, "\n".join(
        ["code under src/repro that only tests run (move it to tests/ or delete it):"]
        + findings
    )


def test_the_check_flags_an_unused_function_and_an_unimported_module(tmp_path):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/cache.py": (
            "LIMIT = 3\n\n"
            "def lookup(x):\n    return min(x, LIMIT)\n\n"
            "def stale(x):\n    return x\n"
        ),
        "src/repro/zoo.py": "def _build():\n    return 1\n",
        "src/repro/cli.py": (
            "from repro.cache import lookup\n\n"
            "def main():\n    print(lookup(5))\n\n"
            "if __name__ == '__main__':\n    main()\n"
        ),
        "examples/demo.py": "from repro import cache\n\ncache.lookup(1)\n",
        "tests/test_zoo.py": (
            "from repro.cache import stale\nfrom repro.zoo import _build\n\n"
            "def test_it():\n    assert stale(_build()) == 1\n"
        ),
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert surface_findings(tmp_path) == [
        "repro.cache.stale: nothing outside tests/ uses it",
        "repro.zoo: nothing outside tests/ imports it",
    ]
