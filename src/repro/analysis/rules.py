"""The project rules: one class per contract the repo enforces.

Each rule documents the contract it checks and the canonical fix; the
formal statements (and suppression etiquette) live in ``docs/analysis.md``.
Rules scope themselves by package-relative path (``ctx.rel``), so the test
suite can activate any rule on an in-memory snippet by picking its ``rel``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.engine import Finding, ModuleContext, Rule

#: Method names whose call mutates (or is otherwise unsafe to run
#: concurrently on) a cache or index object — the serving layer may only
#: reach them under a lock-holding scope.
UNSAFE_CACHE_METHODS = frozenset(
    {
        "insert",
        "enroll",
        "add",
        "add_batch",
        "remove",
        "clear",
        "rebuild",
        "populate",
        "lookup",
        "lookup_batch",
        "match",
        "pop",
        "execute",
        "maintenance",
        "register",
        "set_threshold",
    }
)

#: numpy allocators whose per-call use on a hot path re-buys the O(n)
#: copies PRs 1 and 7 eliminated.
HOT_PATH_ALLOCATORS = frozenset(
    {"vstack", "concatenate", "stack", "hstack", "tile", "repeat"}
)

#: Functions that root the lookup/search hot paths (per-module call graphs
#: are chased from these by simple name).
HOT_PATH_ROOTS = frozenset(
    {"search", "search_batch", "lookup", "lookup_batch", "run", "run_one", "match"}
)

#: Global/unseeded RNG entry points on ``np.random``.
NUMPY_GLOBAL_RNG = frozenset(
    {
        "rand",
        "randn",
        "random",
        "randint",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "seed",
        "normal",
        "uniform",
        "standard_normal",
    }
)


def _call_name(node: ast.Call) -> Optional[str]:
    """The called attribute/function's simple name, if syntactically plain."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _mentions_lock(node: ast.AST) -> bool:
    """Whether an expression lexically names a lock (``self.lock``, ``_registry_lock``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and "lock" in sub.attr.lower():
            return True
        if isinstance(sub, ast.Name) and "lock" in sub.id.lower():
            return True
    return False


def _inside_lock_scope(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether ``node`` sits inside a ``with <...lock...>:`` block."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                if _mentions_lock(item.context_expr):
                    return True
    return False


def _inside_atomic_stage(ctx: ModuleContext, node: ast.AST) -> bool:
    """Whether ``node`` sits inside a ``with atomic_snapshot_dir(...)`` block."""
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                for sub in ast.walk(item.context_expr):
                    if (
                        isinstance(sub, ast.Call)
                        and _call_name(sub) == "atomic_snapshot_dir"
                    ):
                        return True
    return False


class ConcurrencyContractRule(Rule):
    """RPL001: locks live in the serving adapter layer, nowhere else.

    The serving contract (``docs/serving.md``): no index backend is
    thread-safe, and the fix is *not* a lock inside the backend — it is the
    server adapter layer (shard locks, the quantized tier's lock).  Two
    checks:

    * creating a ``threading.Lock``/``RLock``/``Condition``/``Semaphore``
      inside ``repro/index/`` is flagged — a backend growing its own lock
      would tax the single-threaded simulator per call and serialize at the
      wrong granularity;
    * in ``repro/serving/server.py``, calling an unsafe cache/index method
      (:data:`UNSAFE_CACHE_METHODS`) outside a ``with <...>.lock`` scope is
      flagged — server code paths reach caches only through a lock-holding
      scope.
    """

    id = "RPL001"
    name = "concurrency-contract"
    description = (
        "index backends stay lock-free; server code touches caches only "
        "under a shard/tier lock"
    )

    _LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})
    #: Receiver-name segments identifying cache/index-ish objects in server
    #: code; ``self._wake.notify()`` (the flush condition) stays exempt while
    #: ``shard.executor.execute()`` / ``self.adapter.enroll()`` are checked.
    _CACHE_RECEIVERS = frozenset(
        {"executor", "adapter", "cache", "caches", "index", "indexes",
         "shard", "shards", "l1", "l2", "shared", "tier", "tiers"}
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Apply the index-side and server-side checks where they scope."""
        if ctx.rel.startswith("repro/index/"):
            yield from self._check_index_module(ctx)
        if ctx.rel == "repro/serving/server.py":
            yield from self._check_server_module(ctx)

    def _check_index_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        threading_aliases = _module_aliases(ctx, "threading")
        from_imports = _from_imports(ctx, "threading")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._LOCK_FACTORIES
                and isinstance(func.value, ast.Name)
                and func.value.id in threading_aliases
            ) or (
                isinstance(func, ast.Name)
                and from_imports.get(func.id) in self._LOCK_FACTORIES
            ):
                yield ctx.finding(
                    self.id,
                    node,
                    "index backends must stay lock-free: locks belong to the "
                    "serving adapter layer (shard/tier locks), not to "
                    f"{ctx.rel}",
                )

    def _check_server_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr not in UNSAFE_CACHE_METHODS:
                continue
            receiver = _dotted(func.value)
            if receiver is None or not (
                {part.lstrip("_") for part in receiver.split(".")}
                & self._CACHE_RECEIVERS
            ):
                continue
            if _inside_lock_scope(ctx, node):
                continue
            yield ctx.finding(
                self.id,
                node,
                f"call to unsafe cache/index method .{func.attr}() outside a "
                "lock-holding scope — wrap in `with <shard|tier>.lock:` "
                "(docs/serving.md concurrency contract)",
            )


class DeterminismRule(Rule):
    """RPL002: no wall-clock or global-RNG reads in library code.

    The virtual-clock discipline (PR 8's two-clocks fix): everything a
    replay or benchmark decision depends on flows through an injected clock
    (:mod:`repro.core.clock`) or a seeded generator.  Flags calls to
    ``time.time()``, ``datetime.now()/utcnow()/today()``, the ``np.random``
    global generator, the stdlib ``random`` module, and *unseeded*
    ``np.random.default_rng()``.  ``time.perf_counter``/``time.monotonic``
    stay legal: measuring how long work took is not a determinism input —
    stamping *state* with wall time is.
    """

    id = "RPL002"
    name = "determinism"
    description = "wall time via injected clocks only; RNG via seeded generators only"

    _DATETIME_FACTORIES = frozenset({"now", "utcnow", "today", "fromtimestamp"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag wall-clock and global-RNG call sites in the module."""
        time_aliases = _module_aliases(ctx, "time")
        random_aliases = _module_aliases(ctx, "random")
        datetime_mod_aliases = _module_aliases(ctx, "datetime")
        time_from = _from_imports(ctx, "time")
        datetime_from = _from_imports(ctx, "datetime")
        numpy_aliases = _module_aliases(ctx, "numpy") | {"np"}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            dotted = _dotted(func)
            # time.time() (or a from-imported alias of it)
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id in time_aliases
            ) or (isinstance(func, ast.Name) and time_from.get(func.id) == "time"):
                yield ctx.finding(
                    self.id,
                    node,
                    "time.time() in library code — take an injected clock "
                    "(repro.core.clock) so virtual-time replays stay deterministic",
                )
                continue
            # datetime.now()/utcnow()/today() on the datetime class or module
            if isinstance(func, ast.Attribute) and func.attr in self._DATETIME_FACTORIES:
                base = func.value
                if (
                    isinstance(base, ast.Name)
                    and (
                        datetime_from.get(base.id) == "datetime"
                        or base.id in datetime_mod_aliases
                    )
                ) or (
                    isinstance(base, ast.Attribute)
                    and base.attr == "datetime"
                    and isinstance(base.value, ast.Name)
                    and base.value.id in datetime_mod_aliases
                ):
                    yield ctx.finding(
                        self.id,
                        node,
                        f"datetime.{func.attr}() reads the wall clock — thread "
                        "time through an injected clock instead",
                    )
                    continue
            # np.random.* global generator / unseeded default_rng()
            if dotted is not None:
                parts = dotted.split(".")
                if (
                    len(parts) == 3
                    and parts[0] in numpy_aliases
                    and parts[1] == "random"
                ):
                    if parts[2] == "default_rng" and not node.args and not node.keywords:
                        yield ctx.finding(
                            self.id,
                            node,
                            "unseeded np.random.default_rng() — pass an explicit "
                            "seed parameter so runs reproduce",
                        )
                        continue
                    if parts[2] in NUMPY_GLOBAL_RNG:
                        yield ctx.finding(
                            self.id,
                            node,
                            f"np.random.{parts[2]}() uses the process-global RNG — "
                            "use a seeded np.random.default_rng(seed) generator",
                        )
                        continue
                if len(parts) == 2 and parts[0] in random_aliases:
                    yield ctx.finding(
                        self.id,
                        node,
                        f"random.{parts[1]}() uses the process-global RNG — "
                        "use a seeded np.random.default_rng(seed) generator",
                    )


class HotPathAllocationRule(Rule):
    """RPL003: no per-call array stitching on lookup/search hot paths.

    PR 1 removed the seed's per-insert ``np.vstack`` rebuilds and PR 7
    removed per-query scratch allocation; this rule keeps them out.  Within
    index modules and the core lookup pipeline, functions reachable (by
    simple-name call chasing, per module) from the hot roots
    (:data:`HOT_PATH_ROOTS`) must not call the numpy allocators in
    :data:`HOT_PATH_ALLOCATORS`.  Bounded small-k chunk stitching that is
    genuinely per-*batch* (not per-entry) may be suppressed inline with a
    justification.
    """

    id = "RPL003"
    name = "hot-path-allocation"
    description = "no np.vstack/np.concatenate per call in search/lookup hot paths"

    _SCOPES = ("repro/index/", "repro/core/pipeline.py", "repro/core/cache.py",
               "repro/core/tiered.py", "repro/baselines/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Chase the module call graph from hot roots; flag allocators."""
        if not ctx.rel.startswith(self._SCOPES):
            return
        functions: Dict[str, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.setdefault(node.name, node)
        # Per-module reachability by simple name from the hot roots.
        reachable: Set[str] = set()
        frontier = [name for name in functions if name in HOT_PATH_ROOTS]
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            for sub in ast.walk(functions[name]):
                if isinstance(sub, ast.Call):
                    callee = _call_name(sub)
                    if callee in functions and callee not in reachable:
                        frontier.append(callee)
        for name in sorted(reachable):
            for sub in ast.walk(functions[name]):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in HOT_PATH_ALLOCATORS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("np", "numpy")
                ):
                    yield ctx.finding(
                        self.id,
                        sub,
                        f"np.{func.attr}() inside {name}() which is reachable "
                        "from a lookup/search hot path — reuse a scratch "
                        "buffer or move the allocation off the query path",
                    )


class SnapshotDisciplineRule(Rule):
    """RPL004: persistence code writes only through the atomic staging helpers.

    The crash-safety contract (PR 9, ``repro/index/snapshot.py``): snapshot
    bytes reach disk either inside a ``with atomic_snapshot_dir(...)`` stage
    (fsync + ``os.replace`` publish) or through the append-only delta-log
    commit protocol.  In persistence code (``repro/index/``, ``repro/core/``,
    ``repro/baselines/``, ``repro/serving/fleet.py``), any direct
    ``open(..., "w"/"wb")``, ``np.save*`` or ``Path.write_text/write_bytes``
    outside those scopes is flagged, and so is ``open`` in an append or
    update mode (``"a"``, ``"ab"``, ``"r+b"``) outside the delta log's one
    writer and one repairer.
    """

    id = "RPL004"
    name = "snapshot-io-discipline"
    description = "snapshot writes go through atomic_snapshot_dir / the delta-log protocol"

    _SCOPES = ("repro/index/", "repro/core/", "repro/baselines/", "repro/serving/fleet.py")
    #: snapshot.py functions that *are* the write protocol (hand-reviewed).
    #: write_* create files, and only inside a stage:
    _HELPER_FUNCTIONS = frozenset({"write_manifest", "write_arrays"})
    #: append_delta is the log's commit point and only appends; _delta_lines
    #: cuts a crashed append's torn tail off in place:
    _LOG_FUNCTIONS = frozenset({"append_delta", "_delta_lines"})

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Flag direct file writes outside the atomic staging protocol."""
        if not ctx.rel.startswith(self._SCOPES):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            write = self._write_call(node)
            if write is None:
                continue
            if _inside_atomic_stage(ctx, node):
                continue
            description, allowed_in = write
            enclosing = ctx.enclosing_function(node)
            if (
                ctx.rel == "repro/index/snapshot.py"
                and enclosing is not None
                and enclosing.name in allowed_in
            ):
                continue
            yield ctx.finding(
                self.id,
                node,
                f"{description} outside an atomic snapshot stage — route "
                "persistence through atomic_snapshot_dir()/write_arrays()/"
                "append_delta() (crash-safety contract, docs/analysis.md)",
            )

    def _write_call(self, node: ast.Call) -> Optional[Tuple[str, FrozenSet[str]]]:
        """(what the write is, the snapshot.py functions that may make it)."""
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open" and len(node.args) >= 2:
            mode = node.args[1]
            if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
                if mode.value.startswith(("w", "x")):
                    return f'open(..., "{mode.value}")', self._HELPER_FUNCTIONS
                if mode.value.startswith("a") or "+" in mode.value:
                    return f'open(..., "{mode.value}")', self._LOG_FUNCTIONS
            return None
        if isinstance(func, ast.Attribute):
            if func.attr in ("save", "savez", "savez_compressed") and isinstance(
                func.value, ast.Name
            ) and func.value.id in ("np", "numpy"):
                return f"np.{func.attr}()", self._HELPER_FUNCTIONS
            if func.attr in ("write_text", "write_bytes"):
                return f".{func.attr}()", self._HELPER_FUNCTIONS
        return None


class PublicApiHygieneRule(Rule):
    """RPL005: exported symbols carry docstrings and type annotations.

    Public (non-underscore) module-level classes and functions, and public
    methods of public classes, must have a docstring; public module-level
    functions must additionally annotate every plain parameter and the
    return type.  ``__init__`` participates in the annotation check via its
    parameters (its return is always ``None`` and not required).
    """

    id = "RPL005"
    name = "public-api-hygiene"
    description = "docstrings + annotations on exported symbols"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Check docstrings/annotations on the module's exported symbols."""
        if ctx.rel.endswith("__main__.py"):
            return
        for node in ctx.tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from self._check_class(ctx, node)
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and not node.name.startswith("_"):
                yield from self._check_function(ctx, node, qual=node.name, annotations=True)

    def _check_class(self, ctx: ModuleContext, node: ast.ClassDef) -> Iterator[Finding]:
        if ast.get_docstring(node) is None:
            yield ctx.finding(
                self.id, node, f"public class {node.name} is missing a docstring"
            )
        for member in node.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if member.name.startswith("_"):
                    continue
                yield from self._check_function(
                    ctx, member, qual=f"{node.name}.{member.name}", annotations=False
                )

    def _check_function(
        self,
        ctx: ModuleContext,
        node: ast.AST,
        qual: str,
        annotations: bool,
    ) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if ast.get_docstring(node) is None:
            yield ctx.finding(
                self.id, node, f"public function {qual} is missing a docstring"
            )
        if not annotations:
            return
        args = node.args
        plain = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        missing = [
            arg.arg
            for arg in plain
            if arg.annotation is None and arg.arg not in ("self", "cls")
        ]
        if missing:
            yield ctx.finding(
                self.id,
                node,
                f"public function {qual} is missing parameter annotations: "
                + ", ".join(missing),
            )
        if node.returns is None:
            yield ctx.finding(
                self.id,
                node,
                f"public function {qual} is missing a return annotation",
            )


def _module_aliases(ctx: ModuleContext, module: str) -> Set[str]:
    """Local names bound to ``import module`` (including ``as`` aliases)."""
    aliases: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    aliases.add(alias.asname or alias.name)
    return aliases


def _from_imports(ctx: ModuleContext, module: str) -> Dict[str, str]:
    """Local name -> original name for ``from module import ...`` bindings."""
    bound: Dict[str, str] = {}
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                bound[alias.asname or alias.name] = alias.name
    return bound


#: The registered project rules, in id order.
PROJECT_RULES: Tuple[type, ...] = (
    ConcurrencyContractRule,
    DeterminismRule,
    HotPathAllocationRule,
    SnapshotDisciplineRule,
    PublicApiHygieneRule,
)
