"""Pass 1 of the project-aware linter: symbol table and call graph.

:func:`build_project_index` walks every module once and produces a
:class:`ProjectIndex` — functions and methods keyed by qualified name,
with per-function facts (parameters, ``backend=`` forwarding at each
call site, lock acquisitions, thread starts, ``global`` rebinds, pool
spawns) and resolved call edges.  Pass 2 rules consume the index via
:meth:`repro.analysis.lint.engine.Rule.begin_project`.

Call resolution is heuristic, in line with the linter's charter (false
negatives acceptable, no type inference):

* imports and ``from``-imports (including relative) build an alias map;
* bare names resolve within the module, then through aliases;
* ``self.m()`` / ``cls.m()`` resolve within the enclosing class;
* other attribute calls fall back to a *unique-suffix* match — resolved
  only when exactly one project function bears that terminal name.

The index is pure data (no AST references), so it serialises to JSON —
:meth:`ProjectIndex.to_payload` / :meth:`ProjectIndex.from_payload` back
the CI cache keyed by :func:`source_fingerprint`.
"""

from __future__ import annotations

import ast
import dataclasses
import hashlib
from typing import Iterable, Mapping, Sequence

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ModuleInfo",
    "ProjectIndex",
    "build_project_index",
    "source_fingerprint",
]

#: pool-spawn call names (terminal attribute or bare name).
_POOL_SPAWNERS = frozenset({"Pool", "ProcessPoolExecutor"})

#: pool methods whose first argument is a worker entry point.
_WORKER_DISPATCH = frozenset(
    {"imap", "imap_unordered", "map_async", "apply_async", "starmap", "starmap_async"}
)

#: terminal names that look like a threading lock (heuristic).
def _is_lockish(name: str) -> bool:
    return "lock" in name.lower()


def _is_threadish(name: str) -> bool:
    return "thread" in name.lower()


@dataclasses.dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    raw: str  #: dotted callee text as written (``".m"`` for dynamic heads)
    resolved: "str | None"  #: qualified project function, when resolvable
    line: int
    keywords: tuple[str, ...]  #: keyword names; ``"**"`` for a double-star
    backend_literal: "str | None"  #: string constant passed as ``backend=``

    @property
    def tail(self) -> str:
        return self.raw.rsplit(".", 1)[-1]

    @property
    def passes_backend(self) -> bool:
        return "backend" in self.keywords or "**" in self.keywords


@dataclasses.dataclass
class FunctionInfo:
    """Facts about one function/method, resolvable without its AST."""

    qualname: str
    module: str
    name: str
    line: int
    params: tuple[str, ...]
    has_backend_param: bool
    calls: tuple[CallSite, ...]
    #: lines acquiring a lock (``with *lock*:`` or ``.acquire()``).
    lock_lines: tuple[int, ...]
    #: lines starting a thread.
    thread_lines: tuple[int, ...]
    #: ``(name, line)`` for module globals rebound via ``global``.
    global_writes: tuple[tuple[str, int], ...]
    #: lines spawning a process pool.
    pool_lines: tuple[int, ...]

    @property
    def spawns_pool(self) -> bool:
        return bool(self.pool_lines)


@dataclasses.dataclass
class ModuleInfo:
    """Per-module facts the rules need across files."""

    name: str
    path: str
    #: module calls ``os.register_at_fork`` (fork-safe lock discipline).
    registers_at_fork: bool
    #: raw refs passed as ``initializer=`` to a pool constructor.
    initializer_refs: tuple[str, ...]
    #: raw refs dispatched as pool worker entry points.
    worker_entry_refs: tuple[str, ...]


class ProjectIndex:
    """The symbol table + call graph shared by every pass-2 rule."""

    def __init__(
        self,
        modules: "dict[str, ModuleInfo]",
        functions: "dict[str, FunctionInfo]",
    ) -> None:
        self.modules = modules
        self.functions = functions
        self._by_name: dict[str, list[str]] = {}
        for qualname, info in functions.items():
            self._by_name.setdefault(info.name, []).append(qualname)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def functions_named(self, name: str) -> "list[FunctionInfo]":
        return [self.functions[q] for q in self._by_name.get(name, ())]

    def module_of(self, qualname: str) -> "ModuleInfo | None":
        info = self.functions.get(qualname)
        return self.modules.get(info.module) if info else None

    def callees(self, qualname: str, depth: int = 3) -> "dict[str, int]":
        """Transitive resolved callees with their hop distance (BFS)."""
        out: dict[str, int] = {}
        frontier = [qualname]
        for hop in range(1, depth + 1):
            next_frontier: list[str] = []
            for current in frontier:
                info = self.functions.get(current)
                if info is None:
                    continue
                for call in info.calls:
                    if call.resolved and call.resolved not in out:
                        out[call.resolved] = hop
                        next_frontier.append(call.resolved)
            frontier = next_frontier
        out.pop(qualname, None)
        return out

    def closure(self, seeds: Iterable[str]) -> set[str]:
        """Seeds plus everything transitively reachable from them."""
        seen = set(seeds)
        frontier = list(seen)
        while frontier:
            current = frontier.pop()
            info = self.functions.get(current)
            if info is None:
                continue
            for call in info.calls:
                if call.resolved and call.resolved not in seen:
                    seen.add(call.resolved)
                    frontier.append(call.resolved)
        return seen

    def call_chain(self, start: str, target: str, depth: int = 3) -> "list[str]":
        """A shortest resolved call path ``start -> ... -> target``."""
        parent: dict[str, str] = {}
        frontier = [start]
        for _ in range(depth):
            next_frontier: list[str] = []
            for current in frontier:
                info = self.functions.get(current)
                if info is None:
                    continue
                for call in info.calls:
                    callee = call.resolved
                    if not callee or callee in parent or callee == start:
                        continue
                    parent[callee] = current
                    if callee == target:
                        chain = [target]
                        while chain[-1] != start:
                            chain.append(parent[chain[-1]])
                        return list(reversed(chain))
                    next_frontier.append(callee)
            frontier = next_frontier
        return []

    # ------------------------------------------------------------------
    # serialisation (backs the CI project-index cache)
    # ------------------------------------------------------------------
    def to_payload(self) -> "dict[str, object]":
        return {
            "modules": {
                name: dataclasses.asdict(info) for name, info in self.modules.items()
            },
            "functions": {
                qualname: dataclasses.asdict(info)
                for qualname, info in self.functions.items()
            },
        }

    @classmethod
    def from_payload(cls, payload: "Mapping[str, object]") -> "ProjectIndex":
        modules = {
            name: ModuleInfo(
                name=raw["name"],
                path=raw["path"],
                registers_at_fork=bool(raw["registers_at_fork"]),
                initializer_refs=tuple(raw["initializer_refs"]),
                worker_entry_refs=tuple(raw["worker_entry_refs"]),
            )
            for name, raw in payload["modules"].items()  # type: ignore[union-attr]
        }
        functions = {
            qualname: FunctionInfo(
                qualname=raw["qualname"],
                module=raw["module"],
                name=raw["name"],
                line=int(raw["line"]),
                params=tuple(raw["params"]),
                has_backend_param=bool(raw["has_backend_param"]),
                calls=tuple(
                    CallSite(
                        raw=call["raw"],
                        resolved=call["resolved"],
                        line=int(call["line"]),
                        keywords=tuple(call["keywords"]),
                        backend_literal=call["backend_literal"],
                    )
                    for call in raw["calls"]
                ),
                lock_lines=tuple(raw["lock_lines"]),
                thread_lines=tuple(raw["thread_lines"]),
                global_writes=tuple(
                    (name, int(line)) for name, line in raw["global_writes"]
                ),
                pool_lines=tuple(raw["pool_lines"]),
            )
            for qualname, raw in payload["functions"].items()  # type: ignore[union-attr]
        }
        return cls(modules=modules, functions=functions)


def source_fingerprint(files: "Sequence[tuple[str, str]]") -> str:
    """Hash of every ``(display_path, source)`` pair, order-insensitive."""
    digest = hashlib.sha256()
    for display, source in sorted(files):
        digest.update(display.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(hashlib.sha256(source.encode("utf-8")).digest())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _dotted(expr: ast.AST) -> "str | None":
    """Dotted text of a call target; ``".attr"`` when the head is dynamic."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        head = _dotted(expr.value)
        if head is None:
            return "." + expr.attr
        if head.startswith("."):
            # collapse a dynamic-head chain to its terminal attribute
            return "." + expr.attr
        return head + "." + expr.attr
    return None


@dataclasses.dataclass
class _RawCall:
    raw: str
    line: int
    keywords: tuple[str, ...]
    backend_literal: "str | None"


@dataclasses.dataclass
class _RawFunction:
    qualname: str
    module: str
    name: str
    class_name: "str | None"
    line: int
    params: tuple[str, ...]
    has_backend_param: bool
    calls: list[_RawCall]
    lock_lines: list[int]
    thread_lines: list[int]
    global_writes: list[tuple[str, int]]
    pool_lines: list[int]


def _import_aliases(module: str, tree: ast.Module) -> "dict[str, str]":
    aliases: dict[str, str] = {}
    package = module.rsplit(".", 1)[0] if "." in module else module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".", 1)[0]
                target = alias.name if alias.asname else alias.name.split(".", 1)[0]
                aliases[bound] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = module.split(".")
                base_parts = parts[: len(parts) - node.level]
                base = ".".join(base_parts)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            else:
                base = node.module or package
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                aliases[bound] = f"{base}.{alias.name}" if base else alias.name
    return aliases


def _function_params(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        names.append(args.vararg.arg)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


def _collect_function_facts(
    fn: "ast.FunctionDef | ast.AsyncFunctionDef", raw: _RawFunction
) -> None:
    """Fill ``raw`` from ``fn``'s body, skipping nested def/class bodies."""
    global_names: set[str] = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # indexed separately
        if isinstance(node, ast.Global):
            global_names.update(node.names)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in global_names:
                    raw.global_writes.append((target.id, node.lineno))
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                dotted = _dotted(item.context_expr)
                if isinstance(item.context_expr, ast.Call):
                    dotted = _dotted(item.context_expr.func)
                if dotted and _is_lockish(dotted.rsplit(".", 1)[-1]):
                    raw.lock_lines.append(node.lineno)
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted is not None:
                tail = dotted.rsplit(".", 1)[-1]
                keywords = tuple(
                    kw.arg if kw.arg is not None else "**" for kw in node.keywords
                )
                backend_literal: "str | None" = None
                for kw in node.keywords:
                    if (
                        kw.arg == "backend"
                        and isinstance(kw.value, ast.Constant)
                        and isinstance(kw.value.value, str)
                    ):
                        backend_literal = kw.value.value
                raw.calls.append(
                    _RawCall(
                        raw=dotted,
                        line=node.lineno,
                        keywords=keywords,
                        backend_literal=backend_literal,
                    )
                )
                if tail == "acquire" and "." in dotted:
                    receiver = dotted.rsplit(".", 2)[-2]
                    if _is_lockish(receiver) or receiver in ("self",):
                        raw.lock_lines.append(node.lineno)
                if tail == "start" and "." in dotted:
                    receiver = dotted.rsplit(".", 2)[-2]
                    if _is_threadish(receiver):
                        raw.thread_lines.append(node.lineno)
                if tail in _POOL_SPAWNERS:
                    raw.pool_lines.append(node.lineno)
                if tail == "Thread":
                    raw.thread_lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in fn.body:
        visit(stmt)


def _index_module(
    module: str, path: str, tree: ast.Module
) -> tuple[ModuleInfo, "list[_RawFunction]"]:
    raw_functions: list[_RawFunction] = []
    initializer_refs: list[str] = []
    worker_entry_refs: list[str] = []
    registers_at_fork = False

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            tail = dotted.rsplit(".", 1)[-1] if dotted else ""
            if tail == "register_at_fork":
                registers_at_fork = True
            if tail in _POOL_SPAWNERS:
                for kw in node.keywords:
                    if kw.arg == "initializer":
                        ref = _dotted(kw.value)
                        if ref:
                            initializer_refs.append(ref)
            if tail in _WORKER_DISPATCH and node.args:
                ref = _dotted(node.args[0])
                if ref:
                    worker_entry_refs.append(ref)

    def walk_defs(node: ast.AST, prefix: str, class_name: "str | None") -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                params = _function_params(child)
                raw = _RawFunction(
                    qualname=qualname,
                    module=module,
                    name=child.name,
                    class_name=class_name,
                    line=child.lineno,
                    params=params,
                    has_backend_param="backend" in params,
                    calls=[],
                    lock_lines=[],
                    thread_lines=[],
                    global_writes=[],
                    pool_lines=[],
                )
                _collect_function_facts(child, raw)
                raw_functions.append(raw)
                walk_defs(child, qualname, class_name)
            elif isinstance(child, ast.ClassDef):
                walk_defs(child, f"{prefix}.{child.name}", child.name)
            else:
                walk_defs(child, prefix, class_name)

    walk_defs(tree, module, None)
    info = ModuleInfo(
        name=module,
        path=path,
        registers_at_fork=registers_at_fork,
        initializer_refs=tuple(initializer_refs),
        worker_entry_refs=tuple(worker_entry_refs),
    )
    return info, raw_functions


def resolve_ref(
    index: "ProjectIndex",
    module: str,
    raw: str,
    *,
    class_name: "str | None" = None,
    aliases: "Mapping[str, str] | None" = None,
) -> "str | None":
    """Resolve a raw dotted reference to a project function qualname."""
    functions = index.functions
    if raw.startswith("."):
        tail = raw[1:]
        if class_name and f"{module}.{class_name}.{tail}" in functions:
            return f"{module}.{class_name}.{tail}"
        candidates = index.functions_named(tail)
        return candidates[0].qualname if len(candidates) == 1 else None
    head, _, rest = raw.partition(".")
    if not rest:
        if f"{module}.{raw}" in functions:
            return f"{module}.{raw}"
        if aliases and raw in aliases and aliases[raw] in functions:
            return aliases[raw]
        candidates = index.functions_named(raw)
        # A unique project-wide match resolves when the name is local or
        # was explicitly imported (covers package re-exports like
        # ``from repro.obs import heartbeat_tick``, whose alias target
        # names the package rather than the defining module).
        if len(candidates) == 1 and (
            candidates[0].module == module or (aliases and raw in aliases)
        ):
            return candidates[0].qualname
        return None
    if head in ("self", "cls") and class_name:
        if f"{module}.{class_name}.{rest}" in functions:
            return f"{module}.{class_name}.{rest}"
    if aliases and head in aliases:
        full = f"{aliases[head]}.{rest}"
        if full in functions:
            return full
    if f"{module}.{raw}" in functions:
        return f"{module}.{raw}"
    tail = raw.rsplit(".", 1)[-1]
    candidates = index.functions_named(tail)
    if len(candidates) == 1:
        return candidates[0].qualname
    return None


def build_project_index(
    modules: "Iterable[tuple[str, str, ast.Module]]",
) -> ProjectIndex:
    """Build the index from ``(module_name, path, tree)`` triples."""
    module_infos: dict[str, ModuleInfo] = {}
    raws: list[_RawFunction] = []
    alias_maps: dict[str, dict[str, str]] = {}
    for module, path, tree in modules:
        info, raw_functions = _index_module(module, path, tree)
        # Last writer wins on duplicate module names (e.g. two files both
        # outside any repro tree sharing a stem); per-module facts only.
        module_infos[module] = info
        raws.extend(raw_functions)
        alias_maps[module] = _import_aliases(module, tree)

    placeholder = ProjectIndex(
        modules=module_infos,
        functions={
            raw.qualname: FunctionInfo(
                qualname=raw.qualname,
                module=raw.module,
                name=raw.name,
                line=raw.line,
                params=raw.params,
                has_backend_param=raw.has_backend_param,
                calls=(),
                lock_lines=tuple(raw.lock_lines),
                thread_lines=tuple(raw.thread_lines),
                global_writes=tuple(raw.global_writes),
                pool_lines=tuple(raw.pool_lines),
            )
            for raw in raws
        },
    )

    functions: dict[str, FunctionInfo] = {}
    for raw in raws:
        aliases = alias_maps.get(raw.module, {})
        calls = tuple(
            CallSite(
                raw=call.raw,
                resolved=resolve_ref(
                    placeholder,
                    raw.module,
                    call.raw,
                    class_name=raw.class_name,
                    aliases=aliases,
                ),
                line=call.line,
                keywords=call.keywords,
                backend_literal=call.backend_literal,
            )
            for call in raw.calls
        )
        info = placeholder.functions[raw.qualname]
        functions[raw.qualname] = dataclasses.replace(info, calls=calls)
    return ProjectIndex(modules=module_infos, functions=functions)
