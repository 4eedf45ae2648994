"""The repro lint rule catalog.

Rule families (see ``docs/STATIC_ANALYSIS.md`` for the full catalog):

* **R0xx** meta — suppression hygiene, emitted by the engine itself.
* **R1xx** determinism — hash-order iteration, ``hash()``, unseeded RNG.
* **R2xx** backend parity — ``backend=`` plumbing and dispatch coverage,
  edge-checked against the pass-1 call graph.
* **R3xx** API contracts — mutable defaults, bare except, span usage,
  annotation coverage.
* **R4xx** numeric hygiene — float equality on influence-scale values.
* **R5xx** resource/concurrency safety — CFG-path resource lifecycle,
  pre-fork thread/lock discipline, worker global writes, arena escape.
* **R6xx** numpy hygiene — int32 index widening, stable sort/tie order,
  accumulation dtype mixing.

Every rule is deliberately heuristic: it inspects the AST, not types.
False negatives are acceptable (mypy and tests backstop them); false
positives are suppressable with a reasoned pragma.  The R5xx family and
the edge-checked R2xx variants consume the pass-1
:class:`~repro.analysis.lint.callgraph.ProjectIndex` delivered through
:meth:`~repro.analysis.lint.engine.Rule.begin_project`; without it
(``--no-project``) they degrade to their single-module approximations.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Sequence

from repro.analysis.lint.callgraph import ProjectIndex, resolve_ref
from repro.analysis.lint.cfg import build_cfg, own_exprs
from repro.analysis.lint.dataflow import (
    bare_name_args,
    leaks_past,
    method_calls_on,
    returns_name,
    stores_into_attribute,
    uses_name,
)
from repro.analysis.lint.engine import ModuleContext, Rule

__all__ = [
    "default_rules",
    "relaxed_rules",
    "rule_catalog",
    "ALL_RULE_IDS",
    "RELAXED_RULE_IDS",
]


class _Loc:
    """Minimal location shim for reports not anchored to an AST node."""

    __slots__ = ("lineno", "col_offset")

    def __init__(self, lineno: int, col_offset: int = 0) -> None:
        self.lineno = lineno
        self.col_offset = col_offset

#: the only values a backend selector may take (R202).
VALID_BACKENDS = frozenset({"dict", "csr"})

_BACKEND_NAME_RE = re.compile(r"(^|_)backend$")


def _call_name(node: ast.AST) -> "str | None":
    """Plain name of a called function: ``sorted`` for ``sorted(...)``."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_backend_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return _BACKEND_NAME_RE.search(node.id) is not None
    if isinstance(node, ast.Attribute):
        return _BACKEND_NAME_RE.search(node.attr) is not None
    return False


def _string_literals(node: ast.AST) -> "list[str] | None":
    """String constants in a literal or literal collection, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out: list[str] = []
        for element in node.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            out.append(element.value)
        return out
    return None


# ----------------------------------------------------------------------
# R1xx — determinism
# ----------------------------------------------------------------------
class SetIterationRule(Rule):
    """R101: iteration over sets (or explicit ``.keys()``) must be sorted.

    Set iteration order follows hash order; for str-keyed sets it varies
    with ``PYTHONHASHSEED``, which is exactly the class of bug fixed at
    ``structure.py`` (Palette-WL group adjacency).  Any ``for``-loop or
    comprehension whose iterable is a set expression must wrap it in
    ``sorted(...)`` — or feed it to an order-insensitive consumer
    (``min``/``max``/``any``/``all``/``len``/``set``/``frozenset``).
    ``sum`` is *not* order-insensitive here: float addition order changes
    low bits, which the backend differential tests treat as a failure.
    """

    id = "R101"
    name = "set-iteration-order"
    summary = "iterating a set/dict.keys() without sorted() in core/graph"
    scope = ("repro.core", "repro.graph")

    _SET_FUNCS = frozenset({"set", "frozenset"})
    _SET_METHODS = frozenset(
        {"intersection", "union", "difference", "symmetric_difference"}
    )
    _SET_OPS = (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    #: order-insensitive consumers: a set expression directly inside one
    #: of these calls needs no sorting.
    _SAFE_CONSUMERS = frozenset(
        {"sorted", "min", "max", "len", "any", "all", "set", "frozenset"}
    )
    #: order-preserving wrappers: unwrap these to find the real iterable.
    _PASSTHROUGH = frozenset({"list", "tuple", "enumerate", "reversed", "iter"})

    def _set_expr(self, node: ast.AST, set_names: "dict[str, str]") -> "str | None":
        """Describe why ``node`` is a set-valued expression, or ``None``."""
        if isinstance(node, ast.Set):
            return "a set literal"
        if isinstance(node, ast.SetComp):
            return "a set comprehension"
        name = _call_name(node)
        if name in self._SET_FUNCS:
            return f"a {name}(...) call"
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in self._SET_METHODS
        ):
            return f"a .{node.func.attr}(...) call"
        if isinstance(node, ast.Name) and node.id in set_names:
            return f"`{node.id}` ({set_names[node.id]})"
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            left = self._set_expr(node.left, set_names)
            right = self._set_expr(node.right, set_names)
            if left is not None or right is not None:
                return "a set operator expression"
        return None

    def _is_keys_call(self, node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
            and not node.keywords
        )

    def _check_iterable(
        self,
        ctx: ModuleContext,
        iterable: ast.AST,
        set_names: "dict[str, str]",
    ) -> None:
        target = iterable
        while (
            isinstance(target, ast.Call)
            and _call_name(target) in self._PASSTHROUGH
            and target.args
        ):
            target = target.args[0]
        if self._is_keys_call(target):
            ctx.report(
                self,
                iterable,
                "iterating .keys() directly; use sorted(...) (or iterate "
                "the mapping itself if insertion order is intentional)",
            )
            return
        description = self._set_expr(target, set_names)
        if description is not None:
            ctx.report(
                self,
                iterable,
                f"iterating {description} in hash order; wrap in sorted(...)",
            )

    @staticmethod
    def _annotation_is_set(annotation: "ast.expr | None") -> bool:
        """True when a parameter annotation names a set type."""
        if annotation is None:
            return False
        if isinstance(annotation, ast.Name):
            return annotation.id in ("set", "frozenset", "Set", "FrozenSet")
        if isinstance(annotation, ast.Subscript):
            return SetIterationRule._annotation_is_set(annotation.value)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            head = annotation.value.split("[", 1)[0].strip()
            return head in ("set", "frozenset", "Set", "FrozenSet")
        return False

    def finish_module(self, ctx: ModuleContext) -> None:
        # Comprehensions fed straight into an order-insensitive consumer
        # (e.g. ``sorted(f(x) for x in node_set)``) are exempt.
        sanitized: set[int] = set()
        for node in ast.walk(ctx.tree):
            if _call_name(node) in self._SAFE_CONSUMERS:
                assert isinstance(node, ast.Call)
                for arg in node.args:
                    sanitized.add(id(arg))

        comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)

        def walk(node: ast.AST, set_names: "dict[str, str]") -> None:
            if isinstance(node, functions):
                # Fresh scope: parameters shadow outer bindings; set-typed
                # annotations seed the tracker.
                inner = dict(set_names)
                arguments = node.args
                params = list(arguments.posonlyargs + arguments.args)
                params.extend(arguments.kwonlyargs)
                for param in params:
                    if self._annotation_is_set(param.annotation):
                        inner[param.arg] = "a set-typed parameter"
                    else:
                        inner.pop(param.arg, None)
                for star in (arguments.vararg, arguments.kwarg):
                    if star is not None:
                        inner.pop(star.arg, None)
                for child in ast.iter_child_nodes(node):
                    walk(child, inner)
                return
            if isinstance(node, ast.Lambda):
                inner = dict(set_names)
                for param in node.args.args:
                    inner.pop(param.arg, None)
                walk(node.body, inner)
                return
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    description = self._set_expr(node.value, set_names)
                    if description is not None:
                        set_names[target.id] = description
                    else:
                        set_names.pop(target.id, None)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    description = self._set_expr(node.value, set_names)
                    if description is not None:
                        set_names[node.target.id] = description
                    else:
                        set_names.pop(node.target.id, None)
            if isinstance(node, ast.For):
                self._check_iterable(ctx, node.iter, set_names)
            elif isinstance(node, comprehensions) and id(node) not in sanitized:
                for generator in node.generators:
                    self._check_iterable(ctx, generator.iter, set_names)
            for child in ast.iter_child_nodes(node):
                walk(child, set_names)

        walk(ctx.tree, {})


class BuiltinHashRule(Rule):
    """R102: no ``hash()`` in feature code.

    ``hash(str)`` is salted by ``PYTHONHASHSEED``; any feature or
    ordering derived from it differs between interpreter runs.  Use
    ``repro.graph.hashing`` digests or explicit sort keys instead.
    """

    id = "R102"
    name = "builtin-hash"
    summary = "hash() call in feature/graph code (PYTHONHASHSEED-salted)"
    scope = ("repro.core", "repro.graph", "repro.analysis")

    def visit_Call(self, ctx: ModuleContext, node: ast.Call) -> None:
        if _call_name(node) == "hash":
            ctx.report(
                self,
                node,
                "hash() is salted by PYTHONHASHSEED; use repro.graph.hashing "
                "digests or an explicit sort key",
            )


class UnseededRandomRule(Rule):
    """R103: all randomness flows through ``repro.utils.rng``.

    ``random.*`` and the legacy ``np.random.*`` module-level generators
    share hidden global state; experiments become unreproducible the
    moment two call sites interleave.  Accept an ``rng`` argument and
    normalise it with :func:`repro.utils.rng.ensure_rng`.
    """

    id = "R103"
    name = "unseeded-rng"
    summary = "random.* / np.random.* use outside repro.utils.rng"
    scope = ("repro",)

    _EXEMPT_MODULES = frozenset({"repro.utils.rng"})
    #: np.random attributes that are types, not stateful entry points.
    _ALLOWED_NP_ATTRS = frozenset({"Generator", "BitGenerator", "SeedSequence"})

    def applies_to(self, module: str) -> bool:
        return super().applies_to(module) and module not in self._EXEMPT_MODULES

    def visit_Import(self, ctx: ModuleContext, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("numpy.random"):
                ctx.report(
                    self,
                    node,
                    f"import of {alias.name!r}: route randomness through "
                    "repro.utils.rng (ensure_rng / spawn_rngs)",
                )

    def visit_ImportFrom(self, ctx: ModuleContext, node: ast.ImportFrom) -> None:
        if node.module == "random":
            ctx.report(
                self,
                node,
                "import from 'random': route randomness through repro.utils.rng",
            )
        elif node.module in ("numpy.random", "numpy"):
            flagged = [
                alias.name
                for alias in node.names
                if alias.name == "random" or (
                    node.module == "numpy.random"
                    and alias.name not in self._ALLOWED_NP_ATTRS
                )
            ]
            if flagged:
                ctx.report(
                    self,
                    node,
                    f"import of numpy.random name(s) {', '.join(flagged)}: "
                    "route randomness through repro.utils.rng",
                )

    def visit_Attribute(self, ctx: ModuleContext, node: ast.Attribute) -> None:
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id in ("np", "numpy")
            and value.attr == "random"
            and node.attr not in self._ALLOWED_NP_ATTRS
        ):
            ctx.report(
                self,
                node,
                f"np.random.{node.attr} uses module-level RNG state; take an "
                "rng argument and normalise via repro.utils.rng.ensure_rng",
            )


# ----------------------------------------------------------------------
# R2xx — backend parity
# ----------------------------------------------------------------------
class BackendKwargRule(Rule):
    """R201: public extraction entry points accept and forward ``backend=``.

    The dict and csr substrates are interchangeable by contract; an entry
    point that hardcodes one silently forks the pipeline.

    With the project index the rule is **edge-checked**: every call site
    of an extraction entry (or of a wrapper that forwards ``backend`` to
    one — the "one call hop" case) made from a function that itself has
    a ``backend`` parameter must pass ``backend=`` through, otherwise
    the caller's selector is silently dropped on the floor.
    """

    id = "R201"
    name = "backend-kwarg"
    summary = "extraction entry point missing/ignoring the backend parameter"
    scope = ("repro",)

    _ENTRY_FUNCTIONS = frozenset({"parallel_extract_batch", "batch_extract"})
    _ENTRY_CLASSES = frozenset({"SSFExtractor", "StreamingSSFPredictor"})
    _CONFIG_CLASSES = frozenset({"ExperimentConfig"})

    _project: "ProjectIndex | None" = None

    def begin_project(self, project: ProjectIndex) -> None:
        self._project = project
        entry_quals = {
            qualname
            for qualname, info in project.functions.items()
            if info.name in self._ENTRY_FUNCTIONS
        }
        # Forwarding wrappers: one call hop away from an entry, with a
        # backend parameter they pass through.  Their callers inherit
        # the forwarding obligation.
        wrappers = {
            qualname
            for qualname, info in project.functions.items()
            if info.has_backend_param
            and info.name not in self._ENTRY_FUNCTIONS
            and any(
                (call.resolved in entry_quals or call.tail in self._ENTRY_FUNCTIONS)
                and call.passes_backend
                for call in info.calls
            )
        }
        self._forward_targets = entry_quals | wrappers

    def finish_module(self, ctx: ModuleContext) -> None:
        if self._project is None:
            return
        for info in self._project.functions.values():
            if info.module != ctx.module or not info.has_backend_param:
                continue
            for call in info.calls:
                is_target = (
                    call.resolved in self._forward_targets
                    or call.tail in self._ENTRY_FUNCTIONS
                )
                if is_target and not call.passes_backend:
                    ctx.report(
                        self,
                        _Loc(call.line),
                        f"{info.name}() accepts backend= but calls "
                        f"{call.tail}() without forwarding it; the caller's "
                        "backend selection is dropped",
                        chain=f"{info.name}>{call.tail}",
                    )

    @staticmethod
    def _param_names(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> set[str]:
        args = node.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        return names

    @staticmethod
    def _forwards_backend(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Name) and sub.id == "backend":
                    if isinstance(sub.ctx, ast.Load):
                        return True
        return False

    def _check_function(
        self,
        ctx: ModuleContext,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
        label: str,
    ) -> None:
        if "backend" not in self._param_names(node):
            ctx.report(
                self,
                node,
                f"{label} must accept a backend= parameter "
                f"({'|'.join(sorted(VALID_BACKENDS))})",
            )
        elif not self._forwards_backend(node):
            ctx.report(
                self,
                node,
                f"{label} accepts backend= but never reads it; forward it to "
                "the extraction substrate",
            )

    def visit_FunctionDef(self, ctx: ModuleContext, node: ast.FunctionDef) -> None:
        if node.name in self._ENTRY_FUNCTIONS:
            self._check_function(ctx, node, f"{node.name}()")

    def visit_AsyncFunctionDef(
        self, ctx: ModuleContext, node: ast.AsyncFunctionDef
    ) -> None:
        if node.name in self._ENTRY_FUNCTIONS:
            self._check_function(ctx, node, f"{node.name}()")

    def visit_ClassDef(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        if node.name in self._ENTRY_CLASSES:
            init = next(
                (
                    stmt
                    for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
                ),
                None,
            )
            if init is None:
                ctx.report(
                    self,
                    node,
                    f"{node.name} must define __init__ with a backend= parameter",
                )
            else:
                self._check_function(ctx, init, f"{node.name}.__init__")
        elif node.name in self._CONFIG_CLASSES:
            has_backend = any(
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "backend"
                for stmt in node.body
            )
            if not has_backend:
                ctx.report(
                    self,
                    node,
                    f"{node.name} must declare a `backend` field",
                )


class BackendDispatchRule(Rule):
    """R202: backend dispatch is literal-correct and exhaustive.

    Comparing a ``backend`` variable against anything outside
    ``{"dict", "csr"}`` is a typo that silently falls through.
    A multi-branch if/elif dispatch on backend literals must end in a
    plain ``else``, cover both concrete substrates, or raise.  The
    edge-checked complement validates the *call-site* side of the same
    contract: any call passing a literal ``backend="..."`` must use a
    valid selector — a typo at one hop's distance is still a typo.
    """

    id = "R202"
    name = "backend-dispatch"
    summary = "non-exhaustive or mistyped backend dispatch"
    scope = ("repro",)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._elif_members: set[int] = set()

    def visit_Call(self, ctx: ModuleContext, node: ast.Call) -> None:
        for kw in node.keywords:
            if (
                kw.arg == "backend"
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
                and kw.value.value not in VALID_BACKENDS
            ):
                ctx.report(
                    self,
                    node,
                    f"call passes invalid backend literal "
                    f"{kw.value.value!r}; valid values are "
                    f"{'|'.join(sorted(VALID_BACKENDS))}",
                )

    def _backend_literals(self, test: ast.AST) -> "list[str] | None":
        """Backend string literals compared in ``test``, or ``None``."""
        if not isinstance(test, ast.Compare) or len(test.comparators) != 1:
            return None
        left, right = test.left, test.comparators[0]
        op = test.ops[0]
        if not isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)):
            return None
        for selector, other in ((left, right), (right, left)):
            if _is_backend_name(selector):
                return _string_literals(other)
        return None

    def visit_Compare(self, ctx: ModuleContext, node: ast.Compare) -> None:
        literals = self._backend_literals(node)
        if literals is None:
            return
        invalid = sorted(set(literals) - VALID_BACKENDS)
        if invalid:
            ctx.report(
                self,
                node,
                f"backend compared against invalid literal(s) "
                f"{', '.join(map(repr, invalid))}; valid values are "
                f"{'|'.join(sorted(VALID_BACKENDS))}",
            )

    def visit_If(self, ctx: ModuleContext, node: ast.If) -> None:
        if id(node) in self._elif_members:
            return
        chain: list[ast.If] = []
        current = node
        while True:
            chain.append(current)
            if len(current.orelse) == 1 and isinstance(current.orelse[0], ast.If):
                current = current.orelse[0]
                self._elif_members.add(id(current))
            else:
                break
        covered: set[str] = set()
        backend_branches = 0
        for branch in chain:
            literals = self._backend_literals(branch.test)
            if literals is not None:
                backend_branches += 1
                covered.update(literals)
        if backend_branches < 2:
            return  # a lone guard, not a dispatch chain
        has_else = bool(chain[-1].orelse)
        raises = any(
            isinstance(sub, ast.Raise)
            for branch in chain
            for stmt in branch.body
            for sub in ast.walk(stmt)
        )
        if not has_else and not {"dict", "csr"} <= covered and not raises:
            ctx.report(
                self,
                node,
                "backend dispatch chain is not exhaustive: add an else branch, "
                "cover both 'dict' and 'csr', or raise on unknown values",
            )


# ----------------------------------------------------------------------
# R3xx — API contracts
# ----------------------------------------------------------------------
class MutableDefaultRule(Rule):
    """R301: no mutable default arguments."""

    id = "R301"
    name = "mutable-default"
    summary = "mutable default argument (shared across calls)"
    scope = ("repro",)

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        return _call_name(node) in self._MUTABLE_CALLS

    def _check(
        self, ctx: ModuleContext, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if self._is_mutable(default):
                ctx.report(
                    self,
                    default,
                    f"mutable default argument in {node.name}(); "
                    "default to None and create inside the body",
                )

    def visit_FunctionDef(self, ctx: ModuleContext, node: ast.FunctionDef) -> None:
        self._check(ctx, node)

    def visit_AsyncFunctionDef(
        self, ctx: ModuleContext, node: ast.AsyncFunctionDef
    ) -> None:
        self._check(ctx, node)


class BareExceptRule(Rule):
    """R302: no bare ``except:`` (swallows KeyboardInterrupt/SystemExit)."""

    id = "R302"
    name = "bare-except"
    summary = "bare except: clause"
    scope = ("repro",)

    def visit_ExceptHandler(
        self, ctx: ModuleContext, node: ast.ExceptHandler
    ) -> None:
        if node.type is None:
            ctx.report(
                self,
                node,
                "bare except: catches KeyboardInterrupt and SystemExit; "
                "name the exception class (at minimum `except Exception:`)",
            )


class SpanContextRule(Rule):
    """R303: obs spans are opened via ``with span(...)`` or ``@span(...)``.

    A bare ``span(...)`` call creates a span object that is never entered
    or closed — the timing silently records nothing and nests wrongly.
    """

    id = "R303"
    name = "span-context"
    summary = "span(...) used outside a with-statement or decorator"
    scope = ("repro",)

    _EXEMPT_PREFIX = "repro.obs"

    def applies_to(self, module: str) -> bool:
        if module == self._EXEMPT_PREFIX or module.startswith(
            self._EXEMPT_PREFIX + "."
        ):
            return False
        return super().applies_to(module)

    def begin_module(self, ctx: ModuleContext) -> None:
        self._allowed: set[int] = set()

    @staticmethod
    def _is_span_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "span"
        if isinstance(func, ast.Attribute):
            return func.attr == "span"
        return False

    def _allow_decorators(
        self,
        node: "ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef",
    ) -> None:
        for decorator in node.decorator_list:
            self._allowed.add(id(decorator))

    def visit_With(self, ctx: ModuleContext, node: ast.With) -> None:
        for item in node.items:
            self._allowed.add(id(item.context_expr))

    def visit_AsyncWith(self, ctx: ModuleContext, node: ast.AsyncWith) -> None:
        for item in node.items:
            self._allowed.add(id(item.context_expr))

    def visit_FunctionDef(self, ctx: ModuleContext, node: ast.FunctionDef) -> None:
        self._allow_decorators(node)

    def visit_AsyncFunctionDef(
        self, ctx: ModuleContext, node: ast.AsyncFunctionDef
    ) -> None:
        self._allow_decorators(node)

    def visit_ClassDef(self, ctx: ModuleContext, node: ast.ClassDef) -> None:
        self._allow_decorators(node)

    def visit_Call(self, ctx: ModuleContext, node: ast.Call) -> None:
        if self._is_span_call(node) and id(node) not in self._allowed:
            ctx.report(
                self,
                node,
                "span(...) must be opened as `with span(...):` or used as a "
                "@span(...) decorator; a bare call records nothing",
            )


class TraceContextKwargRule(Rule):
    """R304: serving entry points accept and forward ``rctx=``.

    Request-scoped trace context does not survive queue hand-offs or
    executor hops on its own (contextvars are task-local), so the
    serving entry functions — ``recommend``, ``recommend_many`` and
    ``ingest`` — carry it explicitly as an ``rctx`` keyword.  An entry
    point that drops the parameter silently severs every span below it
    from its request trace; one that accepts but never reads it does
    the same thing while looking wired up.
    """

    id = "R304"
    name = "trace-context-kwarg"
    summary = "serving entry point missing/ignoring the rctx parameter"
    scope = ("repro.serve",)

    _ENTRY_FUNCTIONS = frozenset({"recommend", "recommend_many", "ingest"})

    @staticmethod
    def _param_names(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> set[str]:
        args = node.args
        names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if args.vararg:
            names.add(args.vararg.arg)
        if args.kwarg:
            names.add(args.kwarg.arg)
        return names

    @staticmethod
    def _reads_rctx(node: "ast.FunctionDef | ast.AsyncFunctionDef") -> bool:
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Name)
                    and sub.id == "rctx"
                    and isinstance(sub.ctx, ast.Load)
                ):
                    return True
        return False

    def _check_function(
        self,
        ctx: ModuleContext,
        node: "ast.FunctionDef | ast.AsyncFunctionDef",
    ) -> None:
        if "rctx" not in self._param_names(node):
            ctx.report(
                self,
                node,
                f"{node.name}() must accept an rctx= trace-context parameter; "
                "contextvars do not cross the batching queue, so spans below "
                "this entry point lose their request trace",
            )
        elif not self._reads_rctx(node):
            ctx.report(
                self,
                node,
                f"{node.name}() accepts rctx= but never reads it; forward it "
                "into the spans/jobs this entry point creates",
            )

    def visit_FunctionDef(self, ctx: ModuleContext, node: ast.FunctionDef) -> None:
        if node.name in self._ENTRY_FUNCTIONS:
            self._check_function(ctx, node)

    def visit_AsyncFunctionDef(
        self, ctx: ModuleContext, node: ast.AsyncFunctionDef
    ) -> None:
        if node.name in self._ENTRY_FUNCTIONS:
            self._check_function(ctx, node)


class AnnotationCoverageRule(Rule):
    """R305: full annotation coverage in the strict-typed packages.

    This is the locally-enforceable face of the ``mypy --strict`` gate:
    mypy runs in CI (it is not vendored here), but missing annotations —
    the bulk of what strict mode rejects — are caught offline by this
    rule.
    """

    id = "R305"
    name = "annotation-coverage"
    summary = "missing parameter/return annotations in strict-typed packages"
    scope = (
        "repro.core",
        "repro.graph",
        "repro.analysis",
        "repro.utils",
        "repro.robust",
        "repro.obs.aggregate",
        "repro.obs.export",
        "repro.obs.bench",
        "repro.obs.report",
        "repro.obs.live",
        "repro.obs.trace",
        "repro.obs.slo",
        "repro.obs.contprof",
    )

    def _check(
        self, ctx: ModuleContext, node: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        args = node.args
        positional = args.posonlyargs + args.args
        missing: list[str] = []
        for index, arg in enumerate(positional):
            if index == 0 and arg.arg in ("self", "cls"):
                continue
            if arg.annotation is None:
                missing.append(arg.arg)
        missing.extend(
            arg.arg for arg in args.kwonlyargs if arg.annotation is None
        )
        for star, prefix in ((args.vararg, "*"), (args.kwarg, "**")):
            if star is not None and star.annotation is None:
                missing.append(prefix + star.arg)
        parts: list[str] = []
        if missing:
            parts.append(f"unannotated parameter(s) {', '.join(missing)}")
        if node.returns is None:
            parts.append("missing return annotation")
        if parts:
            ctx.report(self, node, f"{node.name}(): {'; '.join(parts)}")

    def visit_FunctionDef(self, ctx: ModuleContext, node: ast.FunctionDef) -> None:
        self._check(ctx, node)

    def visit_AsyncFunctionDef(
        self, ctx: ModuleContext, node: ast.AsyncFunctionDef
    ) -> None:
        self._check(ctx, node)


# ----------------------------------------------------------------------
# R4xx — numeric hygiene
# ----------------------------------------------------------------------
class FloatEqualityRule(Rule):
    """R401: no ``==``/``!=`` against float-typed values.

    Influence values are ``exp(-θ·Δt)`` products (Eq. 4); comparing them
    with ``==`` breaks the moment accumulation order or backend changes.
    Use ``math.isclose`` or an explicit tolerance.
    """

    id = "R401"
    name = "float-equality"
    summary = "float equality comparison on influence-scale values"
    scope = ("repro.core", "repro.graph", "repro.analysis")

    _TRANSCENDENTAL = frozenset(
        {"exp", "expm1", "log", "log1p", "log2", "sqrt", "power"}
    )
    _MATH_MODULES = frozenset({"math", "np", "numpy"})
    _INFLUENCE_FUNCS = frozenset(
        {"link_influence", "normalized_influence", "unique_stamp_influences"}
    )

    def _is_float_valued(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant):
            return isinstance(node.value, float)
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in self._INFLUENCE_FUNCS:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._TRANSCENDENTAL
                and isinstance(func.value, ast.Name)
                and func.value.id in self._MATH_MODULES
            ):
                return True
        return False

    def visit_Compare(self, ctx: ModuleContext, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        has_eq = any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
        if has_eq and any(self._is_float_valued(operand) for operand in operands):
            ctx.report(
                self,
                node,
                "float equality on an influence-scale value; use "
                "math.isclose(..., rel_tol=...) or an explicit tolerance",
            )


# ----------------------------------------------------------------------
# R5xx — resource / concurrency safety (CFG + call-graph powered)
# ----------------------------------------------------------------------
class _Resource:
    """One tracked resource inside a function body."""

    __slots__ = ("var", "kind", "node_id", "stmt", "is_owner")

    def __init__(
        self, var: str, kind: str, node_id: int, stmt: ast.stmt, is_owner: bool
    ) -> None:
        self.var = var
        self.kind = kind
        self.node_id = node_id
        self.stmt = stmt
        self.is_owner = is_owner


class ResourceLifecycleRule(Rule):
    """R501: resources reach their release on every CFG path.

    Tracked resource kinds and their release/transfer vocabulary:

    * ``shm`` — ``SharedMemory(...)`` create or attach.  Release is
      ``.close()``/``.unlink()``; passing the bare object onward or
      storing it into an attribute transfers ownership.
    * ``handle`` — ``*.to_shared()`` snapshot handles.  Release is
      ``.unlink()``/``.close()``; only return/attribute-store transfers
      (handles are routinely passed by reference for attach).
    * ``fd`` — ``os.open(...)``.  Release is ``os.close(fd)``; passing
      the fd onward (e.g. ``os.fdopen``) transfers.
    * ``staging`` — atomic-replace temp paths (``with_suffix``/
      ``with_name``/``Path`` expressions naming ``tmp``).  The leak
      starts at the first write through the path (a partially written
      file survives an exception mid-write), and release is
      ``os.replace``/``os.rename``/``.unlink()``/``.rename()``/
      ``.replace()``.

    The query is MAY-reach over the function CFG including exception
    edges: if any path from the creation (or first write) reaches a
    normal or exceptional exit without hitting a release/transfer node,
    the resource leaks on that path.  A guard ``if`` whose test mentions
    the resource and whose body releases it absorbs paths too (the
    ``if handle is not None: handle.unlink()`` finally idiom).
    """

    id = "R501"
    name = "resource-lifecycle"
    summary = "SharedMemory/fd/staging file may leak on some CFG path"
    scope = ("repro",)

    _SHM_RELEASES = frozenset({"close", "unlink"})
    _HANDLE_RELEASES = frozenset({"unlink", "close"})
    _STAGING_RELEASES = frozenset({"unlink", "rename", "replace"})
    _STAGING_CTORS = frozenset({"with_suffix", "with_name", "joinpath", "Path"})

    def visit_FunctionDef(self, ctx: ModuleContext, node: ast.FunctionDef) -> None:
        self._analyze(ctx, node)

    def visit_AsyncFunctionDef(
        self, ctx: ModuleContext, node: ast.AsyncFunctionDef
    ) -> None:
        self._analyze(ctx, node)

    # -- resource discovery -------------------------------------------
    @staticmethod
    def _call_tail(call: ast.Call) -> str:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return ""

    @staticmethod
    def _has_tmp_constant(expr: ast.AST) -> bool:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if "tmp" in sub.value:
                    return True
        return False

    def _classify(self, stmt: ast.stmt) -> "_Resource | None":
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return None
        target = stmt.targets[0]
        if not isinstance(target, ast.Name) or not isinstance(stmt.value, ast.Call):
            return None
        call = stmt.value
        tail = self._call_tail(call)
        if tail == "SharedMemory":
            is_owner = any(
                kw.arg == "create"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in call.keywords
            )
            return _Resource(target.id, "shm", -1, stmt, is_owner)
        if tail == "to_shared":
            return _Resource(target.id, "handle", -1, stmt, True)
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "open"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "os"
        ):
            return _Resource(target.id, "fd", -1, stmt, True)
        if tail in self._STAGING_CTORS and self._has_tmp_constant(call):
            return _Resource(target.id, "staging", -1, stmt, True)
        return None

    # -- per-statement classification ---------------------------------
    def _releases(self, stmt: ast.stmt, resource: _Resource) -> bool:
        var = resource.var
        methods = method_calls_on(stmt, var)
        if resource.kind == "shm" and methods & self._SHM_RELEASES:
            return True
        if resource.kind == "handle" and methods & self._HANDLE_RELEASES:
            return True
        if resource.kind == "staging" and methods & self._STAGING_RELEASES:
            return True
        if resource.kind in ("fd", "staging"):
            # os.close(fd) / os.replace(tmp, dst) / os.rename(tmp, dst)
            wanted = {"close"} if resource.kind == "fd" else {"replace", "rename"}
            for expr in own_exprs(stmt):
                for sub in ast.walk(expr):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in wanted
                        and isinstance(sub.func.value, ast.Name)
                        and sub.func.value.id == "os"
                        and sub.args
                        and isinstance(sub.args[0], ast.Name)
                        and sub.args[0].id == var
                    ):
                        return True
        # `with resource:` closes on exit for context-managed kinds.
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id == var:
                    return True
                if (
                    isinstance(expr, ast.Call)
                    and expr.args
                    and isinstance(expr.args[0], ast.Name)
                    and expr.args[0].id == var
                ):
                    return True
        return False

    def _escapes(self, stmt: ast.stmt, resource: _Resource) -> bool:
        var = resource.var
        if returns_name(stmt, var) or stores_into_attribute(stmt, var):
            return True
        if resource.kind == "shm" and bare_name_args(stmt, var):
            return True
        if resource.kind == "fd":
            # os.read/os.write/... operate on the descriptor without
            # taking ownership; only os.fdopen wraps-and-owns it.
            for call in bare_name_args(stmt, var):
                func = call.func
                if (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "os"
                    and func.attr != "fdopen"
                ):
                    continue
                return True
        return False

    # -- the path query ------------------------------------------------
    def _analyze(
        self, ctx: ModuleContext, fn: "ast.FunctionDef | ast.AsyncFunctionDef"
    ) -> None:
        resources: list[_Resource] = []
        for stmt in ast.walk(fn):
            if isinstance(stmt, ast.Assign):
                resource = self._classify(stmt)
                if resource is not None:
                    resources.append(resource)
        if not resources:
            return
        cfg = build_cfg(fn)
        stmt_nodes = list(cfg.statement_nodes())
        node_by_stmt = {id(stmt): node_id for node_id, stmt in stmt_nodes}
        for resource in resources:
            node_id = node_by_stmt.get(id(resource.stmt))
            if node_id is None:
                continue  # creation inside a nested def; out of scope
            resource.node_id = node_id
            blockers: set[int] = set()
            for other_id, stmt in stmt_nodes:
                if other_id == node_id:
                    continue
                if self._releases(stmt, resource) or self._escapes(stmt, resource):
                    blockers.add(other_id)
                elif isinstance(stmt, ast.If) and uses_name(stmt, resource.var):
                    # guard-and-release idiom: the branch head absorbs
                    # when its subtree releases the resource.
                    guarded = ast.Module(body=stmt.body + stmt.orelse, type_ignores=[])
                    if any(
                        self._releases(inner, resource)
                        for inner in ast.walk(guarded)
                        if isinstance(inner, ast.stmt)
                    ):
                        blockers.add(other_id)
            if resource.kind == "staging":
                starts = [
                    other_id
                    for other_id, stmt in stmt_nodes
                    if other_id != node_id
                    and other_id not in blockers
                    and (
                        method_calls_on(stmt, resource.var)
                        or bare_name_args(stmt, resource.var)
                    )
                ]
                leaking = [
                    start
                    for start in starts
                    if leaks_past(
                        cfg, start, blockers, include_start_exceptions=True
                    )
                ]
                if leaking:
                    first = min(leaking)
                    stmt = dict(stmt_nodes)[first]
                    ctx.report(
                        self,
                        stmt,
                        f"staging file {resource.var!r} may be left behind: a "
                        "path from this write reaches function exit without "
                        "os.replace()/unlink(); wrap in try/finally like "
                        "repro.obs.live.atomic_write_text",
                    )
                continue
            if leaks_past(cfg, node_id, blockers):
                kind_label = {
                    "shm": "SharedMemory block",
                    "handle": "shared snapshot handle",
                    "fd": "file descriptor",
                }[resource.kind]
                release_hint = {
                    "shm": "close() (and unlink() for the creating owner)"
                    if resource.is_owner
                    else "close()",
                    "handle": "unlink()",
                    "fd": "os.close()",
                }[resource.kind]
                ctx.report(
                    self,
                    resource.stmt,
                    f"{kind_label} {resource.var!r} may leak: a path from its "
                    f"creation reaches function exit (incl. exception paths) "
                    f"without {release_hint} or an ownership transfer",
                )


class PreForkConcurrencyRule(Rule):
    """R502: no thread start / lock acquisition before a fork Pool spawn.

    ``fork`` clones only the calling thread; any *other* thread holding
    a lock at fork time leaves that lock permanently held in the child.
    The rule walks backwards from every pool-spawn point (direct, or
    through resolved callees up to two hops) and flags earlier thread
    starts and lock acquisitions — both in the spawning function itself
    and inside callees reached before the spawn.  Modules that install
    ``os.register_at_fork`` handlers (reinitialising their locks in the
    child) are exempt: that is precisely the sanctioned fix.
    """

    id = "R502"
    name = "pre-fork-concurrency"
    summary = "thread start/lock acquisition before a fork-method Pool spawn"
    scope = ("repro",)

    _project: "ProjectIndex | None" = None
    _SPAWN_HOPS = 2
    _LOCK_HOPS = 3

    def begin_project(self, project: ProjectIndex) -> None:
        self._project = project
        self._spawners = {
            qualname
            for qualname, info in project.functions.items()
            if info.spawns_pool
        }

    def _module_exempt(self, qualname: str) -> bool:
        assert self._project is not None
        module = self._project.module_of(qualname)
        return module is not None and module.registers_at_fork

    def finish_module(self, ctx: ModuleContext) -> None:
        project = self._project
        if project is None:
            return
        for info in project.functions.values():
            if info.module != ctx.module:
                continue
            spawn_lines = list(info.pool_lines)
            for call in info.calls:
                if call.resolved is None:
                    continue
                if call.resolved in self._spawners or any(
                    callee in self._spawners
                    for callee in project.callees(call.resolved, self._SPAWN_HOPS)
                ):
                    spawn_lines.append(call.line)
            if not spawn_lines:
                continue
            first_spawn = min(spawn_lines)
            own_exempt = self._module_exempt(info.qualname)
            for line in info.lock_lines:
                if line < first_spawn and not own_exempt:
                    ctx.report(
                        self,
                        _Loc(line),
                        f"{info.name}() acquires a lock before spawning a "
                        "fork-method Pool; a forked child can inherit it "
                        "held (add an os.register_at_fork handler or move "
                        "the acquisition after the spawn)",
                    )
            for line in info.thread_lines:
                if line < first_spawn and not own_exempt:
                    ctx.report(
                        self,
                        _Loc(line),
                        f"{info.name}() starts a thread before spawning a "
                        "fork-method Pool; threads hold locks across fork "
                        "(add an os.register_at_fork handler or start the "
                        "pool first)",
                    )
            reported_calls: set[int] = set()
            for call in info.calls:
                if call.resolved is None or call.line >= first_spawn:
                    continue
                if call.line in spawn_lines or call.line in reported_calls:
                    continue
                closure = {call.resolved} | set(
                    project.callees(call.resolved, self._LOCK_HOPS)
                )
                for callee in sorted(closure):
                    target = project.functions.get(callee)
                    if target is None:
                        continue
                    if not (target.lock_lines or target.thread_lines):
                        continue
                    if self._module_exempt(callee):
                        continue
                    chain = project.call_chain(
                        call.resolved, callee, self._LOCK_HOPS
                    )
                    names = [info.name] + [
                        project.functions[q].name
                        for q in (chain or [call.resolved, callee])
                        if q in project.functions
                    ]
                    hazard = "acquires a lock" if target.lock_lines else "starts a thread"
                    ctx.report(
                        self,
                        _Loc(call.line),
                        f"call before the Pool spawn at line {first_spawn} "
                        f"reaches {target.name}(), which {hazard} in module "
                        f"{target.module} (no os.register_at_fork handler); "
                        "a forked worker can deadlock on the inherited lock",
                        chain=">".join(dict.fromkeys(names)),
                    )
                    reported_calls.add(call.line)
                    break


class WorkerGlobalWriteRule(Rule):
    """R503: pool initializers/workers write only sanctioned globals.

    Rebinding a module-level global (``global X; X = ...``) inside a
    pool initializer or worker entry point creates per-process state the
    parent never sees — the exact bug class behind worker warm-up
    accounting.  The sanctioned exception is the observability reset
    set: every function transitively reachable from
    ``repro.obs.aggregate.apply_worker_obs_state`` (the documented
    worker-side reset), resolved from the call graph rather than
    name-matched.  The fix idiom is a module-level state *container*
    whose attributes are mutated instead of rebound.
    """

    id = "R503"
    name = "worker-global-write"
    summary = "pool initializer/worker rebinds unsanctioned module globals"
    scope = ("repro",)

    _project: "ProjectIndex | None" = None
    _ENTRY_HOPS = 4
    _SANCTION_ROOT = "apply_worker_obs_state"

    def begin_project(self, project: ProjectIndex) -> None:
        self._project = project
        sanction_seeds = [
            info.qualname
            for info in project.functions.values()
            if info.name == self._SANCTION_ROOT
        ]
        self._sanctioned = project.closure(sanction_seeds)
        self._offenders: dict[str, str] = {}
        entries: dict[str, str] = {}
        for module in project.modules.values():
            for ref, role in [
                (ref, "initializer") for ref in module.initializer_refs
            ] + [(ref, "worker") for ref in module.worker_entry_refs]:
                resolved = resolve_ref(project, module.name, ref)
                if resolved is not None:
                    entries[resolved] = role
        for entry, role in entries.items():
            closure = {entry} | set(project.callees(entry, self._ENTRY_HOPS))
            for qualname in closure:
                info = project.functions.get(qualname)
                if info is None or not info.global_writes:
                    continue
                if qualname in self._sanctioned:
                    continue
                self._offenders.setdefault(qualname, entry)

    def finish_module(self, ctx: ModuleContext) -> None:
        project = self._project
        if project is None:
            return
        for qualname, entry in sorted(self._offenders.items()):
            info = project.functions[qualname]
            if info.module != ctx.module:
                continue
            entry_info = project.functions.get(entry)
            entry_name = entry_info.name if entry_info else entry
            if qualname == entry:
                chain = entry_name
            else:
                path = project.call_chain(entry, qualname, self._ENTRY_HOPS)
                names = [
                    project.functions[q].name
                    for q in (path or [entry, qualname])
                    if q in project.functions
                ]
                chain = ">".join(dict.fromkeys(names))
            for global_name, line in info.global_writes:
                ctx.report(
                    self,
                    _Loc(line),
                    f"{info.name}() rebinds module global {global_name!r} on "
                    "the worker path; outside the sanctioned "
                    "repro.obs.aggregate reset set this is per-process "
                    "state the parent never sees — mutate a module-level "
                    "state container instead",
                    chain=chain,
                )


class ArenaEscapeRule(Rule):
    """R504: preallocated arena buffers never alias into return values.

    ``BatchArena``-style scratch buffers are reused across pairs inside
    one engine pass; a returned view of one would be silently clobbered
    by the next pass.  The rule tracks, per function, names aliasing an
    arena attribute's buffers (including subscript views) and flags any
    return/yield whose value still references one un-copied.
    """

    id = "R504"
    name = "arena-escape"
    summary = "arena/preallocated buffer aliased into a returned value"
    scope = ("repro",)

    _ALLOC_CALLS = frozenset({"empty", "zeros", "ones", "full", "arange"})
    _SANITIZERS = frozenset({"copy", "astype", "tolist", "array", "asarray"})

    def finish_module(self, ctx: ModuleContext) -> None:
        arena_classes: dict[str, set[str]] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Arena"):
                buffers: set[str] = set()
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Assign)
                        and len(sub.targets) == 1
                        and isinstance(sub.targets[0], ast.Attribute)
                        and isinstance(sub.targets[0].value, ast.Name)
                        and sub.targets[0].value.id == "self"
                        and isinstance(sub.value, ast.Call)
                        and isinstance(sub.value.func, ast.Attribute)
                        and sub.value.func.attr in self._ALLOC_CALLS
                    ):
                        buffers.add(sub.targets[0].attr)
                if buffers:
                    arena_classes[node.name] = buffers
        if not arena_classes:
            return
        holder_attrs: set[str] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and isinstance(node.value, ast.Call)
                and self._call_name_of(node.value) in arena_classes
            ):
                holder_attrs.add(node.targets[0].attr)
        all_buffers = set().union(*arena_classes.values())

        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        class_stack: list[str] = []

        def in_arena_class() -> bool:
            return bool(class_stack) and class_stack[-1] in arena_classes

        def walk(node: ast.AST) -> None:
            if isinstance(node, ast.ClassDef):
                class_stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    walk(child)
                class_stack.pop()
                return
            if isinstance(node, functions):
                if not in_arena_class():
                    self._check_function(ctx, node, holder_attrs, all_buffers)
                for child in ast.iter_child_nodes(node):
                    walk(child)
                return
            for child in ast.iter_child_nodes(node):
                walk(child)

        walk(ctx.tree)

    @staticmethod
    def _call_name_of(call: ast.Call) -> str:
        if isinstance(call.func, ast.Name):
            return call.func.id
        if isinstance(call.func, ast.Attribute):
            return call.func.attr
        return ""

    def _check_function(
        self,
        ctx: ModuleContext,
        fn: "ast.FunctionDef | ast.AsyncFunctionDef",
        holder_attrs: "set[str]",
        buffers: "set[str]",
    ) -> None:
        arena_names: set[str] = set()
        buffer_names: set[str] = set()

        def is_arena_expr(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in arena_names
            if isinstance(expr, ast.Attribute):
                return expr.attr in holder_attrs
            return False

        def is_buffer_expr(expr: ast.AST) -> bool:
            if isinstance(expr, ast.Name):
                return expr.id in buffer_names
            if isinstance(expr, ast.Attribute):
                return expr.attr in buffers and is_arena_expr(expr.value)
            if isinstance(expr, ast.Subscript):
                return is_buffer_expr(expr.value)
            return False

        def sanitized(expr: ast.AST) -> bool:
            return (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr in self._SANITIZERS
            ) or (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Name)
                and expr.func.id in self._SANITIZERS
            )

        def scan_value(expr: ast.AST) -> "ast.AST | None":
            """First un-sanitized arena-buffer reference in ``expr``."""
            if sanitized(expr):
                return None
            if is_buffer_expr(expr):
                return expr
            for child in ast.iter_child_nodes(expr):
                hit = scan_value(child)
                if hit is not None:
                    return hit
            return None

        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    value = node.value
                    if is_arena_expr(value):
                        arena_names.add(target.id)
                    elif not sanitized(value) and is_buffer_expr(value):
                        buffer_names.add(target.id)
                    else:
                        arena_names.discard(target.id)
                        buffer_names.discard(target.id)
            candidate: "ast.AST | None" = None
            if isinstance(node, ast.Return) and node.value is not None:
                candidate = node.value
            elif isinstance(node, (ast.Yield, ast.YieldFrom)) and node.value is not None:
                candidate = node.value
            if candidate is not None:
                hit = scan_value(candidate)
                if hit is not None:
                    ctx.report(
                        self,
                        node,
                        f"{fn.name}() returns a view of a preallocated arena "
                        "buffer; the next engine pass will clobber it — "
                        "return a .copy() or materialise into a fresh array",
                    )


# ----------------------------------------------------------------------
# R6xx — numpy hygiene
# ----------------------------------------------------------------------
class Int32WideningRule(Rule):
    """R601: int32 CSR index arithmetic widens before multiply/cumsum.

    CSR adjacency stores ``indices`` as int32 (half the shm footprint);
    key arithmetic like ``owner * n_nodes + neighbor`` overflows int32
    at SNAP scale unless the int32 operand is widened first.  Addition
    with an int64 operand promotes safely and is not flagged; multiply,
    power and cumulative reductions are where the overflow bites.
    """

    id = "R601"
    name = "int32-widening"
    summary = "int32 index arithmetic without widening before multiply/cumsum"
    scope = ("repro.core", "repro.graph")

    _INT32_TOKENS = frozenset({"int32"})
    _WIDE_TOKENS = frozenset({"int64", "uint64", "float64"})

    @staticmethod
    def _dtype_token(expr: ast.AST) -> "str | None":
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        return None

    def _dtype_of_call(self, call: ast.Call) -> "str | None":
        if isinstance(call.func, ast.Attribute) and call.func.attr == "astype":
            if call.args:
                return self._dtype_token(call.args[0])
        for kw in call.keywords:
            if kw.arg == "dtype":
                return self._dtype_token(kw.value)
        return None

    def _is_int32(self, expr: ast.AST, names: "set[str]") -> bool:
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.Attribute):
            return expr.attr == "indices"
        if isinstance(expr, ast.Subscript):
            return self._is_int32(expr.value, names)
        if isinstance(expr, ast.Call):
            dtype = self._dtype_of_call(expr)
            return dtype in self._INT32_TOKENS
        return False

    def finish_module(self, ctx: ModuleContext) -> None:
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)

        def walk(node: ast.AST, names: "set[str]") -> None:
            if isinstance(node, functions):
                inner: set[str] = set()
                for child in ast.iter_child_nodes(node):
                    walk(child, inner)
                return
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    value = node.value
                    if isinstance(value, ast.Call):
                        dtype = self._dtype_of_call(value)
                        if dtype in self._INT32_TOKENS:
                            names.add(target.id)
                        elif dtype in self._WIDE_TOKENS:
                            names.discard(target.id)
                        elif self._is_int32(value, names):
                            names.add(target.id)
                        else:
                            names.discard(target.id)
                    elif self._is_int32(value, names):
                        names.add(target.id)
                    else:
                        names.discard(target.id)
            if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Mult, ast.Pow)
            ):
                for operand in (node.left, node.right):
                    if self._is_int32(operand, names):
                        ctx.report(
                            self,
                            node,
                            "multiply on an int32 index array can overflow "
                            "at SNAP scale; widen first with "
                            ".astype(np.int64)",
                        )
                        break
            if isinstance(node, ast.Call):
                func = node.func
                is_cumsum = (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("cumsum", "cumprod", "prod")
                )
                if is_cumsum:
                    assert isinstance(func, ast.Attribute)
                    target_expr: "ast.AST | None"
                    if isinstance(func.value, ast.Name) and func.value.id in (
                        "np",
                        "numpy",
                    ):
                        target_expr = node.args[0] if node.args else None
                    else:
                        target_expr = func.value
                    has_wide_dtype = any(
                        kw.arg == "dtype"
                        and self._dtype_token(kw.value) in self._WIDE_TOKENS
                        for kw in node.keywords
                    )
                    if (
                        target_expr is not None
                        and not has_wide_dtype
                        and self._is_int32(target_expr, names)
                    ):
                        ctx.report(
                            self,
                            node,
                            f"{func.attr} over an int32 index array "
                            "accumulates in int32 and can overflow; pass "
                            "dtype=np.int64 or widen first",
                        )
            for child in ast.iter_child_nodes(node):
                walk(child, names)

        walk(ctx.tree, set())


class StableSortRule(Rule):
    """R602: no reliance on unspecified sort tie order in feature code.

    ``np.argsort``/``np.sort`` default to introsort, whose tie order is
    unspecified and can differ across numpy versions and platforms —
    feature vectors built from positional pairings then stop being
    bit-identical.  Feature code must pass ``kind="stable"`` (or a
    documented pragma); ``np.lexsort`` is stable by definition and
    exempt.  ``np.unique(..., return_index=True)`` is tie-dependent the
    same way.
    """

    id = "R602"
    name = "stable-sort"
    summary = "np.sort/np.argsort/np.unique without stable tie order"
    scope = ("repro.core", "repro.graph")

    _STABLE_KINDS = frozenset({"stable", "mergesort"})

    def visit_Call(self, ctx: ModuleContext, node: ast.Call) -> None:
        func = node.func
        name: "str | None" = None
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"):
                name = func.attr
            elif func.attr == "argsort":
                name = "argsort"
        if name not in ("sort", "argsort", "unique"):
            return
        if name == "unique":
            wants_index = any(
                kw.arg == "return_index"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in node.keywords
            )
            if wants_index:
                ctx.report(
                    self,
                    node,
                    "np.unique(return_index=True) picks an unspecified index "
                    "among ties; sort stably first or document a pragma",
                )
            return
        kind = next(
            (
                kw.value.value
                for kw in node.keywords
                if kw.arg == "kind"
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            ),
            None,
        )
        if kind not in self._STABLE_KINDS:
            ctx.report(
                self,
                node,
                f"{name}() without kind=\"stable\": introsort tie order is "
                "unspecified and breaks bit-identical feature vectors",
            )


class AccumulationDtypeRule(Rule):
    """R603: no dtype mixing in loops accumulating influence sums.

    The Eq. 4/5 influence sums are float64 by contract (the backend
    differential compares them bit-for-bit).  A float32 accumulator —
    or float32 terms folded into a float64 accumulator — changes the
    rounding of every partial sum.
    """

    id = "R603"
    name = "accumulation-dtype-mix"
    summary = "mixed float dtypes in an accumulation loop"
    scope = ("repro.core", "repro.graph")

    _NARROW = frozenset({"float32", "float16"})
    _WIDE = frozenset({"float64"})

    @staticmethod
    def _dtype_token(expr: ast.AST) -> "str | None":
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return expr.id
        if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
            return expr.value
        return None

    def _dtype_of(self, value: ast.AST) -> "str | None":
        if not isinstance(value, ast.Call):
            return None
        if isinstance(value.func, ast.Attribute) and value.func.attr == "astype":
            if value.args:
                return self._dtype_token(value.args[0])
        for kw in value.keywords:
            if kw.arg == "dtype":
                return self._dtype_token(kw.value)
        return None

    def finish_module(self, ctx: ModuleContext) -> None:
        functions = (ast.FunctionDef, ast.AsyncFunctionDef)
        loops = (ast.For, ast.AsyncFor, ast.While)

        def walk(node: ast.AST, narrow: "set[str]", wide: "set[str]", depth: int) -> None:
            if isinstance(node, functions):
                fn_narrow: set[str] = set()
                fn_wide: set[str] = set()
                for child in ast.iter_child_nodes(node):
                    walk(child, fn_narrow, fn_wide, 0)
                return
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    dtype = self._dtype_of(node.value)
                    if dtype in self._NARROW:
                        narrow.add(target.id)
                        wide.discard(target.id)
                    elif dtype in self._WIDE:
                        wide.add(target.id)
                        narrow.discard(target.id)
                    else:
                        narrow.discard(target.id)
                        wide.discard(target.id)
            if depth > 0 and isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                target = node.target
                base = target
                while isinstance(base, ast.Subscript):
                    base = base.value
                if isinstance(base, ast.Name):
                    if base.id in narrow:
                        ctx.report(
                            self,
                            node,
                            f"accumulating into float32 array {base.id!r} "
                            "inside a loop; Eq. 4/5 influence sums are "
                            "float64 by contract — allocate the accumulator "
                            "as float64",
                        )
                    elif base.id in wide and any(
                        isinstance(sub, ast.Name) and sub.id in narrow
                        for sub in ast.walk(node.value)
                    ):
                        ctx.report(
                            self,
                            node,
                            "folding float32 terms into a float64 "
                            "accumulator mixes rounding modes across the "
                            "loop; widen the terms before the loop",
                        )
            next_depth = depth + 1 if isinstance(node, loops) else depth
            for child in ast.iter_child_nodes(node):
                walk(child, narrow, wide, next_depth)

        walk(ctx.tree, set(), set(), 0)


class HashSetOpRule(Rule):
    """R604: no hash-based set operations on integer node/edge codes.

    Since numpy 2.3 a ``np.unique`` that returns only the values goes
    through a hash table, and ``union1d``/``setdiff1d``/``intersect1d``
    call it.  On the engine's nearly sorted integer codes that path is
    one to two orders of magnitude slower than
    :func:`repro.graph.csr.sorted_unique` (a sort plus a neighbour mask)
    with the same output.  A ``return_*`` keyword sends
    ``np.unique`` down numpy's sort path, so such calls are not flagged.
    """

    id = "R604"
    name = "hash-set-op"
    summary = "hash-based np.unique/union1d/setdiff1d/intersect1d"
    scope = ("repro.core", "repro.graph", "repro.serve")

    _SET_OPS = frozenset({"union1d", "setdiff1d", "intersect1d"})

    def visit_Call(self, ctx: ModuleContext, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in ("np", "numpy")
        ):
            return
        if func.attr == "unique":
            if any(
                kw.arg is not None and kw.arg.startswith("return_")
                for kw in node.keywords
            ):
                return
        elif func.attr not in self._SET_OPS:
            return
        ctx.report(
            self,
            node,
            f"np.{func.attr}() de-duplicates through numpy's hash table; "
            "use sorted_unique from repro.graph.csr (plus a searchsorted "
            "membership test for a difference or intersection)",
        )


class RelaxedUnseededRandomRule(UnseededRandomRule):
    """R103 under the relaxed profile (scripts/benchmarks/tests).

    Test and bench code may *construct* seeded generators freely
    (``random.Random(0)``, ``np.random.default_rng(seed)``); what stays
    forbidden is the hidden module-level state — ``random.random()``,
    ``random.seed()``, ``np.random.rand()`` and friends.
    """

    _ALLOWED_NP_ATTRS = UnseededRandomRule._ALLOWED_NP_ATTRS | frozenset(
        {"default_rng"}
    )
    _ALLOWED_RANDOM_ATTRS = frozenset({"Random", "SystemRandom"})

    def visit_Import(self, ctx: ModuleContext, node: ast.Import) -> None:
        pass  # importing the modules is fine; using global state is not

    def visit_ImportFrom(self, ctx: ModuleContext, node: ast.ImportFrom) -> None:
        pass

    def visit_Attribute(self, ctx: ModuleContext, node: ast.Attribute) -> None:
        super().visit_Attribute(ctx, node)
        value = node.value
        if (
            isinstance(value, ast.Name)
            and value.id == "random"
            and node.attr not in self._ALLOWED_RANDOM_ATTRS
        ):
            ctx.report(
                self,
                node,
                f"random.{node.attr} uses the shared module-level RNG; "
                "construct a seeded random.Random(seed) instead",
            )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_META_CATALOG: tuple[tuple[str, str, str], ...] = (
    ("R001", "unknown-suppression", "suppression names a rule id that does not exist"),
    ("R002", "missing-reason", "suppression lacks the mandatory `-- reason`"),
    ("R003", "unused-suppression", "suppression matched no violation (stale)"),
)

_RULE_CLASSES: tuple[type[Rule], ...] = (
    SetIterationRule,
    BuiltinHashRule,
    UnseededRandomRule,
    BackendKwargRule,
    BackendDispatchRule,
    MutableDefaultRule,
    BareExceptRule,
    SpanContextRule,
    TraceContextKwargRule,
    AnnotationCoverageRule,
    FloatEqualityRule,
    ResourceLifecycleRule,
    PreForkConcurrencyRule,
    WorkerGlobalWriteRule,
    ArenaEscapeRule,
    Int32WideningRule,
    StableSortRule,
    AccumulationDtypeRule,
    HashSetOpRule,
)

# The relaxed profile for scripts/benchmarks/tests: style rules stay
# home, but hash-order determinism and the resource/concurrency family
# apply everywhere (a leaked shm block in a benchmark still poisons the
# host).  R103 is swapped for its relaxed variant, which tolerates
# explicitly seeded generator construction.
_RELAXED_RULE_CLASSES: tuple[type[Rule], ...] = (
    SetIterationRule,
    BuiltinHashRule,
    RelaxedUnseededRandomRule,
    ResourceLifecycleRule,
    PreForkConcurrencyRule,
    WorkerGlobalWriteRule,
    ArenaEscapeRule,
)

ALL_RULE_IDS: tuple[str, ...] = tuple(
    [meta_id for meta_id, _, _ in _META_CATALOG]
    + [cls.id for cls in _RULE_CLASSES]
)

RELAXED_RULE_IDS: tuple[str, ...] = tuple(
    cls.id for cls in _RELAXED_RULE_CLASSES
)


def default_rules(only: "Sequence[str] | None" = None) -> list[Rule]:
    """Fresh instances of the rule set.

    Args:
        only: restrict to these rule ids (unknown ids raise ValueError).
    """
    if only is not None:
        unknown = sorted(set(only) - set(ALL_RULE_IDS))
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(unknown)}")
    return [
        cls()
        for cls in _RULE_CLASSES
        if only is None or cls.id in only
    ]


def relaxed_rules() -> list[Rule]:
    """Fresh instances of the relaxed profile, scoped to match any module.

    Used for ``scripts/``, ``benchmarks/`` and ``tests/`` where module
    names do not live under the ``repro`` package; each instance's scope
    is widened to the ``("*",)`` sentinel so :meth:`Rule.applies_to`
    matches everything the caller feeds it.
    """
    rules: list[Rule] = []
    for cls in _RELAXED_RULE_CLASSES:
        rule = cls()
        rule.scope = ("*",)
        rules.append(rule)
    return rules


def rule_catalog() -> Iterator[tuple[str, str, str]]:
    """Yield ``(id, name, summary)`` for every rule, meta rules included."""
    yield from _META_CATALOG
    for cls in _RULE_CLASSES:
        yield (cls.id, cls.name, cls.summary)
