"""Per-function control-flow graphs for the dataflow lint rules.

The CFG is statement-granular and deliberately conservative: every
statement that *may* raise gets an exception edge to the innermost
enclosing handler chain (or to the synthetic :data:`RAISE` exit), so a
path search can answer "can control leave this function between
statement A and statement B?" — the question behind the resource
lifecycle rule (R501).  Normal edges and exception edges are kept in
separate adjacency sets because a resource *creation* statement whose
own call raises never produced the resource, while any later statement
raising leaks it.

Precision notes (all over-approximations, never under):

* ``finally`` exits edge to both the normal successor and the
  exceptional exit — a MAY-reach query through a ``finally`` block can
  therefore take paths a real execution could not, which only produces
  false positives the rules accept by charter.
* ``break``/``continue`` jump straight to the loop boundary without
  routing through enclosing ``finally`` blocks.
* ``match`` statements are treated as an opaque branch over the cases.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import Iterator, Sequence

__all__ = ["CFG", "ENTRY", "EXIT", "RAISE", "build_cfg", "own_exprs"]

#: synthetic node ids shared by every CFG.
ENTRY = 0
EXIT = 1
RAISE = 2

#: statement types that cannot raise at runtime (defining a function or
#: class *can* raise in exotic metaclass cases; close enough for lint).
_NON_RAISING = (
    ast.Pass,
    ast.Break,
    ast.Continue,
    ast.Global,
    ast.Nonlocal,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
)


@dataclasses.dataclass
class CFG:
    """Statement-level control-flow graph of one function body."""

    #: node id -> statement (``None`` for the synthetic entry/exit/raise
    #: nodes and for internal join points).
    nodes: list["ast.stmt | None"]
    #: normal control transfer edges.
    succ: list[set[int]]
    #: exception edges (taken only when the node's execution raises).
    exc: list[set[int]]

    def statement_nodes(self) -> Iterator[tuple[int, ast.stmt]]:
        """Yield ``(node_id, stmt)`` for every real statement node."""
        for index, stmt in enumerate(self.nodes):
            if stmt is not None:
                yield index, stmt


def own_exprs(stmt: ast.stmt) -> Iterator[ast.AST]:
    """Expressions evaluated *by this statement itself*.

    Compound statements own only their header (test / iterable / context
    items); their bodies are separate CFG nodes.  Rules matching node
    content must use this instead of ``ast.walk(stmt)`` or a pattern in
    a nested statement would be attributed to its enclosing compound.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        yield stmt.test
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield stmt.target
        yield stmt.iter
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield item.context_expr
            if item.optional_vars is not None:
                yield item.optional_vars
    elif isinstance(stmt, ast.Try):
        return
    elif isinstance(stmt, ast.Match):
        yield stmt.subject
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return
    else:
        yield stmt


class _Builder:
    def __init__(self) -> None:
        self.nodes: list["ast.stmt | None"] = [None, None, None]
        self.succ: list[set[int]] = [set(), set(), set()]
        self.exc: list[set[int]] = [set(), set(), set()]
        #: innermost-first stack of exception landing pads.
        self.exc_targets: list[tuple[int, ...]] = [(RAISE,)]
        #: entry nodes of enclosing ``finally`` blocks (innermost last).
        self.finally_entries: list[int] = []
        #: per-loop collected break exits (innermost last).
        self.break_exits: list[set[int]] = []
        #: per-loop head nodes for ``continue`` (innermost last).
        self.loop_heads: list[int] = []

    def new_node(self, stmt: "ast.stmt | None") -> int:
        self.nodes.append(stmt)
        self.succ.append(set())
        self.exc.append(set())
        return len(self.nodes) - 1

    def connect(self, sources: "set[int] | Sequence[int]", target: int) -> None:
        for source in sources:
            self.succ[source].add(target)

    def add_exception_edges(self, node: int) -> None:
        for target in self.exc_targets[-1]:
            self.exc[node].add(target)

    # ------------------------------------------------------------------
    def statements(self, body: Sequence[ast.stmt], frontier: set[int]) -> set[int]:
        """Wire ``body`` after ``frontier``; return the new frontier."""
        for stmt in body:
            frontier = self.statement(stmt, frontier)
        return frontier

    def statement(self, stmt: ast.stmt, frontier: set[int]) -> set[int]:
        if isinstance(stmt, (ast.If,)):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        return self._simple(stmt, frontier)

    def _simple(self, stmt: ast.stmt, frontier: set[int]) -> set[int]:
        node = self.new_node(stmt)
        self.connect(frontier, node)
        if not isinstance(stmt, _NON_RAISING):
            self.add_exception_edges(node)
        if isinstance(stmt, ast.Return):
            # A return routes through the innermost finally when one
            # encloses it, otherwise straight to EXIT.
            target = self.finally_entries[-1] if self.finally_entries else EXIT
            self.succ[node].add(target)
            return set()
        if isinstance(stmt, ast.Raise):
            # Exception edges above already point at the landing pads;
            # a raise has no normal successor.
            self.add_exception_edges(node)
            return set()
        if isinstance(stmt, ast.Break):
            if self.break_exits:
                self.break_exits[-1].add(node)
            return set()
        if isinstance(stmt, ast.Continue):
            if self.loop_heads:
                self.succ[node].add(self.loop_heads[-1])
            return set()
        return {node}

    def _if(self, stmt: ast.If, frontier: set[int]) -> set[int]:
        node = self.new_node(stmt)
        self.connect(frontier, node)
        self.add_exception_edges(node)
        then_exits = self.statements(stmt.body, {node})
        if stmt.orelse:
            else_exits = self.statements(stmt.orelse, {node})
        else:
            else_exits = {node}
        return then_exits | else_exits

    def _loop(self, stmt: "ast.While | ast.For | ast.AsyncFor", frontier: set[int]) -> set[int]:
        head = self.new_node(stmt)
        self.connect(frontier, head)
        self.add_exception_edges(head)
        self.break_exits.append(set())
        self.loop_heads.append(head)
        body_exits = self.statements(stmt.body, {head})
        self.connect(body_exits, head)
        self.loop_heads.pop()
        breaks = self.break_exits.pop()
        if stmt.orelse:
            exits = self.statements(stmt.orelse, {head})
        else:
            exits = {head}
        return exits | breaks

    def _with(self, stmt: "ast.With | ast.AsyncWith", frontier: set[int]) -> set[int]:
        node = self.new_node(stmt)
        self.connect(frontier, node)
        self.add_exception_edges(node)
        return self.statements(stmt.body, {node})

    def _match(self, stmt: ast.Match, frontier: set[int]) -> set[int]:
        node = self.new_node(stmt)
        self.connect(frontier, node)
        self.add_exception_edges(node)
        exits: set[int] = {node}
        for case in stmt.cases:
            exits |= self.statements(case.body, {node})
        return exits

    def _try(self, stmt: ast.Try, frontier: set[int]) -> set[int]:
        outer_targets = self.exc_targets[-1]
        finally_entry: "int | None" = None
        finally_exits: set[int] = set()
        if stmt.finalbody:
            finally_entry = self.new_node(None)
            self.finally_entries.append(finally_entry)
            finally_exits = self.statements(stmt.finalbody, {finally_entry})
            self.finally_entries.pop()
            # Conservatively, a finally block both falls through and
            # re-raises (it may be on an exception path).
            for node in finally_exits:
                for target in outer_targets:
                    self.exc[node].add(target)

        handler_nodes: list[int] = []
        handler_exits: set[int] = set()
        after_finally = (finally_entry,) if finally_entry is not None else outer_targets
        for handler in stmt.handlers:
            node = self.new_node(handler)  # type: ignore[arg-type]
            handler_nodes.append(node)
            # No-match propagation / raise inside the match test.
            for target in after_finally:
                self.exc[node].add(target)
            self.exc_targets.append(after_finally)
            handler_exits |= self.statements(handler.body, {node})
            self.exc_targets.pop()

        if handler_nodes:
            body_targets: tuple[int, ...] = tuple(handler_nodes)
            if finally_entry is not None:
                body_targets = body_targets + (finally_entry,)
        else:
            body_targets = after_finally
        self.exc_targets.append(body_targets)
        body_exits = self.statements(stmt.body, frontier)
        self.exc_targets.pop()

        self.exc_targets.append(after_finally)
        else_exits = self.statements(stmt.orelse, body_exits) if stmt.orelse else body_exits
        self.exc_targets.pop()

        exits = else_exits | handler_exits
        if finally_entry is not None:
            self.connect(exits, finally_entry)
            return set(finally_exits)
        return exits


def build_cfg(fn: "ast.FunctionDef | ast.AsyncFunctionDef") -> CFG:
    """Build the CFG of ``fn``'s body (nested defs are opaque nodes)."""
    builder = _Builder()
    exits = builder.statements(fn.body, {ENTRY})
    builder.connect(exits, EXIT)
    return CFG(nodes=builder.nodes, succ=builder.succ, exc=builder.exc)
