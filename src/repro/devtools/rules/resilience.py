"""Resilience rules (REP6xx): budgeted sleeping and bounded retries.

Deadline accounting only works if every pause in the package is visible
to it.  ``repro.serve.deadline``, home of the request
:class:`~repro.serve.deadline.Deadline`, is the one module allowed to
block — and today it never sleeps; it bounds awaits instead — so a stray
``time.sleep`` anywhere else is latency the deadline cannot see (REP601).
Similarly, a ``while True`` loop that swallows exceptions and never exits
is an unbounded retry: under a persistent fault it spins forever where a
bounded loop would have given up after its attempt budget (REP602).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.context import ModuleContext, dotted_name
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import Rule, register

#: The only module allowed to call ``time.sleep``.
SANCTIONED_SLEEP_MODULE = "repro.serve.deadline"


class _TimeImports:
    """Aliases under which stdlib ``time`` (and its ``sleep``) are bound."""

    def __init__(self, tree: ast.Module):
        self.modules: set[str] = set()
        self.sleeps: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        self.modules.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        self.sleeps.add(alias.asname or "sleep")


@register
class StraySleepRule(Rule):
    """REP601: ``time.sleep`` outside ``repro.serve.deadline``."""

    id = "REP601"
    name = "stray-sleep"
    severity = Severity.ERROR
    rationale = (
        "Deadlines can only budget pauses they can see; a blocking sleep "
        "belongs in repro.serve.deadline, beside the budget that must "
        "account for it, where the pause stays auditable.  A raw "
        "time.sleep elsewhere is invisible latency under a wall-clock "
        "budget."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        if ctx.module == SANCTIONED_SLEEP_MODULE:
            return
        imports = _TimeImports(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            path = dotted_name(node.func)
            if path is None:
                continue
            parts = path.split(".")
            stray = (
                len(parts) == 2
                and parts[0] in imports.modules
                and parts[1] == "sleep"
            ) or (len(parts) == 1 and parts[0] in imports.sleeps)
            if stray:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"raw {path}() outside {SANCTIONED_SLEEP_MODULE}; "
                    "deadlines cannot account for it — bound the wait "
                    "with a Deadline instead",
                )


def _loop_escapes(loop: ast.While) -> bool:
    """True when a ``while`` body can leave the loop (break/return/raise
    outside any handler, ignoring nested function definitions)."""
    stack: list[ast.AST] = list(loop.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Break, ast.Return)):
            return True
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.While, ast.For)
        ):
            # Nested scopes and loops consume their own break/return.
            continue
        stack.extend(ast.iter_child_nodes(node))
    return False


def _swallows_exceptions(loop: ast.While) -> bool:
    """True when the loop body contains a try/except whose handlers keep
    the loop spinning (no break/return/bare raise inside the handler)."""
    for node in ast.walk(loop):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not isinstance(node, ast.Try) or not node.handlers:
            continue
        for handler in node.handlers:
            escapes = any(
                isinstance(inner, (ast.Break, ast.Return, ast.Raise))
                for child in handler.body
                for inner in ast.walk(child)
            )
            if not escapes:
                return True
    return False


@register
class UnboundedRetryLoopRule(Rule):
    """REP602: a ``while True`` retry loop with no exit and swallowed
    exceptions."""

    id = "REP602"
    name = "unbounded-retry-loop"
    severity = Severity.ERROR
    rationale = (
        "A while-True loop that catches exceptions without ever breaking, "
        "returning, or re-raising retries forever: under a persistent "
        "fault it spins where an attempt budget would have been exhausted "
        "and failed loudly.  Bound the loop on an attempt count or "
        "re-raise from the handler."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.While):
                continue
            test = node.test
            if not (isinstance(test, ast.Constant) and test.value is True):
                continue
            if _loop_escapes(node):
                continue
            if _swallows_exceptions(node):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "unbounded while-True retry loop: exceptions are "
                    "swallowed and nothing exits the loop; bound it with an "
                    "attempt budget",
                )
