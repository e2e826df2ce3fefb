"""Fork-safety rules (REP1xx): the engine's pickling and shared-state contract.

The sharded engine (PR 1) promises that the same worker callable runs
unchanged on the serial, thread, and process backends.  That only holds
when every task function handed to a submission path is picklable by
reference — a module-level function — and when worker functions touch no
module-level mutable state (scan folding must stay associative with no
hidden sharing; paper Sections 3.2/4).  Mining itself now runs in one
process; the rules stay for any code that submits work to a pool.

Submission paths recognized statically:

* calls to ``run_shards(backend, fn, tasks)`` — the canonical fan-out;
* ``<pool-like>.submit(fn, ...)`` — executor submission;
* ``<backend/pool/executor-like>.map(fn, tasks)`` — backend mapping (the
  receiver name must look pool-like, so builtin ``map`` idioms are not
  flagged).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.devtools.context import (
    ModuleContext,
    call_keyword,
    dotted_name,
    iter_assigned_names,
)
from repro.devtools.effects import EFFECT_NAMES, Effect, effect_names
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import ProjectRule, Rule, register

if TYPE_CHECKING:
    from repro.devtools.project import ProjectContext

#: Plain-function submission sinks: callee name -> index of the task callable.
SUBMISSION_FUNCTIONS = {"run_shards": 1}

#: Method submission sinks: attribute name -> index of the task callable.
SUBMISSION_METHODS = {"submit": 0, "map": 0}

#: ``.map`` only counts as a sink when its receiver looks like a pool.
_POOLISH_RE = re.compile(r"backend|pool|executor", re.IGNORECASE)



def _submission_callable(call: ast.Call) -> ast.expr | None:
    """The task-callable argument of a call, if the call is a sink."""
    index: int | None = None
    if isinstance(call.func, ast.Name):
        index = SUBMISSION_FUNCTIONS.get(call.func.id)
    elif isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        if attr in SUBMISSION_FUNCTIONS:
            index = SUBMISSION_FUNCTIONS[attr]
        elif attr in SUBMISSION_METHODS:
            if attr == "map":
                receiver = dotted_name(call.func.value)
                if receiver is None or not _POOLISH_RE.search(receiver):
                    return None
            index = SUBMISSION_METHODS[attr]
    if index is None:
        return None
    if len(call.args) > index:
        return call.args[index]
    return call_keyword(call, "fn")


class _SubmissionScan:
    """Shared single-pass scan used by the three task-callable rules."""

    def __init__(self, tree: ast.Module):
        self.lambda_aliases: set[str] = set()
        self.local_functions: set[str] = set()
        self.module_functions: set[str] = set()
        self.sinks: list[tuple[ast.Call, ast.expr]] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_functions.add(node.name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if inner is node:
                        continue
                    if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.local_functions.add(inner.name)
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Lambda):
                for name in iter_assigned_names(node.targets[0]):
                    self.lambda_aliases.add(name.id)
            if isinstance(node, ast.Call):
                candidate = _submission_callable(node)
                if candidate is not None:
                    self.sinks.append((node, candidate))


def _scan(ctx: ModuleContext) -> _SubmissionScan:
    return _SubmissionScan(ctx.tree)


@register
class LambdaTaskRule(Rule):
    """REP101: a lambda handed to an executor/worker submission path."""

    id = "REP101"
    name = "lambda-task"
    severity = Severity.ERROR
    rationale = (
        "Lambdas are unpicklable; a lambda task works on the serial and "
        "thread backends but breaks ProcessBackend, the engine's default "
        "for workers > 1 — exactly the silent backend-dependent failure "
        "the shard contract forbids."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        scan = _scan(ctx)
        for _call, candidate in scan.sinks:
            if isinstance(candidate, ast.Lambda):
                yield self.finding(
                    ctx,
                    candidate.lineno,
                    candidate.col_offset,
                    "lambda passed to an engine submission path; use a "
                    "module-level function so the task pickles by reference",
                )
            elif (
                isinstance(candidate, ast.Name)
                and candidate.id in scan.lambda_aliases
            ):
                yield self.finding(
                    ctx,
                    candidate.lineno,
                    candidate.col_offset,
                    f"{candidate.id!r} is bound to a lambda and passed to an "
                    "engine submission path; define it with 'def' at module "
                    "level",
                )


@register
class LocalFunctionTaskRule(Rule):
    """REP102: a nested/local function handed to a submission path."""

    id = "REP102"
    name = "local-function-task"
    severity = Severity.ERROR
    rationale = (
        "Functions defined inside another function (closures included) "
        "pickle by qualified name lookup, which fails for non-module "
        "scopes; such tasks die on the process backend only, after "
        "passing every serial test."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        scan = _scan(ctx)
        for _call, candidate in scan.sinks:
            if (
                isinstance(candidate, ast.Name)
                and candidate.id in scan.local_functions
                and candidate.id not in scan.module_functions
            ):
                yield self.finding(
                    ctx,
                    candidate.lineno,
                    candidate.col_offset,
                    f"locally-defined function {candidate.id!r} passed to an "
                    "engine submission path; move it to module level",
                )


@register
class BoundMethodTaskRule(Rule):
    """REP103: a bound method handed to a submission path."""

    id = "REP103"
    name = "bound-method-task"
    severity = Severity.ERROR
    rationale = (
        "A bound method drags its whole instance through pickle; miners "
        "and backends hold unpicklable state (pools, open series "
        "wrappers), so submitting self.<method> couples shard tasks to "
        "parent-process state the worker must not share."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        scan = _scan(ctx)
        for _call, candidate in scan.sinks:
            if not isinstance(candidate, ast.Attribute):
                continue
            base = candidate.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                yield self.finding(
                    ctx,
                    candidate.lineno,
                    candidate.col_offset,
                    f"bound method {base.id}.{candidate.attr} passed to an "
                    "engine submission path; use a module-level function "
                    "taking the state as an explicit picklable task",
                )
            elif isinstance(base, ast.Call):
                yield self.finding(
                    ctx,
                    candidate.lineno,
                    candidate.col_offset,
                    f"method {candidate.attr!r} of a fresh instance passed "
                    "to an engine submission path; tasks must be "
                    "module-level functions",
                )


@register
class TransitiveTaskHazardRule(ProjectRule):
    """REP111: a submitted task callable transitively carries a hazard.

    The deep form of the REP10x family: the callable handed to
    ``run_shards``/``submit``/``<pool>.map`` is itself a respectable
    module-level function, but somewhere down its call chain it forks,
    acquires a lock, mutates module-level state, or resolves to a nested
    closure through a ``functools.partial`` wrapper — hazards a worker
    process must not carry and a per-module scan cannot see.
    """

    id = "REP111"
    name = "task-transitive-hazard"
    severity = Severity.ERROR
    rationale = (
        "A worker task that transitively forks can fork-bomb the process "
        "backend; one that acquires locks can deadlock a forked child; "
        "one that mutates module globals silently diverges across "
        "workers; and a partial over a closure dies in pickle. The "
        "hazard is the same whether it sits in the task or three helpers "
        "below it — only the call graph can tell."
    )

    #: Hazards that propagate through the task's call chain.
    TRANSITIVE_BITS = (
        Effect.FORKS,
        Effect.ACQUIRES_LOCK,
        Effect.MUTATES_GLOBAL,
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        inference = project.inference
        graph = project.graph
        for fn in graph.functions.values():
            for node in graph._own_body_walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                candidate = _submission_callable(node)
                if candidate is None:
                    continue
                target_key = graph.resolve_reference(fn, candidate)
                if target_key is None:
                    continue
                target = graph.functions[target_key]
                effects = inference.effects_of(target_key)
                if target.is_nested and Effect.UNPICKLABLE_CLOSURE & effects:
                    names = (
                        f" (captures {', '.join(sorted(target.free_names))})"
                        if target.free_names
                        else ""
                    )
                    yield self.project_finding(
                        fn.path,
                        candidate.lineno,
                        candidate.col_offset,
                        f"task resolves to nested function "
                        f"{target.display}{names}; nested functions never "
                        "pickle by reference — move it to module level",
                    )
                hazards = Effect.NONE
                for bit in self.TRANSITIVE_BITS:
                    if bit & effects:
                        hazards |= bit
                for bit in self.TRANSITIVE_BITS:
                    if not bit & hazards:
                        continue
                    chain, source = inference.chain(target_key, bit)
                    yield self.project_finding(
                        fn.path,
                        candidate.lineno,
                        candidate.col_offset,
                        f"submitted task transitively reaches "
                        f"{EFFECT_NAMES[bit]}: {' -> '.join(chain)} -> "
                        f"{source}; workers must stay "
                        f"{'/'.join(effect_names(hazards))}-free or the "
                        "boundary must be declared with "
                        "'# repro: effect[...] -- reason'",
                    )
