"""API hygiene rules (REP4xx).

Hygiene here is not style: each rule guards a way the package's public
surface or hot paths can silently rot — ``__all__`` drifting from what a
module actually exports, mutable defaults aliasing state across calls,
exception handlers swallowing the engine's typed error contract, and
hot-path value classes paying dict-per-instance costs the tree benchmarks
assume away.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from pathlib import Path

from repro.devtools.context import (
    MUTABLE_FACTORIES,
    ModuleContext,
    dotted_name,
    is_type_checking_block,
    iter_assigned_names,
    iter_lazy_exports,
    module_source_path,
)
from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import Rule, register

#: Base classes exempting a class from the ``__slots__`` requirement.
_SLOTS_EXEMPT_BASES = frozenset(
    {
        "ABC",
        "BaseException",
        "Enum",
        "Exception",
        "Flag",
        "IntEnum",
        "IntFlag",
        "NamedTuple",
        "Protocol",
        "StrEnum",
        "TypedDict",
    }
)


def _module_bindings(ctx: ModuleContext) -> dict[str, int]:
    """Names bound at module level, mapped to the line binding them."""
    bindings: dict[str, int] = {}
    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bindings.setdefault(node.name, node.lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                for name in iter_assigned_names(target):
                    bindings.setdefault(name.id, node.lineno)
        elif isinstance(node, ast.AnnAssign):
            for name in iter_assigned_names(node.target):
                bindings.setdefault(name.id, node.lineno)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                bindings.setdefault(bound, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bindings.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditionally-bound names (fallback imports, version
            # switches) still count as module bindings; names imported
            # only under TYPE_CHECKING do not exist at run time.
            parts = node.orelse if is_type_checking_block(node) else [node]
            for inner in (sub for part in parts for sub in ast.walk(part)):
                if isinstance(inner, ast.ImportFrom):
                    for alias in inner.names:
                        if alias.name != "*":
                            bindings.setdefault(
                                alias.asname or alias.name, inner.lineno
                            )
                elif isinstance(inner, ast.Import):
                    for alias in inner.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        bindings.setdefault(bound, inner.lineno)
    return bindings


def _names_bound_in(ctx: ModuleContext, path: Path) -> frozenset[str]:
    """The module-level names of a lazy table's target module.

    The target is read from the run's parsed files when it is one of
    them, and parsed from disk only when it is not (a lint of some files
    of a package).
    """
    target = ctx.parsed.get(path.resolve())
    if target is None:
        source = path.read_text(encoding="utf-8")
        target = ModuleContext.from_source(source, path=str(path))
    return frozenset(_module_bindings(target))


def _public_names(
    ctx: ModuleContext, lazy: list[tuple[str, str, int]]
) -> dict[str, int]:
    """Module-level names that belong in ``__all__`` if one is declared.

    Classes, functions, and constants defined here always count; imported
    names count only in package ``__init__`` modules, whose whole purpose
    is re-export.  A lazy package re-exports through its table (``lazy``),
    so there the table's names count and its imports are plumbing.
    """
    public: dict[str, int] = {name: line for name, _, line in lazy}
    reexports_by_import = ctx.is_package_init and not lazy
    for node in ctx.tree.body:
        names: list[tuple[str, int]] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
        elif isinstance(node, ast.Assign):
            names = [
                (name.id, node.lineno)
                for target in node.targets
                for name in iter_assigned_names(target)
            ]
        elif isinstance(node, ast.AnnAssign):
            names = [
                (name.id, node.lineno)
                for name in iter_assigned_names(node.target)
            ]
        elif reexports_by_import and isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            names = [
                (alias.asname or alias.name, node.lineno)
                for alias in node.names
                if alias.name != "*"
            ]
        for name, lineno in names:
            if not name.startswith("_"):
                public.setdefault(name, lineno)
    return public


def _all_declaration(ctx: ModuleContext) -> tuple[ast.Assign, list[str]] | None:
    """The module's literal ``__all__`` assignment, if statically readable."""
    for node in ctx.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        if not isinstance(node.value, (ast.List, ast.Tuple)):
            return None
        entries: list[str] = []
        for element in node.value.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            entries.append(element.value)
        return node, entries
    return None


@register
class AllDriftRule(Rule):
    """REP401: ``__all__`` out of sync with the module's public names."""

    id = "REP401"
    name = "all-drift"
    severity = Severity.ERROR
    rationale = (
        "__all__ is the package's published API contract: a stale entry "
        "breaks 'from repro import *' and re-export type checking, and an "
        "unlisted public name ships an accidental API that no deprecation "
        "policy covers."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        lazy = list(iter_lazy_exports(ctx.tree))
        yield from self._check_lazy_table(ctx, lazy)
        declaration = _all_declaration(ctx)
        if declaration is None:
            return
        node, entries = declaration
        bound = set(_module_bindings(ctx))
        bound.update(name for name, _, _ in lazy)
        for entry in entries:
            if entry not in bound:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"__all__ lists {entry!r} but the module never binds it",
                )
        listed = set(entries)
        for name, lineno in sorted(_public_names(ctx, lazy).items()):
            if name not in listed and name != "__all__":
                yield self.finding(
                    ctx,
                    lineno,
                    0,
                    f"public name {name!r} is not listed in __all__; add it "
                    "or rename it with a leading underscore",
                )

    def _check_lazy_table(
        self, ctx: ModuleContext, lazy: list[tuple[str, str, int]]
    ) -> Iterator[Finding]:
        """Each table entry names a module that binds it, and the
        ``TYPE_CHECKING`` imports repeat the table exactly."""
        if not lazy:
            return
        mirror: dict[str, tuple[str, int]] = {}
        for node in ctx.tree.body:
            if not is_type_checking_block(node):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom) and inner.module:
                    for alias in inner.names:
                        mirror[alias.asname or alias.name] = (
                            inner.module, inner.lineno,
                        )
        table = {name: module for name, module, _ in lazy}
        bound: dict[Path, frozenset[str]] = {}
        for name, module, line in lazy:
            path = module_source_path(ctx, module)
            if path is not None and path not in bound:
                bound[path] = _names_bound_in(ctx, path)
            if path is None or name not in bound[path]:
                where = "is not in this source tree" if path is None else (
                    "never binds it"
                )
                yield self.finding(
                    ctx, line, 0,
                    f"lazy table maps {name!r} to {module!r}, which {where}",
                )
            if mirror.get(name, (None, 0))[0] != module:
                yield self.finding(
                    ctx, line, 0,
                    f"lazy table entry {name!r} has no matching 'from "
                    f"{module} import {name}' under TYPE_CHECKING",
                )
        for name, (module, line) in sorted(mirror.items()):
            if name not in table:
                yield self.finding(
                    ctx, line, 0,
                    f"{name!r} is imported under TYPE_CHECKING but missing "
                    "from the lazy table, so it does not exist at run time",
                )


@register
class MutableDefaultRule(Rule):
    """REP402: mutable default argument values."""

    id = "REP402"
    name = "mutable-default"
    severity = Severity.ERROR
    rationale = (
        "A mutable default is evaluated once and shared by every call — "
        "in a package whose miners are re-entered per shard, that is "
        "cross-call (and cross-test) state leakage.  Default to None and "
        "construct inside the function."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default.lineno,
                        default.col_offset,
                        f"mutable default argument in {node.name}(); use "
                        "None and build the value inside the function",
                    )

    @staticmethod
    def _is_mutable(node: ast.expr) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is not None:
                return callee.split(".")[-1] in MUTABLE_FACTORIES
        return False


@register
class BareExceptRule(Rule):
    """REP403: bare ``except:`` clauses."""

    id = "REP403"
    name = "bare-except"
    severity = Severity.ERROR
    rationale = (
        "bare except catches SystemExit/KeyboardInterrupt and hides "
        "worker-pool crashes the engine's degradation path is designed to "
        "surface; catch the narrowest type, or Exception with an explicit "
        "suppression and reason."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    "bare 'except:'; name the exception types (the package "
                    "raises typed ReproError subclasses)",
                )


@register
class OverbroadExceptRule(Rule):
    """REP404: ``except Exception``/``BaseException`` handlers."""

    id = "REP404"
    name = "overbroad-except"
    severity = Severity.ERROR
    rationale = (
        "The package's error contract is typed (ReproError and "
        "subclasses); except Exception swallows genuine bugs such as a "
        "non-associative merge raising TypeError.  Where broad capture IS "
        "the contract (per-shard capture-and-retry in the executor), the "
        "site must say so via a suppression with a reason."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            exc_types = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for exc_type in exc_types:
                name = dotted_name(exc_type)
                if name is None:
                    continue
                terminal = name.split(".")[-1]
                if terminal in ("Exception", "BaseException"):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"overbroad 'except {terminal}'; catch specific "
                        "types, or document the broad capture with a "
                        "suppression reason",
                    )


@register
class MissingSlotsRule(Rule):
    """REP405: hot-path classes in core/tree without ``__slots__``."""

    id = "REP405"
    name = "missing-slots"
    severity = Severity.WARNING
    rationale = (
        "core/ and tree/ classes are instantiated per pattern and per "
        "tree node — the structures the paper's space analysis (Section "
        "4.1) bounds.  A per-instance __dict__ multiplies that footprint "
        "and slows attribute access on the counting hot path; __slots__ "
        "(or @dataclass(slots=True)) keeps the bound honest."
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not (ctx.in_package("repro.core") or ctx.in_package("repro.tree")):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef) and not self._is_exempt(node):
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"class {node.name} in a hot-path package defines no "
                    "__slots__; add __slots__ or @dataclass(slots=True)",
                )

    @staticmethod
    def _is_exempt(node: ast.ClassDef) -> bool:
        if node.name.endswith(("Error", "Exception", "Warning")):
            return True
        for base in node.bases:
            name = dotted_name(base)
            if name is not None:
                terminal = name.split(".")[-1]
                if (
                    terminal in _SLOTS_EXEMPT_BASES
                    or terminal.endswith(("Error", "Exception", "Warning"))
                ):
                    return True
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call):
                callee = dotted_name(decorator.func)
                if callee is not None and callee.split(".")[-1] == "dataclass":
                    for keyword in decorator.keywords:
                        if (
                            keyword.arg == "slots"
                            and isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            return True
        for statement in node.body:
            targets: list[ast.expr] = []
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return True
        return False
