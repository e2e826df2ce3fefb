"""Durability-tier rules (REP10xx).

The crash-safety argument of :mod:`repro.durability` is made exactly once
— in :func:`~repro.durability.files.atomic_write`, whose
write-temp + fsync + rename + directory-fsync sequence guarantees a
reader sees either the old state file or the new one.  Every durable
state file written *around* that helper silently reopens the argument: a
plain truncating ``open(..., "w")`` or ``Path.write_text`` leaves a torn
half-file behind any kill that lands mid-write, and the corruption only
surfaces at the next recovery, far from the bug.

REP1001 makes the routing mechanical: inside the packages that own
durable state (``repro.durability``, ``repro.kernels``, ``repro.serve``,
``repro.streaming``), opening a file in a truncating
write mode or calling ``write_text``/``write_bytes`` is a finding.
Append-mode opens are exempt — the journal/WAL idiom is append-only by
design, and a torn trailing line is exactly what the recovery paths are
built to absorb.  ``r+`` opens are exempt too: in-place truncation of a
torn tail is a recovery action, not a state write.  The defining module
(``repro.durability.files``) is exempt as the place the argument lives —
including its deliberate fault-injection writes.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from typing import TYPE_CHECKING

from repro.devtools.findings import Finding, Severity
from repro.devtools.registry import ProjectRule, register

if TYPE_CHECKING:
    from repro.devtools.project import ProjectContext

#: Packages whose files hold durable state.
DURABLE_PACKAGES = (
    "repro.durability",
    "repro.kernels",
    "repro.serve",
    "repro.streaming",
)

#: The module allowed to write state files directly: the atomic helper.
DEFINING_MODULE = "repro.durability.files"

#: Direct-write methods that bypass the atomic publish sequence.
DIRECT_WRITE_METHODS = frozenset({"write_text", "write_bytes"})


def _mode_argument(call: ast.Call) -> str | None:
    """The literal mode string of an ``open``-shaped call, if present.

    Covers both the builtin (``open(path, "w")``, mode second) and the
    ``Path.open("w")`` method (mode first).  A non-literal mode returns
    ``None`` — the rule only fires on provably-truncating opens.
    """
    is_builtin = isinstance(call.func, ast.Name) and call.func.id == "open"
    is_method = (
        isinstance(call.func, ast.Attribute) and call.func.attr == "open"
    )
    if not (is_builtin or is_method):
        return None
    position = 1 if is_builtin else 0
    if len(call.args) > position:
        node = call.args[position]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None
    for keyword in call.keywords:
        if keyword.arg == "mode":
            if isinstance(keyword.value, ast.Constant) and isinstance(
                keyword.value.value, str
            ):
                return keyword.value.value
            return None
    return "r" if is_builtin or is_method else None


@register
class DirectStateWriteRule(ProjectRule):
    """REP1001: a durable-state package writes a file non-atomically."""

    id = "REP1001"
    name = "non-atomic-state-write"
    severity = Severity.WARNING
    rationale = (
        "Durable state files must go through the atomic-write primitive "
        "(write-temp + fsync + rename + directory fsync) so a kill can "
        "never leave a torn half-file. Inside the durable-state packages, "
        "truncating opens ('w'/'x' modes) and Path.write_text/write_bytes "
        "bypass that argument; use repro.durability.atomic_write (or "
        "SnapshotWriter for checksummed state), or append mode for "
        "journal/WAL-idiom logs."
    )

    def check_project(self, project: "ProjectContext") -> Iterator[Finding]:
        for info in project.graph.modules.values():
            ctx = info.ctx
            if ctx.module == DEFINING_MODULE:
                continue
            if not any(
                ctx.in_package(package) for package in DURABLE_PACKAGES
            ):
                continue
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in DIRECT_WRITE_METHODS
                ):
                    yield self.project_finding(
                        ctx.path,
                        node.lineno,
                        node.col_offset,
                        f".{node.func.attr}() writes a state file in "
                        "place; route it through atomic_write so the "
                        "write is atomic",
                    )
                    continue
                mode = _mode_argument(node)
                if mode is not None and mode[:1] in ("w", "x"):
                    yield self.project_finding(
                        ctx.path,
                        node.lineno,
                        node.col_offset,
                        f"open(..., {mode!r}) truncates a state file in "
                        "place; use atomic_write for atomic publishes "
                        "or append mode for journal/WAL logs",
                    )
